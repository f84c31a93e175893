"""Acceptance battery: nine pinned criteria, one test (and one pass/fail
line under `pytest -v`) per criterion.

Full-scale results need GPU-weeks and the original corpus, so the battery
combines exact small-scale properties (gradients, clustering optimality,
rank-test exactness, byte determinism) with scaled-down trend reproduction
on generated corpora (learning above the random baseline, train > test gap,
history-length correlation trend). Thresholds are stated inline next to
each assertion. Each test ends by printing `ACCEPTANCE <n> <label>: PASS`.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from chatdqn import (
    AgentConfig,
    make_toy_corpus,
    make_toy_embeddings,
    save_embeddings_file,
)
from chatdqn.agent import evaluate, select_action, train
from chatdqn.clustering import fit
from chatdqn.corpus import ingest_personachat, save_corpus
from chatdqn.embeddings import embed_corpus
from chatdqn.environment import DialogueEnv, baseline_bounds
from chatdqn.experiment import ExperimentConfig, run_experiment
from chatdqn.neuralnet import QNetwork, qnet_loss_and_grads
from chatdqn.reward_predictor import PredictorConfig, history_length_study
from chatdqn.stats import wilcoxon_signed_rank

from conftest import topic_cluster_model
from test_neuralnet import finite_difference_check, tiny_batch
from test_stats import oracle_wilcoxon


# ---------------------------------------------------------------------------
# 1. random-policy calibration


def test_criterion_1_random_policy_calibration():
    """A uniform-random policy over 3 candidates earns -1/3 per turn in
    expectation when candidate clusters rarely collide. 120 topic clusters
    keep the measured collision rate well under the 5% cap; the mean over
    1e5 turns must land within +/-0.02 of -1/3, in under a minute."""
    t0 = time.monotonic()
    n_topics = 120
    table = make_toy_embeddings(n_topics, dim=8, seed=1)
    corpus = make_toy_corpus(240, topics=range(n_topics), seed=1)
    model = topic_cluster_model(table, n_topics)
    env = DialogueEnv(
        corpus, model, embed_corpus(corpus, table)[0], candidates=3,
        rng=np.random.default_rng(100),
    )
    rng_pol = np.random.default_rng(101)
    zeros = np.zeros(model.k)

    target = 100_000
    turns = total = collisions = 0
    while turns < target:
        for d in corpus.dialogues:
            state = env.reset(d)
            done = False
            while not done and turns < target:
                cands = env.make_candidates(state, rng_pol)
                ids = cands.action_ids
                truth = ids[cands.truth_index]
                if sum(1 for i in ids if i == truth) > 1:
                    collisions += 1
                action = select_action(zeros, ids, 1.0, rng_pol)
                state, r, done = env.step(state, action, cands)
                total += r
                turns += 1
            if turns >= target:
                break

    mean = total / turns
    coll_rate = collisions / turns
    elapsed = time.monotonic() - t0
    assert turns == target
    assert coll_rate < 0.05, f"collision rate {coll_rate:.4f} >= 5%"
    assert abs(mean - (-1 / 3)) < 0.02, f"mean {mean:+.5f} vs -1/3"
    assert elapsed < 60.0, f"took {elapsed:.0f}s, budget is 60s"

    # Cross-check against the published random-selection score (-2.4139 per
    # dialogue) when a parl.ai Persona-Chat export is available; the number
    # is the corpus mean of (agent turns) * (-1/3), which baseline_bounds
    # computes directly.
    pc_path = os.environ.get("CHATDQN_PERSONACHAT", "")
    if pc_path and os.path.exists(pc_path):
        pc = ingest_personachat(pc_path)
        rand = baseline_bounds(pc.dialogues, candidates=3)[2]
        assert abs(rand - (-2.4139)) < 0.15, f"random sel. {rand:+.4f}"
        note = f"personachat random sel. {rand:+.4f}"
    else:
        note = "personachat cross-check skipped (CHATDQN_PERSONACHAT unset)"
    print(
        f"ACCEPTANCE 1 random-policy calibration: PASS "
        f"(mean {mean:+.5f} vs -1/3 tol 0.02, collisions {coll_rate:.2%}, "
        f"{elapsed:.0f}s; {note})"
    )


# ---------------------------------------------------------------------------
# 2. bounds bracketing


def test_criterion_2_bounds_bracketing():
    """Every evaluated policy's mean episode reward sits inside
    [lower, upper] from baseline_bounds, and an oracle that always picks the
    truth cluster attains the upper bound exactly."""
    table = make_toy_embeddings(6, dim=8, seed=3)
    corpus = make_toy_corpus(30, topics=range(6), seed=3)
    model = topic_cluster_model(table, 6)
    cfg = AgentConfig(
        n_actions=6, embedding_dim=8, hidden_dim=8, test_steps=10_000, seed=0
    )
    net = QNetwork(8, 8, 6, dropout_rate=0.0, rng=np.random.default_rng(4))
    upper, lower, rand = baseline_bounds(corpus.dialogues, candidates=cfg.candidates)
    vectors, _ = embed_corpus(corpus, table)

    def oracle(state, cands, env):
        return cands.action_ids[cands.truth_index]

    def anti_oracle(state, cands, env):
        truth = cands.action_ids[cands.truth_index]
        others = [a for a in cands.action_ids if a != truth]
        return others[0] if others else truth

    rng_rand = np.random.default_rng(11)

    def random_policy(state, cands, env):
        return cands.action_ids[int(rng_rand.integers(len(cands.action_ids)))]

    results = {
        "oracle": evaluate(net, corpus, cfg, model, vectors, seed=2, policy=oracle),
        "anti": evaluate(net, corpus, cfg, model, vectors, seed=2, policy=anti_oracle),
        "random": evaluate(net, corpus, cfg, model, vectors, seed=2, policy=random_policy),
        "greedy-untrained": evaluate(net, corpus, cfg, model, vectors, seed=2),
    }
    for name, res in results.items():
        assert lower - 1e-12 <= res.mean_reward <= upper + 1e-12, (
            f"{name}: {res.mean_reward} outside [{lower}, {upper}]"
        )
    assert abs(results["oracle"].mean_reward - upper) < 1e-12
    print(
        f"ACCEPTANCE 2 bounds bracketing: PASS "
        f"(oracle {results['oracle'].mean_reward:+.3f} == upper {upper:+.3f}, "
        f"random {results['random'].mean_reward:+.3f} in "
        f"[{lower:+.3f}, {upper:+.3f}])"
    )


# ---------------------------------------------------------------------------
# 3. learning at toy scale


def test_criterion_3_toy_scale_learning():
    """On 100 dialogues with k=20 actions, hidden=64 and 10K seeded steps,
    the final 100-episode moving average beats the random baseline by at
    least 1.5 reward, and greedy evaluation on the training dialogues beats
    greedy evaluation on 50 held-out dialogues drawn from unseen topics."""
    table = make_toy_embeddings(20, dim=10, seed=77)
    train_corpus = make_toy_corpus(100, topics=range(10), seed=77, id_prefix="tr")
    test_corpus = make_toy_corpus(50, topics=range(10, 20), seed=78, id_prefix="te")
    train_vectors, _ = embed_corpus(train_corpus, table)
    test_vectors, _ = embed_corpus(test_corpus, table)
    model = fit(train_vectors, 20, rng=np.random.default_rng([77, 20]))
    cfg = AgentConfig(
        n_actions=20, embedding_dim=10, hidden_dim=64, burn_in=500,
        batch_size=32, target_sync_period=1000, learn_steps=10_000,
        test_steps=3000, memory_capacity=10_000, seed=13,
    )
    report, agent, _env = train(train_corpus, cfg, model, train_vectors)
    _, _, rand = baseline_bounds(train_corpus.dialogues, candidates=cfg.candidates)

    final_ma = report.moving_avg[-1]
    assert final_ma >= rand + 1.5, (
        f"final moving average {final_ma:+.3f} does not beat random "
        f"baseline {rand:+.3f} by 1.5"
    )
    ev_train = evaluate(agent.net, train_corpus, cfg, model, train_vectors, seed=1)
    ev_test = evaluate(agent.net, test_corpus, cfg, model, test_vectors, seed=1)
    assert ev_train.mean_reward > ev_test.mean_reward, (
        f"train {ev_train.mean_reward:+.3f} <= test {ev_test.mean_reward:+.3f}"
    )
    print(
        f"ACCEPTANCE 3 toy-scale learning: PASS "
        f"(final MA100 {final_ma:+.3f} vs random {rand:+.3f} + 1.5, "
        f"eval train {ev_train.mean_reward:+.3f} > "
        f"eval test {ev_test.mean_reward:+.3f})"
    )


# ---------------------------------------------------------------------------
# 4. gradient correctness


def test_criterion_4_gradient_check():
    """Analytic gradients of the tiny Q-network (inputs=2, hidden=3, k=2,
    sequence length 3) match central finite differences to relative error
    < 1e-4 for every parameter, in 64-bit."""
    net = QNetwork(2, 3, 2, dropout_rate=0.0, rng=np.random.default_rng(15))
    rng = np.random.default_rng(16)
    X, lengths = tiny_batch(rng, B=4, L=3, m=2, lengths=[3, 1, 2, 3])
    actions = np.array([0, 1, 1, 0])
    targets = rng.normal(size=4) * 2.0

    def loss_fn():
        return qnet_loss_and_grads(net, X, lengths, actions, targets,
                                   train_mode=True)

    worst = finite_difference_check(loss_fn, net.params(), eps=1e-5, tol=1e-4)
    print(
        f"ACCEPTANCE 4 gradient correctness: PASS "
        f"(worst relative error {worst:.2e} < 1e-4)"
    )


# ---------------------------------------------------------------------------
# 5. clustering correctness


def test_criterion_5_clustering_correctness():
    """Lloyd inertia never increases across iterations (100 seeded fits),
    and on 1-D 2-cluster instances with at most 12 points the fitted inertia
    matches the brute-force optimal bipartition within 1e-9 on >= 95% of
    seeds."""
    for seed in range(100):
        rng = np.random.default_rng([seed, 8])
        pts = rng.normal(size=(25, 3))
        model = fit(pts, 2 + seed % 4, rng=rng)
        hist = np.asarray(model.inertia_history)
        assert hist.size >= 1
        assert np.all(np.diff(hist) <= 1e-12), f"inertia rose at seed {seed}"

    def brute_force_2means(x):
        n = len(x)
        best = np.inf
        for mask in range(1, 2**n - 1):
            sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
            a, b = x[sel], x[~sel]
            inertia = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
            best = min(best, inertia)
        return best

    hits = 0
    n_cases = 100
    for seed in range(n_cases):
        rng = np.random.default_rng([seed, 9])
        n = int(rng.integers(4, 13))
        x = np.concatenate(
            [rng.normal(0.0, 1.0, n // 2), rng.normal(3.0, 0.5, n - n // 2)]
        )
        model = fit(x[:, None], 2, rng=rng)
        if abs(model.inertia - brute_force_2means(x)) <= 1e-9:
            hits += 1
    assert hits >= 95, f"only {hits}/{n_cases} seeds reached the optimum"
    print(
        f"ACCEPTANCE 5 clustering correctness: PASS "
        f"(inertia non-increasing on 100 fits; optimal on {hits}/{n_cases} "
        f"1-D instances)"
    )


# ---------------------------------------------------------------------------
# 6. reward-predictor trend


def test_criterion_6_reward_predictor_trend():
    """On a 500-dialogue generated corpus distorted at fractions
    {0, .25, .5, .75, 1}, the mean test-set Pearson correlation over 10
    seeded runs improves with history length: r(h=25) >= r(h=1) + 0.15 and
    r(h) >= 0.7 for every h >= 10."""
    table = make_toy_embeddings(10, dim=10, seed=55)
    train_corpus = make_toy_corpus(
        500, topics=range(10), seed=55, turns_range=(8, 12), id_prefix="tr"
    )
    test_corpus = make_toy_corpus(
        150, topics=range(10), seed=56, turns_range=(8, 12), id_prefix="te"
    )
    cfg = PredictorConfig(
        hidden_dim=32, batch_size=32, epochs=4, runs=10,
        learning_rate=1e-3, seed=7,
    )
    rows = history_length_study(train_corpus, test_corpus, table, cfg)
    by_h = {row.h: row for row in rows}

    assert by_h[25].mean_r >= by_h[1].mean_r + 0.15, (
        f"r(25)={by_h[25].mean_r:+.4f} vs r(1)={by_h[1].mean_r:+.4f}"
    )
    long_h = sorted(h for h in by_h if h >= 10)
    for h in long_h:
        assert by_h[h].mean_r >= 0.7, f"r({h})={by_h[h].mean_r:+.4f} < 0.7"
    summary = ", ".join(f"r({h})={by_h[h].mean_r:+.3f}" for h in sorted(by_h))
    print(f"ACCEPTANCE 6 reward-predictor trend: PASS ({summary})")


# ---------------------------------------------------------------------------
# 7. rank-test exactness


def test_criterion_7_wilcoxon_exactness():
    """p-values for every paired sample with n <= 12 match exhaustive
    sign-pattern enumeration to 1e-12, and the n=6 one-sided-extreme case
    (constant positive shift) gives two-tailed p = 0.03125 exactly."""
    checked = 0
    for n in range(2, 13):
        for case in range(6):
            rng = np.random.default_rng([n, case, 3])
            a = rng.integers(-3, 4, size=n).astype(float)
            b = rng.integers(-3, 4, size=n).astype(float)
            if np.all(a == b):
                b[0] += 1.0
            res = wilcoxon_signed_rank(a, b)
            w_ref, p_ref = oracle_wilcoxon(a, b)
            assert res.method == "exact"
            assert abs(res.w_statistic - w_ref) <= 1e-12
            assert abs(res.p_value - p_ref) <= 1e-12, (
                f"n={n} case={case}: {res.p_value} vs {p_ref}"
            )
            checked += 1

    ones = np.arange(1.0, 7.0)
    res = wilcoxon_signed_rank(ones + 1.0, ones)
    assert res.p_value == 2 * (0.5**6) == 0.03125
    assert res.w_statistic == 0.0
    assert res.method == "exact"
    print(
        f"ACCEPTANCE 7 rank-test exactness: PASS "
        f"({checked} enumerated cases to 1e-12; n=6 extreme p = "
        f"{res.p_value} exactly)"
    )


# ---------------------------------------------------------------------------
# 8. determinism


def _pipeline_world(root):
    table = make_toy_embeddings(4, dim=6, seed=31)
    save_embeddings_file(table, str(root / "emb6.txt"))
    save_corpus(make_toy_corpus(16, topics=range(4), seed=31, id_prefix="tr"),
                str(root / "corpus.jsonl"))
    save_corpus(make_toy_corpus(6, topics=range(4), seed=32, id_prefix="te"),
                str(root / "test.jsonl"))


def _pipeline_cfg(root, out_name):
    return ExperimentConfig(
        corpus=str(root / "corpus.jsonl"),
        test_corpus=str(root / "test.jsonl"),
        embeddings={6: str(root / "emb6.txt")},
        out_dir=str(root / out_name),
        k_splits=2,
        agent=AgentConfig(
            n_actions=4, embedding_dim=6, hidden_dim=8, burn_in=20,
            batch_size=8, target_sync_period=50, learn_steps=120,
            test_steps=400, memory_capacity=200, seed=0,
        ),
        predictor=PredictorConfig(hidden_dim=4, epochs=1, runs=1, batch_size=8),
        seed=5,
    )


def test_criterion_8_determinism(tmp_path):
    """The same config and seed produce byte-identical artifacts: once
    across two fresh output directories (everything recomputed), and once
    rerunning in place (completed stages are no-ops that leave every byte
    untouched). config.resolved.json embeds the output path and is the one
    expected difference between directories."""
    _pipeline_world(tmp_path)
    out1 = run_experiment(_pipeline_cfg(tmp_path, "out1"))
    out2 = run_experiment(_pipeline_cfg(tmp_path, "out2"))

    compared = []
    for dirpath, _dirs, files in os.walk(out1):
        for fn in sorted(files):
            p1 = os.path.join(dirpath, fn)
            rel = os.path.relpath(p1, out1)
            p2 = os.path.join(out2, rel)
            if fn == "config.resolved.json":
                assert os.path.exists(p2)
                continue
            with open(p1, "rb") as fh:
                b1 = fh.read()
            with open(p2, "rb") as fh:
                b2 = fh.read()
            assert b1 == b2, f"{rel} differs between fresh runs"
            compared.append(rel)
    assert len(compared) >= 10
    assert any(r.endswith("checkpoint.bin") for r in compared)
    assert any(r.endswith("report.csv") for r in compared)

    before = {}
    for dirpath, _dirs, files in os.walk(out1):
        for fn in files:
            p = os.path.join(dirpath, fn)
            with open(p, "rb") as fh:
                before[p] = fh.read()
    run_experiment(_pipeline_cfg(tmp_path, "out1"))
    for p, blob in before.items():
        with open(p, "rb") as fh:
            assert fh.read() == blob, f"in-place rerun changed {p}"
    print(
        f"ACCEPTANCE 8 determinism: PASS "
        f"({len(compared)} artifacts byte-identical across directories; "
        f"in-place rerun changed nothing)"
    )


# ---------------------------------------------------------------------------
# 9. embedding-size harness


def test_criterion_9_embedding_size_harness(tmp_path):
    """The runner executes paired dim-100 vs dim-300 toy runs over shared
    data splits and emits a signed-rank comparison of their per-split
    evaluation means. No particular significance outcome is required, only
    that the comparison exists and is well-formed. Noisy overlapping topics
    and a short step budget keep both agents off the reward ceiling (at the
    ceiling every per-split difference is exactly zero and the signed-rank
    test is degenerate by construction)."""
    t100 = make_toy_embeddings(8, dim=100, seed=41, spread=0.6)
    t300 = make_toy_embeddings(8, dim=300, seed=42, spread=0.6)
    save_embeddings_file(t100, str(tmp_path / "emb100.txt"))
    save_embeddings_file(t300, str(tmp_path / "emb300.txt"))
    save_corpus(make_toy_corpus(24, topics=range(8), seed=40, id_prefix="tr"),
                str(tmp_path / "corpus.jsonl"))
    save_corpus(make_toy_corpus(12, topics=range(8), seed=43, id_prefix="te"),
                str(tmp_path / "test.jsonl"))
    cfg = ExperimentConfig(
        corpus=str(tmp_path / "corpus.jsonl"),
        test_corpus=str(tmp_path / "test.jsonl"),
        embeddings={100: str(tmp_path / "emb100.txt"),
                    300: str(tmp_path / "emb300.txt")},
        out_dir=str(tmp_path / "out"),
        k_splits=3,
        agent=AgentConfig(
            n_actions=4, embedding_dim=100, hidden_dim=8, burn_in=40,
            batch_size=8, target_sync_period=50, learn_steps=60,
            test_steps=400, memory_capacity=200, seed=0,
        ),
        predictor=PredictorConfig(hidden_dim=4, epochs=1, runs=1, batch_size=8),
        seed=5,
    )
    out = run_experiment(cfg)

    for dim in (100, 300):
        ddir = os.path.join(out, "runs", f"dim{dim}")
        assert os.path.isdir(ddir)
        assert any(name.startswith("split") for name in os.listdir(ddir))

    with open(os.path.join(out, "comparisons.json"), encoding="utf-8") as fh:
        cmp_doc = json.load(fh)
    assert cmp_doc["dims"] == [100, 300]
    tr = cmp_doc["eval_train"]
    assert len(tr["a"]) == len(tr["b"]) >= 2
    assert "p_value" in tr, f"no p-value emitted: {tr}"
    assert 0.0 <= tr["p_value"] <= 1.0
    assert tr["method"] in ("exact", "normal")
    assert isinstance(tr["significant_at_0_05"], bool)
    te = cmp_doc["eval_test"]
    assert ("p_value" in te and 0.0 <= te["p_value"] <= 1.0) or "note" in te
    print(
        f"ACCEPTANCE 9 embedding-size harness: PASS "
        f"(dims {cmp_doc['dims']}, eval_train p={tr['p_value']:.4f} "
        f"[{tr['method']}], n={tr['n_effective']})"
    )
