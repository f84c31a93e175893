"""Learner mechanics: action selection, schedules, targets, replay, loops."""

import numpy as np
import pytest

from chatdqn import AgentConfig, make_toy_corpus, make_toy_embeddings
import chatdqn.agent as agent_module
import chatdqn.environment as environment_module
import chatdqn.neuralnet as neuralnet_module
from chatdqn.agent import (
    ChatDQNAgent,
    EvalResult,
    ReplayMemory,
    Transition,
    compute_targets,
    epsilon_at,
    evaluate,
    moving_average,
    select_action,
    train,
)
from chatdqn.corpus import stable_seed
from chatdqn.embeddings import embed_corpus
from chatdqn.environment import DialogueEnv, baseline_bounds, episode_reward
from chatdqn.neuralnet import Adam, QNetwork

from conftest import topic_cluster_model


# ---------------------------------------------------------------------------
# select_action


def test_select_action_restricted_argmax():
    q = np.array([0.1, 0.9, 0.5])
    a = select_action(q, (0, 2), 0.0, np.random.default_rng(0))
    assert a == 2  # action 1 excluded despite max Q


def test_select_action_singleton():
    q = np.zeros(6)
    for eps in (0.0, 0.5, 1.0):
        assert select_action(q, (5,), eps, np.random.default_rng(1)) == 5


def test_select_action_tie_breaks_to_lowest_id():
    q = np.array([0.7, 0.3, 0.7, 0.7])
    a = select_action(q, (2, 0, 3), 0.0, np.random.default_rng(2))
    assert a == 0


def test_select_action_empty_candidates():
    with pytest.raises(ValueError):
        select_action(np.zeros(3), (), 0.5, np.random.default_rng(3))


def test_select_action_never_leaves_candidate_set():
    rng = np.random.default_rng(4)
    q = rng.normal(size=10)
    for _ in range(500):
        eps = rng.random()
        a = select_action(q, (1, 4, 7), eps, rng)
        assert a in (1, 4, 7)


def test_select_action_uniform_at_full_epsilon():
    rng = np.random.default_rng(5)
    q = np.array([10.0, 0.0, -10.0, 0.0])
    counts = {0: 0, 2: 0, 3: 0}
    n = 100_000
    for _ in range(n):
        counts[select_action(q, (0, 2, 3), 1.0, rng)] += 1
    for c in counts.values():
        assert abs(c / n - 1 / 3) < 0.01


def test_select_action_draws_are_paired_across_branches():
    # both branches must consume the same rng draws, so exploration and
    # greedy selection stay on the same stream schedule
    q = np.array([0.3, 0.8, 0.1])
    r1 = np.random.default_rng(77)
    r2 = np.random.default_rng(77)
    select_action(q, (0, 1, 2), 0.0, r1)   # greedy branch
    select_action(q, (0, 1, 2), 1.0, r2)   # explore branch
    assert r1.random() == r2.random()


def test_select_action_dedups_candidate_ids():
    # duplicated ids (cluster collisions) must not skew uniform selection
    rng = np.random.default_rng(6)
    counts = {0: 0, 1: 0}
    n = 40_000
    for _ in range(n):
        a = select_action(np.zeros(2), (0, 1, 1), 1.0, rng)
        counts[a] += 1
    assert abs(counts[0] / n - 0.5) < 0.02


# ---------------------------------------------------------------------------
# epsilon_at


def _cfg(**kw):
    base = dict(
        n_actions=10, embedding_dim=4, hidden_dim=8, burn_in=100,
        batch_size=8, target_sync_period=200, learn_steps=1000,
        test_steps=2000, memory_capacity=500, seed=0,
    )
    base.update(kw)
    return AgentConfig(**base)


def test_epsilon_schedule_endpoints():
    cfg = _cfg(epsilon_decay_steps=400)
    assert epsilon_at(0, cfg) == 1.0
    assert epsilon_at(cfg.burn_in, cfg) == 1.0
    assert epsilon_at(cfg.burn_in + 400, cfg) == pytest.approx(0.1)
    assert epsilon_at(10**9, cfg) == pytest.approx(0.1)


def test_epsilon_midpoint():
    cfg = _cfg(epsilon_decay_steps=400)
    mid = cfg.burn_in + 200
    assert epsilon_at(mid, cfg) == pytest.approx(0.55, abs=1e-9)


def test_epsilon_constant_during_burn_in():
    cfg = _cfg(epsilon_decay_steps=400)
    for step in range(0, cfg.burn_in + 1, 10):
        assert epsilon_at(step, cfg) == 1.0


def test_epsilon_default_decay_is_half_learn_steps():
    cfg = _cfg()
    # default horizon: learn_steps // 2
    assert epsilon_at(cfg.burn_in + 250, cfg) == pytest.approx(0.55, abs=1e-9)
    assert epsilon_at(cfg.burn_in + 500, cfg) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# compute_targets


def _zero_state_materialize(n_rows=4, dim=3):
    def materialize(id_tuples):
        B = len(id_tuples)
        return np.zeros((B, n_rows, dim)), np.zeros(B, dtype=np.int64)

    return materialize


def _bias_only_net(biases, dim=3):
    net = QNetwork(dim, 2, len(biases), dropout_rate=0.0,
                   rng=np.random.default_rng(0))
    net.head["W"][...] = 0.0
    net.head["b"][...] = np.asarray(biases, dtype=np.float64)
    return net


def test_targets_done_transition_is_reward():
    net = _bias_only_net([5.0, 7.0])
    t = Transition(s=(0,), a=0, r=1, s_next=(0,), done=True,
                   candidate_ids_next=(0, 1))
    y = compute_targets([t], net, 0.99, _zero_state_materialize())
    assert y[0] == 1.0


def test_targets_bootstrap_value():
    # r=-1, gamma=0.99, max target-Q over next candidates = 2.0 -> 0.98
    net = _bias_only_net([2.0, 0.5, -1.0])
    t = Transition(s=(0,), a=0, r=-1, s_next=(0,), done=False,
                   candidate_ids_next=(0, 1))
    y = compute_targets([t], net, 0.99, _zero_state_materialize())
    assert y[0] == pytest.approx(0.98, abs=1e-12)


def test_targets_max_restricted_to_next_candidates():
    net = _bias_only_net([0.0, 3.0, 9.0])
    t = Transition(s=(0,), a=0, r=1, s_next=(0,), done=False,
                   candidate_ids_next=(0, 1))  # id 2 (Q=9) not available
    y = compute_targets([t], net, 0.5, _zero_state_materialize())
    assert y[0] == pytest.approx(1.0 + 0.5 * 3.0)


def test_targets_gamma_zero_is_myopic():
    net = _bias_only_net([4.0, 4.0])
    ts = [
        Transition(s=(0,), a=0, r=r, s_next=(0,), done=False,
                   candidate_ids_next=(0, 1))
        for r in (1, -1, 1)
    ]
    y = compute_targets(ts, net, 0.0, _zero_state_materialize())
    assert np.array_equal(y, [1.0, -1.0, 1.0])


def test_targets_nan_rejected():
    net = _bias_only_net([np.nan, 0.0])
    t = Transition(s=(0,), a=0, r=1, s_next=(0,), done=False,
                   candidate_ids_next=(0, 1))
    with pytest.raises((ValueError, FloatingPointError)):
        compute_targets([t], net, 0.99, _zero_state_materialize())


# ---------------------------------------------------------------------------
# replay memory


def _tr(i):
    return Transition(s=(i,), a=0, r=1, s_next=(i,), done=False,
                      candidate_ids_next=(0,))


def test_replay_keeps_most_recent_capacity_items():
    mem = ReplayMemory(capacity=5)
    for i in range(9):
        mem.append(_tr(i))
    assert len(mem) == 5
    kept = {mem[i].s[0] for i in range(len(mem))}
    assert kept == {4, 5, 6, 7, 8}  # oldest four gone


def test_replay_below_capacity():
    mem = ReplayMemory(capacity=5)
    for i in range(3):
        mem.append(_tr(i))
    assert len(mem) == 3
    assert {mem[i].s[0] for i in range(len(mem))} == {0, 1, 2}


def test_replay_sample_without_replacement():
    mem = ReplayMemory(capacity=8)
    for i in range(8):
        mem.append(_tr(i))
    slots = mem.sample(8, np.random.default_rng(0))
    assert sorted(mem[i].s[0] for i in slots) == list(range(8))


def test_replay_sample_too_large():
    mem = ReplayMemory(capacity=8)
    mem.append(_tr(0))
    with pytest.raises(ValueError):
        mem.sample(2, np.random.default_rng(0))


@pytest.mark.parametrize("n_appended", [7, 12])  # below capacity, wrapped
def test_replay_sample_is_the_rng_choice_draw(n_appended):
    # the replay draw stays one rng.choice call, so replay sequences do not
    # depend on how slots cache their targets
    mem = ReplayMemory(capacity=8)
    for i in range(n_appended):
        mem.append(_tr(i))
    n_items = len(mem)
    for seed in range(5):
        slots = mem.sample(5, np.random.default_rng(seed))
        ref = np.random.default_rng(seed).choice(n_items, size=5, replace=False)
        assert np.array_equal(slots, ref)


def test_replay_append_marks_its_slot_stale():
    mem = ReplayMemory(capacity=3)
    assert np.isnan(mem.targets).all()
    for i in range(3):
        mem.append(_tr(i))
    mem.targets[:] = [1.0, 2.0, 3.0]
    mem.append(_tr(3))  # overwrites slot 0, the oldest
    assert mem[0].s == (3,)
    assert np.isnan(mem.targets[0])
    assert np.array_equal(mem.targets[1:], [2.0, 3.0])
    mem.mark_stale()
    assert np.isnan(mem.targets).all()


# ---------------------------------------------------------------------------
# moving_average


def test_moving_average_windowed_means():
    vals = list(range(1, 8))
    ma = moving_average(vals, window=3)
    ref = [
        np.mean(vals[max(0, i - 2): i + 1]) for i in range(len(vals))
    ]
    assert np.allclose(ma, ref)


def test_moving_average_window_100_prefix_rule():
    rng = np.random.default_rng(7)
    vals = rng.integers(-5, 6, size=140).tolist()
    ma = moving_average(vals, window=100)
    assert ma[99] == pytest.approx(np.mean(vals[:100]))
    assert ma[139] == pytest.approx(np.mean(vals[40:140]))
    assert len(ma) == 140


# ---------------------------------------------------------------------------
# training loop


@pytest.fixture(scope="module")
def train_world():
    n_topics = 4
    table = make_toy_embeddings(n_topics, dim=6, seed=21)
    corpus = make_toy_corpus(20, topics=range(n_topics), seed=21)
    model = topic_cluster_model(table, n_topics)
    return table, corpus, model, embed_corpus(corpus, table)[0]


def test_train_zero_steps_returns_initial_net(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=0, learn_steps=0, batch_size=4, memory_capacity=50,
        target_sync_period=10, test_steps=100, seed=5,
    )
    report, agent, _ = train(corpus, cfg, model, vectors)
    assert report.episodes == 0
    assert report.steps == 0
    assert report.episode_rewards == []
    fresh = ChatDQNAgent(cfg)
    for name, p in agent.net.params().items():
        assert np.array_equal(p, fresh.net.params()[name]), name


def test_train_deterministic_curves(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=30, learn_steps=90, batch_size=8, memory_capacity=100,
        target_sync_period=40, test_steps=100, epsilon_decay_steps=40,
        seed=9,
    )
    r1, a1, _ = train(corpus, cfg, model, vectors)
    r2, a2, _ = train(corpus, cfg, model, vectors)
    assert r1.episode_rewards == r2.episode_rewards
    assert r1.moving_avg == r2.moving_avg
    for name, p in a1.net.params().items():
        assert np.array_equal(p, a2.net.params()[name]), name


def test_train_sync_trace_and_step_accounting(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=20, learn_steps=100, batch_size=8, memory_capacity=100,
        target_sync_period=25, test_steps=100, seed=3,
    )
    report, agent, _ = train(corpus, cfg, model, vectors)
    assert report.steps >= cfg.learn_steps  # finishes the last episode
    expected = list(range(25, report.steps + 1, 25))
    assert list(agent.sync_history) == expected
    assert report.episodes == len(report.episode_rewards)
    assert len(report.moving_avg) == report.episodes
    # episode rewards are bounded by per-dialogue agent-turn counts
    max_turns = max(d.n_agent_turns for d in corpus.dialogues)
    assert all(abs(r) <= max_turns for r in report.episode_rewards)


def test_target_net_frozen_between_syncs(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=10, learn_steps=30, batch_size=4, memory_capacity=100,
        target_sync_period=10_000, test_steps=100, seed=4,
    )
    _, agent, _ = train(corpus, cfg, model, vectors)
    # never synced: target still equals the initial net, online has moved
    fresh = ChatDQNAgent(cfg)
    for name, p in agent.target.params().items():
        assert np.array_equal(p, fresh.net.params()[name]), name
    moved = any(
        not np.array_equal(p, agent.target.params()[name])
        for name, p in agent.net.params().items()
    )
    assert moved
    agent.sync_target()
    for name, p in agent.target.params().items():
        assert np.array_equal(p, agent.net.params()[name]), name


@pytest.mark.parametrize("cap", [1, 3])
def test_history_window_shorter_than_the_dialogues(monkeypatch, cap):
    # dialogues of 10 to 14 turns outgrow a history_len of 1 or 3: every
    # replayed state is the last `cap` sentence ids of its transcript, and
    # greedy evaluation makes one `forward_carried` call per round and no
    # `forward` call. At round r every history holds 2r - 1 sentences, so
    # from the first round whose histories outgrow the cap every dialogue
    # restarts from the zero state over its last `cap` ids, and no batch is
    # wider than `cap` steps
    table = make_toy_embeddings(4, dim=6, seed=31)
    corpus = make_toy_corpus(12, topics=range(4), seed=31, turns_range=(10, 14))
    model = topic_cluster_model(table, 4)
    vectors, _ = embed_corpus(corpus, table)
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6, history_len=cap,
        burn_in=10, learn_steps=60, batch_size=4, memory_capacity=100,
        target_sync_period=20, test_steps=1000, seed=13,
    )
    transcripts = []  # (history_ids before, history_ids after) of each env step

    class RecordingEnv(DialogueEnv):
        def step(self, state, chosen, cands):
            out = super().step(state, chosen, cands)
            transcripts.append((state.history_ids, out[0].history_ids))
            return out

    monkeypatch.setattr(agent_module, "DialogueEnv", RecordingEnv)
    _, agent, _ = train(corpus, cfg, model, vectors)
    assert len(agent.memory) == len(transcripts)  # one slot per step, none overwritten
    assert max(len(after) for _, after in transcripts) > 3
    for slot, (before, after) in enumerate(transcripts):
        t = agent.memory[slot]
        assert len(t.s) <= cap and len(t.s_next) <= cap
        assert t.s == before[-cap:] and t.s_next == after[-cap:]

    transcripts.clear()
    calls = []  # (batch width, any nonzero carried state) of each carried call

    def no_forward(*args, **kw):
        raise AssertionError("evaluate called QNetwork.forward")

    def recording(X, lengths, state=None):
        calls.append((X.shape[1], bool(np.any(state))))
        return forward_carried(X, lengths, state)

    forward_carried = agent.net.forward_carried
    monkeypatch.setattr(agent.net, "forward", no_forward)
    monkeypatch.setattr(agent.net, "forward_carried", recording)
    res = evaluate(agent.net, corpus, cfg, model, vectors, seed=2)
    assert max(len(before) for before, _ in transcripts) > 3
    assert not res.truncated
    assert len(calls) == max(d.n_agent_turns for d in corpus.dialogues)
    assert max(width for width, _ in calls) <= cap
    restarts = [call for r, call in enumerate(calls, 1) if 2 * r - 1 > cap]
    assert restarts and set(restarts) == {(cap, False)}


def test_train_runs_the_acting_forward_only_on_greedy_steps(train_world, monkeypatch):
    # an exploring step draws the same two numbers and skips the forward:
    # one online forward per greedy step, and the same run as one that
    # computes Q on every step
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=30, learn_steps=120, batch_size=8, memory_capacity=200,
        target_sync_period=40, test_steps=100, epsilon_decay_steps=40, seed=9,
    )
    greedy, online = [], []  # per step: greedy or not; per online forward: rows

    def counting_select(qvals, ids, eps, rng):
        probe = np.random.default_rng()  # replays the explore draw
        probe.bit_generator.state = rng.bit_generator.state
        greedy.append(not probe.random() < eps)
        return select_action(qvals, ids, eps, rng)

    forward = QNetwork.forward

    def counting_forward(self, X, lengths):
        if self.head["W"].dtype == np.float32:  # the online net; the target is float64
            online.append(len(lengths))
        return forward(self, X, lengths)

    monkeypatch.setattr(agent_module, "select_action", counting_select)
    monkeypatch.setattr(QNetwork, "forward", counting_forward)
    report, agent, _ = train(corpus, cfg, model, vectors)
    assert 0 < sum(greedy) < len(greedy) == report.steps
    assert online == [1] * sum(greedy)

    def eager_select(qvals, ids, eps, rng):  # Q computed on every step
        return select_action(qvals(), ids, eps, rng)

    monkeypatch.setattr(agent_module, "select_action", eager_select)
    eager_report, eager_agent, _ = train(corpus, cfg, model, vectors)
    assert eager_report.episode_rewards == report.episode_rewards
    for name, p in agent.net.params().items():
        assert np.array_equal(p, eager_agent.net.params()[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_learn_step_stays_in_the_networks_dtype(train_world, dtype):
    # the agent builds a float32 online network and a float64 target network;
    # a learn step keeps every parameter, gradient and Adam moment in the
    # online network's dtype, and the TD targets and their cache in float64
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=10, learn_steps=20, batch_size=4, memory_capacity=50,
        target_sync_period=10**6, test_steps=10, seed=12,
    )
    _, agent, env = train(corpus, cfg, model, vectors)
    assert {p.dtype for p in agent.net.params().values()} == {np.dtype(np.float32)}
    if dtype is not np.float32:
        agent.net = agent.net.astype(dtype)
        agent.optimizer = Adam(agent.net.params(), lr=cfg.learning_rate)
    agent.sync_target()  # every target stale: the step runs the target network
    seen = {}
    step = agent.optimizer.step

    def recording_step(params, grads):
        seen.update(grads)
        step(params, grads)

    agent.optimizer.step = recording_step
    slots = agent.memory.sample(cfg.batch_size, agent.rng_replay)
    assert np.isfinite(agent.train_step(slots, env.batch_states))
    assert set(seen) == set(agent.net.params())
    for name, p in agent.net.params().items():
        assert p.dtype == dtype, name
        assert seen[name].dtype == dtype, name
        assert agent.optimizer.m[name].dtype == dtype, name
        assert agent.optimizer.v[name].dtype == dtype, name
    assert {p.dtype for p in agent.target.params().values()} == {np.dtype(np.float64)}
    assert agent.memory.targets.dtype == np.float64
    assert not np.isnan(agent.memory.targets[slots]).any()


def test_single_transition_overfit(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=8,
        burn_in=0, learn_steps=1, batch_size=2, memory_capacity=10,
        target_sync_period=10**6, test_steps=10, seed=6,
        learning_rate=1e-2, dropout_rate=0.0,
    )
    agent = ChatDQNAgent(cfg)
    env = DialogueEnv(corpus, model, vectors, candidates=3,
                      rng=np.random.default_rng(30))
    state = env.reset(corpus.dialogues[0])
    cands = env.make_candidates(state, np.random.default_rng(31))
    truth = cands.action_ids[cands.truth_index]
    nxt, r, _ = env.step(state, truth, cands)
    t = Transition(s=state.history_ids, a=truth, r=r,
                   s_next=nxt.history_ids, done=True, candidate_ids_next=())
    agent.memory.append(t)
    agent.memory.append(t)
    slots = np.array([0, 1])
    losses = [agent.train_step(slots, env.batch_states) for _ in range(500)]
    assert losses[-1] < 1e-3
    assert all(np.isfinite(l) for l in losses)


# ---------------------------------------------------------------------------
# TD-target cache


def test_cached_targets_match_compute_targets(train_world, monkeypatch):
    # the ring wraps (capacity 60, 400 steps) and the target net syncs every
    # 50 steps; every target a learn step reads from the cache equals a fresh
    # compute_targets on the same transitions, and the first learn step after
    # a sync computes every row
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=20, learn_steps=400, batch_size=16, memory_capacity=60,
        target_sync_period=50, test_steps=100, seed=9,
    )
    train_step, sync_target = ChatDQNAgent.train_step, ChatDQNAgent.sync_target
    synced = [False]
    served = []

    def synced_flag(agent):
        sync_target(agent)
        synced[0] = True

    def checked(agent, slots, materialize):
        batch = [agent.memory[i] for i in slots]
        ref = compute_targets(batch, agent.target, cfg.gamma, materialize)
        cached = agent.memory.targets[slots]
        hit = ~np.isnan(cached)
        np.testing.assert_allclose(cached[hit], ref[hit], rtol=0, atol=1e-12)
        if synced[0]:
            assert not hit.any()
            synced[0] = False
        served.append(int(hit.sum()))
        computed = agent.target_rows_computed
        loss = train_step(agent, slots, materialize)
        assert agent.target_rows_computed - computed == len(slots) - hit.sum()
        np.testing.assert_allclose(agent.memory.targets[slots], ref, rtol=0, atol=1e-12)
        return loss

    monkeypatch.setattr(ChatDQNAgent, "sync_target", synced_flag)
    monkeypatch.setattr(ChatDQNAgent, "train_step", checked)
    report, agent, _ = train(corpus, cfg, model, vectors)
    assert len(agent.sync_history) >= 5
    assert report.steps > cfg.memory_capacity
    assert sum(served) == agent.target_rows_cached > 0
    assert (agent.target_rows_computed + agent.target_rows_cached
            == len(served) * cfg.batch_size)


def test_sync_target_makes_next_step_recompute_every_row(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=30, learn_steps=60, batch_size=8, memory_capacity=100,
        target_sync_period=10**6, test_steps=100, seed=10,
    )
    _, agent, env = train(corpus, cfg, model, vectors)
    slots = agent.memory.sample(cfg.batch_size, agent.rng_replay)
    agent.train_step(slots, env.batch_states)  # fills the sampled slots
    computed, cached = agent.target_rows_computed, agent.target_rows_cached
    agent.train_step(slots, env.batch_states)
    assert (agent.target_rows_computed, agent.target_rows_cached) == (computed, cached + 8)
    agent.sync_target()
    assert np.isnan(agent.memory.targets).all()
    agent.train_step(slots, env.batch_states)
    assert (agent.target_rows_computed, agent.target_rows_cached) == (computed + 8, cached + 8)
    ref = compute_targets([agent.memory[i] for i in slots], agent.target, cfg.gamma,
                          env.batch_states)
    np.testing.assert_allclose(agent.memory.targets[slots], ref, rtol=0, atol=1e-12)


def test_overwritten_slot_never_serves_the_old_target(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        burn_in=0, learn_steps=1, batch_size=2, memory_capacity=2,
        target_sync_period=10**6, test_steps=10, seed=11,
    )
    agent = ChatDQNAgent(cfg)
    env = DialogueEnv(corpus, model, vectors, candidates=3,
                      rng=np.random.default_rng(32))
    old = Transition(s=(0, 1), a=0, r=1, s_next=(0, 1, 2), done=True,
                     candidate_ids_next=())
    new = Transition(s=(0, 1), a=0, r=-1, s_next=(0, 1, 2), done=False,
                     candidate_ids_next=(0, 1))
    agent.memory.append(old)
    agent.memory.append(old)
    slots = np.array([0, 1])
    agent.train_step(slots, env.batch_states)
    assert np.array_equal(agent.memory.targets, [1.0, 1.0])
    agent.memory.append(new)  # overwrites slot 0
    agent.train_step(slots, env.batch_states)
    ref = compute_targets([new], agent.target, cfg.gamma, env.batch_states)
    assert agent.memory.targets[0] == pytest.approx(ref[0], abs=1e-12)
    assert agent.memory.targets[1] == 1.0
    assert (agent.target_rows_computed, agent.target_rows_cached) == (3, 1)


def test_small_run_learns_above_random(train_world):
    # 20 dialogues, k=10 clusters is a memorization regime: final moving
    # average must clear the analytic random baseline by >= 1.0 reward
    n_topics = 10
    table = make_toy_embeddings(n_topics, dim=6, seed=22)
    corpus = make_toy_corpus(20, topics=range(n_topics), seed=22)
    model = topic_cluster_model(table, n_topics)
    vectors, _ = embed_corpus(corpus, table)
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=24,
        burn_in=300, learn_steps=5000, batch_size=16, memory_capacity=5000,
        target_sync_period=500, test_steps=4000, seed=7,
        epsilon_decay_steps=2500,
    )
    report, agent, env = train(corpus, cfg, model, vectors)
    _, _, rand = baseline_bounds(corpus.dialogues, candidates=cfg.candidates)
    assert report.moving_avg[-1] >= rand + 1.0
    # greedy eval on the training dialogues beats the training moving
    # average (memorization regime)
    res = evaluate(agent.net, corpus, cfg, model, vectors, seed=1)
    assert res.mean_reward >= report.moving_avg[-1]


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_oracle_policy_attains_upper_bound(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        test_steps=10_000, burn_in=0, learn_steps=0, seed=0,
    )
    net = QNetwork(table.dim, 6, model.k, rng=np.random.default_rng(0))

    def oracle(state, cands, env):
        return cands.action_ids[cands.truth_index]

    res = evaluate(net, corpus, cfg, model, vectors, seed=2, policy=oracle)
    upper, _, _ = baseline_bounds(corpus.dialogues, candidates=3)
    assert res.mean_reward == upper


def test_evaluate_respects_step_budget(train_world):
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        test_steps=12, burn_in=0, learn_steps=0, seed=0,
    )
    net = QNetwork(table.dim, 6, model.k, rng=np.random.default_rng(1))
    res = evaluate(net, corpus, cfg, model, vectors, seed=3)
    assert res.truncated
    assert res.steps_used <= 12
    assert len(res.dialogue_ids) == len(res.episode_rewards)


def test_evaluate_dialogue_ids_pick_their_sentence_rows(train_world):
    # a split given by ids (in any order) sees the same sentence vectors as
    # the split embedded on its own
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        test_steps=10_000, burn_in=0, learn_steps=0, seed=0,
    )
    net = QNetwork(table.dim, 6, model.k, rng=np.random.default_rng(4))
    ids = [corpus.ids[i] for i in (7, 2, 11, 0)]
    split = corpus.subset(ids)
    by_ids = evaluate(net, corpus, cfg, model, vectors, dialogue_ids=ids, seed=8)
    alone = evaluate(net, split, cfg, model, embed_corpus(split, table)[0], seed=8)
    assert by_ids == alone


def test_evaluate_candidates_paired_across_policies(train_world):
    # identical seeds -> identical candidate sequences -> the oracle and the
    # anti-oracle see mirrored rewards on every dialogue
    table, corpus, model, vectors = train_world
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=6,
        test_steps=10_000, burn_in=0, learn_steps=0, seed=0,
    )
    net = QNetwork(table.dim, 6, model.k, rng=np.random.default_rng(2))

    seen: dict[str, list] = {"a": [], "b": []}

    def spy_a(state, cands, env):
        seen["a"].append([env.corpus.turn_index[1][i] for i in cands.sentence_ids])
        return cands.action_ids[cands.truth_index]

    def spy_b(state, cands, env):
        seen["b"].append([env.corpus.turn_index[1][i] for i in cands.sentence_ids])
        return cands.action_ids[cands.truth_index]

    evaluate(net, corpus, cfg, model, vectors, seed=5, policy=spy_a)
    evaluate(net, corpus, cfg, model, vectors, seed=5, policy=spy_b)
    assert seen["a"] == seen["b"]


def test_evaluate_random_policy_matches_expectation():
    # >= 500 episodes; mean within +-0.15 of the analytic random expectation
    n_topics = 150
    table = make_toy_embeddings(n_topics, dim=6, seed=23)
    corpus = make_toy_corpus(1500, topics=range(n_topics), seed=23)
    model = topic_cluster_model(table, n_topics)
    vectors, _ = embed_corpus(corpus, table)
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=4,
        test_steps=10**6, burn_in=0, learn_steps=0, seed=0,
    )
    net = QNetwork(table.dim, 4, model.k, rng=np.random.default_rng(3))
    rng = np.random.default_rng(24)

    def random_policy(state, cands, env):
        ids = sorted(set(cands.action_ids))
        return ids[int(rng.integers(len(ids)))]

    res = evaluate(net, corpus, cfg, model, vectors, seed=6,
                   policy=random_policy)
    assert len(res.episode_rewards) >= 500
    _, _, rand = baseline_bounds(corpus.dialogues, candidates=3)
    assert res.mean_reward == pytest.approx(rand, abs=0.15)


def per_dialogue_evaluate(net, corpus, cfg, sentence_model, vectors, seed=0, policy=None,
                          env_class=DialogueEnv, select=select_action):
    """The per-dialogue greedy evaluation that lockstep rounds replaced, kept
    as a reference: each dialogue runs to its end before the next starts,
    and each turn runs the network from the zero state over the dialogue's
    last history_len sentences, one row at a time."""
    env = env_class(corpus, sentence_model, vectors, candidates=cfg.candidates,
                    rng=np.random.default_rng([seed, 7]))
    cap = cfg.history_len
    steps = 0
    truncated = False
    per_episode, evaluated = [], []
    for d in corpus.dialogues:
        if steps + d.n_agent_turns > cfg.test_steps:
            truncated = True
            break
        rng_d = np.random.default_rng(stable_seed(seed, d.id))
        state = env.reset(d)
        ep = []
        while not state.done:
            cands = env.make_candidates(state, rng_d)
            if policy is None:
                X, lengths = env.batch_states([state.history_ids[-cap:]])
                q = net.forward(X, lengths)[0]
                action = select(q, cands.action_ids, 0.0, rng_d)
            else:
                action = policy(state, cands, env)
            state, r, _ = env.step(state, action, cands)
            ep.append(r)
            steps += 1
        per_episode.append(episode_reward(ep))
        evaluated.append(d.id)
    return EvalResult(float(np.mean(per_episode)), per_episode, evaluated, steps, truncated)


@pytest.fixture(scope="module")
def ragged_world():
    table = make_toy_embeddings(6, dim=6, seed=61)
    corpus = make_toy_corpus(30, topics=range(6), seed=61, turns_range=(4, 14))
    return table, corpus, topic_cluster_model(table, 6), embed_corpus(corpus, table)[0]


def _oracle(state, cands, env):
    return cands.action_ids[cands.truth_index]


@pytest.mark.parametrize("policy", [None, _oracle], ids=["greedy", "oracle"])
@pytest.mark.parametrize("cap", [1, 3, 50])
def test_lockstep_evaluation_matches_the_per_dialogue_loop(ragged_world, monkeypatch,
                                                           cap, policy):
    # dialogues of 2 to 7 agent turns, a budget that cuts the set short, and
    # a history cap below, inside and above the dialogues' lengths: the same
    # result, and on every turn the same candidates and Q-values up to the
    # rounding of a batched GEMM. The env's shared rng picks the sentence
    # uttered after a wrong pick of a cluster two candidates share, and
    # lockstep draws it in round order; both runs here use a draw-free rule
    # for it, so that their histories can be compared.
    table, corpus, model, vectors = ragged_world
    total = sum(d.n_agent_turns for d in corpus.dialogues)
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=5, history_len=cap,
        test_steps=2 * total // 3, burn_in=0, learn_steps=0, seed=0,
    )
    net = QNetwork(table.dim, 5, model.k, rng=np.random.default_rng(62))
    assert net.head["W"].dtype == np.float64
    shared = []

    def first_of_cluster(sentence_ids, action_ids, chosen, rng):
        pool = [sid for sid, aid in zip(sentence_ids, action_ids) if aid == chosen]
        shared.append(len(pool) > 1)
        return pool[0]

    monkeypatch.setattr(environment_module, "candidate_of_cluster", first_of_cluster)
    runs = []
    for run in (per_dialogue_evaluate, evaluate):
        turns = {}  # (dialogue, turn) -> (candidate sentence ids, Q-values)
        last_q = []

        def spy_select(q, ids, eps, rng):
            last_q.append(np.array(q))
            return select_action(q, ids, eps, rng)

        class RecordingEnv(DialogueEnv):
            def step(self, state, chosen, cands):
                q = last_q.pop() if policy is None else None
                turns[state.dialogue_ref, state.turn_index] = (cands.sentence_ids, q)
                return super().step(state, chosen, cands)

        if run is per_dialogue_evaluate:
            res = run(net, corpus, cfg, model, vectors, seed=4, policy=policy,
                      env_class=RecordingEnv, select=spy_select)
        else:
            monkeypatch.setattr(agent_module, "DialogueEnv", RecordingEnv)
            monkeypatch.setattr(agent_module, "select_action", spy_select)
            res = run(net, corpus, cfg, model, vectors, seed=4, policy=policy)
        runs.append((res, turns))
    (want, want_turns), (got, got_turns) = runs
    assert want.truncated and len(want.dialogue_ids) < len(corpus)
    assert got == want
    assert got_turns.keys() == want_turns.keys()
    assert len(got_turns) == want.steps_used
    for key, (cands, q) in want_turns.items():
        assert got_turns[key][0] == cands
        if policy is None:
            np.testing.assert_allclose(got_turns[key][1], q, rtol=0, atol=1e-12)
    if policy is None:
        assert any(shared)


@pytest.mark.parametrize("n_dialogues", [3, 30])
def test_lockstep_evaluation_runs_two_gru_calls_per_batch_per_round(ragged_world,
                                                                    monkeypatch, n_dialogues):
    # each round is one batch, one GRU call per layer, however many
    # dialogues run and whether they carry on or restart
    table, corpus, model, vectors = ragged_world
    ids = corpus.ids[:n_dialogues]
    cfg = AgentConfig(
        n_actions=model.k, embedding_dim=table.dim, hidden_dim=5, history_len=3,
        test_steps=10**6, burn_in=0, learn_steps=0, seed=0,
    )
    net = QNetwork(table.dim, 5, model.k, rng=np.random.default_rng(63))
    calls = []
    gru_forward = neuralnet_module.gru_forward

    def counting(*args, **kw):
        calls.append(args[1].shape[0])
        return gru_forward(*args, **kw)

    monkeypatch.setattr(neuralnet_module, "gru_forward", counting)
    res = evaluate(net, corpus, cfg, model, vectors, dialogue_ids=ids, seed=5)
    rounds = max(corpus.get(i).n_agent_turns for i in ids)
    assert res.steps_used == sum(corpus.get(i).n_agent_turns for i in ids)
    assert len(calls) == 2 * rounds
