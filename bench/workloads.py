"""The benchmark's three workloads: inputs, timed jobs and output checks.

Every input comes from `chatdqn.toydata`, seeded from the workload seed only,
and is written to files, so the program under test receives generated data
and nothing else. The jobs call chatdqn's public entry points.

Each workload has the same three jobs, so every end-to-end metric exists on
every workload:

  main    toy, paper: `train_single`, items are env steps of its `train()`
          corpus: a fresh `run_experiment`, items are corpus sentences
  reuse   toy, paper: `evaluate_checkpoint` of the trained checkpoint, items
          are greedy turns
          corpus: the in-place rerun of the same config, items are sentences
  study   `history_length_study`, items are example x epoch x run x length

The workloads differ in where the time goes: `toy` is per-call overhead at
the shapes of the acceptance tests, `paper` is GEMM-bound at the paper's
shapes, and `corpus` is the data path (k-means, table parsing, artifacts).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time
from typing import NamedTuple

import numpy as np

# Program calls go through module attributes, so that the traced run's
# wrappers, installed on those modules, see the calls made from here.
from chatdqn import (
    clustering,
    corpus,
    environment,
    experiment,
    reward_predictor,
    toydata,
)
from chatdqn.agent import AgentConfig
from chatdqn.experiment import ExperimentConfig
from chatdqn.reward_predictor import DISTORTION_FRACTIONS, PredictorConfig


class Check(NamedTuple):
    """One named output check; a failed check fails its operation."""

    name: str
    ok: bool
    detail: str


def _seeds(seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, 1908]).generate_state(n)]


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rewards_in_bounds(name, rewards, dialogues, candidates) -> Check:
    """Every episode reward lies inside its dialogue's baseline_bounds."""
    bad = 0
    for r, d in zip(rewards, dialogues):
        upper, lower, _ = environment.baseline_bounds([d], candidates)
        bad += not lower <= r <= upper
    return Check(name, bad == 0, f"{bad} of {len(rewards)} episode rewards out of bounds")


def _study_finite_check(rows) -> Check:
    ok = all(np.isfinite(s) for row in rows for s in row.scores)
    return Check("study_r_finite", ok,
                 "r(h) = " + ", ".join(f"{row.h}:{row.mean_r:+.3f}" for row in rows))


def _tree_digest(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for fn in files:
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Workload:
    """Inputs on disk, an experiment config over them, and timing.

    Only program calls are timed, never the benchmark's own checks; each
    timed interval is kept in `windows` so that a trace can be cut to them.
    """

    k_splits = 1

    def __init__(self, seed: int, work_dir: str):
        self.s = _seeds(seed, 8)
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.windows: list[tuple[float, float]] = []

    def _timed(self, fn, *args, **kwargs):
        """(fn's result, seconds it took). Each call starts from a collected
        heap, so that garbage left by earlier jobs is not charged to it."""
        gc.collect()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.windows.append((t0, t1))
        return out, t1 - t0

    def _write_inputs(self, table, train_corpus, test_corpus) -> None:
        """Write the table and both corpora. Every set-up rewrites the same
        paths: the pipeline's config hash covers input paths."""
        inputs = os.path.join(self.work_dir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        self.table, self.train_corpus, self.test_corpus = table, train_corpus, test_corpus
        self.paths = {name: os.path.join(inputs, name)
                      for name in ("table.txt", "train.jsonl", "test.jsonl")}
        toydata.save_embeddings_file(table, self.paths["table.txt"])
        corpus.save_corpus(train_corpus, self.paths["train.jsonl"])
        corpus.save_corpus(test_corpus, self.paths["test.jsonl"])

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            corpus=self.paths["train.jsonl"], test_corpus=self.paths["test.jsonl"],
            embeddings={self.agent_cfg.embedding_dim: self.paths["table.txt"]},
            out_dir=self.out_dir, k_splits=self.k_splits, agent=self.agent_cfg,
            seed=self.s[4] % 100_000,
        )

    def _sentence_model_check(self) -> Check:
        k, dim = self.agent_cfg.n_actions, self.agent_cfg.embedding_dim
        model = clustering.load_cluster_model(
            os.path.join(self.out_dir, f"sentence_clusters_dim{dim}.json"))
        ok = (model.k == k and model.centroids.shape == (k, dim)
              and bool(np.all(np.isfinite(model.centroids))))
        return Check(f"sentence_model_k{k}_finite", ok, f"k={model.k}")

    def _study(self, train_corpus, test_corpus, table, lengths):
        """One `history_length_study`; returns (items, seconds, rows), items
        being example x epoch x run x length."""
        cfg = self.study_cfg
        rows, dt = self._timed(
            reward_predictor.history_length_study, train_corpus, test_corpus, table, cfg,
            lengths=lengths, fractions=DISTORTION_FRACTIONS)
        n = len(train_corpus) * len(DISTORTION_FRACTIONS) * cfg.epochs * cfg.runs * len(lengths)
        return n, dt, rows


class _DQNWorkload(Workload):
    """Shared jobs of the two DQN workloads (toy, paper): set-up runs the
    pipeline up to its split stage, which fits the sentence cluster model;
    the main job trains the one split with `train_single` and the reuse job
    evaluates its checkpoint with `evaluate_checkpoint`."""

    def setup(self):
        """Returns (1, seconds, checks)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        _, dt = self._timed(self._make_inputs)
        return 1, dt, [self._sentence_model_check()]

    def _make_inputs(self):
        self._write_inputs(*self._generate())
        experiment.run_experiment(self.config(), until="split")

    def _train(self):
        run_dir = os.path.join(self.out_dir, "runs", f"dim{self.agent_cfg.embedding_dim}",
                               "split000")
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir, dt = self._timed(
            experiment.train_single, self.config(), self.agent_cfg.embedding_dim, 0)
        self.checkpoint = os.path.join(run_dir, "checkpoint.bin")
        report = _read_json(os.path.join(run_dir, "report.json"))
        # Episodes are drawn with replacement and the report does not say
        # which dialogue each was, so each reward is held to the bounds of
        # the longest dialogue.
        longest = max(self.train_corpus.dialogues, key=lambda d: d.n_agent_turns)
        rewards = report["episode_rewards"]
        checks = [_rewards_in_bounds("train_rewards_in_bounds", rewards,
                                     [longest] * len(rewards), self.agent_cfg.candidates)]
        return report, dt, checks

    def _evaluate(self, which: str, evaluated):
        result, dt = self._timed(
            experiment.evaluate_checkpoint, self.config(), self.checkpoint, which)
        check = _rewards_in_bounds(
            f"eval_{which}_rewards_in_bounds", result["episode_rewards"],
            [evaluated.get(i) for i in result["dialogue_ids"]], self.agent_cfg.candidates)
        return result["steps_used"], dt, check


class Toy(_DQNWorkload):
    """The criterion-3 world (train, then evaluate on seen and unseen
    topics) and the criterion-6 world (reward-regression study), at the
    shapes of the acceptance tests.

    These two criteria are most of the test suite's wall time, and per-call
    overhead dominates at these shapes. Training is cut to 1,000 steps with
    epsilon annealed over the first 250 learn steps, so that the last 100
    episodes are mostly greedy and criterion 3's margin over random can be
    checked on every seed. The study keeps criterion 6's world and predictor
    but makes one run over the lengths 1 and 25, the two its check compares,
    so that a run of the benchmark stays within its time budget.
    """

    name = "toy"
    study_lengths = (1, 25)

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.agent_cfg = AgentConfig(
            n_actions=20, embedding_dim=10, hidden_dim=64, burn_in=500,
            batch_size=32, target_sync_period=1000, learn_steps=1000,
            epsilon_decay_steps=250, test_steps=3000, memory_capacity=10_000,
        )
        self.study_cfg = PredictorConfig(
            hidden_dim=32, batch_size=32, epochs=4, runs=1, learning_rate=1e-3,
            seed=self.s[7],
        )

    def _generate(self):
        s = self.s
        self.study_table = toydata.make_toy_embeddings(10, dim=10, seed=s[5])
        self.study_train = toydata.make_toy_corpus(
            500, topics=range(10), seed=s[5], turns_range=(8, 12), id_prefix="tr")
        self.study_test = toydata.make_toy_corpus(
            150, topics=range(10), seed=s[6], turns_range=(8, 12), id_prefix="te")
        return (
            toydata.make_toy_embeddings(20, dim=10, seed=s[0]),
            toydata.make_toy_corpus(100, topics=range(10), seed=s[1], id_prefix="tr"),
            toydata.make_toy_corpus(50, topics=range(10, 20), seed=s[2], id_prefix="te"),
        )

    def main(self):
        report, dt, checks = self._train()
        _, _, rand = environment.baseline_bounds(
            self.train_corpus.dialogues, self.agent_cfg.candidates)
        final = report["moving_avg"][-1]
        checks.append(Check(
            "final_ma100_beats_random_by_1.5", final >= rand + 1.5,
            f"MA100 {final:+.3f} vs random {rand:+.3f} + 1.5",
        ))
        return report["steps"], dt, checks

    def reuse(self):
        turns_train, dt1, c1 = self._evaluate("train", self.train_corpus)
        turns_test, dt2, c2 = self._evaluate("test", self.test_corpus)
        return turns_train + turns_test, dt1 + dt2, [c1, c2]

    def study(self):
        items, dt, rows = self._study(self.study_train, self.study_test, self.study_table,
                                      self.study_lengths)
        by_h = {row.h: row.mean_r for row in rows}
        check = Check(
            "study_r25_beats_r1_by_0.15", by_h[25] >= by_h[1] + 0.15,
            f"r(25) {by_h[25]:+.3f} vs r(1) {by_h[1]:+.3f} + 0.15",
        )
        return items, dt, [check, _study_finite_check(rows)]


class Paper(_DQNWorkload):
    """The paper's shapes: D=100, h=256, k=100 actions, B=128, 3 candidates,
    history_len 50. Burn-in is one batch, then a short training run, then
    greedy evaluation; the study uses the paper's predictor (h=256, B=32).

    GEMMs dominate here, so a change that only cuts per-call overhead shows
    on `toy` and not here. Every dialogue has 14 turns (persona-chat
    length) so that each seed gives the same mix of burn-in and learn steps
    within a training run.
    """

    name = "paper"
    study_lengths = (1, 14)

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.agent_cfg = AgentConfig(
            n_actions=100, embedding_dim=100, hidden_dim=256, candidates=3,
            history_len=50, burn_in=128, batch_size=128,
            target_sync_period=10_000, learn_steps=144, test_steps=100_000,
            memory_capacity=10_000,
        )
        self.study_cfg = PredictorConfig(
            hidden_dim=256, batch_size=32, epochs=1, runs=1, seed=self.s[7],
        )

    def _generate(self):
        s = self.s
        kw = dict(words_per_topic=25, turns_range=(14, 14))
        return (
            toydata.make_toy_embeddings(40, words_per_topic=25, dim=100, seed=s[0],
                                        spread=0.3),
            toydata.make_toy_corpus(200, topics=range(40), seed=s[1], id_prefix="tr", **kw),
            toydata.make_toy_corpus(60, topics=range(40), seed=s[2], id_prefix="te", **kw),
        )

    def main(self):
        report, dt, checks = self._train()
        return report["steps"], dt, checks

    def reuse(self):
        turns, dt, check = self._evaluate("test", self.test_corpus)
        return turns, dt, [check]

    def study(self):
        items, dt, rows = self._study(
            self.train_corpus.subset(self.train_corpus.ids[:40]),
            self.test_corpus.subset(self.test_corpus.ids[:20]),
            self.table, self.study_lengths)
        return items, dt, [_study_finite_check(rows)]


class CorpusFiles(Workload):
    """`run_experiment` on files on disk: a dim-100 text table of 7,200
    words (about 15 MB), 600 training and 150 test dialogues (about 10k
    sentences), k=100 sentence clusters with the pipeline's 10 restarts,
    k_splits=2 and a tiny agent (hidden 16, about 200 steps per split).

    This is the data path: k-means dominates a fresh run and re-parsing the
    table dominates the in-place rerun, while the GRU is a small share. The
    study runs on a slice of the same dialogues and table.
    """

    name = "corpus"
    study_lengths = (1, 25)
    k_splits = 2

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.fresh_runs = 0
        self.first_digest = None
        self.agent_cfg = AgentConfig(
            n_actions=100, embedding_dim=100, hidden_dim=16,
            burn_in=100, batch_size=16, target_sync_period=100, learn_steps=200,
            test_steps=300, memory_capacity=1000,
        )
        self.study_cfg = PredictorConfig(
            hidden_dim=16, batch_size=32, epochs=1, runs=1, seed=self.s[7],
        )

    def setup(self):
        """Generate the inputs and write them to disk; returns (1, seconds, checks)."""
        _, dt = self._timed(self._make_inputs)
        written = all(os.path.getsize(p) > 0 for p in self.paths.values())
        return 1, dt, [Check("inputs_written", written, ", ".join(sorted(self.paths)))]

    def _make_inputs(self):
        s = self.s
        kw = dict(words_per_topic=60, turns_range=(12, 16))
        self._write_inputs(
            toydata.make_toy_embeddings(120, words_per_topic=60, dim=100, seed=s[0],
                                        spread=0.3),
            toydata.make_toy_corpus(600, topics=range(120), seed=s[1], id_prefix="tr", **kw),
            toydata.make_toy_corpus(150, topics=range(120), seed=s[2], id_prefix="te", **kw),
        )
        self.sentences = sum(len(d.turns) for d in self.train_corpus) + sum(
            len(d.turns) for d in self.test_corpus)

    def main(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir = os.path.join(self.work_dir, f"out{self.fresh_runs}")
        self.fresh_runs += 1
        _, dt = self._timed(experiment.run_experiment, self.config())
        checks = [self._sentence_model_check(), self._report_rows_check()]
        digest = _tree_digest(self.out_dir)
        digest.pop("config.resolved.json")  # holds the output path
        if self.first_digest is None:
            self.first_digest = digest
        else:
            checks.append(Check(
                "fresh_runs_byte_identical", digest == self.first_digest,
                f"{len(digest)} artifacts compared with the first fresh run",
            ))
        return self.sentences, dt, checks

    def reuse(self):
        before = _tree_digest(self.out_dir)
        _, dt = self._timed(experiment.run_experiment, self.config())
        after = _tree_digest(self.out_dir)
        changed = sorted(p for p in set(before) | set(after) if before.get(p) != after.get(p))
        check = Check("rerun_leaves_artifacts_byte_identical", not changed,
                      f"{len(before)} artifacts, changed: {changed[:3]}")
        return self.sentences, dt, [check]

    def study(self):
        items, dt, rows = self._study(
            self.train_corpus.subset(self.train_corpus.ids[:120]),
            self.test_corpus.subset(self.test_corpus.ids[:40]),
            self.table, self.study_lengths)
        return items, dt, [_study_finite_check(rows)]

    def _report_rows_check(self) -> Check:
        trained = _read_json(os.path.join(self.out_dir, "train.done.json"))["trained"]
        expected = [f"split {sid}" for _dim, sid in trained] + [
            "Average", "Sum", "Upper Bound", "Lower Bound", "Random Sel."]
        with open(os.path.join(self.out_dir, "report.csv"), encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        rows = [ln.split(",", 1)[0] for ln in lines[1:]]
        ok = lines[0].startswith("row,dim,") and rows == expected
        return Check("report_csv_fixed_rows", ok, f"rows {rows}")


WORKLOADS = {w.name: w for w in (Toy, Paper, CorpusFiles)}
