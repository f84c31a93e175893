"""End-to-end pipeline plumbing: config round-trips, stage markers,
resumability, report shape, and cross-directory determinism."""

import csv
import inspect
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from chatdqn import (
    AgentConfig,
    make_toy_corpus,
    make_toy_embeddings,
    save_embeddings_file,
)
from chatdqn.agent import ChatDQNAgent, moving_average
from chatdqn.checkpoint import read_json, save_agent_checkpoint, write_json
from chatdqn.clustering import ClusterModel, load_cluster_model, save_cluster_model
from chatdqn.corpus import DataSplit, load_corpus, save_corpus, save_splits
from chatdqn.experiment import (
    SEED_ENV_VAR,
    STAGES,
    ExperimentConfig,
    StageError,
    baseline_bounds,
    config_hash,
    emit_learning_curve,
    evaluate_checkpoint,
    load_experiment_config,
    load_policy,
    load_splits,
    run_experiment,
    save_experiment_config,
    train_single,
)
from chatdqn.reward_predictor import PredictorConfig


def _tiny_agent_cfg():
    return AgentConfig(
        n_actions=4, embedding_dim=6, hidden_dim=8, burn_in=20,
        batch_size=8, target_sync_period=50, learn_steps=120,
        test_steps=400, memory_capacity=200, seed=0,
    )


def _write_world(root):
    for dim in (6, 8):
        save_embeddings_file(make_toy_embeddings(4, dim=dim, seed=31),
                             str(root / f"emb{dim}.txt"))
    save_corpus(make_toy_corpus(16, topics=range(4), seed=31, id_prefix="tr"),
                str(root / "corpus.jsonl"))
    save_corpus(make_toy_corpus(6, topics=range(4), seed=32, id_prefix="te"),
                str(root / "test.jsonl"))


def _make_cfg(root, out_name="run", seed=5, dims=(6,)):
    return ExperimentConfig(
        corpus=str(root / "corpus.jsonl"),
        test_corpus=str(root / "test.jsonl"),
        embeddings={dim: str(root / f"emb{dim}.txt") for dim in dims},
        out_dir=str(root / out_name),
        k_splits=2,
        agent=_tiny_agent_cfg(),
        predictor=PredictorConfig(hidden_dim=4, epochs=1, runs=1, batch_size=8),
        seed=seed,
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    _write_world(root)
    cfg = _make_cfg(root)
    out = run_experiment(cfg)
    return cfg, out, root


# -------------------------------------------------------------- config

def test_config_roundtrip():
    cfg = ExperimentConfig(
        corpus="c.jsonl", embeddings={100: "a.txt", 300: "b.txt"},
        out_dir="somewhere", k_splits=7, seed=12,
    )
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert back.dims == (100, 300)


def test_config_rejects_unknown_keys():
    d = ExperimentConfig(corpus="c", embeddings={6: "e"}).to_dict()
    d["typo_field"] = 1
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("key", ["layers", "history_len"])
def test_config_rejects_deleted_predictor_knobs(key):
    # the regressor's depth is fixed and the study varies h itself, so a
    # config that still sets either knob is refused rather than ignored
    d = ExperimentConfig(corpus="c", embeddings={6: "e"}).to_dict()
    d["predictor"][key] = 2
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(d)


def test_config_rejects_bad_version():
    d = ExperimentConfig(corpus="c", embeddings={6: "e"}).to_dict()
    d["version"] = 2
    with pytest.raises(ValueError, match="version"):
        ExperimentConfig.from_dict(d)


def test_config_source_validation():
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(embeddings={6: "e"})
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(corpus="c", ingest_from="i", embeddings={6: "e"})
    with pytest.raises(ValueError, match="embedding"):
        ExperimentConfig(corpus="c", embeddings={})
    with pytest.raises(ValueError, match="k_splits"):
        ExperimentConfig(corpus="c", embeddings={6: "e"}, k_splits=0)


def test_config_hash_ignores_out_dir():
    a = ExperimentConfig(corpus="c", embeddings={6: "e"}, out_dir="x")
    b = ExperimentConfig(corpus="c", embeddings={6: "e"}, out_dir="y")
    c = ExperimentConfig(corpus="c", embeddings={6: "e"}, out_dir="x", seed=1)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16


def test_config_hash_of_default_config_is_stable():
    # a change here invalidates every finished output directory
    cfg = ExperimentConfig(corpus="c.jsonl", embeddings={100: "e.txt"})
    assert config_hash(cfg) == "a0b1750e8f8265cd"


def test_float_fields_take_finite_ints():
    # a float field takes a config file's `1` for `1.0`
    d = ExperimentConfig(corpus="c", embeddings={6: "e"}).to_dict()
    d["agent"].update(gamma=1, epsilon_end=0)
    d["predictor"]["learning_rate"] = 1
    cfg = ExperimentConfig.from_dict(d)
    assert (cfg.agent.gamma, cfg.agent.epsilon_end, cfg.predictor.learning_rate) == (1, 0, 1)


def test_config_file_roundtrip_and_path_resolution(tmp_path):
    _write_world(tmp_path)
    raw = {
        "version": 1,
        "corpus": "corpus.jsonl",       # relative to the config file
        "test_corpus": "test.jsonl",
        "embeddings": {"6": "emb6.txt"},
        "out_dir": "out",
        "k_splits": 3,
        "seed": 9,
    }
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(raw))
    cfg = load_experiment_config(str(cpath))
    assert os.path.isabs(cfg.corpus) and os.path.exists(cfg.corpus)
    assert os.path.isabs(cfg.embeddings[6])
    assert cfg.out_dir == str(tmp_path / "out")
    assert cfg.seed == 9
    # and a saved config loads back to the same resolved values
    save_experiment_config(cfg, str(tmp_path / "resolved.json"))
    again = load_experiment_config(str(tmp_path / "resolved.json"))
    assert again == cfg


def test_config_load_rejects_missing_paths(tmp_path):
    cfg = ExperimentConfig(corpus="nope.jsonl", embeddings={6: "gone.txt"})
    path = tmp_path / "exp.json"
    save_experiment_config(cfg, str(path))
    with pytest.raises(ValueError, match="does not exist"):
        load_experiment_config(str(path))


def test_seed_env_override(tmp_path, monkeypatch):
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, seed=5)
    path = tmp_path / "exp.json"
    save_experiment_config(cfg, str(path))

    monkeypatch.setenv(SEED_ENV_VAR, "123")
    assert load_experiment_config(str(path)).seed == 123

    monkeypatch.setenv(SEED_ENV_VAR, "")
    assert load_experiment_config(str(path)).seed == 5

    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    with pytest.raises(ValueError, match=SEED_ENV_VAR):
        load_experiment_config(str(path))


# ------------------------------------------------------------ pipeline

def test_all_stage_markers_written(pipeline):
    cfg, out, _ = pipeline
    h = config_hash(cfg)
    for stage in STAGES:
        marker = os.path.join(out, f"{stage}.done.json")
        assert os.path.exists(marker), stage
        payload = json.load(open(marker))
        assert payload["config_hash"] == h
        assert payload["stage"] == stage


def test_expected_artifacts_exist(pipeline):
    _, out, _ = pipeline
    for name in (
        "config.resolved.json", "corpus.jsonl", "test_corpus.jsonl",
        "sentence_clusters_dim6.json", "dialogue_clusters.json",
        "splits.json", "test_splits.json", "report.csv", "comparisons.json",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    run_dirs = sorted(
        os.path.join(out, "runs", "dim6", d)
        for d in os.listdir(os.path.join(out, "runs", "dim6"))
    )
    assert run_dirs
    for rdir in run_dirs:
        for name in ("report.json", "checkpoint.bin", "evals.json",
                     "curve.csv", "curve.svg", "done.json"):
            assert os.path.exists(os.path.join(rdir, name)), (rdir, name)


def test_splits_partition_corpus(pipeline):
    cfg, out, _ = pipeline
    splits = load_splits(os.path.join(out, "splits.json"))
    ids = [i for s in splits for i in s.dialogue_ids]
    assert len(ids) == len(set(ids)) == 16
    assert all(i.startswith("tr") for i in ids)


def _read_report(out):
    rows = []
    with open(os.path.join(out, "report.csv")) as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        rows = list(reader)
    return header, rows


def test_report_csv_shape(pipeline):
    cfg, out, _ = pipeline
    header, rows = _read_report(out)
    assert header == ["row", "dim", "episodes", "steps", "train_ma100",
                      "eval_train", "eval_test"]
    labels = [r[0] for r in rows]
    split_rows = [r for r in rows if r[0].startswith("split ")]
    assert split_rows
    assert labels[-3:] == ["Upper Bound", "Lower Bound", "Random Sel."]
    assert labels.count("Average") == 1 and labels.count("Sum") == 1
    # Average row aggregates the split rows of its dim
    avg = next(r for r in rows if r[0] == "Average")
    want = np.mean([float(r[5]) for r in split_rows])
    assert float(avg[5]) == pytest.approx(want, abs=1e-6)
    s = next(r for r in rows if r[0] == "Sum")
    assert int(s[2]) == sum(int(r[2]) for r in split_rows)


def test_report_bound_rows_match_baseline_bounds(pipeline):
    cfg, out, _ = pipeline
    # oracle: recompute the bounds from the evaluated dialogue ids
    corpus = load_corpus(os.path.join(out, "corpus.jsonl"))
    test_corpus = load_corpus(os.path.join(out, "test_corpus.jsonl"))
    train_ids, test_ids = set(), set()
    base = os.path.join(out, "runs", "dim6")
    for d in os.listdir(base):
        evs = json.load(open(os.path.join(base, d, "evals.json")))
        train_ids.update(evs["eval_train"]["dialogue_ids"])
        if evs["eval_test"]:
            test_ids.update(evs["eval_test"]["dialogue_ids"])
    upper, lower, rand = baseline_bounds(
        (corpus.get(i) for i in sorted(train_ids)), cfg.agent.candidates)
    t_upper, t_lower, t_rand = baseline_bounds(
        (test_corpus.get(i) for i in sorted(test_ids)), cfg.agent.candidates)
    _, rows = _read_report(out)
    by_label = {r[0]: r for r in rows}
    assert by_label["Upper Bound"][5] == f"{upper:.6f}"
    assert by_label["Lower Bound"][5] == f"{lower:.6f}"
    assert by_label["Random Sel."][5] == f"{rand:.6f}"
    assert by_label["Upper Bound"][6] == f"{t_upper:.6f}"
    assert by_label["Random Sel."][6] == f"{t_rand:.6f}"
    assert float(by_label["Lower Bound"][5]) == -float(by_label["Upper Bound"][5])


def test_single_dim_comparison_note(pipeline):
    cfg, out, _ = pipeline
    payload = json.load(open(os.path.join(out, "comparisons.json")))
    assert payload["config_hash"] == config_hash(cfg)
    assert "note" in payload


def test_rerun_is_noop(pipeline):
    cfg, out, _ = pipeline
    watched = [os.path.join(out, "report.csv"),
               os.path.join(out, "comparisons.json"),
               os.path.join(out, "splits.json")]
    base = os.path.join(out, "runs", "dim6")
    for d in os.listdir(base):
        watched.append(os.path.join(base, d, "checkpoint.bin"))
    before = {p: os.stat(p).st_mtime_ns for p in watched}
    assert run_experiment(cfg) == out
    after = {p: os.stat(p).st_mtime_ns for p in watched}
    assert before == after


def test_conflicting_config_same_out_dir_refused(pipeline):
    cfg, out, _ = pipeline
    other = replace(cfg, seed=cfg.seed + 1)
    with pytest.raises(ValueError, match="fresh --out"):
        run_experiment(other)


def test_until_stops_early(tmp_path):
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="early")
    out = run_experiment(cfg, until="split")
    done = {s for s in STAGES if os.path.exists(os.path.join(out, f"{s}.done.json"))}
    assert done == {"ingest", "embed", "cluster_sentences",
                    "cluster_dialogues", "split"}
    with pytest.raises(ValueError, match="unknown stage"):
        run_experiment(cfg, until="nonsense")


def test_stage_error_names_failing_stage(tmp_path):
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="bad")
    # declare the 6-d table as 7-d: the embed stage must fail, by name
    cfg.embeddings = {7: cfg.embeddings[6]}
    cfg.agent = replace(cfg.agent, embedding_dim=7)
    with pytest.raises(StageError, match="stage embed failed") as err:
        run_experiment(cfg)
    assert err.value.stage == "embed"


def test_missing_corpus_fails_in_ingest(tmp_path):
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="noc")
    cfg.corpus = str(tmp_path / "missing.jsonl")
    with pytest.raises(StageError) as err:
        run_experiment(cfg)
    assert err.value.stage == "ingest"


def test_cross_directory_determinism(tmp_path):
    _write_world(tmp_path)
    out1 = run_experiment(_make_cfg(tmp_path, out_name="d1"))
    out2 = run_experiment(_make_cfg(tmp_path, out_name="d2"))
    compared = 0
    for dirpath, _, files in os.walk(out1):
        rel = os.path.relpath(dirpath, out1)
        for name in files:
            p1 = os.path.join(dirpath, name)
            p2 = os.path.join(out2, rel, name)
            assert os.path.exists(p2), p2
            if name == "config.resolved.json":  # embeds out_dir, must differ
                continue
            assert open(p1, "rb").read() == open(p2, "rb").read(), p1
            compared += 1
    assert compared >= 10


def _digest(out):
    return {os.path.relpath(os.path.join(d, f), out): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(out) for f in files}


def _write_parlai(corpus, path):
    """`corpus` as a parl.ai text export: a persona line, then one
    tab-separated (env, agent) line per exchange."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in corpus:
            fh.write("1 your persona: i like toys.\n")
            for n, i in enumerate(range(0, len(d.turns), 2), start=2):
                fh.write(f"{n} {d.turns[i].text}\t{d.turns[i + 1].text}\n")


@pytest.fixture(scope="module", params=["corpus", "ingest_from"])
def train_only_pipeline(request, tmp_path_factory):
    """A pipeline whose config has no test corpus; its train corpus is read
    from JSONL (`corpus`) or from a parl.ai text export (`ingest_from`)."""
    root = tmp_path_factory.mktemp("trainonly")
    _write_world(root)
    cfg = replace(_make_cfg(root), test_corpus=None)
    if request.param == "ingest_from":
        _write_parlai(load_corpus(cfg.corpus), str(root / "train.txt"))
        cfg = replace(cfg, corpus=None, ingest_from=str(root / "train.txt"))
    return cfg, run_experiment(cfg), root


def test_train_only_pipeline_writes_no_test_artifacts(train_only_pipeline):
    cfg, out, root = train_only_pipeline
    assert not [n for n in os.listdir(out) if n.startswith("test_")]
    written = load_corpus(os.path.join(out, "corpus.jsonl"))
    source = load_corpus(str(root / "corpus.jsonl"))
    assert [d.turns for d in written] == [d.turns for d in source]
    if cfg.ingest_from is not None:
        assert all(i.startswith("pc") for i in written.ids)
    base = os.path.join(out, "runs", "dim6")
    assert os.listdir(base)
    for d in os.listdir(base):
        evs = json.load(open(os.path.join(base, d, "evals.json")))
        assert evs["eval_test"] is None
        assert evs["eval_train"]["episodes"] > 0
    header, rows = _read_report(out)
    col = header.index("eval_test")
    assert [r[col] for r in rows] == [""] * len(rows)
    assert all(r[header.index("eval_train")] for r in rows)
    assert json.load(open(os.path.join(out, "ingest.done.json")))["test_dialogues"] is None


def test_train_only_pipeline_has_no_test_evaluation(train_only_pipeline):
    cfg, out, _ = train_only_pipeline
    ckpt = os.path.join(out, "runs", "dim6", "split000", "checkpoint.bin")
    assert evaluate_checkpoint(cfg, ckpt, "train")["episodes"] > 0
    with pytest.raises(ValueError, match="config has no test_corpus"):
        evaluate_checkpoint(cfg, ckpt, "test")
    fresh = replace(cfg, out_dir=out + "_fresh")
    with pytest.raises(ValueError, match="config has no test_corpus"):
        evaluate_checkpoint(fresh, ckpt, "test")
    assert not os.path.exists(fresh.out_dir)  # refused before any stage ran


def test_train_only_pipeline_rerun_is_byte_identical(train_only_pipeline):
    cfg, out, _ = train_only_pipeline
    before = _digest(out)
    assert run_experiment(cfg) == out
    assert _digest(out) == before


# ------------------------------------------- freshness and crash safety

def _set_hash(path, h):
    payload = json.load(open(path))
    payload["config_hash"] = h
    write_json(path, payload)


_RUN0 = os.path.join("runs", "dim6", "split000")


@pytest.mark.parametrize("rel, stale_marker, stage", [
    (os.path.join(_RUN0, "done.json"), None, "train"),
    (os.path.join(_RUN0, "evals.json"), "evaluate", "evaluate"),
    ("cluster_dialogues.done.json", None, "cluster_dialogues"),
    (os.path.join(_RUN0, "evals.json"), "report", "report"),
    (os.path.join(_RUN0, "report.json"), "report", "report"),
    (os.path.join(_RUN0, "evals.json"), "compare", "compare"),
])
def test_file_with_foreign_hash_refuses(tmp_path, rel, stale_marker, stage):
    # a run file is read by the rule of the stage markers: another config's
    # hash refuses the run instead of being silently trained over, or
    # reported and compared; two sizes, so that compare reads evals.json
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="foreign", dims=(6, 8))
    out = run_experiment(cfg)
    _set_hash(os.path.join(out, rel), "feedfacefeedface")
    if stale_marker:  # so the stage looks at its run files again
        os.remove(os.path.join(out, f"{stale_marker}.done.json"))
    before = _digest(out)
    with pytest.raises(StageError, match="fresh --out") as err:
        run_experiment(cfg)
    assert err.value.stage == stage
    assert f"stage {stage} failed: {rel}: " in str(err.value)
    assert _digest(out) == before


@pytest.mark.parametrize("rel, until, stage", [
    ("split.done.json", None, "split"),
    (os.path.join(_RUN0, "done.json"), None, "train"),
    (os.path.join(_RUN0, "checkpoint.bin"), "train", "evaluate"),
])
def test_truncated_file_refuses_resume(tmp_path, rel, until, stage):
    # a file cut short, as by a crash outside atomic_write, fails the
    # resume in the stage that reads it rather than being trusted
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="trunc")
    out = run_experiment(cfg, until=until)
    path = os.path.join(out, rel)
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    with pytest.raises(StageError) as err:
        run_experiment(cfg)
    assert err.value.stage == stage
    assert str(err.value).startswith(f"stage {stage} failed")


# a list, a number and a file cut short, as by a crash outside atomic_write
_BAD_JSON = {"list": "[]", "number": "7", "truncated": '{"version": 1,\n'}


@pytest.mark.parametrize("content", list(_BAD_JSON.values()), ids=list(_BAD_JSON))
@pytest.mark.parametrize("reader", [
    read_json, load_experiment_config, load_cluster_model, load_splits,
    lambda path: emit_learning_curve(os.path.dirname(path)),
], ids=["read_json", "load_experiment_config", "load_cluster_model", "load_splits",
        "emit_learning_curve"])
def test_malformed_json_file_is_refused_by_name(tmp_path, reader, content):
    # each used to raise an AttributeError (list, number) or a JSON decode
    # error that did not name the file
    path = tmp_path / "report.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        reader(str(path))
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("content", list(_BAD_JSON.values()), ids=list(_BAD_JSON))
@pytest.mark.parametrize("rel", ["ingest.done.json", "config.resolved.json"])
def test_malformed_marker_or_resolved_config_refuses_resume(tmp_path, rel, content):
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="bad_json")
    out = run_experiment(cfg, until="ingest")
    path = os.path.join(out, rel)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    before = _digest(out)
    with pytest.raises((StageError, ValueError)) as err:
        run_experiment(cfg)
    if rel == "config.resolved.json":  # read before any stage runs
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{path}: ")
    else:
        assert err.value.stage == "ingest"
        assert str(err.value).startswith(f"stage ingest failed: {path}: ")
    assert _digest(out) == before


# -------------------------------------------------- single-run helpers

def test_train_single_and_evaluate_checkpoint(tmp_path):
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="single")
    rdir = train_single(cfg, 6, 0)
    ckpt = os.path.join(rdir, "checkpoint.bin")
    assert os.path.exists(ckpt)
    # idempotent: second call must not retrain
    before = os.stat(ckpt).st_mtime_ns
    assert train_single(cfg, 6, 0) == rdir
    assert os.stat(ckpt).st_mtime_ns == before

    result = evaluate_checkpoint(cfg, ckpt, "train")
    assert result["dim"] == 6
    assert result["dialogues"] == "train"
    assert np.isfinite(result["mean_reward"])
    assert result["episodes"] > 0
    result_t = evaluate_checkpoint(cfg, ckpt, "test")
    assert result_t["episodes"] > 0
    by_file = evaluate_checkpoint(cfg, ckpt, str(tmp_path / "test.jsonl"))
    assert by_file["episodes"] == result_t["episodes"]

    with pytest.raises(ValueError, match="not among configured"):
        train_single(cfg, 300, 0)
    with pytest.raises(ValueError, match="no split"):
        train_single(cfg, 6, 99)


def _policy_checkpoint(path, agent_cfg, **arch):
    save_agent_checkpoint(str(path), ChatDQNAgent(replace(agent_cfg, **arch)))
    return str(path)


def test_load_policy_arch_match_accepted(tmp_path):
    cfg = _make_cfg(tmp_path, dims=(6, 8))
    for dim in (6, 8):
        net = load_policy(cfg, _policy_checkpoint(tmp_path / "a.ckpt", cfg.agent,
                                                  embedding_dim=dim))
        assert (net.embedding_dim, net.hidden_dim) == (dim, cfg.agent.hidden_dim)
    net = load_policy(cfg, str(tmp_path / "a.ckpt"), dims=(8,))
    assert net.embedding_dim == 8


@pytest.mark.parametrize("field, value, why", [
    ("hidden_dim", 9, "hidden_dim 9 != 8"),
    ("n_actions", 5, "n_actions 5 != 4"),
    ("dropout_rate", 0.5, "dropout_rate 0.5 != 0.2"),
    ("embedding_dim", 7, "embedding_dim 7 not among configured [6, 8]"),
], ids=["hidden_dim", "n_actions", "dropout_rate", "embedding_dim"])
def test_load_policy_arch_mismatch_refused(tmp_path, field, value, why):
    cfg = _make_cfg(tmp_path, dims=(6, 8))
    path = _policy_checkpoint(tmp_path / "a.ckpt", cfg.agent, **{field: value})
    with pytest.raises(ValueError, match=f"architecture mismatch: {re.escape(why)}$"):
        load_policy(cfg, path)


def test_evaluate_stage_refuses_checkpoint_of_another_size(tmp_path):
    # both sizes are configured, but a run evaluates only a checkpoint of its own
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="swap", dims=(6, 8))
    out = run_experiment(cfg, until="train")
    run8 = os.path.join(out, "runs", "dim8", "split000", "checkpoint.bin")
    with open(run8, "rb") as src, open(os.path.join(out, _RUN0, "checkpoint.bin"), "wb") as dst:
        dst.write(src.read())
    with pytest.raises(StageError, match=r"embedding_dim 8 not among configured \[6\]") as err:
        run_experiment(cfg)
    assert err.value.stage == "evaluate"


def test_evaluate_checkpoint_arch_mismatch(tmp_path):
    _write_world(tmp_path)
    cfg = _make_cfg(tmp_path, out_name="mm")
    rdir = train_single(cfg, 6, 0)
    bad_cfg = replace(cfg, agent=replace(cfg.agent, hidden_dim=99))
    bad_cfg.out_dir = str(tmp_path / "mm2")
    with pytest.raises(ValueError, match="architecture mismatch"):
        evaluate_checkpoint(bad_cfg, os.path.join(rdir, "checkpoint.bin"), "train")


# ------------------------------------------------------ learning curve

def _fake_report(run_dir, rewards):
    ma = moving_average(rewards, 100)
    payload = {
        "config_hash": "cafe", "dim": 6, "split": 0, "seed": 0,
        "episodes": len(rewards), "steps": 0,
        "episode_rewards": rewards, "moving_avg": ma,
    }
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(payload, fh)
    return ma


def test_curve_row_100_is_mean_of_first_100(tmp_path):
    rdir = str(tmp_path / "r")
    rewards = [float((i * 7) % 11 - 5) for i in range(150)]
    _fake_report(rdir, rewards)
    cpath, spath = emit_learning_curve(rdir)
    with open(cpath) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["episode", "reward", "moving_avg"]
    assert len(rows) == 1 + 150
    row100 = rows[100]
    assert row100[0] == "100"
    assert row100[2] == f"{np.mean(rewards[:100]):.6f}"
    assert os.path.exists(spath)
    assert "<svg" in open(spath).read()


def test_curve_empty_report(tmp_path):
    rdir = str(tmp_path / "r0")
    _fake_report(rdir, [])
    cpath, spath = emit_learning_curve(rdir)
    with open(cpath) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows == [["episode", "reward", "moving_avg"]]
    assert "<svg" in open(spath).read()


def test_curve_constant_rewards(tmp_path):
    rdir = str(tmp_path / "rc")
    _fake_report(rdir, [2.0] * 40)
    cpath, _ = emit_learning_curve(rdir)
    with open(cpath) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert all(r[2] == "2.000000" for r in rows[1:])


def test_curve_missing_report(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_learning_curve(str(tmp_path / "void"))


def test_failed_json_write_keeps_previous_file(tmp_path, monkeypatch):
    # markers, run files, cluster models and splits all go through
    # write_json, and the corpus through atomic_write
    model = ClusterModel(k=1, dim=2, centroids=np.zeros((1, 2)), inertia=0.0)
    corpus = make_toy_corpus(3, topics=range(2), seed=1)
    writers = {
        "done.json": lambda p, h: write_json(p, {"config_hash": h}),
        "clusters.json": lambda p, h: save_cluster_model(model, p, extra={"config_hash": h}),
        "splits.json": lambda p, h: save_splits(
            [DataSplit(0, tuple(corpus.ids))], p, extra={"config_hash": h}),
        "corpus.jsonl": lambda p, h: save_corpus(corpus, p),
    }
    real_dumps = json.dumps
    calls = []

    def dump_half(obj, fh, **kwargs):
        fh.write('{"config_hash":')
        raise OSError("disk full")

    def dumps_once(obj, **kwargs):  # the corpus's second line fails
        calls.append(obj)
        if len(calls) > 1:
            raise OSError("disk full")
        return real_dumps(obj, **kwargs)

    for name, write in writers.items():
        path = str(tmp_path / name)
        write(path, "old")
        before = open(path, "rb").read()
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(json, "dump", dump_half)
            m.setattr(json, "dumps", dumps_once)
            with pytest.raises(OSError, match="disk full"):
                write(path, "new")
        assert open(path, "rb").read() == before, name
    assert sorted(os.listdir(tmp_path)) == sorted(writers)


def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch):
    # report.csv, curve.csv, curve.svg and study.csv all go through atomic_write
    rdir = str(tmp_path / "r")
    _fake_report(rdir, [1.0, -1.0, 3.0])
    cpath, _ = emit_learning_curve(rdir)
    before = open(cpath, "rb").read()

    class HalfWriter:
        def __init__(self, fh, **kwargs):
            self.fh = fh

        def writerow(self, row):
            self.fh.write("episode,")
            raise OSError("disk full")

    monkeypatch.setattr(csv, "writer", HalfWriter)
    with pytest.raises(OSError, match="disk full"):
        emit_learning_curve(rdir)
    assert open(cpath, "rb").read() == before
    assert sorted(os.listdir(rdir)) == ["curve.csv", "curve.svg", "report.json"]


def test_top_level_names_are_the_entry_points():
    import chatdqn

    names = {n for n, v in vars(chatdqn).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == {
        "ExperimentConfig", "StageError", "load_experiment_config",
        "save_experiment_config", "run_experiment", "train_single",
        "evaluate_checkpoint", "reward_study", "AgentConfig", "PredictorConfig",
        "make_toy_corpus", "make_toy_embeddings", "save_embeddings_file",
    }
    assert sorted(chatdqn.__all__) == sorted(names)
