"""Command-line interface: every subcommand's happy path plus the error
exits (code 1 with an `error:` line on stderr)."""

import argparse
import csv
import io
import json
import os
import pathlib
import re
import struct

import numpy as np
import pytest

from chatdqn import AgentConfig, make_toy_corpus, make_toy_embeddings, save_embeddings_file
from chatdqn.checkpoint import load_qnetwork
from chatdqn.cli import build_parser, main
from chatdqn.clustering import assign_many, load_cluster_model
from chatdqn.corpus import load_corpus, load_splits, save_corpus
from chatdqn.embeddings import embed_corpus, embed_texts, load_embeddings
from chatdqn.experiment import ExperimentConfig, load_experiment_config, save_experiment_config
from chatdqn.repl import chat_repl
from chatdqn.reward_predictor import PredictorConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PARLAI_SAMPLE = """\
1 your persona: i like pie.
2 hello how are you\ti am fine thanks\t\tcand1|cand2
3 what do you do\ti drive a big truck
1 hi there\thello friend
"""


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    table = make_toy_embeddings(4, dim=6, seed=41)
    save_embeddings_file(table, str(root / "emb6.txt"))
    save_corpus(make_toy_corpus(16, topics=range(4), seed=41, id_prefix="tr"),
                str(root / "corpus.jsonl"))
    save_corpus(make_toy_corpus(6, topics=range(4), seed=42, id_prefix="te"),
                str(root / "test.jsonl"))
    cfg = ExperimentConfig(
        corpus="corpus.jsonl",
        test_corpus="test.jsonl",
        embeddings={6: "emb6.txt"},
        out_dir="run",
        k_splits=2,
        agent=AgentConfig(
            n_actions=4, embedding_dim=6, hidden_dim=8, burn_in=20,
            batch_size=8, target_sync_period=50, learn_steps=120,
            test_steps=400, memory_capacity=200, seed=0,
        ),
        predictor=PredictorConfig(hidden_dim=4, epochs=1, runs=2, batch_size=8),
        seed=5,
    )
    cpath = root / "exp.json"
    save_experiment_config(cfg, str(cpath))
    rc = main(["run", "--config", str(cpath)])
    assert rc == 0
    return root, str(cpath), str(root / "run")


def _first_run_dir(out):
    base = os.path.join(out, "runs", "dim6")
    return os.path.join(base, sorted(os.listdir(base))[0])


def _checkpoint_parts(out):
    """(header, payload bytes) of the first run's `CDQ1` checkpoint: magic,
    big-endian header length, JSON header, float64 payload."""
    blob = open(os.path.join(_first_run_dir(out), "checkpoint.bin"), "rb").read()
    (hlen,) = struct.unpack(">I", blob[4:8])
    return json.loads(blob[8 : 8 + hlen]), bytearray(blob[8 + hlen :])


def _write_checkpoint(path, header, payload):
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"CDQ1" + struct.pack(">I", len(header_bytes)) + header_bytes + payload)


# ----------------------------------------------------------- pipeline

def test_run_writes_markers(cli_world, capsys):
    root, cpath, out = cli_world
    assert os.path.exists(os.path.join(out, "report.csv"))
    # resume is a quiet no-op with exit code 0
    assert main(["run", "--config", cpath]) == 0
    assert capsys.readouterr().out.strip().endswith("run")


def test_report_prints_csv(cli_world, capsys):
    _, cpath, _ = cli_world
    assert main(["report", "--config", cpath]) == 0
    outp = capsys.readouterr().out
    assert "row,dim,episodes" in outp
    assert "Random Sel." in outp


def test_eval_checkpoint(cli_world, capsys):
    _, cpath, out = cli_world
    ckpt = os.path.join(_first_run_dir(out), "checkpoint.bin")
    assert main(["eval", "--config", cpath, "--checkpoint", ckpt,
                 "--dialogues", "train"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 6
    assert "mean_reward" in payload and payload["episodes"] > 0


def test_eval_arch_mismatch_refused(cli_world, tmp_path, capsys):
    root, cpath, out = cli_world
    cfg_bad = json.load(open(cpath))
    cfg_bad["agent"]["hidden_dim"] = 99
    cfg_bad["out_dir"] = str(tmp_path / "bad")
    # referenced data paths are relative to the config file's directory
    bad_path = root / "exp_bad.json"
    bad_path.write_text(json.dumps(cfg_bad))
    ckpt = os.path.join(_first_run_dir(out), "checkpoint.bin")
    rc = main(["eval", "--config", str(bad_path), "--checkpoint", ckpt,
               "--dialogues", "train"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "architecture mismatch" in err


_MALFORMED_HEADERS = {
    "no_arch": lambda h: {k: v for k, v in h.items() if k != "arch"},
    "arch_without_hidden_dim": lambda h: {
        **h, "arch": {k: v for k, v in h["arch"].items() if k != "hidden_dim"}},
    "header_a_list": lambda h: [h],
}


@pytest.mark.parametrize("case", ["five_bytes", *_MALFORMED_HEADERS])
def test_eval_malformed_checkpoint_is_error(cli_world, tmp_path, capsys, case):
    # each of these once ended `eval` in a traceback (struct.error,
    # KeyError, AttributeError) instead of an error line
    _, cpath, out = cli_world
    ckpt = str(tmp_path / f"{case}.bin")
    if case == "five_bytes":
        open(ckpt, "wb").write(b"CDQ1\x00")
    else:
        header, payload = _checkpoint_parts(out)
        _write_checkpoint(ckpt, _MALFORMED_HEADERS[case](header), payload)
    rc = main(["eval", "--config", cpath, "--checkpoint", ckpt, "--dialogues", "train"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ")


def test_train_single_split(cli_world, tmp_path, capsys):
    _, cpath, _ = cli_world
    out = str(tmp_path / "t")
    rc = main(["train", "--config", cpath, "--split", "0", "--dim", "6",
               "--steps", "60", "--out", out])
    assert rc == 0
    rdir = capsys.readouterr().out.strip().splitlines()[-1]
    assert os.path.exists(os.path.join(rdir, "checkpoint.bin"))


def test_plot_run_dir(cli_world, capsys):
    _, _, out = cli_world
    rdir = _first_run_dir(out)
    assert main(["plot", "--run-dir", rdir]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith("curve.csv") and lines[1].endswith("curve.svg")


def test_plot_missing_dir(tmp_path, capsys):
    rc = main(["plot", "--run-dir", str(tmp_path / "void")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_predict_reward_study(cli_world, capsys):
    root, cpath, _ = cli_world
    out_csv = str(root / "study.csv")
    rc = main(["predict-reward", "study", "--config", cpath,
               "--lengths", "1,3", "--out", out_csv])
    assert rc == 0
    assert "best h=" in capsys.readouterr().out
    assert os.path.isfile(out_csv)
    with open(out_csv) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["h", "run", "pearson"]
    assert len(rows) == 1 + 2 * 2  # 2 lengths x 2 runs
    assert {r[0] for r in rows[1:]} == {"1", "3"}


# --------------------------------------------------------------- chat

def test_chat_scripted_session(cli_world, tmp_path, monkeypatch, capsys):
    root, cpath, out = cli_world
    ckpt = os.path.join(_first_run_dir(out), "checkpoint.bin")
    transcript = str(tmp_path / "t.jsonl")
    monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n\n:quit\n"))
    rc = main(["chat", "--config", cpath, "--checkpoint", ckpt,
               "--transcript", transcript])
    assert rc == 0
    outp = capsys.readouterr().out
    assert "q: " in outp and "transcript ->" in outp
    lines = [json.loads(l) for l in open(transcript)]
    assert [l["speaker"] for l in lines] == ["env", "agent"]


def test_chat_utterances_come_from_the_runs_sentence_clusters(cli_world, tmp_path,
                                                             monkeypatch):
    # the actions are the run's own sentence clusters, not a file named on
    # the command line, so another fit of the same k cannot relabel them
    root, cpath, out = cli_world
    ckpt = os.path.join(_first_run_dir(out), "checkpoint.bin")
    transcript = str(tmp_path / "t.jsonl")
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "hello there\nt00w01 t00w02\nt01w03\nt02w04 t03w05\n:quit\n"))
    assert main(["chat", "--config", cpath, "--checkpoint", ckpt,
                 "--transcript", transcript]) == 0
    agent = [l for l in map(json.loads, open(transcript)) if l["speaker"] == "agent"]
    assert len(agent) == 4
    model = load_cluster_model(os.path.join(out, "sentence_clusters_dim6.json"))
    vectors = embed_texts([l["text"] for l in agent],
                          load_embeddings(str(root / "emb6.txt"), 6))
    assert assign_many(model, vectors).tolist() == [l["action_id"] for l in agent]


def test_chat_transcript_equals_a_session_on_re_embedded_vectors(cli_world, tmp_path,
                                                               monkeypatch):
    # chat hands the REPL the pipeline's sentence vectors; a session on a
    # fresh embedding of the same corpus writes the same transcript
    root, cpath, out = cli_world
    ckpt = os.path.join(_first_run_dir(out), "checkpoint.bin")
    script = ["hello there", "t00w01 t00w02", "t01w03", "t02w04 t03w05", ":quit"]
    piped = str(tmp_path / "piped.jsonl")
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(script) + "\n"))
    assert main(["chat", "--config", cpath, "--checkpoint", ckpt,
                 "--transcript", piped]) == 0

    cfg = load_experiment_config(cpath)
    table = load_embeddings(str(root / "emb6.txt"), 6)
    corpus = load_corpus(os.path.join(out, "corpus.jsonl"))
    feed = iter(script)
    again = str(tmp_path / "again.jsonl")
    chat_repl(load_qnetwork(ckpt),
              load_cluster_model(os.path.join(out, "sentence_clusters_dim6.json")),
              table, corpus, embed_corpus(corpus, table)[0], again,
              input_fn=lambda prompt: next(feed), output_fn=lambda line: None,
              rng=np.random.default_rng([cfg.seed, 30]),
              candidates=cfg.agent.candidates, history_len=cfg.agent.history_len)
    with open(piped, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_chat_on_a_fresh_out_dir_runs_the_data_stages(cli_world, tmp_path, monkeypatch):
    root, cpath, out = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d["out_dir"] = str(tmp_path / "fresh")
    fresh_cfg = root / "exp_fresh_chat.json"
    fresh_cfg.write_text(json.dumps(d))
    monkeypatch.setattr("sys.stdin", io.StringIO(":quit\n"))
    assert main(["chat", "--config", str(fresh_cfg),
                 "--checkpoint", os.path.join(_first_run_dir(out), "checkpoint.bin"),
                 "--transcript", str(tmp_path / "t.jsonl")]) == 0
    written = sorted(os.listdir(d["out_dir"]))
    assert written == sorted([
        "config.resolved.json", "corpus.jsonl", "test_corpus.jsonl",
        "ingest.done.json", "embed.done.json", "cluster_sentences.done.json",
        "sentence_clusters_dim6.json",
    ])
    for name in ("corpus.jsonl", "sentence_clusters_dim6.json"):
        with open(os.path.join(out, name), "rb") as a, \
                open(os.path.join(d["out_dir"], name), "rb") as b:
            assert a.read() == b.read(), name


def test_chat_has_no_clusters_flag(cli_world, tmp_path):
    _, cpath, out = cli_world
    with pytest.raises(SystemExit) as e:
        main(["chat", "--config", cpath,
              "--checkpoint", os.path.join(_first_run_dir(out), "checkpoint.bin"),
              "--clusters", os.path.join(out, "sentence_clusters_dim6.json")])
    assert e.value.code == 2


def test_chat_non_finite_q_values_is_error(cli_world, tmp_path, monkeypatch, capsys):
    root, cpath, out = cli_world
    header, payload = _checkpoint_parts(out)
    offset = 0
    for entry in header["arrays"]:  # the payload is in header order
        if entry["name"] == "net.head.b":
            break
        offset += int(np.prod(entry["shape"])) * 8
    payload[offset : offset + 8] = struct.pack("<d", float("nan"))
    ckpt = str(tmp_path / "nan.bin")
    _write_checkpoint(ckpt, header, payload)
    monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n:quit\n"))
    rc = main(["chat", "--config", cpath, "--checkpoint", ckpt,
               "--transcript", str(tmp_path / "t.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


# ----------------------------------------------------- data utilities

def test_ingest_roundtrip(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text(PARLAI_SAMPLE, encoding="utf-8")
    out = str(tmp_path / "c.jsonl")
    assert main(["ingest", str(raw), out]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["dialogues"] == 2
    assert os.path.exists(out)


def test_ingest_unknown_format(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text(PARLAI_SAMPLE, encoding="utf-8")
    rc = main(["ingest", "--from", "opensubtitles", str(raw),
               str(tmp_path / "c.jsonl")])
    assert rc == 1
    assert "unknown ingest format" in capsys.readouterr().err


def test_embed_coverage(cli_world, capsys):
    root, _, _ = cli_world
    rc = main(["embed", "--embeddings", str(root / "emb6.txt"), "--dim", "6",
               "--corpus", str(root / "corpus.jsonl")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 6
    assert payload["coverage"] == pytest.approx(1.0)
    assert payload["all_oov_sentences"] == 0


def test_embed_dim_mismatch(cli_world, capsys):
    root, _, _ = cli_world
    rc = main(["embed", "--embeddings", str(root / "emb6.txt"), "--dim", "9"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("line", [
    "[]",
    '{"id": "a", "turns": [{"speaker": "env", "text": 7}, {"speaker": "agent", "text": "y"}]}',
], ids=["list", "number-text"])
def test_embed_malformed_corpus_line_is_error(cli_world, tmp_path, capsys, line):
    root, _, _ = cli_world
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n", encoding="utf-8")
    rc = main(["embed", "--embeddings", str(root / "emb6.txt"), "--dim", "6",
               "--corpus", str(bad)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:1: ")


def test_cluster_sentences_and_dialogues(cli_world, tmp_path, capsys):
    root, _, _ = cli_world
    for what, k in (("sentences", "4"), ("dialogues", "2")):
        out = str(tmp_path / f"{what}.json")
        rc = main(["cluster", what, "--k", k,
                   "--corpus", str(root / "corpus.jsonl"),
                   "--embeddings", str(root / "emb6.txt"), "--dim", "6",
                   "--out", out])
        assert rc == 0
        assert os.path.exists(out)
        assert f"k={k}" in capsys.readouterr().out


def test_project_sentences(cli_world, tmp_path, capsys):
    root, _, _ = cli_world
    out = str(tmp_path / "xy.csv")
    rc = main(["project", "--what", "sentences",
               "--corpus", str(root / "corpus.jsonl"),
               "--embeddings", str(root / "emb6.txt"), "--dim", "6",
               "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) > 16
    assert all(len(l.split(",")) == 2 for l in lines[1:])


def test_project_centroids_needs_clusters(cli_world, tmp_path, capsys):
    root, _, _ = cli_world
    rc = main(["project", "--what", "centroids",
               "--embeddings", str(root / "emb6.txt"), "--dim", "6",
               "--out", str(tmp_path / "xy.csv")])
    assert rc == 1
    assert "needs --clusters" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["sentences", "dialogues"])
def test_project_vectors_need_corpus(cli_world, tmp_path, capsys, what):
    # used to end in a TypeError traceback from open(None)
    root, _, _ = cli_world
    out = tmp_path / "xy.csv"
    rc = main(["project", "--what", what,
               "--embeddings", str(root / "emb6.txt"), "--dim", "6", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --what {what} needs --corpus\n"
    assert not out.exists()


def test_project_centroids_missing_key_is_error(cli_world, tmp_path, capsys):
    root, _, _ = cli_world
    clusters = tmp_path / "no_centroids.json"
    clusters.write_text('{"version": 1, "k": 2, "dim": 6}', encoding="utf-8")
    rc = main(["project", "--what", "centroids", "--clusters", str(clusters),
               "--embeddings", str(root / "emb6.txt"), "--dim", "6",
               "--out", str(tmp_path / "xy.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'centroids'" in err


@pytest.mark.parametrize("content", ["[]", "7", '{"version": 1,\n'],
                         ids=["list", "number", "truncated"])
def test_project_centroids_malformed_file_is_error(cli_world, tmp_path, capsys, content):
    # a list used to end in an AttributeError traceback
    root, _, _ = cli_world
    clusters = tmp_path / "clusters.json"
    clusters.write_text(content, encoding="utf-8")
    out = tmp_path / "xy.csv"
    rc = main(["project", "--what", "centroids", "--clusters", str(clusters),
               "--embeddings", str(root / "emb6.txt"), "--dim", "6", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {clusters}: ")
    assert not out.exists()


def test_data_utilities_reproduce_the_pipelines_models(cli_world, tmp_path):
    # `cluster` and `split` draw from the seed streams of the pipeline's
    # stages, so with the run's seed they rewrite the run's models and splits
    root, cpath, out = cli_world
    seed = json.load(open(cpath))["seed"]
    data = ["--corpus", str(root / "corpus.jsonl"),
            "--embeddings", str(root / "emb6.txt"), "--dim", "6", "--seed", str(seed)]
    for what, k, run_file in (("sentences", "4", "sentence_clusters_dim6.json"),
                              ("dialogues", "2", "dialogue_clusters.json")):
        path = str(tmp_path / f"{what}.json")
        assert main(["cluster", what, "--k", k, *data, "--out", path]) == 0
        np.testing.assert_array_equal(load_cluster_model(path).centroids,
                                      load_cluster_model(os.path.join(out, run_file)).centroids)
    path = str(tmp_path / "splits.json")
    assert main(["split", "--k", "2", *data, "--out", path]) == 0
    assert load_splits(path) == load_splits(os.path.join(out, "splits.json"))


def test_readme_cli_table_lists_every_command():
    # the usage line names the subcommands: "chatdqn [-h] {ingest,embed,...} ..."
    commands = set(re.search(r"\{([\w,-]+)\}", build_parser().format_usage())[1].split(","))
    documented = set(re.findall(r"^\| `chatdqn ([\w-]+)` \|", README.read_text(), re.M))
    assert documented == commands


def test_split_command(cli_world, tmp_path, capsys):
    root, _, _ = cli_world
    out = str(tmp_path / "splits.json")
    model_out = str(tmp_path / "dmodel.json")
    rc = main(["split", "--k", "2", "--corpus", str(root / "corpus.jsonl"),
               "--embeddings", str(root / "emb6.txt"), "--dim", "6",
               "--out", out, "--model-out", model_out])
    assert rc == 0
    assert os.path.exists(out) and os.path.exists(model_out)
    assert "2 splits" in capsys.readouterr().out


# --------------------------------------------------------- exit codes

def test_missing_config_is_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "none.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key, value", [("seed", "5"), ("seed", True), ("k_splits", "3")])
def test_non_integer_seed_or_k_splits_is_error(cli_world, tmp_path, capsys, key, value):
    # a str seed used to run, coerced by the cluster rngs but hashed as
    # UTF-8 bytes by stable_seed; a str k_splits died with a TypeError
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d[key] = value
    d["out_dir"] = str(tmp_path / "out")
    bad = root / f"bad_{key}_{type(value).__name__}.json"
    bad.write_text(json.dumps(d))
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be an integer" in err
    assert not os.path.exists(d["out_dir"])


@pytest.mark.parametrize("source", ["config", "env"])
def test_negative_seed_is_error(cli_world, tmp_path, capsys, monkeypatch, source):
    # both used to run ingest and embed, write their markers, and then fail
    # in cluster_sentences with numpy's "expected non-negative integer"
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d["out_dir"] = str(tmp_path / "out")
    if source == "config":
        d["seed"] = -1
    else:
        monkeypatch.setenv("CHATDQN_SEED", "-1")
    bad = root / f"bad_negative_seed_{source}.json"
    bad.write_text(json.dumps(d))
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0, got -1" in err
    assert not os.path.exists(d["out_dir"])


def _config_commands():
    """{name: subparser} of every subcommand that takes --config and --seed."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: q for name, q in sub.choices.items()
            if {"--config", "--seed"} <= set(q._option_string_actions)}


def test_config_commands_cover_the_experiment_commands():
    assert {"train", "eval", "run", "report", "predict-reward", "chat"} <= set(_config_commands())


@pytest.mark.parametrize("command", sorted(_config_commands()))
def test_negative_seed_flag_is_refused_before_anything_is_written(cli_world, tmp_path, capsys,
                                                                   command):
    # `run --seed -1` used to write the config, the corpus and two markers,
    # then fail in cluster_sentences: --seed skipped the config's own check
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d["out_dir"] = str(tmp_path / "out")
    cfg = root / f"seed_flag_{command}.json"
    cfg.write_text(json.dumps(d))
    argv = [command]
    for action in _config_commands()[command]._actions:
        if not action.option_strings:  # a positional: its first choice
            argv.append(next(iter(action.choices)))
        elif action.required and action.dest != "config":
            argv += [action.option_strings[0], "0" if action.type is int else "x"]
    assert main([*argv, "--config", str(cfg), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not os.path.exists(d["out_dir"])


@pytest.mark.parametrize("shape", ["top_level_list", "embeddings_list"])
def test_config_that_is_not_an_object_is_error(cli_world, tmp_path, capsys, shape):
    # both used to end `run` in an AttributeError traceback
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d["out_dir"] = str(tmp_path / "out")
    bad_cfg = [d] if shape == "top_level_list" else {**d, "embeddings": [[6, "emb6.txt"]]}
    bad = root / f"bad_{shape}.json"
    bad.write_text(json.dumps(bad_cfg))
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be a JSON object" in err
    assert not os.path.exists(d["out_dir"])


@pytest.mark.parametrize("key, value, message", [
    ("corpus", 5, "corpus must be a string"),
    ("test_corpus", 3, "test_corpus must be a string"),
    ("out_dir", 7, "out_dir must be a string"),
    ("embeddings", {"6": 5}, "embeddings must be a JSON object of dim -> path string"),
])
def test_config_path_that_is_not_a_string_is_error(cli_world, tmp_path, capsys,
                                                   key, value, message):
    # each used to end `run` in a TypeError traceback from os.path
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d["out_dir"] = str(tmp_path / "out")
    d[key] = value
    bad = root / f"bad_path_{key}.json"
    bad.write_text(json.dumps(d))
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("key", ["x", "0", "-5", "6.0"])
def test_config_embeddings_key_that_is_not_a_positive_integer_is_error(
        cli_world, tmp_path, capsys, key):
    # "x" used to end `run` in a bare "invalid literal for int()", which
    # named neither the field nor the key; "0" and "-5" loaded as sizes
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d["out_dir"] = str(tmp_path / "out")
    d["embeddings"] = {key: "emb6.txt"}
    bad = root / "bad_embeddings_key.json"
    bad.write_text(json.dumps(d))
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "embeddings key must be a positive integer" in err and repr(key) in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("part, key, value", [
    ("agent", "hidden_dim", 8.0), ("agent", "batch_size", True),
    ("agent", "epsilon_decay_steps", 10.0), ("predictor", "runs", 2.0),
    ("predictor", "epochs", True),
])
def test_non_integer_agent_or_predictor_field_is_error(cli_world, tmp_path, capsys,
                                                       part, key, value):
    # such a config used to load and hash, and failed only in the train
    # stage, after ingest, embedding and k-means had run
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d[part][key] = value
    d["out_dir"] = str(tmp_path / "out")
    bad = root / f"bad_{part}_{key}.json"
    bad.write_text(json.dumps(d))
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be an integer" in err
    assert not os.path.exists(d["out_dir"])  # so no stage marker either


@pytest.mark.parametrize("part, key, value", [
    ("agent", "learning_rate", "0.001"), ("agent", "dropout_rate", "0.2"),
    ("agent", "gamma", True), ("predictor", "learning_rate", True),
    ("agent", "learning_rate", float("nan")), ("predictor", "learning_rate", float("inf")),
])
def test_non_number_float_field_is_error(cli_world, tmp_path, capsys, part, key, value):
    # a str learning rate used to load and hash, and failed only when Adam
    # multiplied by it; `"gamma": true` trained with a discount of 1
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d[part][key] = value
    d["out_dir"] = str(tmp_path / "out")
    bad = root / f"bad_{part}_{key}_{value}.json"
    bad.write_text(json.dumps(d))  # a float NaN is written as the JSON token NaN
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be a finite number" in err
    assert not os.path.exists(d["out_dir"])


@pytest.mark.parametrize("part, key, value, message", [
    ("agent", "learning_rate", 0.0, "learning_rate must be > 0, got 0.0"),
    ("agent", "learning_rate", -0.001, "learning_rate must be > 0, got -0.001"),
    ("predictor", "learning_rate", 0, "learning_rate must be > 0, got 0"),
    ("agent", "dropout_rate", 1.5, "dropout_rate must satisfy 0 <= rate < 1, got 1.5"),
    ("agent", "dropout_rate", -0.1, "dropout_rate must satisfy 0 <= rate < 1, got -0.1"),
])
def test_out_of_range_training_rate_is_error(cli_world, tmp_path, capsys, part, key, value,
                                             message):
    # a zero rate trained nothing and a negative one climbed the loss; a
    # dropout rate of 1.5 failed only when the train stage built the network
    root, cpath, _ = cli_world
    with open(cpath) as fh:
        d = json.load(fh)
    d[part][key] = value
    d["out_dir"] = str(tmp_path / "out")
    bad = root / f"bad_{part}_{key}_{value}.json"
    bad.write_text(json.dumps(d))
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not os.path.exists(d["out_dir"])


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
