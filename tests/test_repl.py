"""Interactive session loop, driven by scripted input/output functions."""

import json
import re

import numpy as np
import pytest

from chatdqn.clustering import ClusterModel
from chatdqn.corpus import Corpus
from chatdqn.embeddings import embed_corpus, embed_texts
from chatdqn.neuralnet import QNetwork
from chatdqn.repl import chat_repl

from conftest import topic_cluster_model


@pytest.fixture()
def repl_world(small_world):
    table, corpus, model = small_world
    net = QNetwork(table.dim, 8, model.k, dropout_rate=0.0,
                   rng=np.random.default_rng(17))
    return net, model, table, corpus


def run_session(inputs, net, model, table, corpus, path, **kw):
    feed = iter(inputs)

    def input_fn(prompt=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    outputs = []
    got = chat_repl(net, model, table, corpus, embed_corpus(corpus, table)[0], str(path),
                    input_fn=input_fn, output_fn=outputs.append,
                    rng=np.random.default_rng(5), **kw)
    assert got == str(path)
    return outputs


def _read_transcript(path):
    return [json.loads(line) for line in open(path)]


def test_quit_immediately(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    path = tmp_path / "t.jsonl"
    out = run_session([":quit"], net, model, table, corpus, path)
    assert len(out) == 1  # banner only
    assert "k=6" in out[0]
    assert _read_transcript(path) == []


def test_eof_ends_session(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    path = tmp_path / "t.jsonl"
    run_session([], net, model, table, corpus, path)
    assert _read_transcript(path) == []


def test_turn_records_and_schema(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    path = tmp_path / "t.jsonl"
    run_session(["hello there", "tell me more", ":quit"],
                net, model, table, corpus, path)
    lines = _read_transcript(path)
    assert [l["speaker"] for l in lines] == ["env", "agent", "env", "agent"]
    assert [l["turn"] for l in lines] == [0, 1, 2, 3]
    for l in lines:
        assert set(l) == {"turn", "speaker", "text", "action_id", "reward"}
        assert l["reward"] is None
    assert lines[0]["text"] == "hello there"
    assert lines[0]["action_id"] is None
    assert isinstance(lines[1]["action_id"], int)
    assert 0 <= lines[1]["action_id"] < model.k


def test_empty_input_reprompts_without_state_change(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_session(["hi", ":quit"], net, model, table, corpus, p1)
    run_session(["", "   ", "hi", "", ":quit"], net, model, table, corpus, p2)
    assert _read_transcript(p1) == _read_transcript(p2)


def test_q_line_has_one_entry_per_cluster(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    out = run_session(["hello", ":quit"], net, model, table, corpus,
                      tmp_path / "t.jsonl")
    q_line = next(o for o in out if o.startswith("q: "))
    entries = q_line[3:].split()
    assert len(entries) == model.k
    # entries look like "3:+0.127" with "*" marking candidate clusters
    assert all(re.fullmatch(r"\d+:[+-]\d+\.\d{3}\*?", e) for e in entries)
    starred = {int(e.split(":")[0]) for e in entries if e.endswith("*")}
    cand_lines = [o for o in out if o.startswith("  [")]
    assert len(cand_lines) == 3
    cand_ids = {int(re.match(r"  \[(\d+)\]", o).group(1)) for o in cand_lines}
    assert starred == cand_ids


def test_agent_utterance_comes_from_chosen_cluster(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    out = run_session(["hello", ":quit"], net, model, table, corpus,
                      tmp_path / "t.jsonl")
    say = next(o for o in out if o.startswith("agent["))
    chosen = int(re.match(r"agent\[(\d+)\]> ", say).group(1))
    uttered = say.split("> ", 1)[1]
    # the uttered sentence must be one of the displayed candidates with the
    # chosen cluster id
    cand = {}
    for o in out:
        m = re.match(r"  \[(\d+)\] (.*)", o)
        if m:
            cand.setdefault(int(m.group(1)), []).append(m.group(2))
    assert uttered in cand[chosen]


def test_cluster_count_mismatch_rejected(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    wrong = topic_cluster_model(table, 6)
    bad_net = QNetwork(table.dim, 8, 4, rng=np.random.default_rng(1))
    with pytest.raises(ValueError, match="cluster model"):
        chat_repl(bad_net, wrong, table, corpus, embed_corpus(corpus, table)[0],
                  str(tmp_path / "t.jsonl"))


def test_tiny_corpus_rejected(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    small = Corpus(corpus.dialogues[:1])
    n = len(small.dialogues[0].turns)
    with pytest.raises(ValueError, match="sentences"):
        chat_repl(net, model, table, small, embed_corpus(small, table)[0],
                  str(tmp_path / "t.jsonl"), candidates=n + 1)


def test_vectors_of_another_corpus_rejected(repl_world, tmp_path):
    net, model, table, corpus = repl_world
    other = embed_corpus(Corpus(corpus.dialogues[:1]), table)[0]
    with pytest.raises(ValueError, match="sentence vectors"):
        chat_repl(net, model, table, corpus, other, str(tmp_path / "t.jsonl"))


def test_agent_lines_enter_the_state_as_the_given_vectors(repl_world, tmp_path):
    # the corpus's sentences are read from the vectors passed in, not
    # embedded again: shift every vector and every centroid by one offset
    # (same clusters, same draws) and the agent's line enters the second
    # turn's state shifted, while the user's lines are embedded by the table
    net, model, table, corpus = repl_world
    shift = np.linspace(-1.0, 1.0, table.dim)
    moved = ClusterModel(model.k, model.dim, model.centroids + shift, model.inertia)
    user = ["t00w01 t00w02", "t01w04 t01w05"]
    feed = iter(user + [":quit"])
    out = []
    chat_repl(net, moved, table, corpus, embed_corpus(corpus, table)[0] + shift,
              str(tmp_path / "t.jsonl"), input_fn=lambda prompt: next(feed),
              output_fn=out.append, rng=np.random.default_rng(5))
    q_line = [o for o in out if o.startswith("q: ")][1]
    reply = next(o for o in out if o.startswith("agent[")).split("> ", 1)[1]
    X = embed_texts([user[0], reply, user[1]], table)
    X[1] += shift
    q = net.forward(X[None], [3])[0]
    shown = [float(e.rstrip("*").split(":")[1]) for e in q_line[3:].split()]
    np.testing.assert_allclose(shown, q, atol=5e-4)


def test_transcript_written_incrementally(repl_world, tmp_path):
    # the file must hold every completed turn once the session ends,
    # whether closed by :quit or by EOF mid-session
    net, model, table, corpus = repl_world
    path = tmp_path / "t.jsonl"
    run_session(["one", "two", "three"], net, model, table, corpus, path)
    lines = _read_transcript(path)
    assert len(lines) == 6
    assert [l["speaker"] for l in lines] == ["env", "agent"] * 3


def test_state_keeps_most_recent_sentences(repl_world, tmp_path):
    # with history_len=2 the second turn's state is (agent reply, new user
    # line): the opening user line has dropped out
    net, model, table, corpus = repl_world
    user = ["t00w01 t00w02 t00w03", "t01w04 t01w05"]
    out = run_session(user + [":quit"], net, model, table, corpus,
                      tmp_path / "t.jsonl", history_len=2)
    q_lines = [o for o in out if o.startswith("q: ")]
    reply = next(o for o in out if o.startswith("agent[")).split("> ", 1)[1]
    for q_line, texts in ((q_lines[0], user[:1]), (q_lines[1], [reply, user[1]])):
        X = embed_texts(texts, table)[None]
        q = net.forward(X, [len(texts)])[0]
        shown = [float(e.rstrip("*").split(":")[1]) for e in q_line[3:].split()]
        np.testing.assert_allclose(shown, q, atol=5e-4)
