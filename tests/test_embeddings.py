"""Tokenizer, embedding table, sentence vectors, history states."""

import numpy as np
import pytest

from chatdqn.clustering import ClusterModel
from chatdqn.corpus import Corpus, Dialogue, Turn
from chatdqn.embeddings import (
    WordEmbeddingTable,
    embed_corpus,
    embed_texts,
    load_embeddings,
    tokenize,
)
from chatdqn.environment import DialogueEnv

from conftest import make_table


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_strips_edge_punctuation_and_lowercases():
    assert tokenize("Hello, what are doing today?") == [
        "hello", "what", "are", "doing", "today",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_interior_apostrophe():
    assert tokenize("I'm good.") == ["i'm", "good"]


def test_tokenize_drops_pure_punctuation_tokens():
    assert tokenize("well ... ok !!") == ["well", "ok"]


def test_tokenize_interior_punctuation_survives():
    # only token EDGES are stripped
    assert tokenize('say "a.b" now') == ["say", "a.b", "now"]


# ---------------------------------------------------------------------------
# embed_texts


def test_embed_single_word():
    table = make_table({"hi": [1.0, 0.0]})
    assert np.allclose(embed_texts(["hi"], table), [[1.0, 0.0]])


def test_embed_mean_of_two():
    table = make_table({"hi": [1.0, 0.0], "yo": [0.0, 2.0]})
    assert np.allclose(embed_texts(["hi yo"], table), [[0.5, 1.0]])


def test_embed_all_oov_is_zero():
    table = make_table({"hi": [1.0, 0.0]})
    assert np.all(embed_texts(["zzz", ""], table) == 0.0)


def test_embed_skips_oov_tokens():
    table = make_table({"hi": [2.0, 4.0]})
    # mean over in-vocab tokens only
    assert np.allclose(embed_texts(["hi zzz"], table), [[2.0, 4.0]])


def test_embed_permutation_invariant():
    rng = np.random.default_rng(0)
    words = {f"w{i}": rng.normal(size=4).tolist() for i in range(6)}
    table = make_table(words)
    toks = list(words)
    a, b = embed_texts([" ".join(toks), " ".join(toks[::-1])], table)
    assert np.allclose(a, b)


def test_embed_bounded_by_max_coefficient():
    rng = np.random.default_rng(1)
    words = {f"w{i}": rng.normal(size=5).tolist() for i in range(8)}
    table = make_table(words)
    bound = np.abs([table.lookup(tok) for tok in table.tokens]).max()
    vec = embed_texts([" ".join(words)], table)
    assert np.all(np.abs(vec) <= bound + 1e-12)


def test_embed_texts_rows_follow_input_order_with_repeats():
    table = make_table({"a": [1.0, 3.0], "b": [2.0, -1.0]})
    texts = ["a b", "b", "a b", "A, b!", "zzz"]
    got = embed_texts(texts, table)
    assert got.shape == (5, 2)
    for i, text in enumerate(texts):
        # the per-sentence reference: mean of the in-vocabulary word vectors
        found = [table.lookup(t) for t in tokenize(text) if t in table]
        want = np.mean(found, axis=0) if found else np.zeros(2)
        np.testing.assert_array_equal(got[i], want)


# ---------------------------------------------------------------------------
# embed_corpus


def dlg(did, *texts):
    return Dialogue(id=did, turns=tuple(
        Turn("env" if i % 2 == 0 else "agent", t) for i, t in enumerate(texts)))


def test_embed_corpus_rows_and_offsets():
    table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    corpus = Corpus([dlg("x", "a", "b", "a b"), dlg("y", "b", "a")])
    vectors, offsets = embed_corpus(corpus, table)
    assert list(offsets) == [0, 3, 5]
    assert offsets == corpus.turn_index[0]
    texts = [t.text for d in corpus for t in d.turns]
    np.testing.assert_array_equal(vectors, embed_texts(texts, table))


# ---------------------------------------------------------------------------
# history states: a history is a tuple of sentence ids, materialized into
# rows of the embedded corpus by DialogueEnv.batch_states


def _history_env(table, *dialogues):
    corpus = Corpus([dlg(f"d{i}", *texts) for i, texts in enumerate(dialogues)])
    vectors, _ = embed_corpus(corpus, table)
    model = ClusterModel(k=1, dim=table.dim,
                         centroids=np.zeros((1, table.dim)), inertia=0.0)
    return DialogueEnv(corpus, model, vectors)


def test_history_padding():
    table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    env = _history_env(table, ("a", "b"), ("b", "a", "b", "a", "b"))
    # sentence ids count the corpus's turns: d0 is 0..1, d1 is 2..6
    X, lengths = env.batch_states([(0, 1), (2, 3, 4, 5, 6)])
    assert X.shape == (2, 5, 2)
    assert list(lengths) == [2, 5]
    assert np.allclose(X[0, 0], [1.0, 0.0])
    assert np.allclose(X[0, 1], [0.0, 1.0])
    assert np.all(X[0, 2:] == 0.0)


def test_history_empty():
    table = make_table({"a": [1.0]})
    env = _history_env(table, ("a", "a"))
    X, lengths = env.batch_states([()])
    assert X.shape == (1, 1, 1)
    assert lengths[0] == 0
    assert np.all(X == 0.0)


def test_history_rows_match_embed_sentence():
    table = make_table({"a": [1.0, 3.0], "b": [2.0, -1.0]})
    history = ["a b", "b", "a"]
    env = _history_env(table, history)
    X, _ = env.batch_states([tuple(range(len(history)))])
    for i, s in enumerate(history):
        ref = np.mean([table.lookup(t) for t in tokenize(s)], axis=0)
        assert np.allclose(X[0, i], ref)


# ---------------------------------------------------------------------------
# table construction and load_embeddings


@pytest.mark.parametrize("tokens, rows, why", [
    (["a", "b"], [[1.0, 2.0]], "one row per token"),
    (["a"], [[]], "dim >= 1"),
    (["a", ""], [[1.0], [2.0]], "empty token"),
    (["a", "a"], [[1.0], [2.0]], "duplicate token"),
    (["a", "b"], [[1.0], [np.inf]], "non-finite"),
], ids=["rows", "dim", "empty", "duplicate", "non-finite"])
def test_table_refuses_malformed_input(tokens, rows, why):
    with pytest.raises(ValueError, match=why):
        WordEmbeddingTable(tokens, np.array(rows))


def test_table_lookup_is_read_only():
    table = make_table({"a": [1.0, 0.0]})
    with pytest.raises(ValueError):
        table.lookup("a")[0] = 2.0
    assert table.lookup("a")[0] == 1.0


def test_load_embeddings_roundtrip(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("hi 1.0 2.0\nyo -0.5 0.25\n", encoding="utf-8")
    table = load_embeddings(str(p), dim=2)
    assert table.dim == 2
    assert np.allclose(table.lookup("hi"), [1.0, 2.0])
    assert np.allclose(table.lookup("yo"), [-0.5, 0.25])
    assert table.lookup("nope") is None


def test_load_embeddings_dim_mismatch_names_line(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("hi 1.0 2.0\nbad 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(str(p), dim=2)


def test_load_embeddings_non_numeric(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("hi 1.0 x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_embeddings(str(p), dim=2)


@pytest.mark.parametrize("text, why", [
    ("hi 1.0 2.0\n\nhi 3.0 4.0\n", "duplicate token at line 3"),
    ("hi 1.0 nan\n", "non-finite coefficient at line 1"),
])
def test_load_embeddings_names_line_of_bad_entry(tmp_path, text, why):
    p = tmp_path / "emb.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=why):
        load_embeddings(str(p), dim=2)
