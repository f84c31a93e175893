"""Reward-regression study: dataset construction, the Pearson metric, and
small training runs with hand-checkable outcomes."""

import math

import numpy as np
import pytest

from chatdqn import make_toy_corpus, make_toy_embeddings
from chatdqn.reward_predictor import (
    DISTORTION_FRACTIONS,
    PredictorConfig,
    StudyRow,
    distort_corpus,
    history_length_study,
    history_prefixes,
    pearson,
    predict,
    train_predictor,
)
from chatdqn.corpus import stable_seed
from chatdqn.embeddings import embed_corpus, embed_texts
from chatdqn.neuralnet import Adam, RewardRegressor, regressor_loss_and_grads


@pytest.fixture(scope="module")
def tiny_world():
    table = make_toy_embeddings(4, dim=6, seed=9)
    corpus = make_toy_corpus(10, topics=range(4), seed=9)
    return table, corpus


def _examples(corpus, distorted, table, h):
    """(X, lengths, y): the h-prefix view of the corpus's distorted
    dialogues, as the history-length study builds it."""
    X, lengths = history_prefixes(embed_corpus(corpus, table)[0], distorted, h)
    return X, lengths, np.array([dd.label for dd in distorted], dtype=np.float64)


def _own_ids(corpus, d):
    """d's sentence ids: sentence ids count the corpus's turns in order."""
    start = sum(len(x.turns) for x in corpus.dialogues[:corpus.index_of(d.id)])
    return tuple(range(start, start + len(d.turns)))


# ------------------------------------------------------------ datasets

def test_dataset_count_is_dialogues_times_fractions(tiny_world):
    table, corpus = tiny_world
    rng = np.random.default_rng(0)
    distorted = distort_corpus(corpus, DISTORTION_FRACTIONS, rng)
    assert len(distorted) == 10 * 5
    X, lengths, y = _examples(corpus, distorted, table, h=5)
    assert X.shape == (50, 5, table.dim)
    assert lengths.shape == y.shape == (50,)


def test_phi_zero_target_is_agent_turn_count(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.0,), np.random.default_rng(1))
    for d, dd in zip(corpus, distorted):
        assert dd.label == d.n_agent_turns
        assert dd.sentence_ids == _own_ids(corpus, d)


def test_labels_match_mask_arithmetic(tiny_world):
    # y = (#kept agent turns) - (#replaced agent turns)
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, DISTORTION_FRACTIONS,
                               np.random.default_rng(2))
    originals = [d for d in corpus for _ in DISTORTION_FRACTIONS]
    for d, dd in zip(originals, distorted, strict=True):
        n = d.n_agent_turns
        own = _own_ids(corpus, d)
        k = sum(dd.sentence_ids[i] != own[i] for i in d.agent_turn_indices)
        assert dd.label == (n - k) - k


def test_label_distribution_symmetric_for_multiple_of_four_turns():
    # fractions symmetric about 1/2 and agent-turn counts divisible by 4
    # make ceil(phi * n) exact, so the label multiset mirrors about 0
    table = make_toy_embeddings(3, dim=4, seed=5)
    corpus = make_toy_corpus(12, topics=range(3), seed=5, turns_range=(8, 8))
    assert all(d.n_agent_turns == 4 for d in corpus)
    distorted = distort_corpus(corpus, DISTORTION_FRACTIONS,
                               np.random.default_rng(3))
    labels = sorted(dd.label for dd in distorted)
    assert labels == sorted(-x for x in labels)


def test_h1_histories_are_prefixes_of_h50(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, DISTORTION_FRACTIONS,
                               np.random.default_rng(4))
    X1, len1, y1 = _examples(corpus, distorted, table, h=1)
    X50, len50, y50 = _examples(corpus, distorted, table, h=50)
    np.testing.assert_array_equal(y1, y50)
    np.testing.assert_array_equal(X1[:, 0], X50[:, 0])
    assert np.all(len1 == 1)
    assert list(len50) == [len(dd.sentence_ids) for dd in distorted]


def test_example_rows_match_sentence_embedding(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.0,), np.random.default_rng(5))
    X, _, _ = _examples(corpus, distorted[:1], table, h=3)
    d = corpus.dialogues[0]
    want = embed_texts([t.text for t in d.turns[:3]], table)
    np.testing.assert_array_equal(X[0], want)
    assert X.shape == (1, 3, table.dim)


def test_examples_pad_short_dialogues_with_zeros(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.0,), np.random.default_rng(6))
    n_turns = len(corpus.dialogues[0].turns)
    X, lengths, _ = _examples(corpus, distorted[:1], table, h=n_turns + 7)
    assert lengths[0] == n_turns
    assert np.all(X[0, n_turns:] == 0.0)


def test_prefixes_pad_to_longest_dialogue_within_h(tiny_world):
    table, corpus = tiny_world
    longest = max(len(d.turns) for d in corpus)
    vectors, _ = embed_corpus(corpus, table)
    distorted = distort_corpus(corpus, (0.0,), np.random.default_rng(7))
    for h in (1, longest - 1, longest, longest + 1, 50):
        X, lengths = history_prefixes(vectors, distorted, h)
        assert X.shape == (len(corpus), min(h, longest), table.dim)
        assert lengths.max() == min(h, longest)


def test_study_rows_same_as_padding_to_h(tiny_world, monkeypatch):
    # the regressor runs only to max(lengths), so trimming the all-zero tail
    # of the batch must leave every score bit-identical
    import chatdqn.reward_predictor as rp

    table, _ = tiny_world
    train_c = make_toy_corpus(8, topics=range(4), seed=21, id_prefix="tr")
    test_c = make_toy_corpus(4, topics=range(4), seed=22, id_prefix="te")
    assert max(len(d.turns) for d in train_c) < 50
    cfg = PredictorConfig(hidden_dim=5, batch_size=8, epochs=2, runs=2, seed=6)

    def run():
        return history_length_study(train_c, test_c, table, cfg,
                                    lengths=(1, 5, 50), fractions=(0.0, 0.5, 1.0))

    trimmed = run()
    trim = rp.history_prefixes

    def pad_to_h(vectors, distorted, h):
        X, lengths = trim(vectors, distorted, h)
        full = np.zeros((X.shape[0], h, X.shape[2]))
        full[:, : X.shape[1]] = X
        return full, lengths

    monkeypatch.setattr(rp, "history_prefixes", pad_to_h)
    assert run() == trimmed


def test_h_must_be_positive(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.0,), np.random.default_rng(8))
    with pytest.raises(ValueError):
        history_prefixes(embed_corpus(corpus, table)[0], distorted, h=0)


# ------------------------------------------------------------- pearson

def test_pearson_perfect_correlation():
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)


def test_pearson_hand_computed_value():
    # x=[1,2,3], y=[1,2,4]: sum(dx*dy)=3, sum(dx^2)=2, sum(dy^2)=14/3
    want = 3.0 / math.sqrt(2.0 * 14.0 / 3.0)
    got = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.9819805060619659, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    base = pearson(x, y)
    assert pearson(2.5 * x + 3.0, y) == pytest.approx(base, abs=1e-12)
    assert pearson(x, 0.1 * y - 7.0) == pytest.approx(base, abs=1e-12)
    assert pearson(-1.0 * x, y) == pytest.approx(-base, abs=1e-12)


def test_pearson_constant_input_rejected():
    with pytest.raises(ValueError, match="constant"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="constant"):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_pearson_shape_errors():
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


# ------------------------------------------------------------ training

def test_single_example_overfit(tiny_world):
    # training MSE on the (duplicated) singleton batch drives to ~0; eval
    # mode is excluded deliberately: a zero-variance batch leaves batch-norm
    # running statistics degenerate, which is correct but uninformative
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.5,), np.random.default_rng(10))
    X, lengths, y = _examples(corpus, distorted[:1], table, h=5)
    cfg = PredictorConfig(hidden_dim=12, batch_size=2,
                          epochs=200, runs=1, learning_rate=0.05, seed=0)
    model = train_predictor(X, lengths, y, cfg)
    pair = [0, 0]
    loss, _ = regressor_loss_and_grads(model, X[pair], lengths[pair], y[pair],
                                       train_mode=True)
    assert loss < 1e-2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_regressor_batch_stays_in_the_networks_dtype(tiny_world, monkeypatch, dtype):
    # train_predictor builds a float32 regressor; one batch keeps every
    # parameter, gradient, Adam moment and batch-norm running statistic in
    # the regressor's dtype (float64 by casting the regressor it builds)
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.0, 0.5), np.random.default_rng(12))
    X, lengths, y = _examples(corpus, distorted, table, h=4)
    cfg = PredictorConfig(hidden_dim=5, batch_size=len(y), epochs=1, runs=1, seed=2)
    steps = []

    class RecordingAdam(Adam):
        def step(self, params, grads):
            super().step(params, grads)
            steps.append((self, grads))

    monkeypatch.setattr("chatdqn.reward_predictor.Adam", RecordingAdam)
    if dtype is not np.float32:
        astype = RewardRegressor.astype
        monkeypatch.setattr(RewardRegressor, "astype",
                            lambda self, _: astype(self, dtype))
    model = train_predictor(X, lengths, y, cfg)
    assert len(steps) == 1
    optimizer, grads = steps[0]
    assert set(grads) == set(model.params())
    for name, p in model.params().items():
        assert p.dtype == dtype, name
        assert grads[name].dtype == dtype, name
        assert optimizer.m[name].dtype == dtype, name
        assert optimizer.v[name].dtype == dtype, name
    for buf in (model.bn1_mean, model.bn1_var, model.bn2_mean, model.bn2_var):
        assert buf.dtype == dtype
    assert predict(model, X, lengths).dtype == dtype


def test_constant_targets_learn_constant(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.0, 0.0), np.random.default_rng(11))
    X, lengths, y = _examples(corpus, distorted, table, h=4)
    const = 3
    y[:] = const
    cfg = PredictorConfig(hidden_dim=10, batch_size=8,
                          epochs=150, runs=1, learning_rate=0.03, seed=1)
    model = train_predictor(X, lengths, y, cfg)
    pred = predict(model, X, lengths)
    assert float(np.mean((pred - const) ** 2)) < 1e-2


def test_train_predictor_deterministic(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, DISTORTION_FRACTIONS,
                               np.random.default_rng(12))
    examples = _examples(corpus, distorted, table, h=5)
    cfg = PredictorConfig(hidden_dim=8, batch_size=16,
                          epochs=3, runs=1, learning_rate=1e-3, seed=21)
    m1 = train_predictor(*examples, cfg)
    m2 = train_predictor(*examples, cfg)
    p1, p2 = m1.params(), m2.params()
    assert p1.keys() == p2.keys()
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])


def test_different_seeds_differ(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.5,), np.random.default_rng(13))
    examples = _examples(corpus, distorted, table, h=3)
    base = PredictorConfig(hidden_dim=8, batch_size=8,
                           epochs=2, runs=1, seed=0)
    other = PredictorConfig(hidden_dim=8, batch_size=8,
                            epochs=2, runs=1, seed=1)
    m1 = train_predictor(*examples, base)
    m2 = train_predictor(*examples, other)
    assert any(
        not np.array_equal(m1.params()[k], m2.params()[k]) for k in m1.params()
    )


def test_empty_dataset_rejected():
    cfg = PredictorConfig(hidden_dim=4, batch_size=2,
                          epochs=1, runs=1)
    with pytest.raises(ValueError, match="empty"):
        train_predictor(np.zeros((0, 3, 2)), np.zeros(0, dtype=np.int64), np.zeros(0), cfg)


def test_predict_shape_and_finiteness(tiny_world):
    table, corpus = tiny_world
    distorted = distort_corpus(corpus, (0.0, 1.0), np.random.default_rng(14))
    X, lengths, y = _examples(corpus, distorted, table, h=4)
    cfg = PredictorConfig(hidden_dim=6, batch_size=8,
                          epochs=1, runs=1, seed=2)
    model = train_predictor(X, lengths, y, cfg)
    pred = predict(model, X, lengths)
    assert pred.shape == (len(distorted),)
    assert np.all(np.isfinite(pred))


# --------------------------------------------------------------- study

def test_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig(runs=0)
    with pytest.raises(ValueError):
        PredictorConfig(batch_size=1)


def test_stable_seed_reproducible_and_distinct():
    assert stable_seed(1, 2, 3) == stable_seed(1, 2, 3)
    assert stable_seed(1, 2, 3) != stable_seed(1, 2, 4)
    assert stable_seed(0) >= 0


def test_stable_seed_int_parts_are_seed_sequence_words():
    # pins every agent seed (experiment._agent_cfg) and predictor run seed
    for parts in [(0,), (1, 2, 3), (7, 300, 19), (2**40, 5)]:
        want = int(np.random.SeedSequence(list(parts)).generate_state(1)[0])
        assert stable_seed(*parts) == want


def test_stable_seed_str_part_is_its_utf8_bytes():
    did = "tr-00042"
    as_int = int.from_bytes(did.encode("utf-8"), "big")
    assert stable_seed(3, did) == stable_seed(3, as_int)
    assert stable_seed(3, did) != stable_seed(3, "tr-00043")
    assert stable_seed(3, did) != stable_seed(4, did)
    assert stable_seed(0, "dialogue é") == stable_seed(0, "dialogue é")


def test_study_shape_and_aggregates(tiny_world):
    table, _ = tiny_world
    train_c = make_toy_corpus(8, topics=range(4), seed=15, id_prefix="tr")
    test_c = make_toy_corpus(4, topics=range(4), seed=16, id_prefix="te")
    cfg = PredictorConfig(hidden_dim=6, batch_size=8,
                          epochs=2, runs=2, learning_rate=1e-3, seed=3)
    rows = history_length_study(train_c, test_c, table, cfg,
                                lengths=(1, 5), fractions=(0.0, 1.0))
    assert [r.h for r in rows] == [1, 5]
    for r in rows:
        assert isinstance(r, StudyRow)
        assert len(r.scores) == 2
        assert r.mean_r == pytest.approx(float(np.mean(r.scores)))
        assert r.std_r == pytest.approx(float(np.std(r.scores)))
        assert all(-1.0 <= s <= 1.0 for s in r.scores)


def test_study_embeds_each_corpus_once(tiny_world, monkeypatch):
    # the distorted dialogues are sentence ids of their corpus, so the study
    # embeds the two corpora and nothing else
    import chatdqn.reward_predictor as rp

    table, _ = tiny_world
    train_c = make_toy_corpus(6, topics=range(4), seed=19, id_prefix="tr")
    test_c = make_toy_corpus(3, topics=range(4), seed=20, id_prefix="te")
    embedded = []

    def recording(corpus, table):
        embedded.append(corpus)
        return embed_corpus(corpus, table)

    monkeypatch.setattr(rp, "embed_corpus", recording)
    cfg = PredictorConfig(hidden_dim=4, batch_size=8, epochs=1, runs=1, seed=5)
    history_length_study(train_c, test_c, table, cfg, lengths=(1, 3), fractions=(0.0, 1.0))
    assert embedded == [train_c, test_c]


def test_study_needs_two_lengths(tiny_world):
    table, corpus = tiny_world
    cfg = PredictorConfig(runs=1, epochs=1, hidden_dim=4)
    with pytest.raises(ValueError):
        history_length_study(corpus, corpus, table, cfg, lengths=(5,))


@pytest.mark.parametrize("lengths", [(5, 0), (0, 5), (3, -1, 5)])
def test_study_refuses_a_bad_length_before_training(tiny_world, monkeypatch, lengths):
    import chatdqn.reward_predictor as rp

    def no_training(*args, **kw):
        raise AssertionError("a regressor was trained")

    monkeypatch.setattr(rp, "train_predictor", no_training)
    table, corpus = tiny_world
    cfg = PredictorConfig(runs=1, epochs=1, hidden_dim=4)
    with pytest.raises(ValueError, match="history lengths must be >= 1"):
        history_length_study(corpus, corpus, table, cfg, lengths=lengths)


def test_study_deterministic(tiny_world):
    table, _ = tiny_world
    train_c = make_toy_corpus(6, topics=range(4), seed=17, id_prefix="tr")
    test_c = make_toy_corpus(3, topics=range(4), seed=18, id_prefix="te")
    cfg = PredictorConfig(hidden_dim=5, batch_size=8,
                          epochs=1, runs=2, seed=4)
    r1 = history_length_study(train_c, test_c, table, cfg,
                              lengths=(1, 3), fractions=(0.0, 1.0))
    r2 = history_length_study(train_c, test_c, table, cfg,
                              lengths=(1, 3), fractions=(0.0, 1.0))
    assert r1 == r2
