"""Corpus model: JSONL persistence, ingest, splits, distortion."""

import json
import math
import re

import numpy as np
import pytest

from chatdqn import clustering, make_toy_corpus, make_toy_embeddings
from chatdqn.clustering import assign_many, dialogue_vectors, fit
from chatdqn.corpus import (
    Corpus,
    Dialogue,
    Turn,
    corpus_stats,
    distort_dialogue,
    ingest_personachat,
    load_corpus,
    load_splits,
    sample_distractors,
    save_corpus,
    save_splits,
    split_corpus,
    validate_dialogue,
)
from chatdqn.embeddings import embed_corpus

from conftest import topic_cluster_model


def _points(corpus, table):
    return dialogue_vectors(*embed_corpus(corpus, table))


def _dialogue(did, n_turns):
    turns = tuple(
        Turn(speaker="env" if i % 2 == 0 else "agent", text=f"{did} t{i}")
        for i in range(n_turns)
    )
    return Dialogue(id=did, turns=turns)


# ---------------------------------------------------------------------------
# validation


def test_validate_rejects_short_dialogue():
    with pytest.raises(ValueError, match="fewer than 2"):
        validate_dialogue(Dialogue(id="x", turns=(Turn("env", "hi"),)))


def test_validate_rejects_wrong_alternation():
    turns = (Turn("agent", "hi"), Turn("env", "yo"))
    with pytest.raises(ValueError, match="speaker"):
        validate_dialogue(Dialogue(id="x", turns=turns))


def test_validate_rejects_empty_text():
    turns = (Turn("env", "hi"), Turn("agent", "   "))
    with pytest.raises(ValueError, match="empty text"):
        validate_dialogue(Dialogue(id="x", turns=turns))


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Corpus([_dialogue("a", 2), _dialogue("a", 4)])


# ---------------------------------------------------------------------------
# JSONL round trip


def test_corpus_jsonl_roundtrip(tmp_path):
    corpus = Corpus([_dialogue("a", 4), _dialogue("b", 2)])
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, str(path))
    back = load_corpus(str(path))
    assert [d.id for d in back.dialogues] == ["a", "b"]
    assert back.get("a").turns == corpus.get("a").turns
    # format check: one JSON object per line with id/turns keys
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    obj = json.loads(lines[0])
    assert set(obj) == {"id", "turns"}
    assert obj["turns"][0] == {"speaker": "env", "text": "a t0"}


def test_load_corpus_bad_line_is_reported_with_number(tmp_path):
    path = tmp_path / "c.jsonl"
    good = json.dumps(
        {"id": "a", "turns": [{"speaker": "env", "text": "x"},
                              {"speaker": "agent", "text": "y"}]}
    )
    path.write_text(good + "\nnot json\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: malformed JSON"):
        load_corpus(str(path))


@pytest.mark.parametrize("bad", [
    [],
    {"id": "b", "turns": [{"speaker": "env", "text": 7}, {"speaker": "agent", "text": "y"}]},
], ids=["list", "number-text"])
def test_load_corpus_refuses_a_malformed_line_by_name(tmp_path, bad):
    path = tmp_path / "c.jsonl"
    good = json.dumps(
        {"id": "a", "turns": [{"speaker": "env", "text": "x"},
                              {"speaker": "agent", "text": "y"}]}
    )
    path.write_text(good + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
        load_corpus(str(path))


# ---------------------------------------------------------------------------
# ingest


PARLAI_SAMPLE = """\
1 your persona: i like pie.
2 your persona: i drive a truck.
3 hello how are you\ti am fine thanks\t\tcand1|cand2
4 what do you do\ti drive a big truck
1 your persona: i am a painter.
2 hi there\thello friend
"""


def test_ingest_personachat(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text(PARLAI_SAMPLE, encoding="utf-8")
    corpus = ingest_personachat(str(p))
    assert len(corpus.dialogues) == 2
    d1, d2 = corpus.dialogues
    assert [t.speaker for t in d1.turns] == ["env", "agent", "env", "agent"]
    assert d1.turns[0].text == "hello how are you"
    assert d1.turns[1].text == "i am fine thanks"
    assert d1.turns[3].text == "i drive a big truck"
    assert len(d2.turns) == 2
    assert d2.turns[1].text == "hello friend"


def test_ingest_rejects_garbage(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("no leading number\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        ingest_personachat(str(p))


def test_corpus_stats_counts():
    corpus = Corpus([_dialogue("a", 4), _dialogue("b", 6)])
    stats = corpus_stats(corpus)
    assert stats["dialogues"] == 2
    assert stats["turns"] == 10


# ---------------------------------------------------------------------------
# splits


def test_split_corpus_is_a_partition():
    n_topics = 4
    table = make_toy_embeddings(n_topics, dim=6, seed=0)
    corpus = make_toy_corpus(20, topics=range(n_topics), seed=0)
    model = topic_cluster_model(table, n_topics)
    splits = split_corpus(corpus, model, _points(corpus, table))
    assert len(splits) == n_topics
    all_ids = [i for s in splits for i in s.dialogue_ids]
    assert sorted(all_ids) == sorted(d.id for d in corpus.dialogues)
    assert len(set(all_ids)) == len(all_ids)


def test_split_corpus_groups_by_topic():
    # with exact topic centroids every dialogue lands in its topic's split
    n_topics = 3
    table = make_toy_embeddings(n_topics, dim=6, seed=1)
    corpus = make_toy_corpus(12, topics=range(n_topics), seed=1)
    model = topic_cluster_model(table, n_topics)
    splits = split_corpus(corpus, model, _points(corpus, table))
    by_id = {s.split_id: set(s.dialogue_ids) for s in splits}
    # dialogues of one topic never straddle two splits
    for d in corpus.dialogues:
        homes = [sid for sid, ids in by_id.items() if d.id in ids]
        assert len(homes) == 1


def test_split_labels_are_assign_many_and_fit_final_pass_labels(monkeypatch):
    # splits use the nearest-centroid rule of fit's assignment passes, so on
    # a fitted dialogue model they equal the labels of fit's final pass
    passes = []
    assign_and_repair = clustering._assign_and_repair

    def recorded(points, centroids, pn):
        out = assign_and_repair(points, centroids, pn)
        passes.append(out)
        return out

    monkeypatch.setattr(clustering, "_assign_and_repair", recorded)
    for seed, (dim, k) in enumerate([(6, 3), (20, 6), (100, 12)]):
        table = make_toy_embeddings(8, dim=dim, seed=seed, spread=0.5)
        corpus = make_toy_corpus(48, topics=range(8), seed=seed)
        points = _points(corpus, table)
        passes.clear()
        model = fit(points, k, np.random.default_rng(seed))
        final = [labels for labels, cents, _, inertia in passes
                 if np.array_equal(cents, model.centroids) and inertia == model.inertia]
        split_of = {i: s.split_id for s in split_corpus(corpus, model, points)
                    for i in s.dialogue_ids}
        labels = [split_of[d.id] for d in corpus]
        assert labels == assign_many(model, points).tolist()
        assert final and labels == final[-1].tolist()


def test_splits_roundtrip(tmp_path):
    n_topics = 3
    table = make_toy_embeddings(n_topics, dim=6, seed=2)
    corpus = make_toy_corpus(9, topics=range(n_topics), seed=2)
    model = topic_cluster_model(table, n_topics)
    splits = split_corpus(corpus, model, _points(corpus, table))
    path = tmp_path / "splits.json"
    save_splits(splits, str(path))
    back = load_splits(str(path))
    assert [(s.split_id, s.dialogue_ids) for s in back] == [
        (s.split_id, s.dialogue_ids) for s in splits
    ]


def test_load_splits_missing_key_is_named(tmp_path):
    path = tmp_path / "splits.json"
    path.write_text('{"version": 1}')
    with pytest.raises(ValueError, match="'splits'"):
        load_splits(str(path))


# ---------------------------------------------------------------------------
# distractors


def _pool_reference_sampler(corpus, exclude_id, n, rng):
    """The original sampler: list every (dialogue, turn) of every other
    dialogue, then draw pool positions."""
    pool = [(i, j) for i, d in enumerate(corpus.dialogues) if d.id != exclude_id
            for j in range(len(d.turns))]
    picks = rng.choice(len(pool), size=n, replace=False)
    return [corpus.dialogues[pool[p][0]].turns[pool[p][1]].text
            for p in np.atleast_1d(picks)]


def _texts(corpus, positions):
    """Texts at turn-index positions, counted dialogue by dialogue."""
    flat = [t.text for d in corpus.dialogues for t in d.turns]
    return [flat[p] for p in positions]


def test_sample_distractors_matches_pool_reference():
    # ragged dialogues, so picks must be mapped past blocks of every size
    corpus = Corpus([_dialogue(f"d{i}", n) for i, n in enumerate((2, 7, 4, 11, 3, 6))])
    for seed in range(8):
        for exclude in (None, *corpus.ids):
            for n in (1, 4, 13):
                want = _pool_reference_sampler(corpus, exclude, n, np.random.default_rng(seed))
                got = _texts(corpus, sample_distractors(
                    corpus, exclude, n, np.random.default_rng(seed)))
                assert got == want, (seed, exclude, n)


def test_sample_distractors_unknown_exclude_id():
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 2)])
    with pytest.raises(ValueError, match="unknown dialogue id"):
        sample_distractors(corpus, "zz", 1, np.random.default_rng(0))



def test_sample_distractors_excludes_active_dialogue():
    corpus = Corpus([_dialogue("a", 6), _dialogue("b", 6), _dialogue("c", 6)])
    own = {t.text for t in corpus.get("a").turns}
    rng = np.random.default_rng(0)
    for _ in range(200):
        (s,) = _texts(corpus, sample_distractors(corpus, "a", 1, rng))
        assert s not in own


def test_sample_distractors_two_dialogue_case():
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 2)])
    rng = np.random.default_rng(1)
    (s,) = _texts(corpus, sample_distractors(corpus, "a", 1, rng))
    assert s.startswith("b ")


def test_sample_distractors_pool_too_small():
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 2)])
    with pytest.raises(ValueError):
        sample_distractors(corpus, "a", 3, np.random.default_rng(0))


def test_sample_distractors_without_replacement():
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 8)])
    rng = np.random.default_rng(2)
    draws = _texts(corpus, sample_distractors(corpus, "a", 8, rng))
    assert len(set(draws)) == 8


def test_sample_distractors_uniformity():
    # 10-sentence pool, 10000 draws of 1: each frequency within 2% of 0.1
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 10)])
    rng = np.random.default_rng(3)
    counts: dict[str, int] = {}
    n = 10_000
    for _ in range(n):
        (s,) = _texts(corpus, sample_distractors(corpus, "a", 1, rng))
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 10
    for c in counts.values():
        assert abs(c / n - 0.1) < 0.02


# ---------------------------------------------------------------------------
# distortion


@pytest.fixture()
def distortion_corpus():
    return Corpus([_dialogue(f"d{i}", 8) for i in range(6)])


def _own_ids(corpus, d):
    """d's sentence ids: sentence ids count the corpus's turns in order."""
    start = sum(len(x.turns) for x in corpus.dialogues[:corpus.index_of(d.id)])
    return list(range(start, start + len(d.turns)))


def _replaced(corpus, d, out):
    """One flag per agent turn of d: did the distortion change its id?"""
    own = _own_ids(corpus, d)
    return [out.sentence_ids[i] != own[i] for i in d.agent_turn_indices]


def test_distort_zero_fraction(distortion_corpus):
    d = distortion_corpus.get("d0")
    out = distort_dialogue(d, 0.0, distortion_corpus, np.random.default_rng(0))
    assert out.label == 4  # +#agent turns
    assert not any(_replaced(distortion_corpus, d, out))
    assert list(out.sentence_ids) == _own_ids(distortion_corpus, d)
    assert _texts(distortion_corpus, out.sentence_ids) == [t.text for t in d.turns]


def test_distort_full_fraction(distortion_corpus):
    d = distortion_corpus.get("d0")
    out = distort_dialogue(d, 1.0, distortion_corpus, np.random.default_rng(0))
    assert out.label == -4
    assert len(_replaced(distortion_corpus, d, out)) == 4  # one flag per agent turn
    assert all(_replaced(distortion_corpus, d, out))


def test_distort_half_fraction(distortion_corpus):
    d = distortion_corpus.get("d0")  # 4 agent turns
    out = distort_dialogue(d, 0.5, distortion_corpus, np.random.default_rng(1))
    assert sum(_replaced(distortion_corpus, d, out)) == 2
    assert out.label == 0


def test_distort_ceil_rule(distortion_corpus):
    # 4 agent turns, fraction 0.3 -> ceil(1.2) = 2 replacements
    d = distortion_corpus.get("d0")
    out = distort_dialogue(d, 0.3, distortion_corpus, np.random.default_rng(2))
    assert sum(_replaced(distortion_corpus, d, out)) == math.ceil(0.3 * 4)
    assert out.label == 4 - 2 * 2


def test_distort_never_touches_env_turns(distortion_corpus):
    d = distortion_corpus.get("d1")
    own = _own_ids(distortion_corpus, d)
    agent_idx = [i for i in range(len(d.turns)) if i % 2 == 1]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = distort_dialogue(d, frac, distortion_corpus,
                               np.random.default_rng(3))
        assert len(out.sentence_ids) == len(d.turns)
        for i in range(0, len(d.turns), 2):
            assert out.sentence_ids[i] == own[i]
        # the label counts exactly the agent turns whose id changed, and
        # every replacement is a sentence of another dialogue
        replaced = [out.sentence_ids[i] for i in agent_idx if out.sentence_ids[i] != own[i]]
        assert out.label == len(agent_idx) - 2 * len(replaced)
        assert not set(replaced) & set(own)


def test_distort_draws_turns_then_distractors(distortion_corpus):
    # the reward study's datasets depend on this draw order: the replaced
    # agent turns first, then `sample_distractors`, which fill them in
    # ascending turn order
    d = distortion_corpus.get("d3")
    out = distort_dialogue(d, 0.5, distortion_corpus, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    chosen = sorted(rng.choice(4, size=2, replace=False).tolist())
    picks = sample_distractors(distortion_corpus, "d3", 2, rng)
    want = _own_ids(distortion_corpus, d)
    for pos, p in zip(chosen, picks):
        want[d.agent_turn_indices[pos]] = p
    assert list(out.sentence_ids) == want


def test_distort_label_antisymmetry(distortion_corpus):
    # label(phi=0) = -label(phi=1) for every dialogue
    rng = np.random.default_rng(4)
    for d in distortion_corpus.dialogues:
        lo = distort_dialogue(d, 0.0, distortion_corpus, rng)
        hi = distort_dialogue(d, 1.0, distortion_corpus, rng)
        assert lo.label == -hi.label


def test_distort_reproducible(distortion_corpus):
    d = distortion_corpus.get("d2")
    a = distort_dialogue(d, 0.5, distortion_corpus, np.random.default_rng(9))
    b = distort_dialogue(d, 0.5, distortion_corpus, np.random.default_rng(9))
    assert a.sentence_ids == b.sentence_ids and a.label == b.label
