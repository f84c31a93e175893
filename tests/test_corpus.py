"""Corpus model: JSONL persistence, ingest, splits, distortion."""

import json
import math

import numpy as np
import pytest

from chatdqn import (
    Corpus,
    Dialogue,
    Turn,
    corpus_stats,
    dialogue_vectors,
    distort_dialogue,
    embed_corpus,
    ingest_personachat,
    load_corpus,
    load_splits,
    make_toy_corpus,
    make_toy_embeddings,
    sample_distractors,
    save_corpus,
    save_splits,
    split_corpus,
    validate_dialogue,
)

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
    with pytest.raises(ValueError, match="line 2"):
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


def test_sample_distractors_matches_pool_reference():
    # ragged dialogues, so picks must be mapped past blocks of every size
    corpus = Corpus([_dialogue(f"d{i}", n) for i, n in enumerate((2, 7, 4, 11, 3, 6))])
    for seed in range(8):
        for exclude in (None, *corpus.ids):
            for n in (1, 4, 13):
                want = _pool_reference_sampler(corpus, exclude, n, np.random.default_rng(seed))
                got = sample_distractors(corpus, exclude, n, np.random.default_rng(seed))
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
        (s,) = sample_distractors(corpus, "a", 1, rng)
        assert s not in own


def test_sample_distractors_two_dialogue_case():
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 2)])
    rng = np.random.default_rng(1)
    (s,) = sample_distractors(corpus, "a", 1, rng)
    assert s.startswith("b ")


def test_sample_distractors_pool_too_small():
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 2)])
    with pytest.raises(ValueError):
        sample_distractors(corpus, "a", 3, np.random.default_rng(0))


def test_sample_distractors_without_replacement():
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 8)])
    rng = np.random.default_rng(2)
    draws = sample_distractors(corpus, "a", 8, rng)
    assert len(set(draws)) == 8


def test_sample_distractors_uniformity():
    # 10-sentence pool, 10000 draws of 1: each frequency within 2% of 0.1
    corpus = Corpus([_dialogue("a", 2), _dialogue("b", 10)])
    rng = np.random.default_rng(3)
    counts: dict[str, int] = {}
    n = 10_000
    for _ in range(n):
        (s,) = sample_distractors(corpus, "a", 1, rng)
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 10
    for c in counts.values():
        assert abs(c / n - 0.1) < 0.02


# ---------------------------------------------------------------------------
# distortion


@pytest.fixture()
def distortion_corpus():
    return Corpus([_dialogue(f"d{i}", 8) for i in range(6)])


def test_distort_zero_fraction(distortion_corpus):
    d = distortion_corpus.get("d0")
    out = distort_dialogue(d, 0.0, distortion_corpus, np.random.default_rng(0))
    assert out.label == 4  # +#agent turns
    assert not any(out.replaced_mask)
    assert out.turns == d.turns


def test_distort_full_fraction(distortion_corpus):
    d = distortion_corpus.get("d0")
    out = distort_dialogue(d, 1.0, distortion_corpus, np.random.default_rng(0))
    assert out.label == -4
    assert len(out.replaced_mask) == 4  # one flag per agent turn
    assert all(out.replaced_mask)


def test_distort_half_fraction(distortion_corpus):
    d = distortion_corpus.get("d0")  # 4 agent turns
    out = distort_dialogue(d, 0.5, distortion_corpus, np.random.default_rng(1))
    assert sum(out.replaced_mask) == 2
    assert out.label == 0


def test_distort_ceil_rule(distortion_corpus):
    # 4 agent turns, fraction 0.3 -> ceil(1.2) = 2 replacements
    d = distortion_corpus.get("d0")
    out = distort_dialogue(d, 0.3, distortion_corpus, np.random.default_rng(2))
    assert sum(out.replaced_mask) == math.ceil(0.3 * 4)
    assert out.label == 4 - 2 * 2


def test_distort_never_touches_env_turns(distortion_corpus):
    d = distortion_corpus.get("d1")
    agent_idx = [i for i in range(len(d.turns)) if i % 2 == 1]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = distort_dialogue(d, frac, distortion_corpus,
                               np.random.default_rng(3))
        assert len(out.turns) == len(d.turns)
        for i in range(0, len(d.turns), 2):
            assert out.turns[i] == d.turns[i]
        # the mask flags exactly the agent turns whose text changed
        for pos, turn_i in enumerate(agent_idx):
            changed = out.turns[turn_i].text != d.turns[turn_i].text
            assert changed == out.replaced_mask[pos]


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
    assert a.turns == b.turns and a.replaced_mask == b.replaced_mask
