"""Synthetic topic-keyed corpora and embedding tables for tests and demos.

Each topic owns a private vocabulary whose word vectors sit near a shared
topic center, so sentence clusters recover topics and a scripted reply is
separable from off-topic distractors. Dialogues stay on one topic for their
whole length, which makes learning and reward-regression trends observable
at desk scale.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import AGENT, ENV, Corpus, Dialogue, Turn, validate_dialogue
from .embeddings import WordEmbeddingTable

__all__ = ["make_toy_embeddings", "make_toy_corpus", "save_embeddings_file"]


def _topic_word(topic: int, word: int) -> str:
    return f"t{topic:02d}w{word:02d}"


def make_toy_embeddings(
    n_topics: int,
    words_per_topic: int = 20,
    dim: int = 10,
    seed: int = 0,
    spread: float = 0.12,
) -> WordEmbeddingTable:
    """Word vectors clustered around unit-norm topic centers."""
    if n_topics < 1 or words_per_topic < 1 or dim < 1:
        raise ValueError("n_topics, words_per_topic, and dim must be >= 1")
    rng = np.random.default_rng([seed, 41])
    centers = rng.normal(size=(n_topics, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    tokens, rows = [], []
    for t in range(n_topics):
        for w in range(words_per_topic):
            tokens.append(_topic_word(t, w))
            rows.append(centers[t] + rng.normal(scale=spread, size=dim))
    return WordEmbeddingTable(tokens, np.stack(rows))


def make_toy_corpus(
    n_dialogues: int,
    topics: Sequence[int],
    seed: int = 0,
    words_per_topic: int = 20,
    turns_range: tuple[int, int] = (8, 14),
    id_prefix: str = "toy",
) -> Corpus:
    """Alternating env/agent dialogues, each on a single topic, of 3 to 6
    words per sentence.

    turns_range is inclusive; odd draws are rounded up so every dialogue
    ends on an agent turn.
    """
    if n_dialogues < 1 or not topics:
        raise ValueError("need at least one dialogue and one topic")
    rng = np.random.default_rng([seed, 42])
    vocab = {int(t): [_topic_word(int(t), w) for w in range(words_per_topic)]
             for t in topics}
    dialogues = []
    for i in range(n_dialogues):
        topic = int(topics[int(rng.integers(len(topics)))])
        n_turns = int(rng.integers(turns_range[0], turns_range[1] + 1))
        if n_turns % 2:
            n_turns += 1
        turns = []
        for j in range(n_turns):
            n_words = int(rng.integers(3, 7))  # 3 to 6 words
            # one draw of n_words values: the same stream as n scalar draws
            words = [vocab[topic][w]
                     for w in rng.integers(words_per_topic, size=n_words).tolist()]
            speaker = ENV if j % 2 == 0 else AGENT
            turns.append(Turn(speaker=speaker, text=" ".join(words)))
        d = Dialogue(id=f"{id_prefix}-{i:04d}", turns=tuple(turns))
        validate_dialogue(d)
        dialogues.append(d)
    return Corpus(dialogues)


def save_embeddings_file(table: WordEmbeddingTable, path: str) -> None:
    """Write a table back out in the GloVe-style text format."""
    with open(path, "w", encoding="utf-8") as fh:
        for tok in table.tokens:
            vec = table.lookup(tok)
            fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")
