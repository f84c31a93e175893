"""Word-vector tables and mean-vector sentence representations.

A sentence is represented by the arithmetic mean of its in-vocabulary word
vectors (zero vector when nothing is in vocabulary). This is the only module
that averages word vectors: a corpus is embedded once, in the order of its
turn index (`corpus.Corpus.turn_index`), and everything downstream
addresses its sentences by row, that is, by sentence id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "WordEmbeddingTable",
    "load_embeddings",
    "tokenize",
    "embed_texts",
    "embed_corpus",
]

# Characters stripped from token edges after whitespace splitting.
_EDGE_PUNCT = '.,!?;:"()'


class WordEmbeddingTable:
    """Immutable token -> vector table: row i of the (n, dim) float64
    `matrix` is the vector of `tokens[i]`. The matrix is taken without a
    copy and made read-only, so `lookup` returns read-only rows.

    Safe to share across threads after construction; lookups never mutate.
    """

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray):
        tokens = tuple(tokens)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens) or matrix.shape[1] < 1:
            raise ValueError(
                f"embedding matrix of shape {matrix.shape} for {len(tokens)} tokens; "
                "need one row per token and dim >= 1"
            )
        if not all(tokens):
            raise ValueError("empty token in embedding table")
        self._index = {tok: i for i, tok in enumerate(tokens)}
        if len(self._index) != len(tokens):
            raise ValueError("duplicate token in embedding table")
        if not np.isfinite(matrix).all():
            raise ValueError("non-finite coefficient in embedding table")
        matrix.setflags(write=False)
        self._matrix = matrix
        self._tokens = tokens

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def lookup(self, token: str) -> np.ndarray | None:
        """Vector for `token`, or None when out of vocabulary."""
        i = self._index.get(token)
        return None if i is None else self._matrix[i]


def load_embeddings(path: str, dim: int) -> WordEmbeddingTable:
    """Parse a GloVe-style text file: `token v1 v2 ... v_dim` per line.

    Blank lines are skipped. Any malformed line fails the whole load with
    its 1-based line number.
    """
    if dim <= 0:
        raise ValueError(f"embedding dim must be positive, got {dim}")
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, coeffs = parts[0], parts[1:]
            if len(coeffs) != dim:
                raise ValueError(f"wrong coefficient count at line {lineno}")
            try:
                vec = np.array([float(c) for c in coeffs], dtype=np.float64)
            except ValueError:
                raise ValueError(f"non-numeric coefficient at line {lineno}") from None
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite coefficient at line {lineno}")
            if token in seen:
                raise ValueError(f"duplicate token at line {lineno}")
            seen.add(token)
            tokens.append(token)
            rows.append(vec)
    matrix = np.stack(rows) if rows else np.zeros((0, dim), dtype=np.float64)
    return WordEmbeddingTable(tokens, matrix)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation off token edges.

    Interior punctuation (apostrophes, hyphens, embedded periods) is kept.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_EDGE_PUNCT)
        if tok:
            out.append(tok)
    return out


def embed_texts(texts: Sequence[str], table: WordEmbeddingTable) -> np.ndarray:
    """(n, dim) sentence vectors: row i is the mean of the in-vocabulary word
    vectors of tokenize(texts[i]), or zeros if none is in vocabulary.

    Each distinct text is embedded once and its row repeated."""
    rows: dict[str, int] = {}
    ids = [rows.setdefault(text, len(rows)) for text in texts]
    unique = np.zeros((len(rows), table.dim), dtype=np.float64)
    for text, i in rows.items():
        found = [table.lookup(t) for t in tokenize(text)]
        found = [v for v in found if v is not None]
        if found:
            unique[i] = np.mean(found, axis=0)
    return unique if len(rows) == len(ids) else unique[ids]


def embed_corpus(corpus, table: WordEmbeddingTable):
    """(vectors, offsets) of a `corpus.Corpus`: row j of vectors embeds
    sentence id j of its turn index, and offsets are the index's own, so
    dialogue i owns the rows offsets[i]:offsets[i + 1]."""
    offsets, texts = corpus.turn_index
    return embed_texts(texts, table), offsets
