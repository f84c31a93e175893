"""Reward-regression study: train GRU+BatchNorm regressors to predict the
episode reward of (possibly distorted) dialogues from their first h
sentences, and report Pearson correlation as a function of h.

A distorted dialogue is sentence ids of its corpus's turn index: its own,
with some agent turns swapped for other dialogues' sentences drawn by
`corpus.sample_distractors`, the draw that also supplies the environment's
candidate distractors. Each corpus is embedded once and its distortions
drawn once, shared across history lengths and batched by `pad_batch`, so
the h=50 histories literally contain the h=1 histories as prefixes. Run r
at history length h trains with the seed `corpus.stable_seed(seed, h, r)`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import Corpus, DistortedDialogue, distort_dialogue, require_field_types, stable_seed
from .embeddings import WordEmbeddingTable, embed_corpus
from .neuralnet import Adam, RewardRegressor, pad_batch, regressor_loss_and_grads

__all__ = [
    "DISTORTION_FRACTIONS",
    "HISTORY_LENGTHS",
    "PredictorConfig",
    "StudyRow",
    "distort_corpus",
    "history_prefixes",
    "train_predictor",
    "predict",
    "pearson",
    "history_length_study",
]

DISTORTION_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
HISTORY_LENGTHS = (1, 5, 10, 25, 35, 50)


@dataclass
class PredictorConfig:
    """Training settings of one regressor (two GRU layers, see
    `neuralnet.RewardRegressor`); the history length is the study's
    variable, passed to `history_length_study`."""

    hidden_dim: int = 256
    batch_size: int = 32
    epochs: int = 10
    runs: int = 10
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_field_types(self)
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (train-mode batch norm)")
        if self.epochs < 1 or self.hidden_dim < 1:
            raise ValueError("epochs and hidden_dim must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class StudyRow:
    h: int
    mean_r: float
    std_r: float
    scores: tuple[float, ...]


def distort_corpus(
    corpus: Corpus,
    fractions: Sequence[float],
    rng: np.random.Generator,
) -> list[DistortedDialogue]:
    """One DistortedDialogue per (dialogue, fraction), in corpus order."""
    return [distort_dialogue(d, phi, corpus, rng) for d in corpus for phi in fractions]


def history_prefixes(vectors: np.ndarray, distorted: Sequence[DistortedDialogue], h: int):
    """(X, lengths): the first h sentence ids of each distorted dialogue,
    gathered from its corpus's sentence vectors (`embed_corpus`) into an
    (n, T, dim) batch zero-padded after each dialogue's last sentence
    (`neuralnet.pad_batch`), T = min(h, longest dialogue)."""
    if h < 1:
        raise ValueError("h must be >= 1")
    return pad_batch(vectors, [dd.sentence_ids[:h] for dd in distorted])


def _labels(distorted: Sequence[DistortedDialogue]) -> np.ndarray:
    return np.array([dd.label for dd in distorted], dtype=np.float64)


def train_predictor(
    X: np.ndarray, lengths: np.ndarray, y: np.ndarray, cfg: PredictorConfig
) -> RewardRegressor:
    """Minibatch MSE training with Adam on the padded histories X (with their
    lengths) against the reward labels y; fully seeded. The regressor
    computes in float32, and is returned without its training buffers.

    Train-mode batch norm needs >= 2 rows, so a batch of size 1 (singleton
    dataset, or a trailing remainder of 1) is duplicated: the mean gradient
    over the pair equals the single-example gradient.
    """
    n = len(X)
    if n == 0:
        raise ValueError("empty dataset")
    dim = X.shape[2]
    model = RewardRegressor(
        dim, cfg.hidden_dim, rng=np.random.default_rng([cfg.seed, 10])).astype(np.float32)
    optimizer = Adam(model.params(), lr=cfg.learning_rate)
    order_rng = np.random.default_rng([cfg.seed, 11])
    for _ in range(cfg.epochs):
        perm = order_rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            if len(idx) == 1:
                idx = np.repeat(idx, 2)
            loss, grads = regressor_loss_and_grads(
                model, X[idx], lengths[idx], y[idx], train_mode=True,
            )
            optimizer.step(model.params(), grads)
    model.release_buffers()
    return model


def predict(model: RewardRegressor, X: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Eval-mode predictions (running batch-norm statistics, no dropout)."""
    return model.forward(X, lengths)


def pearson(y_true, y_pred) -> float:
    """Sample Pearson correlation; undefined (error) when either side is
    constant, since a zero standard deviation leaves nothing to correlate."""
    a = np.asarray(y_true, dtype=np.float64)
    b = np.asarray(y_pred, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-D arrays")
    if a.size < 2:
        raise ValueError("pearson needs at least 2 points")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da**2).sum()) * np.sqrt((db**2).sum())
    if denom == 0.0:
        raise ValueError("pearson undefined for a constant input")
    return float((da * db).sum() / denom)


def history_length_study(
    train_corpus: Corpus,
    test_corpus: Corpus,
    table: WordEmbeddingTable,
    cfg: PredictorConfig,
    lengths: Sequence[int] = HISTORY_LENGTHS,
    fractions: Sequence[float] = DISTORTION_FRACTIONS,
) -> list[StudyRow]:
    """For each history length h: train cfg.runs regressors with distinct
    seeds on the h-prefix view of one shared distorted dataset, and report
    the mean and std of the test-set Pearson correlation."""
    if len(lengths) < 2:
        raise ValueError("study needs at least 2 history lengths")
    if min(lengths) < 1:
        raise ValueError(f"history lengths must be >= 1, got {list(lengths)}")
    rng = np.random.default_rng([cfg.seed, 100])
    train_d = distort_corpus(train_corpus, fractions, rng)
    test_d = distort_corpus(test_corpus, fractions, rng)
    train_v, _ = embed_corpus(train_corpus, table)
    test_v, _ = embed_corpus(test_corpus, table)
    y_train, y_true = _labels(train_d), _labels(test_d)
    rows = []
    for h in lengths:
        X_train, len_train = history_prefixes(train_v, train_d, h)
        X_test, len_test = history_prefixes(test_v, test_d, h)
        scores = []
        for run in range(cfg.runs):
            run_cfg = replace(cfg, seed=stable_seed(cfg.seed, h, run))
            model = train_predictor(X_train, len_train, y_train, run_cfg)
            scores.append(pearson(y_true, predict(model, X_test, len_test)))
        rows.append(
            StudyRow(
                h=h,
                mean_r=float(np.mean(scores)),
                std_r=float(np.std(scores)),
                scores=tuple(scores),
            )
        )
    return rows
