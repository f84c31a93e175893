"""K-Means++ clustering over sentence/dialogue vectors, plus 2-D PCA.

Cluster IDs double as the agent's discrete actions, so `fit` must always
return exactly k centroids: empty clusters are repaired by reseeding them
to the point farthest from its assigned centroid among clusters that have
a point to spare.

A Lloyd pass keeps the bits of the plain definition, in which a centroid is
`points[labels == j].mean(axis=0)`. The update therefore sums each cluster's
rows in their original order: one stable sort of the labels makes every
cluster a contiguous slice, and an axis-0 sum adds a slice's rows one after
another, as `mean` does. `np.add.reduceat` and a one-hot GEMM add the same
rows in another order and change the last bits, so neither is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import read_json, write_json

__all__ = [
    "ClusterModel",
    "InertiaIncreaseError",
    "kmeanspp_seed",
    "fit",
    "assign_many",
    "dialogue_vectors",
    "pca_project",
    "save_cluster_model",
    "load_cluster_model",
]


@dataclass(eq=False)
class ClusterModel:
    """k centroids over dim-dimensional vectors; inertia as of fit time."""

    k: int
    dim: int
    centroids: np.ndarray  # (k, dim)
    inertia: float

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.centroids.shape != (self.k, self.dim):
            raise ValueError(
                f"centroids shape {self.centroids.shape} != ({self.k}, {self.dim})"
            )
        if not np.all(np.isfinite(self.centroids)):
            raise ValueError("non-finite centroid")


class InertiaIncreaseError(ArithmeticError):
    """A Lloyd pass raised the inertia, which exact arithmetic never does."""


def _sq_dists(points: np.ndarray, centroids: np.ndarray, pn: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, clipped at 0 against fp noise.

    pn holds the points' squared norms. The result is built in the GEMM's
    output buffer: pn - 2 * points @ centroids.T + |c|^2, the same bits as
    that expression without its (n, k) temporaries.
    """
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += pn[:, None]
    d2 += np.sum(centroids**2, axis=1)
    np.maximum(d2, 0.0, out=d2)
    return d2


def kmeanspp_seed(points, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding: each next centroid is a data point drawn with
    probability proportional to its squared distance to the nearest chosen one.
    Falls back to a uniform draw when all remaining distances are zero
    (duplicate points)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = points.shape[0]
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points n={n}")
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


def _assign_and_repair(points: np.ndarray, centroids: np.ndarray, pn: np.ndarray):
    """Nearest-centroid labels with empty clusters reseeded to far points.

    A reseeded cluster takes the point farthest from its centroid among the
    clusters with at least two members, so no repair empties another cluster
    (one always has two members while n >= k and a cluster is empty).
    Returns (labels, centroids, counts, inertia); centroids is mutated only
    on repair, and counts[j] is the number of points labelled j.
    """
    k = centroids.shape[0]
    d2 = _sq_dists(points, centroids, pn)
    labels = np.argmin(d2, axis=1)
    counts = np.bincount(labels, minlength=k)
    d_own = np.take_along_axis(d2, labels[:, None], axis=1)[:, 0]
    if np.any(counts == 0):
        centroids = centroids.copy()
        for j in np.flatnonzero(counts == 0):
            p = int(np.argmax(np.where(counts[labels] >= 2, d_own, -1.0)))
            counts[labels[p]] -= 1
            counts[j] = 1
            centroids[j] = points[p]
            labels[p] = j
            d_own[p] = 0.0
        inertia = float(
            np.sum((points - centroids[labels]) ** 2)
        )
    else:
        inertia = float(d_own.sum())
    return labels, centroids, counts, inertia


def _cluster_means(points: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(k, dim) per-cluster means, bit-identical to
    `points[labels == j].mean(axis=0)` for every j (see the module docstring)."""
    sp = points[np.argsort(labels, kind="stable")]
    means = np.empty((counts.shape[0], points.shape[1]), dtype=np.float64)
    a = 0
    for j, b in enumerate(np.cumsum(counts).tolist()):
        sp[a:b].sum(axis=0, out=means[j])
        a = b
    means /= counts[:, None]
    return means


def _append_inertia(history: list[float], inertia: float) -> None:
    """Record one pass's inertia, refusing an increase beyond float slack."""
    if history and inertia > history[-1] + 1e-9 + 1e-12 * abs(history[-1]):
        raise InertiaIncreaseError(f"inertia increased: {history[-1]} -> {inertia}")
    history.append(inertia)


# Lloyd passes per restart at most, and the centroid movement that stops one
_MAX_ITERS, _TOL = 100, 1e-6


def _lloyd_once(points, k, rng, max_iters, tol):
    centroids = kmeanspp_seed(points, k, rng)
    pn = np.sum(points**2, axis=1)
    history: list[float] = []
    for _ in range(max_iters):
        labels, centroids, counts, inertia = _assign_and_repair(points, centroids, pn)
        _append_inertia(history, inertia)
        new_centroids = _cluster_means(points, labels, counts)
        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break
    # Final pass so the stored labels/inertia match the stored centroids.
    _, centroids, _, inertia = _assign_and_repair(points, centroids, pn)
    _append_inertia(history, inertia)
    return centroids, inertia, history


def fit(points, k: int, rng: np.random.Generator, restarts: int = 10) -> ClusterModel:
    """Best of `restarts` K-Means++ seeded Lloyd runs (lowest inertia wins),
    each stopping after `_MAX_ITERS` passes or once no centroid moves by
    `_TOL` or more.

    A single K-Means++ init lands in a suboptimal basin a noticeable
    fraction of the time even on tiny instances; ten restarts make the
    near-optimality failure rate negligible at these scales.  The winning
    run's inertia history (one value per assignment pass, checked
    non-increasing every iteration; an increase raises
    InertiaIncreaseError) is kept on the returned model as
    `inertia_history` for inspection.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    best = None
    for _ in range(restarts):
        centroids, inertia, history = _lloyd_once(points, k, rng, _MAX_ITERS, _TOL)
        if best is None or inertia < best[1]:
            best = (centroids, inertia, history)
    centroids, inertia, history = best
    model = ClusterModel(k=k, dim=points.shape[1], centroids=centroids, inertia=inertia)
    model.inertia_history = history  # diagnostic, not part of the dataclass
    return model


def assign_many(model: ClusterModel, X) -> np.ndarray:
    """Index of the nearest centroid of each row of X, by the squared
    distances of `fit`'s assignment passes; ties go to the lowest index."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"points shape {X.shape} incompatible with dim {model.dim}")
    return np.argmin(_sq_dists(X, model.centroids, np.sum(X**2, axis=1)), axis=1)


def dialogue_vectors(vectors: np.ndarray, offsets) -> np.ndarray:
    """(n_dialogues, dim): row i is the mean of the sentence vectors
    vectors[offsets[i]:offsets[i + 1]] of dialogue i (see `embed_corpus`)."""
    if np.any(np.diff(offsets) < 1):
        raise ValueError("empty dialogue has no vector")
    return np.stack([vectors[a:b].mean(axis=0) for a, b in zip(offsets[:-1], offsets[1:])])


def pca_project(points, out_dim: int = 2) -> np.ndarray:
    """Project mean-centered points onto the top principal axes.

    Eigenvectors are ordered by descending eigenvalue; each is sign-fixed so
    its first nonzero component is positive, making the projection unique.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n, dim = X.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 points, got {n}")
    if out_dim > dim:
        raise ValueError(f"out_dim {out_dim} exceeds input dim {dim}")
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:out_dim]
    V = eigvecs[:, order]
    for j in range(V.shape[1]):
        col = V[:, j]
        nonzero = np.flatnonzero(np.abs(col) > 1e-12)
        if nonzero.size and col[nonzero[0]] < 0:
            V[:, j] = -col
    return Xc @ V


def save_cluster_model(model: ClusterModel, path: str, extra: dict | None = None) -> None:
    """Write the versioned JSON cluster-model file."""
    obj = {
        "version": 1,
        "k": model.k,
        "dim": model.dim,
        "centroids": [[float(v) for v in row] for row in model.centroids],
        "inertia": float(model.inertia),
    }
    if extra:
        obj.update(extra)
    write_json(path, obj)


def load_cluster_model(path: str) -> ClusterModel:
    obj = read_json(path)
    if obj.get("version") != 1:
        raise ValueError(f"{path}: unsupported cluster model version: {obj.get('version')!r}")
    for key in ("k", "dim", "centroids"):
        if key not in obj:
            raise ValueError(f"{path}: cluster model has no {key!r} key")
    model = ClusterModel(
        k=int(obj["k"]),
        dim=int(obj["dim"]),
        centroids=np.asarray(obj["centroids"], dtype=np.float64),
        inertia=float(obj.get("inertia", float("nan"))),
    )
    return model
