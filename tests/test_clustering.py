"""K-means++ / Lloyd / PCA against brute-force and analytic oracles."""

import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from chatdqn import (
    ClusterModel,
    assign,
    assign_many,
    clustering,
    dialogue_vectors,
    embed_corpus,
    embed_texts,
    euclidean,
    fit,
    kmeanspp_seed,
    load_cluster_model,
    pca_project,
    save_cluster_model,
)
from chatdqn.clustering import InertiaIncreaseError
from chatdqn.corpus import Dialogue, Turn

from conftest import make_table


def brute_force_two_cluster_inertia(xs):
    """Optimal 2-partition inertia by enumerating all 2^(n-1)-1 splits."""
    xs = np.asarray(xs, dtype=np.float64)
    n = len(xs)
    best = np.inf
    # point 0 always in side A (kills the A/B symmetry); bits of `mask`
    # place points 1..n-1
    for mask in range(1, 2 ** (n - 1)):
        side = np.array(
            [False] + [bool((mask >> i) & 1) for i in range(n - 1)]
        )
        a, b = xs[~side], xs[side]
        inertia = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
        best = min(best, inertia)
    return best


# ---------------------------------------------------------------------------
# euclidean


def test_euclidean_identity():
    assert euclidean([1, 2, 3], [1, 2, 3]) == 0.0


def test_euclidean_3_4_5():
    assert euclidean([0, 0], [3, 4]) == pytest.approx(5.0)


def test_euclidean_symmetry_against_formula():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.normal(size=(2, 7))
        ref = float(np.sqrt(((x - y) ** 2).sum()))
        assert euclidean(x, y) == pytest.approx(ref, abs=1e-12)
        assert euclidean(y, x) == pytest.approx(euclidean(x, y), abs=0)


def test_euclidean_length_mismatch():
    with pytest.raises(ValueError):
        euclidean([1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# kmeanspp_seed


def test_kmeanspp_exhaustion_selects_all_points():
    pts = np.array([[0.0], [5.0], [9.0]])
    cents = kmeanspp_seed(pts, 3, np.random.default_rng(0))
    assert sorted(cents.ravel().tolist()) == [0.0, 5.0, 9.0]


def test_kmeanspp_k1_is_an_input_point():
    pts = np.array([[1.0], [2.0], [3.0]])
    c = kmeanspp_seed(pts, 1, np.random.default_rng(4))
    assert c.shape == (1, 1)
    assert c[0, 0] in {1.0, 2.0, 3.0}


def test_kmeanspp_bad_k():
    pts = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError):
        kmeanspp_seed(pts, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kmeanspp_seed(pts, 0, np.random.default_rng(0))


def test_kmeanspp_d_squared_law():
    # points {0, 0, 100}: first centroid uniform over the 3 points, so
    # P(first = 100) = 1/3; the D^2 rule then forces the second centroid to
    # the other value (distance 0 to a duplicate gets zero weight).
    pts = np.array([[0.0], [0.0], [100.0]])
    trials = 10_000
    first_far = 0
    for s in range(trials):
        cents = kmeanspp_seed(pts, 2, np.random.default_rng([9, s]))
        vals = sorted(cents.ravel().tolist())
        assert vals == [0.0, 100.0]  # second pick is forced by D^2 weights
        if cents[0, 0] == 100.0:
            first_far += 1
    assert abs(first_far / trials - 1 / 3) < 0.02


# ---------------------------------------------------------------------------
# fit


def test_fit_two_blobs_matches_brute_force():
    xs = [0.0, 0.1, 10.0, 10.1]
    pts = np.array(xs)[:, None]
    model = fit(pts, 2, np.random.default_rng(0))
    assert sorted(model.centroids.ravel().tolist()) == pytest.approx(
        [0.05, 10.05], abs=1e-12
    )
    assert model.inertia == pytest.approx(
        brute_force_two_cluster_inertia(xs), abs=1e-9
    )
    assert model.inertia == pytest.approx(0.01, abs=1e-9)


def test_fit_k_equals_n_zero_inertia():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    model = fit(pts, 3, np.random.default_rng(1))
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(model.centroids[:, 0].tolist()) == [0.0, 1.0, 2.0]


def test_fit_identical_points_degenerate():
    pts = np.zeros((5, 2))
    model = fit(pts, 2, np.random.default_rng(2))
    assert model.k == 2
    assert model.inertia == pytest.approx(0.0, abs=1e-12)


def test_fit_inertia_history_non_increasing():
    rng_pts = np.random.default_rng(5)
    for seed in range(100):
        pts = rng_pts.normal(size=(30, 3))
        model = fit(pts, 4, np.random.default_rng(seed))
        hist = model.inertia_history
        assert len(hist) >= 1
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def _rising_inertia():
    """Stand-in for _assign_and_repair whose inertia grows on every pass."""
    passes = itertools.count(1)

    def assign_and_repair(points, centroids, pn):
        labels = np.arange(len(points)) % len(centroids)
        counts = np.bincount(labels, minlength=len(centroids))
        return labels, centroids, counts, float(next(passes))

    return assign_and_repair


def test_fit_refuses_rising_inertia(monkeypatch):
    monkeypatch.setattr(clustering, "_assign_and_repair", _rising_inertia())
    pts = np.random.default_rng(9).normal(size=(12, 2))
    with pytest.raises(InertiaIncreaseError, match="inertia increased"):
        fit(pts, 3, np.random.default_rng(9), restarts=1)


def test_fit_refuses_rising_inertia_under_python_O():
    # the check must survive `python -O`, which strips assert statements
    code = (
        "import numpy as np\n"
        "from chatdqn import clustering\n"
        "from test_clustering import _rising_inertia\n"
        "clustering._assign_and_repair = _rising_inertia()\n"
        "try:\n"
        "    clustering.fit(np.eye(4), 2, np.random.default_rng(0), restarts=1)\n"
        "except clustering.InertiaIncreaseError:\n"
        "    print('refused')\n"
    )
    tests_dir = pathlib.Path(__file__).parent
    src_dir = pathlib.Path(clustering.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": f"{src_dir}{os.pathsep}{tests_dir}"}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"


# The Lloyd pass as first written: distances from a fresh expression, a
# repair that may pick the only member of a cluster, and each centroid as
# the mean of a boolean mask. `fit` must give the same bits wherever this
# reference gives finite centroids.


def _ref_sq_dists(points, centroids):
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _ref_assign_and_repair(points, centroids, repairs):
    n, k = points.shape[0], centroids.shape[0]
    d2 = _ref_sq_dists(points, centroids)
    labels = np.argmin(d2, axis=1)
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        repairs.append(int(np.sum(counts == 0)))
        centroids = centroids.copy()
        d_own = d2[np.arange(n), labels].copy()
        for j in np.flatnonzero(counts == 0):
            p = int(np.argmax(d_own))
            centroids[j] = points[p]
            labels[p] = j
            d_own[p] = 0.0
        inertia = float(np.sum((points - centroids[labels]) ** 2))
    else:
        inertia = float(d2[np.arange(n), labels].sum())
    return labels, centroids, inertia


def _ref_fit(points, k, rng, restarts, repairs, max_iters=100, tol=1e-6):
    best = None
    for _ in range(restarts):
        centroids = kmeanspp_seed(points, k, rng)
        history = []
        for _ in range(max_iters):
            labels, centroids, inertia = _ref_assign_and_repair(points, centroids, repairs)
            history.append(inertia)
            new_centroids = np.empty_like(centroids)
            for j in range(k):
                new_centroids[j] = points[labels == j].mean(axis=0)
            movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)).max())
            centroids = new_centroids
            if movement < tol:
                break
        labels, centroids, inertia = _ref_assign_and_repair(points, centroids, repairs)
        history.append(inertia)
        if best is None or inertia < best[1]:
            best = (centroids, inertia, history)
    return best


def _reference_case(name, seed):
    rng = np.random.default_rng([31, seed])
    if name == "1d":
        return rng.normal(size=(60, 1)) * 3.0, 6
    if name == "d100_k100":
        return rng.normal(size=(300, 100)), 100
    if name == "k_near_n":
        return rng.normal(size=(14, 3)), 12
    # 4 distinct rows, 8 copies each, k=5: seeding must draw a duplicate
    # centroid, which leaves a cluster empty on every pass
    return rng.permutation(np.repeat(rng.normal(size=(4, 2)), 8, axis=0)), 5


@pytest.mark.parametrize("name", ["1d", "d100_k100", "k_near_n", "duplicates"])
@pytest.mark.parametrize("seed", range(3))
def test_fit_bit_identical_to_per_cluster_mean_reference(name, seed):
    pts, k = _reference_case(name, seed)
    repairs = []
    ref_centroids, ref_inertia, ref_history = _ref_fit(
        pts, k, np.random.default_rng(seed), 4, repairs)
    model = fit(pts, k, np.random.default_rng(seed), restarts=4)
    assert np.array_equal(model.centroids, ref_centroids)
    assert model.inertia == ref_inertia
    assert model.inertia_history == ref_history
    if name == "duplicates":
        assert repairs  # the case exercises the repair path


def test_assign_many_matches_reference_argmin():
    rng = np.random.default_rng(37)
    for n, d, k in [(50, 1, 4), (200, 100, 100), (30, 5, 29)]:
        pts = rng.normal(size=(n, d))
        model = ClusterModel(k=k, dim=d, centroids=rng.normal(size=(k, d)), inertia=0.0)
        ref = np.argmin(_ref_sq_dists(pts, model.centroids), axis=1)
        assert np.array_equal(assign_many(model, pts), ref)


def test_repair_never_empties_a_cluster():
    # the first repair used to move the same lone point twice, emptying the
    # cluster it had just filled (NaN centroid, "non-finite centroid")
    pts = np.array([[2.0], [1.0], [1.0], [0.0], [1.0], [0.0]])
    model = fit(pts, 4, np.random.default_rng(0), restarts=1)
    assert set(model.centroids.ravel().tolist()) == {0.0, 1.0, 2.0}
    assert model.inertia == 0.0
    rng = np.random.default_rng(41)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        pts = rng.integers(0, 3, size=(int(rng.integers(k, 20)), 1)).astype(float)
        centroids = pts[rng.integers(len(pts), size=k)]
        pn = np.sum(pts**2, axis=1)
        labels, _, counts, _ = clustering._assign_and_repair(pts, centroids, pn)
        assert np.array_equal(counts, np.bincount(labels, minlength=k))
        assert counts.min() >= 1


def test_fit_assigns_every_point_to_nearest_centroid():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 2))
    model = fit(pts, 5, np.random.default_rng(7))
    labels = assign_many(model, pts)
    for x, lab in zip(pts, labels):
        dists = [euclidean(x, c) for c in model.centroids]
        assert dists[lab] == pytest.approx(min(dists), abs=1e-12)


def test_fit_near_optimal_on_tiny_1d_instances():
    # acceptance-style: >= 95% of seeds reach the brute-force optimum
    hits = 0
    total = 100
    for seed in range(total):
        rng = np.random.default_rng([11, seed])
        n = int(rng.integers(4, 13))
        xs = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        opt = brute_force_two_cluster_inertia(xs)
        model = fit(xs[:, None], 2, np.random.default_rng([12, seed]))
        assert model.inertia >= opt - 1e-9  # can never beat the optimum
        if model.inertia <= opt + 1e-9:
            hits += 1
    assert hits >= 95


def test_fit_seeded_reproducibility():
    pts = np.random.default_rng(3).normal(size=(25, 4))
    m1 = fit(pts, 3, np.random.default_rng(42))
    m2 = fit(pts, 3, np.random.default_rng(42))
    assert np.array_equal(m1.centroids, m2.centroids)
    assert m1.inertia == m2.inertia


# ---------------------------------------------------------------------------
# assign


def test_assign_nearest_and_tie():
    model = ClusterModel(
        k=2, dim=1, centroids=np.array([[0.0], [10.0]]), inertia=0.0
    )
    assert assign(model, [1.0]) == 0
    assert assign(model, [9.0]) == 1
    assert assign(model, [5.0]) == 0  # equidistant: lowest index


def test_assign_matches_linear_scan():
    rng = np.random.default_rng(13)
    cents = rng.normal(size=(6, 3))
    model = ClusterModel(k=6, dim=3, centroids=cents, inertia=0.0)
    for _ in range(50):
        x = rng.normal(size=3)
        ref = int(np.argmin([euclidean(x, c) for c in cents]))
        assert assign(model, x) == ref


def test_assign_dim_mismatch():
    model = ClusterModel(k=1, dim=2, centroids=np.zeros((1, 2)), inertia=0.0)
    with pytest.raises(ValueError):
        assign(model, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# dialogue_vectors


def _dlg(*texts):
    turns = tuple(
        Turn(speaker="env" if i % 2 == 0 else "agent", text=t)
        for i, t in enumerate(texts)
    )
    return Dialogue(id="d0", turns=turns)


def _dialogue_vector(d, table):
    (vec,) = dialogue_vectors(*embed_corpus([d], table))
    return vec


def test_dialogue_vector_single_sentence():
    table = make_table({"hi": [1.0, 0.0]})
    d = _dlg("hi", "hi")
    assert np.allclose(_dialogue_vector(d, table), [1.0, 0.0])


def test_dialogue_vector_mean_of_two():
    table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    d = _dlg("a", "b")
    assert np.allclose(_dialogue_vector(d, table), [0.5, 0.5])


def test_dialogue_vector_permutation_invariant():
    table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    assert np.allclose(
        _dialogue_vector(_dlg("a", "b"), table),
        _dialogue_vector(_dlg("b", "a"), table),
    )


def test_dialogue_vectors_are_slice_means_of_sentence_rows():
    # bit-identical to stacking each dialogue's own sentence vectors and
    # averaging them, which is how dialogue vectors were first defined
    table = make_table({"a": [1.0, 0.3], "b": [0.1, 1.0], "c": [-0.7, 0.2]})
    dialogues = [_dlg("a", "b c", "c"), _dlg("b", "a a b", "c a", "b"), _dlg("c", "zzz")]
    vectors, offsets = embed_corpus(dialogues, table)
    got = dialogue_vectors(vectors, offsets)
    for i, d in enumerate(dialogues):
        own = np.stack([embed_texts([t.text], table)[0] for t in d.turns])
        np.testing.assert_array_equal(got[i], own.mean(axis=0))


# ---------------------------------------------------------------------------
# pca_project


def test_pca_rank_one_data():
    t = np.linspace(-2, 2, 9)
    pts = np.stack([t, t], axis=1)  # the line y = x
    proj = pca_project(pts, out_dim=2)
    assert np.all(np.abs(proj[:, 1]) < 1e-9)
    assert np.var(proj[:, 0]) > 0


def test_pca_preserves_pairwise_distances_in_full_dim():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(12, 2))
    proj = pca_project(pts, out_dim=2)
    for i, j in itertools.combinations(range(len(pts)), 2):
        d0 = euclidean(pts[i], pts[j])
        d1 = euclidean(proj[i], proj[j])
        assert d0 == pytest.approx(d1, abs=1e-9)


def test_pca_identical_points_project_to_zero():
    pts = np.ones((5, 3))
    proj = pca_project(pts, out_dim=2)
    assert np.all(np.abs(proj) < 1e-12)


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(20, 4))
    p1 = pca_project(pts, out_dim=2)
    p2 = pca_project(np.array(pts), out_dim=2)
    assert np.array_equal(p1, p2)


def test_pca_needs_two_points():
    with pytest.raises(ValueError):
        pca_project(np.ones((1, 3)), out_dim=2)


# ---------------------------------------------------------------------------
# persistence


def test_cluster_model_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(30, 4))
    model = fit(pts, 3, np.random.default_rng(23))
    path = tmp_path / "model.json"
    save_cluster_model(model, str(path))
    back = load_cluster_model(str(path))
    assert back.k == model.k and back.dim == model.dim
    assert np.array_equal(back.centroids, model.centroids)
    labels_a = assign_many(model, pts)
    labels_b = assign_many(back, pts)
    assert np.array_equal(labels_a, labels_b)


def test_cluster_model_missing_key_is_named(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"version": 1, "k": 1, "dim": 1}')
    with pytest.raises(ValueError, match="'centroids'"):
        load_cluster_model(str(path))


def test_cluster_model_rejects_bad_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"version": 99, "k": 1, "dim": 1, "centroids": [[0.0]]}')
    with pytest.raises(ValueError):
        load_cluster_model(str(path))
