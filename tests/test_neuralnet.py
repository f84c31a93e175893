"""Network core against scalar-loop references and finite differences.

The reference implementations below are written as explicit per-unit loops
straight from the layer equations, sharing no code with the vectorized
implementations they check.
"""

import math
import re

import numpy as np
import pytest

from chatdqn.neuralnet import (
    Adam,
    QNetwork,
    RewardRegressor,
    batchnorm_forward,
    dropout,
    glorot_uniform,
    gru_backward,
    gru_forward,
    init_gru_params,
    pad_batch,
    qnet_loss_and_grads,
    regressor_loss_and_grads,
    sigmoid,
)
from chatdqn.neuralnet import _Workspace


# ---------------------------------------------------------------------------
# scalar references


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def ref_gru_cell(p, x, h):
    """One GRU step, unit by unit, from the written-out equations."""
    H = len(p["b_z"])
    out = np.zeros(H)
    for i in range(H):
        z = _sig(float(p["W_z"][i] @ x + p["U_z"][i] @ h + p["b_z"][i]))
        r = _sig(float(p["W_r"][i] @ x + p["U_r"][i] @ h + p["b_r"][i]))
        # reset applies inside the candidate's recurrent term
        rh = np.array([_sig(float(p["W_r"][j] @ x + p["U_r"][j] @ h + p["b_r"][j])) * h[j]
                       for j in range(H)])
        cand = math.tanh(float(p["W_h"][i] @ x + p["U_h"][i] @ rh + p["b_h"][i]))
        out[i] = (1.0 - z) * h[i] + z * cand
        del r
    return out


def ref_gru_sequence(p, rows, length):
    """Run the cell over the first `length` rows; return every hidden state,
    carrying the last valid state through frozen steps."""
    H = len(p["b_z"])
    h = np.zeros(H)
    states = []
    for t in range(rows.shape[0]):
        if t < length:
            h = ref_gru_cell(p, rows[t], h)
        states.append(h.copy())
    return np.stack(states) if states else np.zeros((0, H))


def ref_qnet_forward(net, rows, length):
    """Eval-mode Q-values for one state via the scalar reference."""
    H1 = ref_gru_sequence(net.gru1, rows, length)
    h2 = np.zeros(len(net.gru2["b_z"]))
    for t in range(length):
        h2 = ref_gru_cell(net.gru2, H1[t], h2)
    W, b = net.head["W"], net.head["b"]
    return np.array([float(W[a] @ h2 + b[a]) for a in range(W.shape[0])])


def cast_gru(p, dtype):
    """A copy of GRU layer p in dtype: its three stacked blocks cast."""
    return type(p)(p.W.astype(dtype), p.U.astype(dtype), p.b.astype(dtype))


def tiny_batch(rng, B, L, m, lengths=None):
    X = rng.normal(size=(B, L, m))
    if lengths is None:
        lengths = rng.integers(1, L + 1, size=B)
    return X, np.asarray(lengths, dtype=np.int64)


# ---------------------------------------------------------------------------
# sigmoid


def test_sigmoid_matches_two_branch_logistic():
    x = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                        [0.0, 30.0, -30.0, 745.0, -745.0, 1e3, -1e3, 1e-300, -1e-300]])
    pos = x >= 0
    ref = np.empty_like(x)
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    with np.errstate(all="raise"):
        got = sigmoid(x)
    assert np.max(np.abs(got - ref)) <= 1e-15
    assert got[x == 0.0].tolist() == [0.5, 0.5]
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_sigmoid_float32_stays_float32():
    x64 = np.concatenate([np.linspace(-40.0, 40.0, 8001), [0.0, 1e3, -1e3]])
    x = x64.astype(np.float32)
    with np.errstate(all="raise"):
        got = sigmoid(x)
    assert got.dtype == np.float32
    ref = sigmoid(x.astype(np.float64))  # pinned by the test above
    np.testing.assert_allclose(got, ref, rtol=0, atol=np.finfo(np.float32).eps)
    assert got[x == 0.0].tolist() == [0.5, 0.5]
    assert got[x == 1e3].tolist() == [1.0] and got[x == -1e3].tolist() == [0.0]


def test_dropout_mask_stream_does_not_depend_on_dtype():
    x = np.random.default_rng(3).normal(size=(5, 7))
    y64, m64 = dropout(x, 0.3, True, np.random.default_rng(4))
    y32, m32 = dropout(x.astype(np.float32), 0.3, True, np.random.default_rng(4))
    assert y32.dtype == m32.dtype == np.float32
    np.testing.assert_array_equal(m32, m64.astype(np.float32))


def test_astype_casts_a_copy_of_every_parameter_and_buffer():
    model = RewardRegressor(3, 4, rng=np.random.default_rng(5))
    model.bn1_mean += 0.25
    cast = model.astype(np.float32)
    assert cast.hidden_dim == model.hidden_dim
    for k, v in cast.params().items():
        assert v.dtype == np.float32, k
        np.testing.assert_array_equal(v, model.params()[k].astype(np.float32))
        assert not np.shares_memory(v, model.params()[k]), k
    for name in ("bn1_mean", "bn1_var", "bn2_mean", "bn2_var"):
        buf = getattr(cast, name)
        assert buf.dtype == np.float32, name
        np.testing.assert_array_equal(buf, getattr(model, name).astype(np.float32))
    assert model.params()["head.W"].dtype == np.float64  # the original stays
    X = np.random.default_rng(6).normal(size=(4, 3, 3))
    lengths = np.array([3, 2, 1, 3])
    out = cast.forward(X, lengths)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, model.astype(np.float32).astype(np.float64)
                               .forward(X, lengths), rtol=0, atol=1e-5)


# ---------------------------------------------------------------------------
# single GRU steps, pinned (gru_forward on one row)


def gru_steps(p, *xs):
    """Hidden state after each of the input vectors xs, starting from h=0."""
    X = np.array(xs, dtype=np.float64)[None]
    H, _ = gru_forward(p, X, np.array([len(xs)]))
    return H[0]


def test_gru_step_all_zero_params():
    p = init_gru_params(np.random.default_rng(0), 3, 2)
    for k in p:
        p[k][...] = 0.0
    (h,) = gru_steps(p, [5.0, -2.0, 1.0])
    assert np.allclose(h, 0.0)


def test_gru_step_open_gate_scalar():
    # z saturated open (b_z=50), W_h=1: h_t = tanh(1) for x=1, h=0
    p = init_gru_params(np.random.default_rng(0), 1, 1)
    for k in p:
        p[k][...] = 0.0
    p["b_z"][0] = 50.0
    p["W_h"][0, 0] = 1.0
    (h,) = gru_steps(p, [1.0])
    assert h[0] == pytest.approx(math.tanh(1.0), abs=1e-15)


def test_gru_step_closed_gate_is_identity():
    # the update gate follows x[0]: open on the first step (h moves off
    # zero), shut on the second (h is carried through unchanged)
    p = init_gru_params(np.random.default_rng(1), 2, 3)
    p["b_z"][...] = 0.0
    p["U_z"][...] = 0.0
    p["W_z"][...] = 0.0
    p["W_z"][:, 0] = 50.0
    x1, x2 = np.array([1.0, 0.5]), np.array([-1.0, 2.0])
    h1, h2 = gru_steps(p, x1, x2)
    assert np.all(np.abs(h1) > 1e-3)
    assert np.allclose(h2, h1, atol=1e-15)
    ref1 = ref_gru_cell(p, x1, np.zeros(3))
    assert np.allclose(h1, ref1, atol=1e-12)
    assert np.allclose(h2, ref_gru_cell(p, x2, ref1), atol=1e-12)


def test_gru_step_matches_scalar_reference():
    rng = np.random.default_rng(2)
    p = init_gru_params(rng, 3, 4)
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    h1, h2 = gru_steps(p, x1, x2)
    ref1 = ref_gru_cell(p, x1, np.zeros(4))
    assert np.allclose(h1, ref1, atol=1e-12)
    # the second step starts from a nonzero hidden state
    assert np.allclose(h2, ref_gru_cell(p, x2, ref1), atol=1e-12)


# ---------------------------------------------------------------------------
# batched gru_forward


def test_gru_forward_matches_scalar_reference_per_row():
    rng = np.random.default_rng(3)
    p = init_gru_params(rng, 2, 3)
    X, lengths = tiny_batch(rng, B=4, L=5, m=2, lengths=[5, 2, 1, 4])
    H, _ = gru_forward(p, X, lengths)
    for i in range(4):
        ref = ref_gru_sequence(p, X[i], int(lengths[i]))
        assert np.allclose(H[i], ref, atol=1e-12)


def test_gru_forward_freezes_after_length():
    rng = np.random.default_rng(4)
    p = init_gru_params(rng, 2, 3)
    X, lengths = tiny_batch(rng, B=2, L=6, m=2, lengths=[3, 6])
    H, _ = gru_forward(p, X, lengths)
    # frozen rows repeat the last valid hidden state
    assert np.array_equal(H[0, 3], H[0, 2])
    assert np.array_equal(H[0, 5], H[0, 2])


def test_gru_forward_padding_rows_are_ignored():
    rng = np.random.default_rng(5)
    p = init_gru_params(rng, 2, 3)
    X, lengths = tiny_batch(rng, B=3, L=5, m=2, lengths=[2, 4, 3])
    H1, _ = gru_forward(p, X, lengths)
    X2 = X.copy()
    for i, ln in enumerate(lengths):
        X2[i, ln:] = 1e6  # garbage beyond the valid prefix
    H2, _ = gru_forward(p, X2, lengths)
    assert np.array_equal(H1, H2)


# ---------------------------------------------------------------------------
# padded batches


def _pad_row_gather(vectors, rows):
    """Reference: gather from the vectors with one all-zero row appended,
    padded cells pointing at that row; T = max(1, longest row)."""
    ext = np.vstack([vectors, np.zeros((1, vectors.shape[1]))])
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    t_max = max(1, int(lengths.max()) if len(lengths) else 1)
    idx = np.full((len(rows), t_max), len(vectors), dtype=np.int64)
    for i, ids in enumerate(rows):
        if ids:
            idx[i, : len(ids)] = ids
    return ext[idx], lengths


def _prefix_loop(vectors, offsets, h):
    """Reference: the first h rows of each offsets block, zero-filled after
    the block's end, T = min(h, longest block)."""
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    lengths = np.minimum(np.diff(offsets), h).astype(np.int64)
    X = np.zeros((len(starts), int(lengths.max()), vectors.shape[1]))
    for i, (a, n) in enumerate(zip(starts, lengths)):
        X[i, :n] = vectors[a : a + n]
    return X, lengths


def _same_bits(got, want):
    (X, lengths), (X0, lengths0) = got, want
    assert X.dtype == X0.dtype and X.shape == X0.shape
    assert X.tobytes() == X0.tobytes()
    assert lengths.dtype == lengths0.dtype and np.array_equal(lengths, lengths0)


def test_pad_batch_matches_pad_row_gather_and_prefix_loop():
    rng = np.random.default_rng(40)
    vectors = rng.normal(size=(30, 4))
    batches = [[()], [(), (), ()], [(7,), ()], [(), (3, 3, 29)]]
    for _ in range(40):
        B = int(rng.integers(1, 7))
        batches.append([tuple(rng.integers(0, 30, size=int(rng.integers(0, 6))).tolist())
                        for _ in range(B)])
    for rows in batches:
        _same_bits(pad_batch(vectors, rows), _pad_row_gather(vectors, rows))
    for h in (1, 2, 5, 50):
        offsets = np.cumsum([0, *rng.integers(1, 8, size=4)])
        rows = [range(a, min(a + h, b)) for a, b in zip(offsets[:-1], offsets[1:])]
        _same_bits(pad_batch(vectors, rows), _prefix_loop(vectors, offsets, h))
    X, lengths = pad_batch(vectors, [])
    assert X.shape == (0, 1, 4) and lengths.shape == (0,)


def test_all_empty_batch_through_both_networks():
    # every row of length 0: one frozen step, so the networks see the zero
    # state, as if they had run no step at all
    X, lengths = pad_batch(np.ones((5, 2)), [(), (), ()])
    net = QNetwork(2, 3, 4, dropout_rate=0.2, rng=np.random.default_rng(41))
    net.head["b"][...] = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(net.forward(X, lengths), np.tile(net.head["b"], (3, 1)))
    _, grads = qnet_loss_and_grads(net, X, lengths, [0, 1, 3], [0.3, -0.1, 2.0],
                                   train_mode=True, rng=np.random.default_rng(42))
    assert grads["head.b"].any()
    for name, g in grads.items():
        if name != "head.b":
            assert not g.any(), name

    model = RewardRegressor(2, 3, rng=np.random.default_rng(43))
    rng = np.random.default_rng(44)
    for k in ("bn2.gamma", "bn2.beta"):
        model.params()[k][...] = rng.normal(size=3)
    model.bn2_mean[...] = rng.normal(size=3)
    model.bn2_var[...] = rng.uniform(0.5, 2.0, size=3)
    h_norm = model.bn2["gamma"] * ((0.0 - model.bn2_mean) / np.sqrt(model.bn2_var + 1e-5)) \
        + model.bn2["beta"]
    want = np.zeros((3, 3)) + h_norm
    preds = model.forward(X, lengths)
    assert np.array_equal(preds, want @ model.head["W"][0] + model.head["b"][0])
    with pytest.raises(ValueError, match=">= 2"):
        model.forward_cached(X, lengths, train_mode=True)


def test_train_mode_regressor_ignores_running_stats():
    model = RewardRegressor(2, 3, rng=np.random.default_rng(45))
    rng = np.random.default_rng(46)
    X, lengths = tiny_batch(rng, B=4, L=3, m=2, lengths=[2, 3, 1, 3])
    targets = rng.normal(size=4)
    loss1, g1 = regressor_loss_and_grads(model, X, lengths, targets)
    for buf in (model.bn1_mean, model.bn1_var, model.bn2_mean, model.bn2_var):
        buf[...] = rng.uniform(0.5, 2.0, size=buf.shape)
    loss2, g2 = regressor_loss_and_grads(model, X, lengths, targets)
    assert loss1 == loss2
    for name in g1:
        assert np.array_equal(g1[name], g2[name]), name


# ---------------------------------------------------------------------------
# QNetwork forward


def test_qnet_zero_head_gives_zero_q():
    net = QNetwork(2, 3, 4, dropout_rate=0.0, rng=np.random.default_rng(6))
    net.head["W"][...] = 0.0
    net.head["b"][...] = 0.0
    rng = np.random.default_rng(7)
    X, lengths = tiny_batch(rng, B=2, L=4, m=2)
    assert np.allclose(net.forward(X, lengths), 0.0)


def test_qnet_empty_state_returns_head_bias():
    net = QNetwork(2, 3, 4, dropout_rate=0.0, rng=np.random.default_rng(8))
    net.head["b"][...] = np.array([1.0, -2.0, 0.5, 3.0])
    X = np.zeros((1, 4, 2))
    q = net.forward(X, np.array([0]))
    assert np.allclose(q[0], net.head["b"])


def test_qnet_forward_matches_scalar_reference():
    rng = np.random.default_rng(9)
    net = QNetwork(2, 3, 2, dropout_rate=0.0, rng=rng)
    X, lengths = tiny_batch(np.random.default_rng(10), B=3, L=4, m=2,
                            lengths=[2, 4, 1])
    Q = net.forward(X, lengths)
    for i in range(3):
        ref = ref_qnet_forward(net, X[i], int(lengths[i]))
        assert np.allclose(Q[i], ref, atol=1e-12)


def test_qnet_eval_forward_deterministic():
    rng = np.random.default_rng(11)
    net = QNetwork(2, 3, 2, dropout_rate=0.5, rng=rng)
    X, lengths = tiny_batch(np.random.default_rng(12), B=2, L=3, m=2)
    a = net.forward(X, lengths)
    b = net.forward(X, lengths)
    assert np.array_equal(a, b)


def test_qnet_nan_weight_is_caught():
    net = QNetwork(2, 3, 2, dropout_rate=0.0, rng=np.random.default_rng(13))
    net.head["W"][0, 0] = np.nan
    X, lengths = tiny_batch(np.random.default_rng(14), B=1, L=2, m=2)
    with pytest.raises((ValueError, FloatingPointError)):
        net.forward(X, lengths)


# ---------------------------------------------------------------------------
# gradients: finite differences


def finite_difference_check(loss_fn, params, eps=1e-5, tol=1e-4):
    """Max relative error between analytic grads and central differences,
    with the |fd - g| / (|g| + 1e-8) normalization."""
    _, grads = loss_fn()
    worst = 0.0
    worst_name = None
    for name, p in params.items():
        g = grads[name]
        assert g.shape == p.shape
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp, _ = loss_fn()
            p[idx] = orig - eps
            lm, _ = loss_fn()
            p[idx] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(fd - g[idx]) / (abs(g[idx]) + 1e-8)
            if rel > worst:
                worst, worst_name = rel, (name, idx)
    assert worst < tol, f"gradient mismatch at {worst_name}: rel err {worst}"
    return worst


def test_gru_backward_gradcheck_upstream_on_every_step():
    # ragged batch: one full row, one of length 0, one frozen after 2 of 5
    # steps; the loss reads every H[:, t], so every step's gradient counts
    rng = np.random.default_rng(40)
    p = init_gru_params(rng, 3, 4)
    for k in ("b_z", "b_r", "b_h"):
        p[k][...] = rng.normal(size=4) * 0.5
    X, lengths = tiny_batch(rng, B=4, L=5, m=3, lengths=[5, 0, 2, 4])
    dH = rng.normal(size=(4, 5, 4))

    def loss_fn():
        H, cache = gru_forward(p, X, lengths)
        grads, dX = gru_backward(cache, dH)
        return float(np.sum(dH * H)), {**grads, "X": dX}

    _, grads = loss_fn()
    assert sorted(grads) == sorted([*p, "X"])
    assert np.all(grads["X"][1] == 0.0) and np.all(grads["X"][2, 2:] == 0.0)
    finite_difference_check(loss_fn, {**p, "X": X})


def test_gru_backward_without_input_grad_keeps_param_grads():
    rng = np.random.default_rng(43)
    p = init_gru_params(rng, 3, 4)
    X, lengths = tiny_batch(rng, B=3, L=4, m=3, lengths=[4, 1, 3])
    dH = rng.normal(size=(3, 4, 4))
    full, dX = gru_backward(gru_forward(p, X, lengths)[1], dH)
    lean, none = gru_backward(gru_forward(p, X, lengths)[1], dH, input_grad=False)
    assert dX is not None and none is None
    assert sorted(lean) == sorted(full)
    for name in full:
        np.testing.assert_array_equal(lean[name], full[name])


def test_gru_backward_consumes_its_cache():
    rng = np.random.default_rng(41)
    p = init_gru_params(rng, 2, 3)
    X, lengths = tiny_batch(rng, B=2, L=3, m=2)
    H, cache = gru_forward(p, X, lengths)
    gru_backward(cache, np.ones_like(H))
    with pytest.raises(ValueError, match="consumed"):
        gru_backward(cache, np.ones_like(H))


# ---------------------------------------------------------------------------
# packed batches: rows sorted by length, each step on the rows still active


def padded_gru_forward(p, X, lengths):
    """The padded GRU loop that packing replaced, kept as a reference: every
    step computes all B rows, and rows past their length are masked back to
    their previous state. Returns H and what `padded_gru_backward` reads."""
    B, T, D = X.shape
    hd = p["W_z"].shape[0]
    W = np.concatenate((p["W_z"], p["W_r"], p["W_h"]))
    U_zr = np.concatenate((p["U_z"], p["U_r"]))
    U_h = p["U_h"]
    X = np.ascontiguousarray(X, dtype=W.dtype)
    G = np.empty((B, T, 3 * hd), dtype=W.dtype)
    np.matmul(X.reshape(B * T, D), W.T, out=G.reshape(B * T, 3 * hd))
    G += np.concatenate((p["b_z"], p["b_r"], p["b_h"]))
    H = np.empty((B, T, hd), dtype=W.dtype)
    active = np.arange(T)[None, :] < lengths[:, None]
    all_active = int(lengths.min()) if B else T
    h = np.zeros((B, hd), dtype=W.dtype)
    for t in range(T):
        g = G[:, t]
        a_zr, h_til = g[:, : 2 * hd], g[:, 2 * hd :]
        if t:
            a_zr += h @ U_zr.T
        zr = sigmoid(a_zr)
        a_zr[...] = zr
        z, r = zr[:, :hd], zr[:, hd:]
        if t:
            h_til += (r * h) @ U_h.T
        np.tanh(h_til, out=h_til)
        h_new = h + z * (h_til - h)
        h = h_new if t < all_active else np.where(active[:, t, None], h_new, h)
        H[:, t] = h
    return H, (X, G, H, active, all_active, W, U_zr, U_h)


def padded_gru_backward(state, dH):
    X, G, H, active, all_active, W, U_zr, U_h = state
    B, T, D = X.shape
    hd = U_h.shape[0]
    dU_zr, dU_h = np.zeros_like(U_zr), np.zeros_like(U_h)
    gh = np.zeros((B, hd), dtype=G.dtype)
    for t in range(T - 1, -1, -1):
        gh += dH[:, t]
        g = G[:, t]
        zr, h_til = g[:, : 2 * hd], g[:, 2 * hd :]
        z, r = zr[:, :hd], zr[:, hd:]
        m = None if t < all_active else active[:, t, None]
        gm = gh if m is None else gh * m
        da_h = gm * z * (1.0 - h_til * h_til)
        dzr = zr * (1.0 - zr)
        if t == 0:
            dzr[:, :hd] *= gm * h_til
            dzr[:, hd:] = 0.0
        else:
            h_prev = H[:, t - 1]
            drh = da_h @ U_h
            dzr[:, :hd] *= gm * (h_til - h_prev)
            dzr[:, hd:] *= drh * h_prev
            dU_h += da_h.T @ (r * h_prev)
            dU_zr += dzr.T @ h_prev
            dh_prev = gm * (1.0 - z) + drh * r
            dh_prev += dzr @ U_zr
            gh = dh_prev if m is None else np.where(m, dh_prev, gh)
        g[:, : 2 * hd] = dzr
        g[:, 2 * hd :] = da_h
    dA = G.reshape(B * T, 3 * hd)
    dW, db = dA.T @ X.reshape(B * T, D), dA.sum(axis=0)
    grads = {"U_z": dU_zr[:hd], "U_r": dU_zr[hd:], "U_h": dU_h}
    for i, gate in enumerate(("z", "r", "h")):
        grads[f"W_{gate}"], grads[f"b_{gate}"] = dW[i * hd:(i + 1) * hd], db[i * hd:(i + 1) * hd]
    return grads, (dA @ W).reshape(B, T, D)


# unsorted, with tied lengths and a length-0 row
RAGGED_LENGTHS = [3, 0, 5, 3, 1, 5, 2]


def test_packed_gru_unsorted_ragged_batch_matches_scalar_reference():
    rng = np.random.default_rng(44)
    p = init_gru_params(rng, 3, 4)
    X, lengths = tiny_batch(rng, B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    H, _ = gru_forward(p, X, lengths)
    assert H.shape == (7, 5, 4)
    for i, n in enumerate(RAGGED_LENGTHS):
        np.testing.assert_allclose(H[i], ref_gru_sequence(p, X[i], n), rtol=0, atol=1e-12)
        for t in range(n, 5):  # frozen cells repeat the final state, bit for bit
            np.testing.assert_array_equal(H[i, t], H[i, n - 1] if n else np.zeros(4))


def test_packed_gru_row_permutation_permutes_h_and_dx():
    rng = np.random.default_rng(45)
    p = init_gru_params(rng, 3, 4)
    X, lengths = tiny_batch(rng, B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    dH = rng.normal(size=(7, 5, 4))
    H, cache = gru_forward(p, X, lengths)
    grads, dX = gru_backward(cache, dH)
    for perm in (rng.permutation(7), np.argsort(lengths, kind="stable")):
        Hp, cache = gru_forward(p, X[perm], lengths[perm])
        grads_p, dXp = gru_backward(cache, dH[perm])
        np.testing.assert_allclose(Hp, H[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dXp, dX[perm], rtol=0, atol=1e-12)
        for name in grads:
            np.testing.assert_allclose(grads_p[name], grads[name], rtol=0, atol=1e-12)


def test_gru_backward_gradcheck_upstream_only_on_frozen_cells():
    # every row's gradient enters on the steps past its length and must
    # reach its last valid step; the full-length rows get none
    rng = np.random.default_rng(46)
    p = init_gru_params(rng, 3, 4)
    for k in ("b_z", "b_r", "b_h"):
        p[k][...] = rng.normal(size=4) * 0.5
    X, lengths = tiny_batch(rng, B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    frozen = np.arange(5)[None, :] >= lengths[:, None]
    dH = rng.normal(size=(7, 5, 4)) * frozen[:, :, None]

    def loss_fn():
        H, cache = gru_forward(p, X, lengths)
        grads, dX = gru_backward(cache, dH)
        return float(np.sum(dH * H)), {**grads, "X": dX}

    _, grads = loss_fn()
    dX = grads["X"]
    assert np.all(dX[frozen] == 0.0) and np.all(dX[lengths == 5] == 0.0)
    for i, n in enumerate(RAGGED_LENGTHS):
        if 0 < n < 5:
            assert np.all(np.abs(dX[i, n - 1]) > 0.0)
    finite_difference_check(loss_fn, {**p, "X": X})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_gru_b1_forward_is_bit_equal_to_padded_loop(dtype):
    # one row (every acting and greedy-evaluation call) is already packed,
    # so its hidden states keep the padded loop's bits
    rng = np.random.default_rng(47)
    p = cast_gru(init_gru_params(rng, 5, 6), dtype)
    for n in (1, 4, 9):
        X = rng.normal(size=(1, n, 5))
        H, _ = gru_forward(p, X, np.array([n]))
        np.testing.assert_array_equal(H, padded_gru_forward(p, X, np.array([n]))[0])


def test_packed_gru_matches_padded_loop_on_a_ragged_batch():
    rng = np.random.default_rng(48)
    p = init_gru_params(rng, 3, 4)
    X, lengths = tiny_batch(rng, B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    dH = rng.normal(size=(7, 5, 4))
    H, cache = gru_forward(p, X, lengths)
    H_ref, state = padded_gru_forward(p, X, lengths)
    np.testing.assert_allclose(H, H_ref, rtol=0, atol=1e-14)
    grads, dX = gru_backward(cache, dH)
    grads_ref, dX_ref = padded_gru_backward(state, dH)
    np.testing.assert_allclose(dX, dX_ref, rtol=0, atol=1e-14)
    for name in grads_ref:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# work buffers: a network's train-mode calls reuse them, and nothing a call
# returns is a view of them


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_buffered_gru_is_bit_equal_to_the_fresh_one(dtype):
    # ragged, unsorted and equal-length batches through one workspace, a
    # larger batch first, so later calls run on stale, oversized buffers;
    # each equals the same call without a workspace bit for bit, and the
    # padded loop as closely as the unbuffered GRU does
    rng = np.random.default_rng(56)
    p = cast_gru(init_gru_params(rng, 3, 4), dtype)
    ws = _Workspace()
    batches = [(9, [2, 7, 1, 7, 5, 3, 6, 4, 2]), (7, RAGGED_LENGTHS), (3, [5, 5, 5]), (1, [5])]
    for B, lengths in batches:
        X, lengths = tiny_batch(rng, B=B, L=7 if B == 9 else 5, m=3, lengths=lengths)
        dH = rng.normal(size=X.shape[:2] + (4,))
        H, cache = gru_forward(p, X, lengths, ws=ws)
        grads, dX = gru_backward(cache, dH)
        H_ref, cache_ref = gru_forward(p, X, lengths)
        grads_ref, dX_ref = gru_backward(cache_ref, dH)
        np.testing.assert_array_equal(H, H_ref)
        np.testing.assert_array_equal(dX, dX_ref)
        for name in grads_ref:
            np.testing.assert_array_equal(grads[name], grads_ref[name])
        H_pad, state = padded_gru_forward(p, X, lengths)
        grads_pad, dX_pad = padded_gru_backward(state, dH)
        if len(set(lengths.tolist())) == 1:  # already packed: the padded loop's bits
            np.testing.assert_array_equal(H, H_pad)
            np.testing.assert_array_equal(dX, dX_pad)
        tol = 1e-14 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(H, H_pad, rtol=0, atol=tol)
        np.testing.assert_allclose(dX, dX_pad, rtol=0, atol=tol)
        for name in grads_pad:
            np.testing.assert_allclose(grads[name], grads_pad[name], rtol=0, atol=tol)


def _held(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def test_results_held_from_one_call_survive_the_next():
    rng = np.random.default_rng(57)
    net = QNetwork(3, 4, 5, rng=np.random.default_rng(58)).astype(np.float32)
    target = net.astype(np.float64)
    X1, l1 = tiny_batch(rng, B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    X2, l2 = tiny_batch(rng, B=9, L=6, m=3)
    # online train-mode Q against the target's, and the grads of one
    # backward, across the next train-mode forward
    Q1, cache = net.forward_cached(X1, l1, train_mode=True, rng=np.random.default_rng(1))
    Qt = target.forward(X1, l1)
    grads = net.backward(cache, np.ones_like(Q1))
    want = _held(Q1, Qt, *grads.values())
    net.forward_cached(X2, l2, train_mode=True, rng=np.random.default_rng(2))
    target.forward(X2, l2)
    for got, held in zip([Q1, Qt, *grads.values()], want):
        np.testing.assert_array_equal(got, held)
    # two evaluation rounds, each carrying the state on
    Qa, state_a = net.forward_carried(X1, l1)
    want = _held(Qa, state_a)
    net.forward_carried(X1[:, :2], np.minimum(l1, 2), state_a)
    net.forward_cached(X2, l2, train_mode=True, rng=np.random.default_rng(3))
    for got, held in zip((Qa, state_a), want):
        np.testing.assert_array_equal(got, held)
    # two regressor batches, in train and in eval mode
    reg = RewardRegressor(3, 4, rng=np.random.default_rng(59)).astype(np.float32)
    p1, rcache = reg.forward_cached(X1, l1, train_mode=True)
    rgrads = reg.backward(rcache, np.ones_like(p1))
    e1 = reg.forward(X1, l1)
    want = _held(p1, e1, *rgrads.values())
    reg.forward_cached(X2, l2, train_mode=True)
    reg.forward(X2, l2)
    for got, held in zip([p1, e1, *rgrads.values()], want):
        np.testing.assert_array_equal(got, held)


def _buffers(net):
    return [b for ws in net._ws for w in (ws, ws.scratch) for b in w._bufs.values()]


@pytest.mark.parametrize("make", [
    lambda: QNetwork(3, 4, 5, rng=np.random.default_rng(60)),
    lambda: RewardRegressor(3, 4, rng=np.random.default_rng(61)),
], ids=["qnet", "regressor"])
def test_astype_copies_share_no_buffer_with_their_source(make):
    rng = np.random.default_rng(62)
    X, lengths = tiny_batch(rng, B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    net = make()
    for dtype in (np.float64, np.float32):
        copies = [net, net.astype(dtype)]
        for other in copies:
            loss = (qnet_loss_and_grads(other, X, lengths, np.zeros(7, dtype=int), np.ones(7),
                                        rng=np.random.default_rng(4))
                    if isinstance(other, QNetwork)
                    else regressor_loss_and_grads(other, X, lengths, np.ones(7)))
            assert np.isfinite(loss[0])
        mine, theirs = (_buffers(c) for c in copies)
        assert mine and theirs
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
        # and each has a parameter buffer of its own, of which its params() are views
        assert not np.shares_memory(copies[0]._buf, copies[1]._buf)
        for c in copies:
            assert all(np.shares_memory(a, c._buf) for a in c.params().values())


# ---------------------------------------------------------------------------
# one parameter buffer per network: params() and the GRU's stacked blocks are
# views of it, nothing copies the weights, and gradients are fresh


NETWORKS = {
    "qnet": lambda dtype: QNetwork(3, 4, 5, rng=np.random.default_rng(66)).astype(dtype),
    "regressor": lambda dtype: RewardRegressor(3, 4, rng=np.random.default_rng(67)).astype(dtype),
}


def _forward_cached(net, X, lengths, train_mode):
    if isinstance(net, QNetwork):
        return net.forward_cached(X, lengths, train_mode, np.random.default_rng(5))
    return net.forward_cached(X, lengths, train_mode)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_params_and_gru_caches_are_views_of_the_one_buffer(kind, dtype):
    net = NETWORKS[kind](dtype)
    buf = net._buf
    assert buf.ndim == 1 and buf.dtype == dtype
    params = net.params()
    assert sum(a.size for a in params.values()) == buf.size  # the names tile it
    for name, a in params.items():
        assert np.shares_memory(a, buf), name
    for layer in (net.gru1, net.gru2):
        for name, block in (("W", layer.W), ("U", layer.U), ("b", layer.b)):
            np.testing.assert_array_equal(
                block, np.concatenate([layer[f"{name}_{gate}"] for gate in "zrh"]))
    X, lengths = tiny_batch(np.random.default_rng(68), B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    for train_mode in (True, False):
        out, cache = _forward_cached(net, X, lengths, train_mode)
        for c in ("c1", "c2"):
            for key in ("W", "U_zr", "U_h"):
                assert np.shares_memory(cache[c][key], buf), (train_mode, c, key)
        if train_mode:
            net.backward(cache, np.ones_like(out))
    # the workspaces the train-mode pass grew hold no weight, nor a copy of one
    weights = [w for layer in (net.gru1, net.gru2) for w in (layer.W, layer.U, layer.b[None])]
    for b in _buffers(net):
        assert not np.shares_memory(b, buf)
        for w in weights:
            assert not (b.shape[1] == w.shape[1] and len(b) >= len(w)
                        and np.array_equal(b[: len(w)], w))


@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_two_backward_calls_return_fresh_gradients(kind):
    # equal values in memory of their own: tests that compare one call's
    # gradients with another's cannot pass because both are one buffer
    net = NETWORKS[kind](np.float32)
    X, lengths = tiny_batch(np.random.default_rng(69), B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    g1, g2 = [net.backward(cache, np.ones_like(out))
              for out, cache in (_forward_cached(net, X, lengths, True) for _ in range(2))]
    assert list(g1) == list(g2) == list(net.params())
    for name, g in g1.items():
        np.testing.assert_array_equal(g, g2[name])
        assert not np.shares_memory(g, net._buf), name
        assert not np.shares_memory(g2[name], net._buf), name
        assert not any(np.shares_memory(g, other) for other in g2.values()), name


def test_paper_shape_learn_step_faults_in_no_fresh_pages():
    # after warm-up a learn step at the paper's shapes (B=128, D=100, h=256,
    # k=100, float32) reuses its buffers instead of faulting in new pages
    resource = pytest.importorskip("resource")
    from chatdqn.agent import AgentConfig, ChatDQNAgent, Transition

    rng = np.random.default_rng(63)
    cfg = AgentConfig(n_actions=100, embedding_dim=100, hidden_dim=256, batch_size=128,
                      burn_in=128, learn_steps=1000, memory_capacity=1000, seed=3)
    agent = ChatDQNAgent(cfg)
    vectors = rng.normal(size=(2000, 100))
    for _ in range(256):
        n = int(rng.integers(1, 14))
        s = tuple(int(i) for i in rng.integers(0, 2000, size=n))
        agent.memory.append(Transition(s=s, a=int(rng.integers(100)), r=1,
                                       s_next=s + (int(rng.integers(2000)),),
                                       done=bool(rng.random() < 0.1),
                                       candidate_ids_next=(1, 2, 3)))

    def materialize(rows):
        return pad_batch(vectors, rows)

    slots = agent.memory.sample(128, agent.rng_replay)
    for _ in range(3):  # warm-up; the TD targets of these slots get cached
        agent.train_step(slots, materialize)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    agent.train_step(slots, materialize)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 200


# ---------------------------------------------------------------------------
# a carried initial state h0: a batch continued from where an earlier call
# over each row's preceding cells ended


@pytest.mark.parametrize("k", [1, 2, 4])
def test_gru_h0_continues_a_ragged_batch_split_in_time(k):
    # rows of length <= k have nothing left after the split and keep their h0
    rng = np.random.default_rng(49)
    p = init_gru_params(rng, 3, 4)
    X, lengths = tiny_batch(rng, B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    H, _ = gru_forward(p, X, lengths)
    head, _ = gru_forward(p, X[:, :k], np.minimum(lengths, k))
    tail, _ = gru_forward(p, X[:, k:], np.maximum(lengths - k, 0), h0=head[:, -1])
    np.testing.assert_allclose(np.concatenate((head, tail), axis=1), H, rtol=0, atol=1e-12)


def test_gru_h0_of_another_shape_is_refused():
    rng = np.random.default_rng(50)
    p = init_gru_params(rng, 3, 4)
    X, lengths = tiny_batch(rng, B=2, L=3, m=3)
    with pytest.raises(ValueError, match="initial state"):
        gru_forward(p, X, lengths, h0=np.zeros((3, 4)))


def test_gru_backward_refuses_a_cache_made_from_h0():
    rng = np.random.default_rng(51)
    p = init_gru_params(rng, 3, 4)
    X, lengths = tiny_batch(rng, B=3, L=4, m=3)
    H, cache = gru_forward(p, X, lengths, h0=rng.normal(size=(3, 4)))
    with pytest.raises(ValueError, match="initial state"):
        gru_backward(cache, np.ones_like(H))


def test_qnet_forward_carried_continues_a_split_batch():
    # from no state, Q is forward's bit for bit; carried on over the rest of
    # each row, Q is forward's over the whole rows
    rng = np.random.default_rng(52)
    net = QNetwork(3, 4, 5, rng=np.random.default_rng(53))
    X, lengths = tiny_batch(rng, B=7, L=5, m=3, lengths=[3, 2, 5, 3, 2, 5, 2])
    Q_head, state = net.forward_carried(X[:, :2], np.minimum(lengths, 2))
    np.testing.assert_array_equal(Q_head, net.forward(X[:, :2], np.minimum(lengths, 2)))
    assert state.shape == (2, 7, 4)
    Q, _ = net.forward_carried(X[:, 2:], lengths - 2, state)
    np.testing.assert_allclose(Q, net.forward(X, lengths), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_qnet_forward_is_the_eval_mode_forward_cached(dtype):
    # forward is forward_carried from the zero state: on ragged batches (a
    # row of length 0 among them) it gives eval-mode forward_cached's
    # Q-values bit for bit, and so does a carried state of zeros, whose
    # step-0 recurrent GEMMs add exact zeros
    net = QNetwork(3, 4, 5, dropout_rate=0.5, rng=np.random.default_rng(54)).astype(dtype)
    rng = np.random.default_rng(55)
    for lengths in ([3, 0, 5, 3, 1, 5, 2], [1], [4, 4, 2]):
        X, lengths = tiny_batch(rng, B=len(lengths), L=5, m=3, lengths=lengths)
        Q = net.forward(X, lengths)
        assert Q.dtype == dtype
        np.testing.assert_array_equal(Q, net.forward_cached(X, lengths, train_mode=False)[0])
        zeros = np.zeros((2, len(lengths), 4), dtype=dtype)
        np.testing.assert_array_equal(Q, net.forward_carried(X, lengths, zeros)[0])


def test_qnet_gradcheck_tiny():
    # m=2, hidden=3, k=2, L=3: every parameter against central differences
    net = QNetwork(2, 3, 2, dropout_rate=0.0, rng=np.random.default_rng(15))
    rng = np.random.default_rng(16)
    X, lengths = tiny_batch(rng, B=4, L=3, m=2, lengths=[3, 1, 2, 3])
    actions = np.array([0, 1, 1, 0])
    targets = rng.normal(size=4) * 2.0

    def loss_fn():
        return qnet_loss_and_grads(net, X, lengths, actions, targets,
                                   train_mode=True)

    finite_difference_check(loss_fn, net.params())


def test_qnet_gradcheck_with_dropout_mask_held_fixed():
    net = QNetwork(2, 3, 2, dropout_rate=0.4, rng=np.random.default_rng(17))
    rng = np.random.default_rng(18)
    X, lengths = tiny_batch(rng, B=3, L=3, m=2)
    actions = np.array([1, 0, 1])
    targets = rng.normal(size=3)

    def loss_fn():
        # fresh rng with a fixed seed -> identical dropout mask every call
        return qnet_loss_and_grads(net, X, lengths, actions, targets,
                                   train_mode=True,
                                   rng=np.random.default_rng(99))

    finite_difference_check(loss_fn, net.params())


def test_regressor_gradcheck_tiny():
    model = RewardRegressor(2, 3, rng=np.random.default_rng(19))
    rng = np.random.default_rng(20)
    X, lengths = tiny_batch(rng, B=4, L=3, m=2, lengths=[2, 3, 1, 3])
    targets = rng.normal(size=4) * 3.0

    def loss_fn():
        # probes drift the batch-norm running statistics, which train-mode
        # outputs never read
        return regressor_loss_and_grads(model, X, lengths, targets,
                                        train_mode=True)

    finite_difference_check(loss_fn, model.params())


def test_qnet_zero_residual_means_zero_grads():
    net = QNetwork(2, 3, 2, dropout_rate=0.0, rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    X, lengths = tiny_batch(rng, B=2, L=3, m=2)
    actions = np.array([0, 1])
    q, _ = net.forward_cached(X, lengths, train_mode=True)
    targets = q[np.arange(2), actions]  # y = Q(s, a) exactly
    loss, grads = qnet_loss_and_grads(net, X, lengths, actions, targets,
                                      train_mode=True)
    assert loss == pytest.approx(0.0, abs=1e-24)
    for name, g in grads.items():
        assert np.allclose(g, 0.0, atol=1e-12), name


def test_qnet_duplicate_batch_grads_equal_single():
    net = QNetwork(2, 3, 2, dropout_rate=0.0, rng=np.random.default_rng(23))
    rng = np.random.default_rng(24)
    X, lengths = tiny_batch(rng, B=1, L=3, m=2, lengths=[2])
    actions = np.array([1])
    targets = np.array([1.5])
    _, g1 = qnet_loss_and_grads(net, X, lengths, actions, targets,
                                train_mode=True)
    X2 = np.concatenate([X, X])
    _, g2 = qnet_loss_and_grads(net, X2, np.array([2, 2]),
                                np.array([1, 1]), np.array([1.5, 1.5]),
                                train_mode=True)
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-13), name


def test_qnet_gradient_ignores_padding_rows():
    net = QNetwork(2, 3, 2, dropout_rate=0.0, rng=np.random.default_rng(25))
    rng = np.random.default_rng(26)
    X, lengths = tiny_batch(rng, B=2, L=4, m=2, lengths=[2, 3])
    actions = np.array([0, 1])
    targets = np.array([0.7, -0.4])
    _, g1 = qnet_loss_and_grads(net, X, lengths, actions, targets,
                                train_mode=True)
    X2 = X.copy()
    X2[0, 2:] = -1e5
    X2[1, 3:] = 1e5
    _, g2 = qnet_loss_and_grads(net, X2, lengths, actions, targets,
                                train_mode=True)
    for name in g1:
        assert np.array_equal(g1[name], g2[name]), name


# ---------------------------------------------------------------------------
# regressor forward (eval mode) against a scalar reference


def test_regressor_eval_forward_matches_scalar_reference():
    model = RewardRegressor(2, 3, rng=np.random.default_rng(27))
    rng = np.random.default_rng(28)
    # drift the running stats away from the init so eval BN is non-trivial
    Xw, lw = tiny_batch(rng, B=6, L=4, m=2)
    yw = rng.normal(size=6)
    regressor_loss_and_grads(model, Xw, lw, yw, train_mode=True)
    X, lengths = tiny_batch(rng, B=3, L=4, m=2, lengths=[2, 4, 1])
    preds = model.forward(X, lengths)

    eps = 1e-5

    def bn_eval(v, which):
        rm, rv = getattr(model, f"{which}_mean"), getattr(model, f"{which}_var")
        g, b = model.params()[f"{which}.gamma"], model.params()[f"{which}.beta"]
        return np.array([
            (v[j] - rm[j]) / math.sqrt(rv[j] + eps) * g[j] + b[j]
            for j in range(len(v))
        ])

    for i in range(3):
        ln = int(lengths[i])
        H1 = ref_gru_sequence(model.gru1, X[i], ln)
        h2 = np.zeros(3)
        for t in range(ln):
            h2 = ref_gru_cell(model.gru2, bn_eval(H1[t], "bn1"), h2)
        hn = bn_eval(h2, "bn2")
        ref = float(model.head["W"][0] @ hn + model.head["b"][0])
        assert preds[i] == pytest.approx(ref, abs=1e-10)


def test_load_params_checks_names_and_shapes():
    for net in (QNetwork(2, 3, 2, rng=np.random.default_rng(30)),
                RewardRegressor(2, 3, rng=np.random.default_rng(31))):
        flat = {k: v.copy() for k, v in net.params().items()}
        net.load_params(flat)
        with pytest.raises(ValueError, match=re.escape(
                "name mismatch: missing ['head.b'], unexpected []")):
            net.load_params({k: v for k, v in flat.items() if k != "head.b"})
        with pytest.raises(ValueError, match=re.escape(
                "name mismatch: missing [], unexpected ['head.c']")):
            net.load_params({**flat, "head.c": flat["head.b"]})
        # a (1,) array would broadcast into any vector; it must be refused
        name = "bn1.gamma" if isinstance(net, RewardRegressor) else "head.b"
        with pytest.raises(ValueError, match=f"shape mismatch for {name}"):
            net.load_params({**flat, name: np.zeros(1)})


def test_regressor_train_needs_batch_of_two():
    model = RewardRegressor(2, 3, rng=np.random.default_rng(29))
    X = np.zeros((1, 3, 2))
    with pytest.raises(ValueError, match=">= 2"):
        regressor_loss_and_grads(model, X, np.array([2]), np.array([1.0]),
                                 train_mode=True)


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_constant_batch_outputs_beta():
    x = np.full((4, 3), 7.0)
    gamma, beta = np.ones(3), np.array([1.0, -2.0, 0.5])
    rm, rv = np.zeros(3), np.ones(3)
    y, _ = batchnorm_forward(x, gamma, beta, rm, rv, train_mode=True)
    assert np.allclose(y, beta, atol=1e-6)


def test_batchnorm_unit_variance_pair():
    x = np.array([[-1.0], [1.0]])
    gamma, beta = np.ones(1), np.zeros(1)
    rm, rv = np.zeros(1), np.ones(1)
    y, _ = batchnorm_forward(x, gamma, beta, rm, rv, train_mode=True)
    assert y[0, 0] == pytest.approx(-1.0, abs=1e-4)
    assert y[1, 0] == pytest.approx(1.0, abs=1e-4)


def test_batchnorm_train_stats_and_running_update():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(8, 2)) * 3 + 1
    gamma = np.array([2.0, 0.5])
    beta = np.array([1.0, -1.0])
    rm, rv = np.zeros(2), np.ones(2)
    y, _ = batchnorm_forward(x, gamma, beta, rm, rv, train_mode=True)
    mu = x.mean(axis=0)
    var = ((x - mu) ** 2).mean(axis=0)  # biased
    ref = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
    assert np.allclose(y, ref, atol=1e-12)
    # momentum 0.99 fold-in
    assert np.allclose(rm, 0.01 * mu, atol=1e-12)
    assert np.allclose(rv, 0.99 * 1.0 + 0.01 * var, atol=1e-12)


def test_batchnorm_eval_ignores_batch():
    gamma, beta = np.ones(2), np.zeros(2)
    rm = np.array([1.0, -1.0])
    rv = np.array([4.0, 0.25])
    a, _ = batchnorm_forward(np.zeros((3, 2)), gamma, beta, rm, rv, False)
    b, _ = batchnorm_forward(np.ones((5, 2)) * 9, gamma, beta, rm, rv, False)
    ref0 = (0.0 - rm) / np.sqrt(rv + 1e-5)
    assert np.allclose(a[0], ref0, atol=1e-12)
    assert np.allclose(a[0], a[-1])
    assert not np.allclose(a[0], b[0])
    assert np.array_equal(rm, [1.0, -1.0])  # eval never touches running stats


def test_batchnorm_train_batch_of_one_errors():
    with pytest.raises(ValueError):
        batchnorm_forward(np.ones((1, 2)), np.ones(2), np.zeros(2),
                          np.zeros(2), np.ones(2), train_mode=True)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_rate_zero_identity():
    x = np.arange(12.0).reshape(3, 4)
    rng = np.random.default_rng(31)
    assert np.array_equal(dropout(x, 0.0, True, rng)[0], x)
    assert np.array_equal(dropout(x, 0.0, False, rng)[0], x)


def test_dropout_eval_identity():
    x = np.arange(6.0)
    assert np.array_equal(dropout(x, 0.2, False)[0], x)


def test_dropout_law_of_large_numbers():
    rng = np.random.default_rng(32)
    x = np.ones(1_000_000)
    y, _ = dropout(x, 0.2, True, rng)
    zero_frac = float((y == 0.0).mean())
    assert abs(zero_frac - 0.2) < 0.002
    assert abs(y.mean() - 1.0) < 0.01  # survivor scaling preserves the mean
    survivors = y[y != 0.0]
    assert np.allclose(survivors, 1.0 / 0.8)


def test_dropout_bad_rate():
    with pytest.raises(ValueError):
        dropout(np.ones(3), 1.0, True, np.random.default_rng(0))
    with pytest.raises(ValueError):
        dropout(np.ones(3), -0.1, True, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# optimizer


def scalar_adam_reference(p0, grads, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    return p


def test_adam_zero_gradient_leaves_params():
    params = {"w": np.array([1.0, -2.0])}
    opt = Adam(params, lr=0.5)
    opt.step(params, {"w": np.zeros(2)})
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_matches_scalar_simulation():
    rng = np.random.default_rng(33)
    gs = rng.normal(size=7)
    params = {"w": np.array([0.3])}
    opt = Adam(params, lr=0.1)
    for g in gs:
        opt.step(params, {"w": np.array([g])})
    ref = scalar_adam_reference(0.3, gs, lr=0.1)
    assert params["w"][0] == pytest.approx(ref, abs=1e-14)


def test_adam_monotone_on_quadratic():
    # constant gradient +1 walks w from 2 toward 0 at ~lr per step; the
    # quadratic loss w^2/2 must fall monotonically along that stretch
    params = {"w": np.array([2.0])}
    opt = Adam(params, lr=0.05)
    losses = [0.5 * params["w"][0] ** 2]
    for _ in range(30):
        opt.step(params, {"w": np.array([1.0])})
        losses.append(0.5 * params["w"][0] ** 2)
    assert params["w"][0] > 0.1  # never crossed the minimum
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_adam_deterministic():
    def run():
        params = {"w": np.linspace(-1, 1, 5)}
        opt = Adam(params, lr=0.01)
        rng = np.random.default_rng(34)
        for _ in range(50):
            opt.step(params, {"w": rng.normal(size=5)})
        return params["w"]

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    opt = Adam(params)
    with pytest.raises(ValueError):
        opt.step(params, {"w": np.zeros(4)})


def test_glorot_bounds():
    rng = np.random.default_rng(35)
    W = glorot_uniform(rng, 40, 30)
    lim = math.sqrt(6.0 / 70.0)
    assert W.shape == (40, 30)
    assert np.abs(W).max() <= lim
    assert np.abs(W).max() > 0.8 * lim  # actually fills the range


def test_release_buffers_drops_them_and_training_goes_on():
    rng = np.random.default_rng(64)
    X, lengths = tiny_batch(rng, B=7, L=5, m=3, lengths=RAGGED_LENGTHS)
    reg = RewardRegressor(3, 4, rng=np.random.default_rng(65)).astype(np.float32)
    _, grads = regressor_loss_and_grads(reg, X, lengths, np.ones(7))
    assert _buffers(reg)
    reg.release_buffers()
    assert _buffers(reg) == []
    _, again = regressor_loss_and_grads(reg, X, lengths, np.ones(7))
    for name in grads:
        np.testing.assert_array_equal(again[name], grads[name])
