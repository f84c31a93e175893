"""Network core against scalar-loop references and finite differences.

The reference implementations below are written as explicit per-unit loops
straight from the layer equations, sharing no code with the vectorized
implementations they check.
"""

import math

import numpy as np
import pytest

from chatdqn import (
    Adam,
    QNetwork,
    RewardRegressor,
    batchnorm_forward,
    dropout,
    glorot_uniform,
    gru_backward,
    gru_forward,
    init_gru_params,
    qnet_loss_and_grads,
    regressor_loss_and_grads,
    sigmoid,
)


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
    a = net.forward(X, lengths, train_mode=False)
    b = net.forward(X, lengths, train_mode=False)
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
        # update_running=False: finite-difference probes must not drift
        # the batch-norm running statistics
        return regressor_loss_and_grads(model, X, lengths, targets,
                                        train_mode=True, update_running=False)

    finite_difference_check(loss_fn, model.params())


def test_qnet_zero_residual_means_zero_grads():
    net = QNetwork(2, 3, 2, dropout_rate=0.0, rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    X, lengths = tiny_batch(rng, B=2, L=3, m=2)
    actions = np.array([0, 1])
    q = net.forward(X, lengths, train_mode=True)
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
    preds = model.forward(X, lengths, train_mode=False)

    bufs = model.buffers()
    eps = 1e-5

    def bn_eval(v, which):
        rm, rv = bufs[f"{which}_mean"], bufs[f"{which}_var"]
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
        with pytest.raises(ValueError, match="name mismatch"):
            net.load_params({k: v for k, v in flat.items() if k != "head.b"})
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
    y = batchnorm_forward(x, gamma, beta, rm, rv, train_mode=True)
    assert np.allclose(y, beta, atol=1e-6)


def test_batchnorm_unit_variance_pair():
    x = np.array([[-1.0], [1.0]])
    gamma, beta = np.ones(1), np.zeros(1)
    rm, rv = np.zeros(1), np.ones(1)
    y = batchnorm_forward(x, gamma, beta, rm, rv, train_mode=True)
    assert y[0, 0] == pytest.approx(-1.0, abs=1e-4)
    assert y[1, 0] == pytest.approx(1.0, abs=1e-4)


def test_batchnorm_train_stats_and_running_update():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(8, 2)) * 3 + 1
    gamma = np.array([2.0, 0.5])
    beta = np.array([1.0, -1.0])
    rm, rv = np.zeros(2), np.ones(2)
    y = batchnorm_forward(x, gamma, beta, rm, rv, train_mode=True)
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
    a = batchnorm_forward(np.zeros((3, 2)), gamma, beta, rm, rv, False)
    b = batchnorm_forward(np.ones((5, 2)) * 9, gamma, beta, rm, rv, False)
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
    assert np.array_equal(dropout(x, 0.0, True, rng), x)
    assert np.array_equal(dropout(x, 0.0, False, rng), x)


def test_dropout_eval_identity():
    x = np.arange(6.0)
    assert np.array_equal(dropout(x, 0.2, False), x)


def test_dropout_law_of_large_numbers():
    rng = np.random.default_rng(32)
    x = np.ones(1_000_000)
    y = dropout(x, 0.2, True, rng)
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
