"""Minimal numpy network core with hand-written reverse-mode gradients.

Provides exactly what the Q-network and the reward regressor need: batched
GRU layers over post-padded sequences, inverted dropout, batch
normalization, a dense head, mean-squared losses, and an Adam optimizer.
Everything runs in float64 and is driven by explicit, seeded
`numpy.random.Generator` streams.

Sequence batches are (B, T, D) with a per-row `lengths` vector; steps at or
past a row's length are frozen (the hidden state is carried through
unchanged), so padding can never influence outputs or gradients, and the
hidden state at the last time index always equals each row's final hidden
state.

GRU update, per step (sigma = logistic):

    z   = sigma(W_z x + U_z h_prev + b_z)
    r   = sigma(W_r x + U_r h_prev + b_r)
    h~  = tanh(W_h x + U_h (r * h_prev) + b_h)
    h_t = (1 - z) * h_prev + z * h~

A GRU layer keeps its per-gate parameters (`W_z` ... `b_h`) but runs them
stacked: one GEMM computes the input projections X @ [W_z; W_r; W_h]^T + b
of all T steps into a single (B, T, 3h) gate buffer, and each step then
needs one [U_z; U_r] GEMM, one `sigmoid` call for z and r together, and the
U_h GEMM, after which it overwrites its slot of the buffer with [z r h~].
The backward pass walks the steps in reverse and overwrites each slot again
with the gate pre-activation gradients, so dW, db and dX each take one GEMM
after the loop. Because of that overwrite a cache serves exactly one
backward pass; the hidden state entering step t is read from H[:, t - 1],
since a frozen step carries it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

__all__ = [
    "sigmoid",
    "glorot_uniform",
    "init_gru_params",
    "gru_forward",
    "gru_backward",
    "dropout",
    "batchnorm_forward",
    "batchnorm_backward",
    "Adam",
    "QNetwork",
    "qnet_loss_and_grads",
    "RewardRegressor",
    "regressor_loss_and_grads",
]

def sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): no exp, so saturated
    gates cannot overflow and need no branch."""
    out = np.array(x, dtype=np.float64)  # a copy; 0-d for a scalar
    out *= 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-s, s, size=(rows, cols))


def init_gru_params(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> dict:
    """Gate weights W_* (h, in), recurrent weights U_* (h, h), zero biases."""
    p = {}
    for gate in ("z", "r", "h"):
        p[f"W_{gate}"] = glorot_uniform(rng, hidden_dim, input_dim)
        p[f"U_{gate}"] = glorot_uniform(rng, hidden_dim, hidden_dim)
        p[f"b_{gate}"] = np.zeros(hidden_dim, dtype=np.float64)
    return p


def _check_gru_shapes(p: dict, x_dim: int, h_dim: int) -> None:
    if p["W_z"].shape != (h_dim, x_dim) or p["U_z"].shape != (h_dim, h_dim):
        raise ValueError(
            f"GRU parameter shapes {p['W_z'].shape}/{p['U_z'].shape} do not "
            f"match input dim {x_dim} and hidden dim {h_dim}"
        )


def gru_forward(p: dict, X: np.ndarray, lengths: np.ndarray):
    """Run a GRU layer over a padded batch.

    X: (B, T, D); lengths: (B,) ints in [0, T]. Returns (H, cache) with
    H[:, t] the hidden state after step t (frozen once t >= lengths[b]).
    The cache holds the gate buffer that `gru_backward` overwrites, so it
    serves exactly one backward pass.
    """
    B, T, D = X.shape
    hd = p["W_z"].shape[0]
    _check_gru_shapes(p, D, hd)
    X = np.ascontiguousarray(X, dtype=np.float64)
    lengths = np.asarray(lengths)
    W = np.concatenate((p["W_z"], p["W_r"], p["W_h"]))  # (3h, D)
    U_zr = np.concatenate((p["U_z"], p["U_r"]))         # (2h, h)
    U_h = p["U_h"]
    # G[:, t] = [a_z a_r a_h] input pre-activations, then [z r h~]
    G = np.empty((B, T, 3 * hd), dtype=np.float64)
    np.matmul(X.reshape(B * T, D), W.T, out=G.reshape(B * T, 3 * hd))
    G += np.concatenate((p["b_z"], p["b_r"], p["b_h"]))
    H = np.empty((B, T, hd), dtype=np.float64)
    active = np.arange(T)[None, :] < lengths[:, None]
    all_active = int(lengths.min()) if B else T  # steps below this skip the mask
    h = np.zeros((B, hd), dtype=np.float64)
    for t in range(T):
        g = G[:, t]
        a_zr, h_til = g[:, : 2 * hd], g[:, 2 * hd :]
        if t:  # h = 0 at t = 0: the recurrent terms vanish
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
    cache = {"X": X, "G": G, "H": H, "active": active, "all_active": all_active,
             "W": W, "U_zr": U_zr, "U_h": U_h}
    return H, cache


def gru_backward(cache: dict, dH: np.ndarray, input_grad: bool = True):
    """Backprop through `gru_forward`, consuming its cache.

    dH: (B, T, h) upstream gradients on each H[:, t] (zeros where none).
    Returns (grads, dX): parameter-gradient dict with the layer's key names,
    and the gradient w.r.t. the input batch, or None with input_grad=False
    (a first layer, whose input has no parameters). Each step's slot of the
    gate buffer is overwritten with its pre-activation gradients, which then
    give dW, db and dX as one GEMM each; a second call on the same cache
    raises.
    """
    G = cache.pop("G", None)
    if G is None:
        raise ValueError("GRU cache already consumed by a backward pass")
    X, H, active, all_active = cache["X"], cache["H"], cache["active"], cache["all_active"]
    W, U_zr, U_h = cache["W"], cache["U_zr"], cache["U_h"]
    B, T, D = X.shape
    hd = U_h.shape[0]
    dU_zr = np.zeros_like(U_zr)
    dU_h = np.zeros_like(U_h)
    gh = np.zeros((B, hd), dtype=np.float64)
    for t in range(T - 1, -1, -1):
        gh += dH[:, t]
        g = G[:, t]
        zr, h_til = g[:, : 2 * hd], g[:, 2 * hd :]
        z, r = zr[:, :hd], zr[:, hd:]
        # a frozen step passes gh through untouched: h_t was h_{t-1}
        m = None if t < all_active else active[:, t, None]
        gm = gh if m is None else gh * m
        da_h = gm * z * (1.0 - h_til * h_til)
        dzr = zr * (1.0 - zr)
        if t == 0:  # h_prev = 0: no dU terms, no r gradient, nothing upstream
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
    dW = dA.T @ X.reshape(B * T, D)
    db = dA.sum(axis=0)
    dX = (dA @ W).reshape(B, T, D) if input_grad else None
    grads = {}
    for i, gate in enumerate(("z", "r", "h")):
        rows = slice(i * hd, (i + 1) * hd)
        grads[f"W_{gate}"] = dW[rows]
        grads[f"b_{gate}"] = db[rows]
    grads["U_z"], grads["U_r"], grads["U_h"] = dU_zr[:hd], dU_zr[hd:], dU_h
    return grads, dX


def dropout(x, rate: float, train_mode: bool, rng: np.random.Generator | None = None):
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate). Identity in eval mode or at rate 0."""
    y, _ = _dropout_cached(np.asarray(x, dtype=np.float64), rate, train_mode, rng)
    return y


def _dropout_cached(x, rate, train_mode, rng):
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must satisfy 0 <= rate < 1, got {rate}")
    if not train_mode or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    scaled_mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * scaled_mask, scaled_mask


def batchnorm_forward(
    x, gamma, beta, running_mean, running_var, train_mode: bool,
    momentum: float = 0.99, eps: float = 1e-5, update_running: bool = True,
):
    """Feature-wise batch normalization on a (B, F) batch.

    Train mode normalizes by biased batch statistics and (by default) folds
    them into the running stats in place; eval mode uses the running stats.
    """
    y, _ = _batchnorm_cached(
        np.asarray(x, dtype=np.float64), gamma, beta, running_mean, running_var,
        train_mode, momentum, eps, update_running,
    )
    return y


def _batchnorm_cached(
    x, gamma, beta, running_mean, running_var, train_mode,
    momentum=0.99, eps=1e-5, update_running=True,
):
    if x.ndim != 2:
        raise ValueError(f"batchnorm expects a (batch, features) array, got {x.shape}")
    if train_mode:
        n = x.shape[0]
        if n < 2:
            raise ValueError(f"batchnorm train mode needs batch >= 2, got {n}")
        mu = x.mean(axis=0)
        var = x.var(axis=0)  # biased
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv_std
        if update_running:
            running_mean *= momentum
            running_mean += (1.0 - momentum) * mu
            running_var *= momentum
            running_var += (1.0 - momentum) * var
        cache = {"xhat": xhat, "inv_std": inv_std, "gamma": gamma, "n": n}
    else:
        xhat = (x - running_mean) / np.sqrt(running_var + eps)
        cache = None
    return gamma * xhat + beta, cache


def batchnorm_backward(cache: dict, dy: np.ndarray):
    """Backprop through train-mode batch normalization."""
    xhat, inv_std, gamma, n = cache["xhat"], cache["inv_std"], cache["gamma"], cache["n"]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    dx = (inv_std / n) * (
        n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
    )
    return dx, dgamma, dbeta


class Adam:
    """Adam with bias correction; updates parameters in place so shared
    references (network views, checkpoints) stay valid."""

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            if g.shape != params[k].shape:
                raise ValueError(f"gradient shape mismatch for {k}")
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params[k] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def _flat(prefix: str, p: dict) -> dict:
    return {f"{prefix}.{k}": v for k, v in p.items()}


def _raise_on_bad_grads(grads: dict) -> None:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name}")


class _Network:
    """Parameter loading shared by the two networks, whose `params()` returns
    flat name -> array views."""

    def load_params(self, flat: dict) -> None:
        """Copy `flat` into the parameters; names and shapes must match."""
        own = self.params()
        if set(own) != set(flat):
            raise ValueError("parameter name mismatch")
        for k, v in flat.items():
            if own[k].shape != np.shape(v):
                raise ValueError(f"parameter shape mismatch for {k}")
            own[k][...] = v


class QNetwork(_Network):
    """Two stacked GRU layers over the state matrix, dropout on the final
    hidden state (train mode only), then a dense head with one output per
    action."""

    def __init__(self, embedding_dim: int, hidden_dim: int, n_actions: int,
                 dropout_rate: float = 0.2, rng: np.random.Generator | None = None):
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must satisfy 0 <= rate < 1, got {dropout_rate}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.n_actions = n_actions
        self.dropout_rate = dropout_rate
        self.gru1 = init_gru_params(rng, embedding_dim, hidden_dim)
        self.gru2 = init_gru_params(rng, hidden_dim, hidden_dim)
        self.head = {
            "W": glorot_uniform(rng, n_actions, hidden_dim),
            "b": np.zeros(n_actions, dtype=np.float64),
        }

    def params(self) -> dict:
        """Flat name -> array view (shared references, not copies)."""
        out = _flat("gru1", self.gru1)
        out.update(_flat("gru2", self.gru2))
        out.update(_flat("head", self.head))
        return out

    def clone(self) -> "QNetwork":
        other = copy.copy(self)
        other.gru1 = {k: v.copy() for k, v in self.gru1.items()}
        other.gru2 = {k: v.copy() for k, v in self.gru2.items()}
        other.head = {k: v.copy() for k, v in self.head.items()}
        return other

    def forward_cached(self, X: np.ndarray, lengths, train_mode: bool = False,
                       rng: np.random.Generator | None = None):
        """(Q, cache) on a (B, T, m) batch. Steps past max(lengths) are
        skipped entirely; rows with length 0 see only the head bias."""
        lengths = np.asarray(lengths, dtype=np.int64)
        B = X.shape[0]
        t_eff = int(lengths.max()) if B else 0
        if t_eff > 0:
            Xt = X[:, :t_eff]
            H1, c1 = gru_forward(self.gru1, Xt, lengths)
            H2, c2 = gru_forward(self.gru2, H1, lengths)
            h_last = H2[:, -1]
        else:
            c1 = c2 = None
            h_last = np.zeros((B, self.hidden_dim), dtype=np.float64)
        h_drop, drop_mask = _dropout_cached(h_last, self.dropout_rate, train_mode, rng)
        Q = h_drop @ self.head["W"].T + self.head["b"]
        if not np.all(np.isfinite(Q)):
            raise FloatingPointError("non-finite Q-values")
        cache = {
            "c1": c1, "c2": c2, "h_drop": h_drop, "drop_mask": drop_mask,
            "t_eff": t_eff, "B": B, "X_shape": X.shape,
        }
        return Q, cache

    def forward(self, X, lengths, train_mode: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        Q, _ = self.forward_cached(X, lengths, train_mode, rng)
        return Q

    def backward(self, cache: dict, dQ: np.ndarray) -> dict:
        """Flat parameter gradients from upstream dQ (B, k)."""
        grads = {}
        grads["head.W"] = dQ.T @ cache["h_drop"]
        grads["head.b"] = dQ.sum(axis=0)
        dh_drop = dQ @ self.head["W"]
        if cache["drop_mask"] is not None:
            dh_last = dh_drop * cache["drop_mask"]
        else:
            dh_last = dh_drop
        if cache["t_eff"] > 0:
            dH2 = np.zeros((cache["B"], cache["t_eff"], self.hidden_dim))
            dH2[:, -1] = dh_last
            g2, dH1 = gru_backward(cache["c2"], dH2)
            g1, _ = gru_backward(cache["c1"], dH1, input_grad=False)
            grads.update(_flat("gru1", g1))
            grads.update(_flat("gru2", g2))
        else:
            grads.update(_flat("gru1", {k: np.zeros_like(v) for k, v in self.gru1.items()}))
            grads.update(_flat("gru2", {k: np.zeros_like(v) for k, v in self.gru2.items()}))
        _raise_on_bad_grads(grads)
        return grads


def qnet_loss_and_grads(net: QNetwork, X, lengths, actions, targets,
                        train_mode: bool = True,
                        rng: np.random.Generator | None = None):
    """Mean squared error between targets and the chosen actions' Q-values.

    The gradient flows only through each sample's chosen action; the target
    vector is a constant.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if not np.all(np.isfinite(targets)):
        raise ValueError("non-finite target")
    actions = np.asarray(actions, dtype=np.int64)
    Q, cache = net.forward_cached(X, lengths, train_mode, rng)
    B = Q.shape[0]
    idx = np.arange(B)
    diff = Q[idx, actions] - targets
    loss = float(np.mean(diff**2))
    dQ = np.zeros_like(Q)
    dQ[idx, actions] = 2.0 * diff / B
    return loss, net.backward(cache, dQ)


class RewardRegressor(_Network):
    """Two GRU layers with batch normalization between them (feature-wise,
    over the valid positions of the inter-layer hidden sequence) and on the
    final hidden state, then a scalar linear head."""

    def __init__(self, embedding_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None, layers: int = 2):
        if layers != 2:
            raise ValueError("this regressor is fixed at 2 recurrent layers")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.gru1 = init_gru_params(rng, embedding_dim, hidden_dim)
        self.gru2 = init_gru_params(rng, hidden_dim, hidden_dim)
        self.bn1 = {
            "gamma": np.ones(hidden_dim, dtype=np.float64),
            "beta": np.zeros(hidden_dim, dtype=np.float64),
        }
        self.bn2 = {
            "gamma": np.ones(hidden_dim, dtype=np.float64),
            "beta": np.zeros(hidden_dim, dtype=np.float64),
        }
        self.head = {
            "W": glorot_uniform(rng, 1, hidden_dim),
            "b": np.zeros(1, dtype=np.float64),
        }
        # Running statistics (buffers, not trained).
        self.bn1_mean = np.zeros(hidden_dim, dtype=np.float64)
        self.bn1_var = np.ones(hidden_dim, dtype=np.float64)
        self.bn2_mean = np.zeros(hidden_dim, dtype=np.float64)
        self.bn2_var = np.ones(hidden_dim, dtype=np.float64)

    def params(self) -> dict:
        out = _flat("gru1", self.gru1)
        out.update(_flat("gru2", self.gru2))
        out.update(_flat("bn1", self.bn1))
        out.update(_flat("bn2", self.bn2))
        out.update(_flat("head", self.head))
        return out

    def buffers(self) -> dict:
        return {
            "bn1_mean": self.bn1_mean, "bn1_var": self.bn1_var,
            "bn2_mean": self.bn2_mean, "bn2_var": self.bn2_var,
        }

    def forward_cached(self, X: np.ndarray, lengths, train_mode: bool = False,
                       update_running: bool = True):
        lengths = np.asarray(lengths, dtype=np.int64)
        B = X.shape[0]
        t_eff = int(lengths.max()) if B else 0
        if t_eff > 0:
            Xt = X[:, :t_eff]
            H1, c1 = gru_forward(self.gru1, Xt, lengths)
            valid = np.arange(t_eff)[None, :] < lengths[:, None]  # (B, t_eff)
            xs = H1[valid]
            ys, bn1_cache = _batchnorm_cached(
                xs, self.bn1["gamma"], self.bn1["beta"], self.bn1_mean, self.bn1_var,
                train_mode, update_running=update_running,
            )
            H1n = np.zeros_like(H1)
            H1n[valid] = ys
            H2, c2 = gru_forward(self.gru2, H1n, lengths)
            h_last = H2[:, -1]
        else:
            c1 = c2 = bn1_cache = None
            valid = None
            h_last = np.zeros((B, self.hidden_dim), dtype=np.float64)
        h_norm, bn2_cache = _batchnorm_cached(
            h_last, self.bn2["gamma"], self.bn2["beta"], self.bn2_mean, self.bn2_var,
            train_mode, update_running=update_running,
        )
        preds = h_norm @ self.head["W"][0] + self.head["b"][0]
        if not np.all(np.isfinite(preds)):
            raise FloatingPointError("non-finite regressor output")
        cache = {
            "c1": c1, "c2": c2, "bn1": bn1_cache, "bn2": bn2_cache,
            "valid": valid, "h_norm": h_norm, "t_eff": t_eff, "B": B,
        }
        return preds, cache

    def forward(self, X, lengths, train_mode: bool = False,
                update_running: bool = True) -> np.ndarray:
        preds, _ = self.forward_cached(X, lengths, train_mode, update_running)
        return preds

    def backward(self, cache: dict, dpreds: np.ndarray) -> dict:
        grads = {}
        grads["head.W"] = (dpreds[None, :] @ cache["h_norm"])
        grads["head.b"] = np.array([dpreds.sum()])
        dh_norm = np.outer(dpreds, self.head["W"][0])
        dh_last, dg2, db2 = batchnorm_backward(cache["bn2"], dh_norm)
        grads["bn2.gamma"] = dg2
        grads["bn2.beta"] = db2
        if cache["t_eff"] > 0:
            dH2 = np.zeros((cache["B"], cache["t_eff"], self.hidden_dim))
            dH2[:, -1] = dh_last
            g2, dH1n = gru_backward(cache["c2"], dH2)
            dys = dH1n[cache["valid"]]
            dxs, dg1, db1 = batchnorm_backward(cache["bn1"], dys)
            grads["bn1.gamma"] = dg1
            grads["bn1.beta"] = db1
            dH1 = np.zeros_like(dH1n)
            dH1[cache["valid"]] = dxs
            g1, _ = gru_backward(cache["c1"], dH1, input_grad=False)
            grads.update(_flat("gru1", g1))
            grads.update(_flat("gru2", g2))
        else:
            grads["bn1.gamma"] = np.zeros(self.hidden_dim)
            grads["bn1.beta"] = np.zeros(self.hidden_dim)
            grads.update(_flat("gru1", {k: np.zeros_like(v) for k, v in self.gru1.items()}))
            grads.update(_flat("gru2", {k: np.zeros_like(v) for k, v in self.gru2.items()}))
        _raise_on_bad_grads(grads)
        return grads


def regressor_loss_and_grads(model: RewardRegressor, X, lengths, targets,
                             train_mode: bool = True, update_running: bool = True):
    """Mean squared error of the scalar predictions against raw targets."""
    targets = np.asarray(targets, dtype=np.float64)
    preds, cache = model.forward_cached(X, lengths, train_mode, update_running)
    diff = preds - targets
    loss = float(np.mean(diff**2))
    dpreds = 2.0 * diff / diff.shape[0]
    return loss, model.backward(cache, dpreds)
