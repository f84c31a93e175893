"""Minimal numpy network core with hand-written reverse-mode gradients.

Provides exactly what the Q-network and the reward regressor need: batched
GRU layers over post-padded sequences, inverted dropout, batch
normalization, a dense head, mean-squared losses, and an Adam optimizer.
Everything is driven by explicit, seeded `numpy.random.Generator` streams.

A network computes in the dtype of its own parameters: its layers allocate
their buffers in that dtype and cast their input cells to it once, and
`sigmoid`, `dropout` and batch norm follow the dtype of their input.
Parameters are initialized in float64 from the rng streams;
`_Network.astype` makes a copy in another dtype. The pipeline trains
float32 networks (agent.ChatDQNAgent, reward_predictor.train_predictor)
and keeps its target network in float64; the gradient checks build
float64 networks.

Sequence batches are (B, T, D) with a per-row `lengths` vector, and a GRU
computes only their valid cells. It takes the rows longest first (a stable
sort, skipped for a batch already in that order, as a single row or rows of
equal length are), lays the valid cells out time-major, so that step t is
one contiguous block of the rows still active, and writes each step's
states back to the rows' own places. Padding therefore never influences
outputs or gradients. In the returned (B, T, h) hidden states a step at or
past a row's length repeats the row's final state, so the last time index
always holds each row's final hidden state, and upstream gradient on such a
cell reaches the row's last valid step. `pad_batch` is the one function
that makes such batches, for the Q-network's dialogue-history states and
the reward study's history prefixes alike; its T is max(1, longest row),
and both networks run to max(1, longest) steps, so a row of length 0 (or a
batch of them) takes no step and leaves the zero initial state.

GRU update, per step (sigma = logistic):

    z   = sigma(W_z x + U_z h_prev + b_z)
    r   = sigma(W_r x + U_r h_prev + b_r)
    h~  = tanh(W_h x + U_h (r * h_prev) + b_h)
    h_t = (1 - z) * h_prev + z * h~

A GRU layer keeps its per-gate parameters (`W_z` ... `b_h`) but runs them
stacked: one GEMM computes the input projections X @ [W_z; W_r; W_h]^T + b
of all valid cells into a single (cells, 3h) gate buffer, and each step then
needs one [U_z; U_r] GEMM, one `sigmoid` call for z and r together, and the
U_h GEMM on its active rows, after which it overwrites its rows of the
buffer with [z r h~]. The backward pass walks the steps in reverse and
overwrites each step's rows again with the gate pre-activation gradients,
so dW, db and dX each take one GEMM after the loop, and so do dU_zr and dU_h
over the cells past step 0. Because of that overwrite a cache serves
exactly one backward pass. A batch of one row, as every acting call of the
training loop and the chat REPL is, gets the same hidden states, bit for
bit, as a loop over all padded cells; a ragged batch can differ from that
loop in the last bits, because its GEMMs run on fewer rows, and so can the
recurrent weight gradients, which sum over the steps in one GEMM.

A GRU layer starts from the zero state unless it is given `h0`, the (B, h)
states to start its rows from. `QNetwork.forward_carried`, the Q-network's
one eval-mode path, takes and returns both layers' states, so that greedy
evaluation carries each dialogue on over only its new sentences, one call
per layer a turn; `QNetwork.forward` is that call from the zero state. An
h0 runs step 0's recurrent GEMMs, which add exact zeros for a zero row, and
its cache has no backward pass: training (`forward_cached` in train mode)
and the gradient checks always start from zero.
"""

from __future__ import annotations

import copy
import itertools
from typing import Sequence

import numpy as np

__all__ = [
    "pad_batch",
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

# batch norm's running-statistics momentum and variance epsilon
_BN_MOMENTUM, _BN_EPS = 0.99, 1e-5
# Adam's moment decay rates and denominator epsilon (Kingma and Ba's defaults)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def _floating(x) -> np.ndarray:
    """x as an array of its own float dtype, or float64 if it has none."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def _width(lengths: np.ndarray) -> int:
    """Time steps of a padded batch: max(1, longest row)."""
    return max(1, int(lengths.max(initial=0)))


def pad_batch(vectors: np.ndarray, rows: Sequence[Sequence[int]]):
    """(X, lengths): row i of the (B, T, D) batch X holds vectors[rows[i]]
    (row indices into `vectors`), then zeros; T = max(1, longest row)."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    T = _width(lengths)
    valid = np.arange(T) < lengths[:, None]
    idx = np.zeros((len(rows), T), dtype=np.int64)
    idx[valid] = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64,
                             count=int(lengths.sum()))
    # one gather straight into the batch (no temporary of the valid rows);
    # padded cells gathered row 0 and are zeroed
    X = np.asarray(vectors, dtype=np.float64)[idx]
    X[~valid] = 0.0
    return X, lengths


def sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x / 2)), in the dtype of x
    (float64 for non-float input): no exp, so saturated gates cannot
    overflow and need no branch."""
    out = np.array(_floating(x))  # a copy; 0-d for a scalar
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


def _packing(lengths: np.ndarray, T: int):
    """How a padded batch of these row lengths packs: (order, steps, cells).

    `order` is the stable sort of the rows by length, descending, or None for
    a batch already in that order (B = 1, equal lengths); in sorted order the
    rows active at step t are the first `steps[t]`. `cells` indexes the
    valid (row, step) cells of the padded batch time-major, step by step and
    in sorted order within a step, or is None when every row runs all T
    steps, whose packed layout is the batch with its first two axes swapped.
    """
    B = len(lengths)
    order = None
    if B > 1 and (lengths[1:] > lengths[:-1]).any():
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
    if B == 0 or lengths[-1] >= T:
        return order, [B] * T, None
    valid = np.arange(T)[:, None] < lengths  # (T, B), sorted rows
    ts, rows = np.nonzero(valid)
    cells = (rows if order is None else order[rows], ts)
    return order, np.count_nonzero(valid, axis=1).tolist(), cells


def _pack(A: np.ndarray, cells) -> np.ndarray:
    """The valid cells of a padded (B, T, F) array, time-major: (N, F)."""
    if cells is None:
        return A.swapaxes(0, 1).reshape(-1, A.shape[2])
    return A[cells]


def gru_forward(p: dict, X: np.ndarray, lengths: np.ndarray, h0: np.ndarray | None = None):
    """Run a GRU layer over a padded batch.

    X: (B, T, D); lengths: (B,) ints in [0, T]. Returns (H, cache) with
    H[:, t] the hidden state after step t (frozen once t >= lengths[b]).
    The layer computes in the dtype of p's weights, and only on the valid
    cells: the rows are taken longest first, and step t runs on the rows
    still active. The cache holds the gate buffer that `gru_backward`
    overwrites, so it serves exactly one backward pass.

    h0: the (B, h) initial hidden states, in the rows' order, to continue
    each row from where an earlier call over its preceding cells ended; a
    row of length 0 keeps its h0. None is the zero state, whose step 0
    skips the recurrent GEMMs. A cache made from an h0 cannot be
    backpropagated.
    """
    B, T, D = X.shape
    hd = p["W_z"].shape[0]
    _check_gru_shapes(p, D, hd)
    if h0 is not None and np.shape(h0) != (B, hd):
        raise ValueError(f"initial state of shape {np.shape(h0)} for {B} rows "
                         f"of hidden dim {hd}")
    W = np.concatenate((p["W_z"], p["W_r"], p["W_h"]))  # (3h, D)
    U_zr = np.concatenate((p["U_z"], p["U_r"]))         # (2h, h)
    U_h = p["U_h"]
    order, steps, cells = _packing(np.asarray(lengths), T)
    # G: one row per valid cell, step t's rows after step t - 1's; each row
    # holds [a_z a_r a_h] input pre-activations, then [z r h~]
    G = _pack(X, cells).astype(W.dtype, copy=False) @ W.T
    G += np.concatenate((p["b_z"], p["b_r"], p["b_h"]))
    H = np.empty((B, T, hd), dtype=W.dtype)
    # sorted rows; frozen ones keep their state
    carried = h0 is not None
    if carried:
        h = np.array(h0 if order is None else h0[order], dtype=W.dtype)
    else:
        h = np.zeros((B, hd), dtype=W.dtype)
    rows = slice(None) if order is None else order  # where each sorted row goes in H
    start = 0
    for t, n in enumerate(steps):
        g = G[start : start + n]
        start += n
        a_zr, h_til = g[:, : 2 * hd], g[:, 2 * hd :]
        h_act = h[:n]
        recurrent = t > 0 or carried  # a zero h_prev has no recurrent terms
        if recurrent:
            a_zr += h_act @ U_zr.T
        zr = sigmoid(a_zr)
        a_zr[...] = zr
        z, r = zr[:, :hd], zr[:, hd:]
        if recurrent:
            h_til += (r * h_act) @ U_h.T
        np.tanh(h_til, out=h_til)
        h_act += z * (h_til - h_act)
        H[rows, t] = h
    cache = {"X": X, "G": G, "H": H, "order": order, "steps": steps, "cells": cells,
             "W": W, "U_zr": U_zr, "U_h": U_h, "carried": carried}
    return H, cache


def gru_backward(cache: dict, dH: np.ndarray, input_grad: bool = True):
    """Backprop through `gru_forward`, consuming its cache.

    dH: (B, T, h) upstream gradients on each H[:, t] (zeros where none); a
    frozen cell's gradient flows to its row's last valid step.
    Returns (grads, dX): parameter-gradient dict with the layer's key names,
    and the (B, T, D) gradient w.r.t. the input batch, zero on padding, or
    None with input_grad=False (a first layer, whose input has no
    parameters). The steps run in reverse over the forward's packed cells;
    each step's rows of the gate buffer are overwritten with their
    pre-activation gradients, which then give dW, db, dX, dU_zr and dU_h as
    one GEMM each; a second call on the same cache raises, and so does a
    cache made from an initial state h0.
    """
    if cache["carried"]:
        raise ValueError("GRU cache made from an initial state h0: only the "
                         "zero initial state has a backward pass")
    G = cache.pop("G", None)
    if G is None:
        raise ValueError("GRU cache already consumed by a backward pass")
    X, H, order, steps, cells = (cache[k] for k in ("X", "H", "order", "steps", "cells"))
    W, U_zr, U_h = cache["W"], cache["U_zr"], cache["U_h"]
    B, T, D = X.shape
    hd = U_h.shape[0]
    if order is not None:  # sorted rows, as the forward ran them
        H, dH = H[order], dH[order]
    # the recurrent inputs h_prev and r * h_prev of every cell past step 0,
    # for one dU GEMM each after the loop
    n0 = steps[0]
    HP = np.empty((len(G) - n0, hd), dtype=G.dtype)
    RHP = np.empty_like(HP)
    gh = np.zeros((B, hd), dtype=G.dtype)  # frozen rows accumulate, untouched
    end = len(G)
    for t in range(T - 1, -1, -1):
        gh += dH[:, t]
        n = steps[t]
        g = G[end - n : end]
        end -= n
        zr, h_til = g[:, : 2 * hd], g[:, 2 * hd :]
        z, r = zr[:, :hd], zr[:, hd:]
        gm = gh[:n]
        da_h = gm * z * (1.0 - h_til * h_til)
        dzr = zr * (1.0 - zr)
        if t == 0:  # h_prev = 0: no dU terms, no r gradient, nothing upstream
            dzr[:, :hd] *= gm * h_til
            dzr[:, hd:] = 0.0
        else:
            past = slice(end - n0, end - n0 + n)  # this step's rows of HP and RHP
            h_prev = HP[past]
            h_prev[...] = H[:n, t - 1]
            np.multiply(r, h_prev, out=RHP[past])
            drh = da_h @ U_h
            dzr[:, :hd] *= gm * (h_til - h_prev)
            dzr[:, hd:] *= drh * h_prev
            dh_prev = gm * (1.0 - z) + drh * r
            dh_prev += dzr @ U_zr
            gh[:n] = dh_prev
        g[:, : 2 * hd] = dzr
        g[:, 2 * hd :] = da_h
    dU_zr = G[n0:, : 2 * hd].T @ HP
    dU_h = G[n0:, 2 * hd :].T @ RHP
    dW = G.T @ _pack(X, cells).astype(G.dtype, copy=False)
    db = G.sum(axis=0)
    dX = None
    if input_grad:
        dXp = G @ W
        if cells is None:
            dX = dXp.reshape(T, B, D).swapaxes(0, 1)
        else:
            dX = np.zeros((B, T, D), dtype=G.dtype)
            dX[cells] = dXp
    grads = {}
    for i, gate in enumerate(("z", "r", "h")):
        rows = slice(i * hd, (i + 1) * hd)
        grads[f"W_{gate}"] = dW[rows]
        grads[f"b_{gate}"] = db[rows]
    grads["U_z"], grads["U_r"], grads["U_h"] = dU_zr[:hd], dU_zr[hd:], dU_h
    return grads, dX


def dropout(x, rate: float, train_mode: bool, rng: np.random.Generator | None = None):
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate). Returns (y, mask) in the dtype of x, mask being the scaled
    keep mask that the backward pass multiplies by, or None for the identity
    (eval mode or rate 0). The mask is drawn in float64 and then cast, so
    the rng stream does not depend on the dtype."""
    x = _floating(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must satisfy 0 <= rate < 1, got {rate}")
    if not train_mode or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    scaled_mask = ((rng.random(x.shape) >= rate) / (1.0 - rate)).astype(x.dtype, copy=False)
    return x * scaled_mask, scaled_mask


def batchnorm_forward(x, gamma, beta, running_mean, running_var, train_mode: bool):
    """Feature-wise batch normalization on a (B, F) batch.

    Train mode normalizes by biased batch statistics and folds them into the
    running stats in place; eval mode uses the running stats. The result
    follows the dtype of x, gamma and the running stats.
    Returns (y, cache): the cache feeds `batchnorm_backward` in train mode
    and is None in eval mode.
    """
    x = _floating(x)
    if x.ndim != 2:
        raise ValueError(f"batchnorm expects a (batch, features) array, got {x.shape}")
    if train_mode:
        n = x.shape[0]
        if n < 2:
            raise ValueError(f"batchnorm train mode needs batch >= 2, got {n}")
        mu = x.mean(axis=0)
        var = x.var(axis=0)  # biased
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        xhat = (x - mu) * inv_std
        running_mean *= _BN_MOMENTUM
        running_mean += (1.0 - _BN_MOMENTUM) * mu
        running_var *= _BN_MOMENTUM
        running_var += (1.0 - _BN_MOMENTUM) * var
        cache = {"xhat": xhat, "inv_std": inv_std, "gamma": gamma, "n": n}
    else:
        xhat = (x - running_mean) / np.sqrt(running_var + _BN_EPS)
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

    def __init__(self, params: dict, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - _ADAM_BETA1**self.t
        b2c = 1.0 - _ADAM_BETA2**self.t
        for k, g in grads.items():
            if g.shape != params[k].shape:
                raise ValueError(f"gradient shape mismatch for {k}")
            m = self.m[k]
            v = self.v[k]
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            params[k] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + _ADAM_EPS)


def _flat(prefix: str, p: dict) -> dict:
    return {f"{prefix}.{k}": v for k, v in p.items()}


def _raise_on_bad_grads(grads: dict) -> None:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name}")


class _Network:
    """Parameter loading and dtype casts shared by the two networks, whose
    `params()` returns flat name -> array views."""

    def astype(self, dtype) -> "_Network":
        """A copy with every parameter and buffer (the batch-norm running
        statistics included) cast to dtype; the network then computes in
        dtype."""
        other = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, dict):
                setattr(other, name, {k: v.astype(dtype) for k, v in value.items()})
            elif isinstance(value, np.ndarray):
                setattr(other, name, value.astype(dtype))
        return other

    def load_params(self, flat: dict) -> None:
        """Copy `flat` into the parameters, cast to their dtype; names and
        shapes must match."""
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

    def forward_cached(self, X: np.ndarray, lengths, train_mode: bool = False,
                       rng: np.random.Generator | None = None):
        """(Q, cache) on a (B, T, m) batch, run to max(1, longest) steps;
        rows of length 0 keep the zero state and see only the head bias."""
        lengths = np.asarray(lengths, dtype=np.int64)
        H1, c1 = gru_forward(self.gru1, X[:, : _width(lengths)], lengths)
        H2, c2 = gru_forward(self.gru2, H1, lengths)
        h_drop, drop_mask = dropout(H2[:, -1], self.dropout_rate, train_mode, rng)
        cache = {"c1": c1, "c2": c2, "h_drop": h_drop, "drop_mask": drop_mask}
        return self._head(h_drop), cache

    def forward(self, X, lengths) -> np.ndarray:
        """Eval-mode Q-values: `forward_carried` from the zero state."""
        return self.forward_carried(X, lengths)[0]

    def forward_carried(self, X: np.ndarray, lengths, state: np.ndarray | None = None):
        """Eval-mode (Q, state) on a (B, T, m) batch of each row's next
        sentences. `state` is the (2, B, h) hidden states of the two layers
        after the row's earlier sentences (None or a zero row: the zero
        state, bit for bit); the returned state is the one after this
        batch, to pass back with the row's following sentences."""
        lengths = np.asarray(lengths, dtype=np.int64)
        h1, h2 = (None, None) if state is None else state
        H1, _ = gru_forward(self.gru1, X[:, : _width(lengths)], lengths, h1)
        H2, _ = gru_forward(self.gru2, H1, lengths, h2)
        return self._head(H2[:, -1]), np.stack((H1[:, -1], H2[:, -1]))

    def _head(self, h: np.ndarray) -> np.ndarray:
        Q = h @ self.head["W"].T + self.head["b"]
        if not np.all(np.isfinite(Q)):
            raise FloatingPointError("non-finite Q-values")
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
        dH2 = np.zeros_like(cache["c2"]["H"])
        dH2[:, -1] = dh_last
        g2, dH1 = gru_backward(cache["c2"], dH2)
        g1, _ = gru_backward(cache["c1"], dH1, input_grad=False)
        grads.update(_flat("gru1", g1))
        grads.update(_flat("gru2", g2))
        _raise_on_bad_grads(grads)
        return grads


def qnet_loss_and_grads(net: QNetwork, X, lengths, actions, targets,
                        train_mode: bool = True,
                        rng: np.random.Generator | None = None):
    """Mean squared error between targets and the chosen actions' Q-values.

    The gradient flows only through each sample's chosen action; the target
    vector is a constant. The residual is taken in float64; dQ is in the
    network's dtype.
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
                 rng: np.random.Generator | None = None):
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

    def forward_cached(self, X: np.ndarray, lengths, train_mode: bool = False):
        """(preds, cache) on a (B, T, m) batch, run to max(1, longest) steps."""
        lengths = np.asarray(lengths, dtype=np.int64)
        H1, c1 = gru_forward(self.gru1, X[:, : _width(lengths)], lengths)
        valid = np.arange(H1.shape[1])[None, :] < lengths[:, None]  # (B, T)
        ys, bn1_cache = batchnorm_forward(
            H1[valid], self.bn1["gamma"], self.bn1["beta"], self.bn1_mean, self.bn1_var,
            train_mode,
        )
        H1n = np.zeros_like(H1)
        H1n[valid] = ys
        H2, c2 = gru_forward(self.gru2, H1n, lengths)
        h_norm, bn2_cache = batchnorm_forward(
            H2[:, -1], self.bn2["gamma"], self.bn2["beta"], self.bn2_mean, self.bn2_var,
            train_mode,
        )
        preds = h_norm @ self.head["W"][0] + self.head["b"][0]
        if not np.all(np.isfinite(preds)):
            raise FloatingPointError("non-finite regressor output")
        cache = {
            "c1": c1, "c2": c2, "bn1": bn1_cache, "bn2": bn2_cache,
            "valid": valid, "h_norm": h_norm,
        }
        return preds, cache

    def forward(self, X, lengths) -> np.ndarray:
        """Eval-mode predictions (running batch-norm statistics)."""
        return self.forward_cached(X, lengths)[0]

    def backward(self, cache: dict, dpreds: np.ndarray) -> dict:
        grads = {}
        grads["head.W"] = (dpreds[None, :] @ cache["h_norm"])
        grads["head.b"] = np.array([dpreds.sum()])
        dh_norm = np.outer(dpreds, self.head["W"][0])
        dh_last, dg2, db2 = batchnorm_backward(cache["bn2"], dh_norm)
        grads["bn2.gamma"] = dg2
        grads["bn2.beta"] = db2
        dH2 = np.zeros_like(cache["c2"]["H"])
        dH2[:, -1] = dh_last
        g2, dH1n = gru_backward(cache["c2"], dH2)
        dxs, dg1, db1 = batchnorm_backward(cache["bn1"], dH1n[cache["valid"]])
        grads["bn1.gamma"] = dg1
        grads["bn1.beta"] = db1
        dH1 = np.zeros_like(dH1n)
        dH1[cache["valid"]] = dxs
        g1, _ = gru_backward(cache["c1"], dH1, input_grad=False)
        grads.update(_flat("gru1", g1))
        grads.update(_flat("gru2", g2))
        _raise_on_bad_grads(grads)
        return grads


def regressor_loss_and_grads(model: RewardRegressor, X, lengths, targets,
                             train_mode: bool = True):
    """Mean squared error of the scalar predictions against raw targets.
    The residual is taken in float64; dpreds is in the network's dtype."""
    targets = np.asarray(targets, dtype=np.float64)
    preds, cache = model.forward_cached(X, lengths, train_mode)
    diff = preds - targets
    loss = float(np.mean(diff**2))
    dpreds = (2.0 * diff / diff.shape[0]).astype(preds.dtype)
    return loss, model.backward(cache, dpreds)
