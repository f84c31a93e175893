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
equal length are), and lays the valid cells out time-major, so that step t
is one contiguous block of the rows still active; the states it computes
keep that layout. Padding therefore never influences outputs or gradients.
In the (B, T, h) hidden states that `gru_forward` returns for a padded
batch, a step at or past a row's length repeats the row's final state, so
the last time index always holds each row's final hidden state, and
upstream gradient on such a cell reaches the row's last valid step. A
network packs its input once per call and its two layers pass packed cells
to each other (`_Packed`): layer 2's input is layer 1's states of the valid
cells, layer 1's upstream gradient is layer 2's input gradient on them, and
what the head reads is each row's final state. `pad_batch` is the one function
that makes such batches, for the Q-network's dialogue-history states and
the reward study's history prefixes alike; its T is max(1, longest row),
and both networks run to max(1, longest) steps, so a row of length 0 (or a
batch of them) takes no step and leaves the zero initial state.

GRU update, per step (sigma = logistic):

    z   = sigma(W_z x + U_z h_prev + b_z)
    r   = sigma(W_r x + U_r h_prev + b_r)
    h~  = tanh(W_h x + U_h (r * h_prev) + b_h)
    h_t = (1 - z) * h_prev + z * h~

Parameters. A network holds all its parameters in one flat buffer, laid out
by one table of its layers; `params()` names their views `<layer>.<name>`,
and its gradients are one fresh buffer of that layout. A GRU layer stacks
its gates z, r, h as `torch.nn.GRU` does: W (3h, in), U (3h, h) and b (3h)
are contiguous blocks, and `W_z` ... `b_h` are row-block views of them. One
GEMM computes X @ W^T + b for all valid cells into a (cells, 3h) gate
buffer; each step then needs one GEMM on U's z and r rows, one `sigmoid`
call for z and r together, and the U_h GEMM on its active rows, and
overwrites its rows of the buffer with `[z r h~]`. The backward pass walks
the steps in reverse and overwrites each step's rows again with the gate
pre-activation gradients, so dW, db, dX and U's two row blocks each take one
GEMM after the loop, written straight into the stacked gradient blocks.
Because of that overwrite a cache serves exactly one backward pass. A batch
of one row, as every acting call of the training loop and the chat REPL is,
gets the same hidden states, bit for bit, as a loop over all padded cells; a
ragged batch can differ from that loop in the last bits, because its GEMMs
run on fewer rows, and so can the recurrent weight gradients, which sum over
the steps in one GEMM.

A GRU layer starts from the zero state unless it is given `h0`, the (B, h)
states to start its rows from. `QNetwork.forward_carried`, the Q-network's
one eval-mode path, takes and returns both layers' states, so that greedy
evaluation carries each dialogue on over only its new sentences, one call
per layer a turn; `QNetwork.forward` is that call from the zero state. An
h0 runs step 0's recurrent GEMMs, which add exact zeros for a zero row, and
its cache has no backward pass: training (`forward_cached` in train mode)
and the gradient checks always start from zero.

Work buffers. Each network owns one workspace per GRU layer, and its layers
share one more for their per-step temporaries (`_Workspace`). Only its
train-mode calls use them (`forward_cached(..., train_mode=True)`, so
`qnet_loss_and_grads` and `regressor_loss_and_grads`); eval-mode calls, the
target network's among them, allocate fresh arrays, so a network that only
evaluates holds no buffer. A buffer grows to the largest batch the network
has trained on and lives as long as the network: the packed and cast input,
the gate buffer, the states, the recurrent inputs the backward pass
collects, the input gradient passed down and the temporaries; the weights
are read in place. A train-mode cache is therefore valid until that
network's next train-mode forward. Q-values, predictions, carried states and
gradients are never views of a buffer, and `astype` gives its copy
workspaces of its own. Buffers are written with `out=` by the operations a
fresh array would take, in the same order, so every bit is the same; a learn
step reuses its memory instead of faulting in fresh pages from the
allocator.
"""

from __future__ import annotations

import copy
import itertools
from typing import NamedTuple, Sequence

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


def sigmoid(x, out: np.ndarray | None = None):
    """Logistic function as 0.5 * (1 + tanh(x / 2)), in the dtype of x
    (float64 for non-float input): no exp, so saturated gates cannot
    overflow and need no branch. `out`, a float array of x's shape, takes
    the result; `sigmoid(a, out=a)` computes in place."""
    if out is None:
        out = np.array(_floating(x))  # a copy; 0-d for a scalar
    elif out is not x:
        out[...] = x
    out *= 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-s, s, size=(rows, cols))


class _GRUParams(dict):
    """A GRU layer's parameters: the gate-stacked blocks W (3h, in), U (3h, h)
    and b (3h,), gates in the order z, r, h, as its only attributes (`vars`),
    and as items the per-gate names W_z ... b_h, row-block views of them."""

    def __init__(self, W: np.ndarray, U: np.ndarray, b: np.ndarray):
        hd = len(b) // 3
        super().__init__((f"{k}_{gate}", a[i * hd : (i + 1) * hd]) for i, gate in enumerate("zrh")
                         for k, a in (("W", W), ("U", U), ("b", b)))
        self.W, self.U, self.b = W, U, b


def init_gru_params(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> _GRUParams:
    """Gate weights W_* (h, in), recurrent weights U_* (h, h), zero biases,
    drawn gate by gate (W_z, U_z, W_r, ...) into the stacked blocks."""
    p = _GRUParams(np.empty((3 * hidden_dim, input_dim)), np.empty((3 * hidden_dim, hidden_dim)),
                   np.zeros(3 * hidden_dim))
    for gate in "zrh":
        p[f"W_{gate}"][...] = glorot_uniform(rng, hidden_dim, input_dim)
        p[f"U_{gate}"][...] = glorot_uniform(rng, hidden_dim, hidden_dim)
    return p


class _Workspace:
    """Work buffers that one network's train-mode passes reuse across calls.

    Each buffer has a key and a column count, and grows, to a power of two
    of rows, to the largest batch it has served; `get` hands out its
    leading rows, with stale contents. A layer keeps what outlives its call
    (its cache) in its own workspace, and takes its per-step temporaries
    from `scratch`, which the network's layers share.
    """

    def __init__(self, scratch: "_Workspace | None" = None):
        self._bufs: dict = {}
        self.scratch = self if scratch is None else scratch

    def get(self, key: str, rows: int, cols: int, dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or len(buf) < rows or buf.shape[1] != cols or buf.dtype != dtype:
            buf = self._bufs[key] = np.empty((1 << max(rows - 1, 0).bit_length(), cols), dtype)
        return buf[:rows]


def _buffer(ws: _Workspace | None, key: str, rows: int, cols: int, dtype) -> np.ndarray:
    """ws's buffer `key`, or a fresh array without a workspace."""
    return np.empty((rows, cols), dtype) if ws is None else ws.get(key, rows, cols, dtype)


class _Packing(NamedTuple):
    """How a padded batch of these row lengths packs (see `_packing`)."""

    lengths: np.ndarray  # (B,) in the rows' own order
    order: np.ndarray | None
    steps: list
    cells: np.ndarray | None
    ends: np.ndarray


def _packing(lengths: np.ndarray, T: int) -> _Packing:
    """How a padded batch of these row lengths packs.

    `order` is the stable sort of the rows by length, descending, or None for
    a batch already in that order (B = 1, equal lengths); in sorted order the
    rows active at step t are the first `steps[t]`. `cells` holds the index
    b * T + t of each valid (row b, step t) cell of the padded batch,
    time-major, step by step and in sorted order within a step, or is None
    when every row runs all T steps, whose packed layout is the batch with
    its first two axes swapped. `ends` holds the packed index of each sorted
    row's last cell, for the rows of length > 0, which sort first.
    """
    B = len(lengths)
    order = None
    srt = lengths
    if B > 1 and (lengths[1:] > lengths[:-1]).any():
        order = np.argsort(-lengths, kind="stable")
        srt = lengths[order]
    if B == 0 or srt[-1] >= T:
        return _Packing(lengths, order, [B] * T, None, np.arange((T - 1) * B, T * B))
    valid = np.arange(T)[:, None] < srt  # (T, B), sorted rows
    ts, rows = np.nonzero(valid)
    cells = (rows if order is None else order[rows]) * T + ts
    steps = np.count_nonzero(valid, axis=1)
    live = srt[: np.count_nonzero(srt)]
    ends = (np.cumsum(steps) - steps)[live - 1] + np.arange(len(live))
    return _Packing(lengths, order, steps.tolist(), cells, ends)


class _Packed:
    """A padded (B, T, F) batch held as its valid cells.

    `cells` is (N, F), time-major by `packing`; `last` is (B, F), in the
    rows' own order: a GRU's final states (a row of length 0 keeps its
    initial state), or the gradient that arrives on them; either may be
    None. `shape` is the padded batch's. A Q-network or regressor call packs
    its input once, and its two layers pass packed cells to each other.
    """

    __slots__ = ("cells", "last", "packing", "shape")

    def __init__(self, cells, last, packing: _Packing, shape: tuple):
        self.cells, self.last, self.packing, self.shape = cells, last, packing, shape


def _pack(X: np.ndarray, packing: _Packing, dtype, ws: _Workspace | None = None) -> _Packed:
    """The valid cells of a padded (B, T, F) batch, cast to dtype; with ws,
    in its buffer "X"."""
    B, T, F = X.shape
    if packing.cells is None:
        if ws is None:
            cells = X.swapaxes(0, 1).reshape(-1, F).astype(dtype, copy=False)
        else:
            cells = ws.get("X", T * B, F, dtype)
            np.copyto(cells.reshape(T, B, F), X.swapaxes(0, 1))
    elif ws is None:
        cells = X.reshape(B * T, F)[packing.cells].astype(dtype, copy=False)
    else:
        # gathered in X's dtype, then cast: a take into an array of another
        # dtype would cast that array's old contents first
        cells = ws.get("X", len(packing.cells), F, dtype)
        src = X.reshape(B * T, F)
        np.copyto(cells, np.take(src, packing.cells, axis=0, mode="clip",
                                 out=ws.scratch.get("gather", len(cells), F, src.dtype)))
    return _Packed(cells, None, packing, (B, T, F))


def _pack_input(X: np.ndarray, lengths, dtype, ws: _Workspace | None = None) -> _Packed:
    """A network's input batch, packed to run max(1, longest) steps."""
    lengths = np.asarray(lengths, dtype=np.int64)
    T = _width(lengths)
    return _pack(X[:, :T], _packing(lengths, T), dtype, ws)


def _padded(P: _Packed, frozen=None) -> np.ndarray:
    """P as a fresh padded (B, T, F) array: its cells, and `frozen` (B, F)
    or zeros on the cells past each row's length."""
    B, T, F = P.shape
    A = np.empty((B, T, F), dtype=P.cells.dtype)
    A[...] = 0.0 if frozen is None else frozen[:, None]
    if P.packing.cells is None:
        A.swapaxes(0, 1)[...] = P.cells.reshape(T, B, F)
    else:
        A.reshape(B * T, F)[P.packing.cells] = P.cells
    return A


def _upstream(dH: np.ndarray, packing: _Packing, dtype) -> _Packed:
    """A padded (B, T, h) upstream gradient as packed cells, in its own
    dtype, and, in the layer's dtype, each row's gradients past its length,
    summed in the order the backward pass meets them: last step first."""
    dH = np.asarray(dH)
    B, T, h = dH.shape
    P = _pack(dH, packing, dH.dtype)
    P.last = np.zeros((B, h), dtype=dtype)
    for t in range(T - 1, -1, -1):
        frozen = packing.lengths <= t
        P.last[frozen] += dH[frozen, t]
    return P


def _rowmajor(packing: _Packing, shape: tuple) -> np.ndarray:
    """The packed index of each valid cell, in row-major (row, step) order."""
    B, T, _ = shape
    if packing.cells is None:
        return np.arange(T * B).reshape(T, B).T.ravel()
    return np.argsort(packing.cells)


def gru_forward(p: _GRUParams, X, lengths: np.ndarray, h0: np.ndarray | None = None,
                ws: _Workspace | None = None):
    """Run a GRU layer over a padded batch.

    X: (B, T, D); lengths: (B,) ints in [0, T]. Returns (H, cache) with
    H[:, t] the hidden state after step t (frozen once t >= lengths[b]).
    The layer computes in the dtype of p's weights, and only on the valid
    cells: the rows are taken longest first, and step t runs on the rows
    still active. The cache holds the gate buffer that `gru_backward`
    overwrites, so it serves exactly one backward pass.

    X may instead be a `_Packed` batch, in the layer's dtype (`_pack`, or
    the H of a layer below over the same rows); H is then packed too, its
    cells the states of the valid cells and its `last` each row's final
    state, and `lengths` is read from X's packing.

    h0: the (B, h) initial hidden states, in the rows' order, to continue
    each row from where an earlier call over its preceding cells ended; a
    row of length 0 keeps its h0. None is the zero state, whose step 0
    skips the recurrent GEMMs. A cache made from an h0 cannot be
    backpropagated.

    ws: the layer's workspace; the gates, states and packed input then
    live in its buffers, and so do the cache's, until the workspace's next
    call. The H returned for a padded X is always fresh.
    """
    packed = isinstance(X, _Packed)
    B, T, _ = X.shape
    hd = p.U.shape[1]
    if h0 is not None and np.shape(h0) != (B, hd):
        raise ValueError(f"initial state of shape {np.shape(h0)} for {B} rows "
                         f"of hidden dim {hd}")
    W, U_zr, U_h, dtype = p.W, p.U[: 2 * hd], p.U[2 * hd :], p.W.dtype
    P = X if packed else _pack(X, _packing(np.asarray(lengths), T), dtype, ws)
    order, steps, ends = P.packing.order, P.packing.steps, P.packing.ends
    N = len(P.cells)
    # G: one row per valid cell, step t's rows after step t - 1's; each row
    # holds [a_z a_r a_h] input pre-activations, then [z r h~]
    G = np.matmul(P.cells, W.T, out=ws and ws.get("G", N, 3 * hd, dtype))
    G += p.b
    # Hs: the state of each valid cell, in G's layout; a step reads its
    # rows' previous states from the leading rows of the step before
    Hs = _buffer(ws, "H", N, hd, dtype)
    scratch = ws and ws.scratch
    carried = h0 is not None
    if carried:
        h_prev = np.asarray(h0, dtype=dtype)
        if order is not None:
            h_prev = h_prev[order]
    else:
        h_prev = _buffer(scratch, "h0", B, hd, dtype)
        h_prev.fill(0.0)
    h_init = h_prev
    # a step's gates are computed in contiguous temporaries, which elementwise
    # kernels run faster on than on the gate buffer's column blocks, and
    # then copied into its rows
    t_zr = _buffer(scratch, "zr", B, 2 * hd, dtype)
    t_h = _buffer(scratch, "h~", B, hd, dtype)
    t_rh = _buffer(scratch, "rh", B, hd, dtype)
    start = 0
    for t, n in enumerate(steps):
        g, h = G[start : start + n], Hs[start : start + n]
        start += n
        h_prev = h_prev[:n]
        a_zr, a_h = g[:, : 2 * hd], g[:, 2 * hd :]
        zr, h_til = t_zr[:n], t_h[:n]
        if t > 0 or carried:  # a zero h_prev has no recurrent terms
            np.matmul(h_prev, U_zr.T, out=zr)
            zr += a_zr
            sigmoid(zr, out=zr)
            np.matmul(np.multiply(zr[:, hd:], h_prev, out=t_rh[:n]), U_h.T, out=h_til)
            h_til += a_h
        else:
            sigmoid(a_zr, out=zr)
            h_til[...] = a_h
        np.tanh(h_til, out=h_til)
        a_zr[...] = zr
        a_h[...] = h_til
        np.subtract(h_til, h_prev, out=h)  # h = h_prev + z * (h~ - h_prev)
        h *= zr[:, :hd]
        h += h_prev
        h_prev = h
    # each row's final state: its last cell's, or its initial state for a
    # row of length 0 (those sort last)
    last = Hs[ends]
    if len(ends) < B:
        last = np.concatenate((last, h_init[len(ends) :]))
    if order is not None:
        last[order] = last.copy()
    H = _Packed(Hs, last, P.packing, (B, T, hd))
    cache = {"X": P, "G": G, "H": H, "W": W, "U_zr": U_zr, "U_h": U_h,
             "carried": carried, "ws": ws}
    return (H if packed else _padded(H, last)), cache


def gru_backward(cache: dict, dH, input_grad: bool = True, grads: _GRUParams | None = None):
    """Backprop through `gru_forward`, consuming its cache.

    dH: (B, T, h) upstream gradients on each H[:, t] (zeros where none); a
    frozen cell's gradient flows to its row's last valid step. For a packed
    forward, dH is a `_Packed` whose cells (or None) hold the gradients on
    the valid cells and whose `last` (or None) the gradients on the final
    states.
    Returns (grads, dX): the parameter gradients, written into `grads` (a
    layer of a network's gradient buffer) or into fresh stacked blocks, and
    the gradient w.r.t. the input batch, or None with input_grad=False (a
    first layer, whose input has no parameters). dX is (B, T, D), zero on
    padding, for a padded forward, and packed for a packed one, in the
    workspace's buffer "dX" when the forward had one. The steps run in
    reverse over the forward's packed cells; each step's rows of the gate
    buffer are overwritten with their pre-activation gradients, which then
    give dW, db, dX and U's two row blocks as one GEMM each; a second call
    on the same cache raises, and so does a cache made from an h0.
    """
    if cache["carried"]:
        raise ValueError("GRU cache made from an initial state h0: only the "
                         "zero initial state has a backward pass")
    G = cache.pop("G", None)
    if G is None:
        raise ValueError("GRU cache already consumed by a backward pass")
    P, Hs, ws = cache["X"], cache["H"].cells, cache["ws"]
    W, U_zr, U_h = cache["W"], cache["U_zr"], cache["U_h"]
    order, steps = P.packing.order, P.packing.steps
    B, T, D = P.shape
    hd = U_h.shape[0]
    dtype = G.dtype
    packed = isinstance(dH, _Packed)
    if not packed:
        dH = _upstream(dH, P.packing, dtype)
    scratch = ws and ws.scratch
    gh = _buffer(scratch, "gh", B, hd, dtype)  # sorted rows; waits for a row's steps
    gh.fill(0.0)
    if dH.last is not None:
        gh += dH.last if order is None else dH.last[order]
    dHc = dH.cells
    # the recurrent inputs h_prev and r * h_prev of every cell past step 0,
    # for one dU GEMM each after the loop
    n0 = steps[0]
    HP = _buffer(ws, "HP", len(G) - n0, hd, dtype)
    RHP = _buffer(ws, "RHP", len(G) - n0, hd, dtype)
    t_e, t_sq, t_drh, t_f, t_u = (_buffer(scratch, k, B, hd, dtype)
                                  for k in ("e", "sq", "drh", "f", "u"))
    t_s = _buffer(scratch, "s", B, 2 * hd, dtype)
    end = len(G)
    for t in range(T - 1, -1, -1):
        n = steps[t]
        g = G[end - n : end]
        end -= n
        zr, h_til = g[:, : 2 * hd], g[:, 2 * hd :]
        z, r = zr[:, :hd], zr[:, hd:]
        gm = gh[:n]
        if dHc is not None:
            gm += dHc[end : end + n]
        e, sq = t_e[:n], t_sq[:n]
        if t == 0:  # h_prev = 0: no dU terms, no r gradient, nothing upstream
            np.multiply(gm, h_til, out=e)
        else:
            prev = end - steps[t - 1]
            h_prev = Hs[prev : prev + n]
            np.subtract(h_til, h_prev, out=e)
            e *= gm
        np.multiply(h_til, h_til, out=sq)
        np.subtract(1.0, sq, out=sq)
        da_h = np.multiply(gm, z, out=h_til)  # gm * z * (1 - h~^2), in place
        da_h *= sq
        if t > 0:
            past = slice(end - n0, end - n0 + n)  # this step's rows of HP and RHP
            HP[past] = h_prev
            np.multiply(r, h_prev, out=RHP[past])
            drh = np.matmul(da_h, U_h, out=t_drh[:n])
            f = np.multiply(drh, h_prev, out=t_f[:n])
            # dh_prev = gm * (1 - z) + drh * r + dzr @ U_zr, into gm
            np.subtract(1.0, z, out=sq)
            np.multiply(gm, sq, out=gm)
            gm += np.multiply(drh, r, out=sq)
        s = np.subtract(1.0, zr, out=t_s[:n])
        zr *= s  # dzr = zr * (1 - zr) * upstream, in place
        zr[:, :hd] *= e
        if t == 0:
            zr[:, hd:] = 0.0
        else:
            zr[:, hd:] *= f
            gm += np.matmul(zr, U_zr, out=t_u[:n])
    if grads is None:
        grads = _GRUParams(np.empty_like(W), np.empty((3 * hd, hd), dtype), np.empty(3 * hd, dtype))
    np.matmul(G[n0:, : 2 * hd].T, HP, out=grads.U[: 2 * hd])
    np.matmul(G[n0:, 2 * hd :].T, RHP, out=grads.U[2 * hd :])
    np.matmul(G.T, P.cells, out=grads.W)
    np.sum(G, axis=0, out=grads.b)
    dX = None
    if input_grad:
        dXc = np.matmul(G, W, out=ws and ws.get("dX", len(G), D, dtype))
        dX = _Packed(dXc, None, P.packing, P.shape)
        if not packed:
            dX = _padded(dX)
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


def _check_finite(buf: np.ndarray, named: dict, error: type, what: str) -> None:
    """Raise `error` naming the first of `named` (views of buf) that holds a
    non-finite value: one reduction over buf, a search only if it fails."""
    if not np.isfinite(buf).all():
        bad = next(k for k, a in named.items() if not np.isfinite(a).all())
        raise error(f"non-finite {what} {bad}")


def _named(layers: dict) -> dict:
    """Flat `<layer>.<name>` -> array, from each layer's mapping."""
    return {f"{layer}.{k}": a for layer, p in layers.items() for k, a in p.items()}


class _Network:
    """The parameter buffer, its loading and dtype casts, and the train-mode
    workspaces shared by the two networks."""

    def _own(self, **layers) -> None:
        """Copy the layers (`_GRUParams`, or dicts of arrays) into one flat
        buffer and bind each name to views of it; the buffer's table
        `_layout` holds each layer's type and its blocks' names, offsets and
        shapes, a GRU's blocks being its stacked W, U and b."""
        self._layout, arrays, start = {}, [], 0
        for name, p in layers.items():
            self._layout[name] = (type(p), [])
            for k, a in (vars(p) if isinstance(p, _GRUParams) else p).items():
                self._layout[name][1].append((k, start, a.shape))
                arrays.append(a.ravel())
                start += a.size
        self._buf = np.concatenate(arrays)
        vars(self).update(self._views(self._buf))

    def _views(self, buf: np.ndarray) -> dict:
        """Layer name -> the layer's mapping of views of buf, by `_layout`."""
        return {name: kind(**{k: buf[i : i + int(np.prod(shape))].reshape(shape)
                              for k, i, shape in blocks})
                for name, (kind, blocks) in self._layout.items()}

    def params(self) -> dict:
        """Flat `<layer>.<name>` -> view of the parameter buffer (shared
        references, not copies)."""
        return _named({name: getattr(self, name) for name in self._layout})

    def release_buffers(self) -> None:
        """Drop the train-mode work buffers, as a trained network that from
        now on only predicts should; a later train-mode call grows new ones.
        A network holds one workspace per GRU layer, sharing their per-step
        scratch."""
        scratch = _Workspace()
        self._ws = (_Workspace(scratch), _Workspace(scratch))

    def _input(self, X: np.ndarray, lengths, train_mode: bool):
        """(packed input, per-layer workspaces): train mode packs into and
        runs on the network's workspaces, eval mode on fresh arrays."""
        ws = self._ws if train_mode else (None, None)
        return _pack_input(X, lengths, self._buf.dtype, ws[0]), ws

    def astype(self, dtype) -> "_Network":
        """A copy with the parameter buffer and the batch-norm running
        statistics cast to dtype, and workspaces of its own; the network
        then computes in dtype."""
        other = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(other, name, value.astype(dtype))
        vars(other).update(other._views(other._buf))
        other.release_buffers()
        return other

    def load_params(self, flat: dict) -> None:
        """Copy `flat` into the parameters, cast to their dtype; names and
        shapes must match, and every value must be finite in that dtype."""
        own = self.params()
        if set(own) != set(flat):
            raise ValueError(f"parameter name mismatch: missing {sorted(set(own) - set(flat))}, "
                             f"unexpected {sorted(set(flat) - set(own))}")
        for k, v in flat.items():
            if own[k].shape != np.shape(v):
                raise ValueError(f"parameter shape mismatch for {k}")
            own[k][...] = v
        _check_finite(self._buf, own, ValueError, "parameter")


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
        self._own(gru1=init_gru_params(rng, embedding_dim, hidden_dim),
                  gru2=init_gru_params(rng, hidden_dim, hidden_dim),
                  head={"W": glorot_uniform(rng, n_actions, hidden_dim), "b": np.zeros(n_actions)})
        self.release_buffers()  # none until the first train-mode call

    def forward_cached(self, X: np.ndarray, lengths, train_mode: bool = False,
                       rng: np.random.Generator | None = None):
        """(Q, cache) on a (B, T, m) batch, run to max(1, longest) steps;
        rows of length 0 keep the zero state and see only the head bias."""
        P, (ws1, ws2) = self._input(X, lengths, train_mode)
        H1, c1 = gru_forward(self.gru1, P, lengths, ws=ws1)
        H2, c2 = gru_forward(self.gru2, H1, lengths, ws=ws2)
        h_drop, drop_mask = dropout(H2.last, self.dropout_rate, train_mode, rng)
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
        h1, h2 = (None, None) if state is None else state
        P, _ = self._input(X, lengths, train_mode=False)
        H1, _ = gru_forward(self.gru1, P, lengths, h1)
        H2, _ = gru_forward(self.gru2, H1, lengths, h2)
        return self._head(H2.last), np.stack((H1.last, H2.last))

    def _head(self, h: np.ndarray) -> np.ndarray:
        Q = h @ self.head["W"].T + self.head["b"]
        if not np.all(np.isfinite(Q)):
            raise FloatingPointError("non-finite Q-values")
        return Q

    def backward(self, cache: dict, dQ: np.ndarray) -> dict:
        """Flat parameter gradients from upstream dQ (B, k), views of one
        fresh buffer laid out as the parameters."""
        buf = np.empty_like(self._buf)
        g = self._views(buf)
        np.matmul(dQ.T, cache["h_drop"], out=g["head"]["W"])
        np.sum(dQ, axis=0, out=g["head"]["b"])
        dh_last = dQ @ self.head["W"]
        if cache["drop_mask"] is not None:
            dh_last *= cache["drop_mask"]
        H2 = cache["c2"]["H"]
        _, dH1 = gru_backward(cache["c2"], _Packed(None, dh_last, H2.packing, H2.shape),
                              grads=g["gru2"])
        gru_backward(cache["c1"], dH1, input_grad=False, grads=g["gru1"])
        grads = _named(g)
        _check_finite(buf, grads, FloatingPointError, "gradient for parameter")
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
        self.embedding_dim, self.hidden_dim = embedding_dim, hidden_dim
        h = hidden_dim
        self._own(gru1=init_gru_params(rng, embedding_dim, h), gru2=init_gru_params(rng, h, h),
                  bn1={"gamma": np.ones(h), "beta": np.zeros(h)},
                  bn2={"gamma": np.ones(h), "beta": np.zeros(h)},
                  head={"W": glorot_uniform(rng, 1, h), "b": np.zeros(1)})
        # running statistics (buffers, not trained)
        self.bn1_mean, self.bn1_var = np.zeros(h), np.ones(h)
        self.bn2_mean, self.bn2_var = np.zeros(h), np.ones(h)
        self.release_buffers()  # none until the first train-mode call

    def forward_cached(self, X: np.ndarray, lengths, train_mode: bool = False):
        """(preds, cache) on a (B, T, m) batch, run to max(1, longest) steps."""
        P, (ws1, ws2) = self._input(X, lengths, train_mode)
        H1, c1 = gru_forward(self.gru1, P, lengths, ws=ws1)
        # batch norm 1 runs over the valid cells in row-major (row, step)
        # order; `rowmajor` takes them there from the packed order
        rowmajor = _rowmajor(P.packing, P.shape)
        ys, bn1_cache = batchnorm_forward(
            H1.cells[rowmajor], self.bn1["gamma"], self.bn1["beta"], self.bn1_mean,
            self.bn1_var, train_mode,
        )
        X2 = np.empty_like(ys)
        X2[rowmajor] = ys
        H2, c2 = gru_forward(self.gru2, _Packed(X2, None, P.packing, H1.shape), lengths,
                             ws=ws2)
        h_norm, bn2_cache = batchnorm_forward(
            H2.last, self.bn2["gamma"], self.bn2["beta"], self.bn2_mean, self.bn2_var,
            train_mode,
        )
        preds = h_norm @ self.head["W"][0] + self.head["b"][0]
        if not np.all(np.isfinite(preds)):
            raise FloatingPointError("non-finite regressor output")
        cache = {
            "c1": c1, "c2": c2, "bn1": bn1_cache, "bn2": bn2_cache,
            "rowmajor": rowmajor, "h_norm": h_norm,
        }
        return preds, cache

    def forward(self, X, lengths) -> np.ndarray:
        """Eval-mode predictions (running batch-norm statistics)."""
        return self.forward_cached(X, lengths)[0]

    def backward(self, cache: dict, dpreds: np.ndarray) -> dict:
        """Flat parameter gradients from upstream dpreds (B,), views of one
        fresh buffer laid out as the parameters."""
        buf = np.empty_like(self._buf)
        g = self._views(buf)
        np.matmul(dpreds[None, :], cache["h_norm"], out=g["head"]["W"])
        g["head"]["b"][0] = dpreds.sum()
        dh_last, g["bn2"]["gamma"][...], g["bn2"]["beta"][...] = batchnorm_backward(
            cache["bn2"], np.outer(dpreds, self.head["W"][0]))
        H2, rowmajor = cache["c2"]["H"], cache["rowmajor"]
        _, dX2 = gru_backward(cache["c2"], _Packed(None, dh_last, H2.packing, H2.shape),
                              grads=g["gru2"])
        dxs, g["bn1"]["gamma"][...], g["bn1"]["beta"][...] = batchnorm_backward(
            cache["bn1"], dX2.cells[rowmajor])
        dX2.cells = np.empty_like(dxs)
        dX2.cells[rowmajor] = dxs
        gru_backward(cache["c1"], dX2, input_grad=False, grads=g["gru1"])
        grads = _named(g)
        _check_finite(buf, grads, FloatingPointError, "gradient for parameter")
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
