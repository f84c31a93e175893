"""The Q-network file, written by `save_agent_checkpoint` and read by
`load_qnetwork`, plus the atomic writers every pipeline artifact goes
through and the one JSON reader.

Layout: 4-byte magic `CDQ1`, 4-byte big-endian header length, canonical
JSON header (sorted keys, no spaces: `version`, `kind` "agent",
`config_hash`, `arch`, an empty `meta`, and `arrays`, the name and shape of
each tensor, sorted by name), then the raw array payload: every tensor as
little-endian float64 bytes in C order, in the header's order. Canonical
JSON plus raw float64 bytes makes save/load round trips and
rerun-determinism bit-exact. A float32 network's weights are stored exactly
as float64 (the upcast loses nothing), and `load_qnetwork` casts them back
to the float32 the pipeline's networks compute in, which is exact too:
loading and saving again reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager

import numpy as np

from .neuralnet import QNetwork

__all__ = [
    "save_agent_checkpoint",
    "load_qnetwork",
    "atomic_write",
    "write_json",
    "read_json",
]

_MAGIC = b"CDQ1"
_VERSION = 1
_ARCH = ("embedding_dim", "hidden_dim", "n_actions")


@contextmanager
def atomic_write(path: str, mode: str, **open_kwargs):
    """Open `path + ".tmp"` for writing; when the block completes, rename it
    over `path` (`os.replace`). If the block raises, the temp file is
    removed and `path` keeps its previous contents, so a write that fails
    halfway never leaves a partial `path`. A process killed mid-write may
    leave the ".tmp" file behind, but never a partial `path`."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path: str, obj) -> None:
    """Write `obj` as canonical JSON (sorted keys, no spaces, one trailing
    newline) through `atomic_write`: the one writer of every JSON artifact."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_json(path: str) -> dict:
    """The JSON object in `path`: the one reader of every JSON artifact and
    config file. A file that is not JSON, or holds anything but an object,
    raises a ValueError that starts with its path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: must be a JSON object, got {type(obj).__name__}")
    return obj


def save_agent_checkpoint(path: str, agent, config_hash: str = "") -> None:
    """The online Q-network's parameters as `net.*` arrays, with its
    architecture: what `load_qnetwork` reads. This is not a training state;
    the target network, the Adam moments, the replay memory and the rng
    streams are not saved, so a run cannot resume from it."""
    net = agent.net
    params = net.params()
    names = sorted(params)
    header = {
        "version": _VERSION,
        "kind": "agent",
        "config_hash": config_hash,
        "arch": {k: getattr(net, k) for k in (*_ARCH, "dropout_rate")},
        "meta": {},
        "arrays": [{"name": f"net.{n}", "shape": list(params[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(">I", len(header_bytes)))
        fh.write(header_bytes)
        for n in names:
            fh.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes(order="C"))


def load_qnetwork(path: str) -> QNetwork:
    """Rebuild the online Q-network from a checkpoint's `net.*` arrays; any
    other arrays (checkpoints once also held the target network and Adam
    moments) are ignored. The network computes in float32, as the agent's
    online network does. The architecture is the checkpoint's own;
    `experiment.load_policy` checks it against a config. A malformed file,
    or one holding a non-finite parameter, raises `ValueError` naming
    `path` (and the parameter)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack(">I", blob[4:8])
    try:
        header = json.loads(blob[8 : 8 + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValueError(f"{path}: unreadable checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    if header.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version: {header.get('version')!r}")
    arch = header.get("arch")
    try:
        dims = [int(arch[k]) for k in _ARCH]
        dropout_rate = float(arch.get("dropout_rate", 0.0))
        entries = [(str(e["name"]), tuple(int(n) for n in e["shape"]))
                   for e in header["arrays"]]
        if any(n < 0 for _, shape in entries for n in shape):
            raise ValueError("negative array shape")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"{path}: malformed checkpoint header: {type(exc).__name__}: {exc}"
        ) from None
    flat = {}
    offset = 8 + hlen
    for name, shape in entries:
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError(f"{path}: truncated array payload at {name!r}")
        if name.startswith("net."):
            flat[name[len("net.") :]] = np.frombuffer(chunk, dtype="<f8").reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    try:
        net = QNetwork(*dims, dropout_rate=dropout_rate,
                       rng=np.random.default_rng(0)).astype(np.float32)
        net.load_params(flat)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return net
