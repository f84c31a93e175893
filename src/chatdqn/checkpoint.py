"""Versioned binary checkpoint container.

Layout: 4-byte magic, 4-byte big-endian header length, canonical JSON
header, then the raw array payload — every tensor as little-endian float64
bytes in C order, concatenated in the header's array order (sorted by
name). Canonical JSON plus raw float64 bytes makes save/load round trips
and rerun-determinism bit-exact. A float32 network's weights are stored
exactly as float64 (the upcast loses nothing), and `load_qnetwork` casts
them back to the float32 the pipeline's networks compute in, which is
exact too: loading and saving again reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .neuralnet import QNetwork

__all__ = [
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "save_agent_checkpoint",
    "load_qnetwork",
    "architecture_of",
    "atomic_write",
    "write_json",
]

_MAGIC = b"CDQ1"
_VERSION = 1


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


@dataclass(eq=False)
class Checkpoint:
    kind: str
    config_hash: str
    arch: dict
    meta: dict
    arrays: dict  # name -> float64 ndarray


def save_checkpoint(
    path: str,
    kind: str,
    arch: dict,
    arrays: dict,
    config_hash: str = "",
    meta: dict | None = None,
) -> None:
    names = sorted(arrays)
    header = {
        "version": _VERSION,
        "kind": kind,
        "config_hash": config_hash,
        "arch": arch,
        "meta": meta or {},
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(">I", len(header_bytes)))
        fh.write(header_bytes)
        for n in names:
            arr = np.ascontiguousarray(arrays[n], dtype="<f8")
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack(">I", blob[4:8])
    header = json.loads(blob[8 : 8 + hlen].decode("utf-8"))
    if header.get("version") != _VERSION:
        raise ValueError(f"unsupported checkpoint version: {header.get('version')!r}")
    arrays = {}
    offset = 8 + hlen
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError(f"{path}: truncated array payload at {entry['name']!r}")
        arrays[entry["name"]] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return Checkpoint(
        kind=header["kind"],
        config_hash=header["config_hash"],
        arch=header["arch"],
        meta=header["meta"],
        arrays=arrays,
    )


def architecture_of(net: QNetwork) -> dict:
    return {
        "embedding_dim": net.embedding_dim,
        "hidden_dim": net.hidden_dim,
        "n_actions": net.n_actions,
        "dropout_rate": net.dropout_rate,
    }


def save_agent_checkpoint(path: str, agent, config_hash: str = "") -> None:
    """The online Q-network's parameters as `net.*` arrays, with its
    architecture: what `load_qnetwork` reads. This is not a training state;
    the target network, the Adam moments, the replay memory and the rng
    streams are not saved, so a run cannot resume from it."""
    arrays = {f"net.{k}": v for k, v in agent.net.params().items()}
    save_checkpoint(
        path, "agent", architecture_of(agent.net), arrays, config_hash=config_hash
    )


def load_qnetwork(path: str) -> QNetwork:
    """Rebuild the online Q-network from a checkpoint's `net.*` arrays; any
    other arrays (checkpoints once also held the target network and Adam
    moments) are ignored. The network computes in float32, as the agent's
    online network does. The architecture is the checkpoint's own;
    `experiment.load_policy` checks it against a config."""
    ckpt = load_checkpoint(path)
    arch = ckpt.arch
    net = QNetwork(
        int(arch["embedding_dim"]),
        int(arch["hidden_dim"]),
        int(arch["n_actions"]),
        dropout_rate=float(arch.get("dropout_rate", 0.0)),
        rng=np.random.default_rng(0),
    ).astype(np.float32)
    flat = {
        k[len("net.") :]: v for k, v in ckpt.arrays.items() if k.startswith("net.")
    }
    net.load_params(flat)
    return net
