"""The Q-network file: bit-exact roundtrips and corruption checks.

`_write_cdq1` and `_read_cdq1` are a writer and a reader of the `CDQ1`
layout local to these tests, so the format is pinned independently of
`save_agent_checkpoint` and `load_qnetwork`."""

import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest

from chatdqn import AgentConfig
from chatdqn.agent import ChatDQNAgent
from chatdqn.checkpoint import load_qnetwork, save_agent_checkpoint
from chatdqn.neuralnet import QNetwork, RewardRegressor

ARCH_FIELDS = ("embedding_dim", "hidden_dim", "n_actions", "dropout_rate")


def _arch(net):
    return {k: getattr(net, k) for k in ARCH_FIELDS}


def _header_bytes(header):
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_cdq1(path, header_bytes, arrays=()):
    """Magic, big-endian header length, the header bytes as given, then
    each array as little-endian float64 bytes in C order."""
    with open(path, "wb") as fh:
        fh.write(b"CDQ1" + struct.pack(">I", len(header_bytes)) + header_bytes)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_cdq1(path):
    """(header, {name: float64 array}) of a well-formed file."""
    blob = open(path, "rb").read()
    assert blob[:4] == b"CDQ1"
    (hlen,) = struct.unpack(">I", blob[4:8])
    header = json.loads(blob[8 : 8 + hlen])
    arrays, offset = {}, 8 + hlen
    for e in header["arrays"]:
        n = int(np.prod(e["shape"])) * 8
        arrays[e["name"]] = np.frombuffer(blob[offset : offset + n], "<f8").reshape(e["shape"])
        offset += n
    assert offset == len(blob)
    return header, arrays


def _agent_header(net, config_hash=""):
    params = net.params()
    return {
        "version": 1, "kind": "agent", "config_hash": config_hash,
        "arch": _arch(net), "meta": {},
        "arrays": [{"name": f"net.{n}", "shape": list(params[n].shape)} for n in sorted(params)],
    }


def _small_agent(seed=3):
    cfg = AgentConfig(
        n_actions=4, embedding_dim=5, hidden_dim=6, burn_in=0,
        learn_steps=1, batch_size=2, memory_capacity=8,
        target_sync_period=100, test_steps=4, seed=seed,
    )
    return ChatDQNAgent(cfg)


def _perturbed_agent(seed):
    agent = _small_agent(seed)
    rng = np.random.default_rng(seed)
    agent.net.load_params({k: v + rng.normal(size=v.shape)
                           for k, v in agent.net.params().items()})
    return agent


def test_roundtrip_bit_exact(tmp_path):
    path = str(tmp_path / "c.ckpt")
    agent = _perturbed_agent(0)
    save_agent_checkpoint(path, agent, config_hash="abc123")
    net = load_qnetwork(path)
    assert _arch(net) == _arch(agent.net)
    assert set(net.params()) == set(agent.net.params())
    for k, v in agent.net.params().items():
        assert net.params()[k].shape == v.shape, k
        assert net.params()[k].dtype == v.dtype == np.float32, k
        assert net.params()[k].tobytes() == v.tobytes(), k


def test_rewrite_is_byte_identical(tmp_path):
    # two saves of one agent agree byte for byte, and with the local writer
    p1, p2, p3 = (str(tmp_path / n) for n in ("a.ckpt", "b.ckpt", "c.ckpt"))
    agent = _perturbed_agent(4)
    save_agent_checkpoint(p1, agent, config_hash="h")
    save_agent_checkpoint(p2, agent, config_hash="h")
    params = agent.net.params()
    _write_cdq1(p3, _header_bytes(_agent_header(agent.net, "h")),
                [params[n] for n in sorted(params)])
    assert open(p1, "rb").read() == open(p2, "rb").read() == open(p3, "rb").read()


class _FailsToConvert:
    """A parameter that raises once the payload is being written."""

    shape = (2,)

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("disk full")


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "c.ckpt")
    save_agent_checkpoint(path, _small_agent(0), config_hash="h")
    before = open(path, "rb").read()
    agent = _small_agent(1)
    params = {**agent.net.params(), "zz": _FailsToConvert()}  # written after the others
    monkeypatch.setattr(agent.net, "params", lambda: params)
    with pytest.raises(RuntimeError, match="disk full"):
        save_agent_checkpoint(path, agent, config_hash="h")
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["c.ckpt"]


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "x.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_qnetwork(path)


def test_bad_version_rejected(tmp_path):
    path = str(tmp_path / "v.ckpt")
    save_agent_checkpoint(path, _small_agent())
    blob = bytearray(open(path, "rb").read())
    # bump the version digit inside the JSON header
    idx = blob.find(b'"version":1')
    assert idx > 0
    blob[idx : idx + len(b'"version":1')] = b'"version":9'
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="unsupported checkpoint version: 9"):
        load_qnetwork(path)


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_agent_checkpoint(path, _small_agent())
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-16])
    with pytest.raises(ValueError, match="truncated array payload at 'net.head.b'"):
        load_qnetwork(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "g.ckpt")
    save_agent_checkpoint(path, _small_agent())
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 9)
    with pytest.raises(ValueError, match="9 trailing bytes"):
        load_qnetwork(path)


def _nan_checkpoint():
    """A small network's whole file, with a NaN in head.b."""
    net = QNetwork(2, 3, 2, rng=np.random.default_rng(0))
    net.head["b"][1] = np.nan
    params = net.params()
    header = _header_bytes(_agent_header(net))
    return b"CDQ1" + struct.pack(">I", len(header)) + header + b"".join(
        np.ascontiguousarray(params[n], dtype="<f8").tobytes() for n in sorted(params))


MALFORMED = {
    # case: (the whole file, or an edit of a good header, and the message);
    # the first four were seen to end `chatdqn eval` in a traceback
    "five_bytes": (b"CDQ1\x00", "not a checkpoint file"),
    "no_arch": (lambda h: {k: v for k, v in h.items() if k != "arch"},
                "malformed checkpoint header"),
    "arch_without_hidden_dim": (
        lambda h: {**h, "arch": {k: v for k, v in h["arch"].items() if k != "hidden_dim"}},
        "malformed checkpoint header: KeyError"),
    "header_a_list": (lambda h: [h], "checkpoint header is not a JSON object"),
    "header_not_utf8": (b"CDQ1" + struct.pack(">I", 4) + b"\xff\xfe{}",
                        "unreadable checkpoint header"),
    "array_without_shape": (
        lambda h: {**h, "arrays": [{"name": e["name"]} for e in h["arrays"]]},
        "malformed checkpoint header: KeyError"),
    "negative_shape": (
        lambda h: {**h, "arrays": [{"name": "net.head.b", "shape": [-1, -1]}]},
        "malformed checkpoint header"),
    "no_net_arrays": (lambda h: {**h, "arrays": []}, "parameter name mismatch"),
    # loaded, and then ended `chatdqn eval` in "non-finite Q-values"
    "non_finite_parameter": (_nan_checkpoint(), "non-finite parameter head.b"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_refused(tmp_path, case):
    content, message = MALFORMED[case]
    path = str(tmp_path / f"{case}.ckpt")
    if isinstance(content, bytes):
        open(path, "wb").write(content)
    else:
        _write_cdq1(path, _header_bytes(content(_agent_header(_small_agent().net))))
    with pytest.raises(ValueError, match=re.escape(path) + ": " + message):
        load_qnetwork(path)


def test_fresh_networks_keep_their_pinned_bytes(tmp_path):
    # the init draw order and the file layout, pinned by digest: a fresh
    # agent's checkpoint, and a fresh regressor's parameters in sorted-name
    # order as float64; no training and no BLAS call is involved
    agent = ChatDQNAgent(AgentConfig(n_actions=5, embedding_dim=4, hidden_dim=6, burn_in=1,
                                     learn_steps=2, batch_size=1, memory_capacity=2, seed=3))
    path = str(tmp_path / "fresh.ckpt")
    save_agent_checkpoint(path, agent)
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == (
        "dbf11403580c683e575eb2d71cc42b7c032ddbd3930026a392a136263929b9ae")
    params = RewardRegressor(4, 6, rng=np.random.default_rng([3, 10])).params()
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(np.asarray(params[name], dtype="<f8").tobytes())
    assert digest.hexdigest() == (
        "6c3e3b68d3f8aeb359d563a4a1efe38fae8ed9b47c6ef798107deaca0761d2fb")


def test_header_arch_fields(tmp_path):
    # the header's arch holds the network's four fields, and the loaded
    # network takes them from it
    agent = _small_agent()
    agent.net = QNetwork(6, 8, 5, dropout_rate=0.3, rng=np.random.default_rng(1))
    path = str(tmp_path / "a.ckpt")
    save_agent_checkpoint(path, agent)
    expected = {"embedding_dim": 6, "hidden_dim": 8, "n_actions": 5, "dropout_rate": 0.3}
    assert _read_cdq1(path)[0]["arch"] == expected
    assert _arch(load_qnetwork(path)) == expected


def test_agent_checkpoint_contents(tmp_path):
    path = str(tmp_path / "agent.ckpt")
    agent = _small_agent()
    save_agent_checkpoint(path, agent, config_hash="deadbeef")
    header, arrays = _read_cdq1(path)
    assert header["version"] == 1
    assert header["kind"] == "agent"
    assert header["config_hash"] == "deadbeef"
    assert header["arch"] == _arch(agent.net)
    assert header["meta"] == {}
    # only what load_qnetwork reads: the online network's parameters
    assert [e["name"] for e in header["arrays"]] == sorted(
        f"net.{k}" for k in agent.net.params())
    for k, v in agent.net.params().items():
        np.testing.assert_array_equal(arrays[f"net.{k}"], v)


def test_load_qnetwork_reads_old_layout(tmp_path):
    # checkpoints written before the trim also held the target network and
    # the Adam moments, plus training meta; they still load
    agent = _small_agent(seed=5)
    agent.target.load_params(
        {k: v + 1.0 for k, v in agent.net.params().items()})
    arrays = {}
    for prefix, params in (("net", agent.net.params()),
                           ("target", agent.target.params()),
                           ("adam_m", agent.optimizer.m),
                           ("adam_v", agent.optimizer.v)):
        arrays.update({f"{prefix}.{k}": v for k, v in params.items()})
    names = sorted(arrays)
    header = {
        "version": 1, "kind": "agent", "config_hash": "cafe",
        "arch": _arch(agent.net), "meta": {"adam_t": 0, "global_step": 0},
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    path = str(tmp_path / "old.ckpt")
    _write_cdq1(path, _header_bytes(header), [arrays[n] for n in names])
    net = load_qnetwork(path)
    assert _arch(net) == _arch(agent.net)
    X = np.random.default_rng(1).normal(size=(3, 4, 5))
    lengths = np.array([4, 1, 3])
    np.testing.assert_array_equal(
        net.forward(X, lengths),
        agent.net.forward(X, lengths),
    )


def test_load_qnetwork_roundtrip(tmp_path):
    path = str(tmp_path / "agent.ckpt")
    agent = _small_agent(seed=9)
    save_agent_checkpoint(path, agent)
    net = load_qnetwork(path)
    assert _arch(net) == _arch(agent.net)
    for k, v in agent.net.params().items():
        np.testing.assert_array_equal(net.params()[k], v)
    # loaded net computes identical q-values
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2, 4, 5))
    lengths = np.array([4, 2])
    np.testing.assert_array_equal(
        net.forward(X, lengths),
        agent.net.forward(X, lengths),
    )


def test_pipeline_checkpoint_reloads_bit_equal_and_rewrites_byte_for_byte(tmp_path):
    # the agent's online network is float32; its checkpoint stores the
    # weights exactly as float64, loads back as a float32 network with the
    # same bits, and saving the loaded network reproduces the file
    agent = _small_agent(seed=7)
    rng = np.random.default_rng(2)
    agent.net.load_params({k: v + rng.normal(size=v.shape)
                           for k, v in agent.net.params().items()})
    path, again = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_agent_checkpoint(path, agent, config_hash="cafe")
    net = load_qnetwork(path)
    assert set(net.params()) == set(agent.net.params())
    for k, v in agent.net.params().items():
        assert v.dtype == np.float32, k
        assert net.params()[k].dtype == np.float32, k
        assert net.params()[k].tobytes() == v.tobytes(), k
    agent.net = net
    save_agent_checkpoint(again, agent, config_hash="cafe")
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_qnetwork(str(tmp_path / "nope.ckpt"))
