"""Binary checkpoint container: bit-exact roundtrips and corruption checks."""

import os

import numpy as np
import pytest

from chatdqn import AgentConfig
from chatdqn.agent import ChatDQNAgent
from chatdqn.checkpoint import (
    architecture_of,
    load_checkpoint,
    load_qnetwork,
    save_agent_checkpoint,
    save_checkpoint,
)
from chatdqn.neuralnet import QNetwork


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(4,)),
        "scalar": np.array(1.2345678901234567),
        "deep": rng.normal(size=(2, 3, 5)),
    }


def test_roundtrip_bit_exact(tmp_path):
    path = str(tmp_path / "c.ckpt")
    arrays = _arrays()
    save_checkpoint(path, "test", {"n": 3}, arrays,
                    config_hash="abc123", meta={"note": "hi", "k": 7})
    ckpt = load_checkpoint(path)
    assert ckpt.kind == "test"
    assert ckpt.config_hash == "abc123"
    assert ckpt.arch == {"n": 3}
    assert ckpt.meta == {"note": "hi", "k": 7}
    assert set(ckpt.arrays) == set(arrays)
    for k in arrays:
        assert ckpt.arrays[k].shape == arrays[k].shape
        assert ckpt.arrays[k].dtype == np.float64
        np.testing.assert_array_equal(ckpt.arrays[k], arrays[k])


def test_rewrite_is_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    arrays = _arrays(4)
    save_checkpoint(p1, "k", {}, arrays, config_hash="h")
    save_checkpoint(p2, "k", {}, arrays, config_hash="h")
    assert open(p1, "rb").read() == open(p2, "rb").read()


class _FailsToConvert:
    """An array entry that raises once the payload is being written."""

    shape = (2,)

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("disk full")


def test_failed_save_keeps_previous_file(tmp_path):
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, "k", {}, _arrays(0), config_hash="h")
    before = open(path, "rb").read()
    arrays = {**_arrays(1), "zz": _FailsToConvert()}  # written after the others
    with pytest.raises(RuntimeError, match="disk full"):
        save_checkpoint(path, "k", {}, arrays, config_hash="h")
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["c.ckpt"]


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "x.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    path = str(tmp_path / "v.ckpt")
    save_checkpoint(path, "k", {}, {"a": np.zeros(2)})
    blob = bytearray(open(path, "rb").read())
    # bump the version digit inside the JSON header
    idx = blob.find(b'"version":1')
    assert idx > 0
    blob[idx : idx + len(b'"version":1')] = b'"version":9'
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, "k", {}, {"a": np.arange(8, dtype=np.float64)})
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "g.ckpt")
    save_checkpoint(path, "k", {}, {"a": np.arange(4, dtype=np.float64)})
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 9)
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


def test_empty_arrays_ok(tmp_path):
    path = str(tmp_path / "e.ckpt")
    save_checkpoint(path, "k", {"d": 1}, {})
    ckpt = load_checkpoint(path)
    assert ckpt.arrays == {}


def test_architecture_of_fields():
    net = QNetwork(6, 8, 5, dropout_rate=0.3, rng=np.random.default_rng(1))
    arch = architecture_of(net)
    assert arch == {
        "embedding_dim": 6,
        "hidden_dim": 8,
        "n_actions": 5,
        "dropout_rate": 0.3,
    }


def _small_agent(seed=3):
    cfg = AgentConfig(
        n_actions=4, embedding_dim=5, hidden_dim=6, burn_in=0,
        learn_steps=1, batch_size=2, memory_capacity=8,
        target_sync_period=100, test_steps=4, seed=seed,
    )
    return ChatDQNAgent(cfg)


def test_agent_checkpoint_contents(tmp_path):
    path = str(tmp_path / "agent.ckpt")
    agent = _small_agent()
    save_agent_checkpoint(path, agent, config_hash="deadbeef")
    ckpt = load_checkpoint(path)
    assert ckpt.kind == "agent"
    assert ckpt.config_hash == "deadbeef"
    assert ckpt.arch == architecture_of(agent.net)
    # only what load_qnetwork reads: the online network's parameters
    assert set(ckpt.arrays) == {f"net.{k}" for k in agent.net.params()}
    assert ckpt.meta == {}
    for k, v in agent.net.params().items():
        np.testing.assert_array_equal(ckpt.arrays[f"net.{k}"], v)


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
    path = str(tmp_path / "old.ckpt")
    save_checkpoint(path, "agent", architecture_of(agent.net), arrays,
                    config_hash="cafe", meta={"adam_t": 0, "global_step": 0})
    net = load_qnetwork(path)
    assert architecture_of(net) == architecture_of(agent.net)
    X = np.random.default_rng(1).normal(size=(3, 4, 5))
    lengths = np.array([4, 1, 3])
    np.testing.assert_array_equal(
        net.forward(X, lengths, train_mode=False),
        agent.net.forward(X, lengths, train_mode=False),
    )


def test_load_qnetwork_roundtrip(tmp_path):
    path = str(tmp_path / "agent.ckpt")
    agent = _small_agent(seed=9)
    save_agent_checkpoint(path, agent)
    net = load_qnetwork(path)
    assert architecture_of(net) == architecture_of(agent.net)
    for k, v in agent.net.params().items():
        np.testing.assert_array_equal(net.params()[k], v)
    # loaded net computes identical q-values
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2, 4, 5))
    lengths = np.array([4, 2])
    np.testing.assert_array_equal(
        net.forward(X, lengths, train_mode=False),
        agent.net.forward(X, lengths, train_mode=False),
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
        load_checkpoint(str(tmp_path / "nope.ckpt"))
