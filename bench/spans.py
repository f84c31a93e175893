"""Span tracing for the benchmark's traced run, installed from outside the
program: every public function and class method of each loaded `chatdqn`
module is replaced, in every `chatdqn` namespace that binds it, by a wrapper
that records a span (layer, start, end, parent).

Spans are kept in memory and written out once at the end. A layer's self
time is its spans' durations minus their children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# O(1) accessors called once per token or turn: a span on each would cost
# more than the work it measures and shift the cost onto its callers.
UNTRACED = frozenset({
    "embeddings.WordEmbeddingTable.lookup",
    "corpus.Corpus.get",
    "corpus.Corpus.index_of",
})


def _gru_flops(B: int, T: int, D: int, h: int) -> float:
    """Multiply-adds of one GRU layer pass: three gates, each an input and a
    recurrent GEMM, 2*B*T*3h(D+h)."""
    return 2.0 * B * T * 3 * h * (D + h)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.layer = []   # per span: layer id
        self.start = []
        self.end = []
        self.parent = []  # per span: index of the enclosing span, or -1
        self._stack: list[int] = []
        self.flops = defaultdict(float)    # layer -> computed floating-point ops
        self.counters = defaultdict(float)  # "<layer>.<counter>" -> total
        self._installed = []  # (owner, attribute, original) to restore

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        lid = self._layer_id.setdefault(name, len(self.layers))
        if lid == len(self.layers):
            self.layers.append(name)
        layer, start, end, parent, stack = (
            self.layer, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _after_hooks(self) -> dict:
        """Per-layer work counters computed from each call's arguments."""

        def gru_forward(args, kwargs, out):
            p, X = args[0], args[1]
            B, T, D = X.shape
            self.flops["neuralnet.gru_forward"] += _gru_flops(B, T, D, p["W_z"].shape[0])

        def gru_backward(args, kwargs, out):
            cache, dH = args[0], args[1]
            B, T, D = cache["X"].shape
            self.flops["neuralnet.gru_backward"] += 2 * _gru_flops(B, T, D, dH.shape[2])

        def load_embeddings(args, kwargs, out):
            self.counters["embeddings.load_embeddings.bytes"] += os.path.getsize(args[0])

        def save_agent_checkpoint(args, kwargs, out):
            self.counters["checkpoint.save_agent_checkpoint.bytes"] += os.path.getsize(args[0])

        return {
            "neuralnet.gru_forward": gru_forward,
            "neuralnet.gru_backward": gru_backward,
            "embeddings.load_embeddings": load_embeddings,
            "checkpoint.save_agent_checkpoint": save_agent_checkpoint,
        }

    def _count_lloyd_passes(self, clustering) -> None:
        """Count every assignment pass of every k-means restart. `fit` keeps
        only the winning restart's `inertia_history`, so the count comes from
        each restart's own history; no span is added, so Lloyd time stays in
        `fit`'s self time."""
        lloyd_once = getattr(clustering, "_lloyd_once", None)
        if lloyd_once is None:
            return

        @functools.wraps(lloyd_once)
        def counted(points, k, *args, **kwargs):
            out = lloyd_once(points, k, *args, **kwargs)
            passes = len(out[2])
            n, d = np.shape(points)
            self.counters["clustering.fit.lloyd_passes"] += passes
            self.flops["clustering.fit"] += passes * 2.0 * n * k * d
            return out

        self._replace(clustering, "_lloyd_once", counted)

    def _replace(self, owner, attr: str, new) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every original callable back; recorded spans are kept."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def install(self, package: str = "chatdqn") -> None:
        """Wrap the public callables of every loaded `package` module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        hooks = self._after_hooks()
        replaced = {}  # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    replaced[id(obj)] = self._span(name, obj, hooks.get(name))
                elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if meth.startswith("_") and meth != "__init__":
                            continue
                        name = f"{short}.{attr}.{meth}"
                        if name not in UNTRACED:
                            self._replace(obj, meth, self._span(name, fn, hooks.get(name)))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced:
                    self._replace(mod, attr, replaced[id(val)])
        if "chatdqn.clustering" in sys.modules:
            self._count_lloyd_passes(sys.modules["chatdqn.clustering"])

    # -- analysis --------------------------------------------------------

    def arrays(self):
        start = np.asarray(self.start)
        return (np.asarray(self.layer, dtype=np.int64), start,
                np.asarray(self.end) - start, np.asarray(self.parent, dtype=np.int64))

    def _inside(self, windows) -> np.ndarray:
        """Mask of spans that start inside one of the (start, end) windows."""
        _layer, start, _dur, _parent = self.arrays()
        lo = np.array([w[0] for w in windows])
        hi = np.array([w[1] for w in windows])
        k = np.searchsorted(lo, start, side="right") - 1
        return (k >= 0) & (start <= hi[np.maximum(k, 0)])

    def layer_stats(self, windows) -> dict[str, dict[str, float]]:
        """Per layer, over spans inside `windows`: calls, self_s, total_s,
        p50_ms, p99_ms, and the computed rates (gflops, mb_per_s) and
        counters where they exist."""
        layer, _start, dur, parent = self.arrays()
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        inside = self._inside(windows)
        stats = {}
        for lid, name in enumerate(self.layers):
            mask = (layer == lid) & inside
            calls = int(mask.sum())
            if calls == 0:
                continue
            d = dur[mask]
            row = {
                "calls": calls,
                "self_s": float(self_t[mask].sum()),
                "total_s": float(d.sum()),
            }
            for stat, q in (("p50_ms", 50), ("p99_ms", 99)):
                row[stat] = float(np.percentile(d, q) * 1e3)
            stats[name] = row
        for name, flops in self.flops.items():
            if name in stats:
                stats[name]["gflops"] = flops / stats[name]["total_s"] / 1e9
        for key, value in self.counters.items():
            name, counter = key.rsplit(".", 1)
            stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})[counter] = value
        load = stats.get("embeddings.load_embeddings")
        if load and load["total_s"] > 0:
            load["mb_per_s"] = load["bytes"] / 1e6 / load["total_s"]
        return stats

    def covered_s(self, windows) -> float:
        """Time inside top-level spans that start in `windows` (spans never
        overlap: one thread)."""
        _layer, _start, dur, parent = self.arrays()
        return float(dur[(parent < 0) & self._inside(windows)].sum())

    def save(self, path: str) -> None:
        layer, start, dur, parent = self.arrays()
        np.savez_compressed(path, layers=np.asarray(self.layers), layer=layer,
                            start=start, duration=dur, parent=parent)
