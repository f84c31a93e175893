"""Every public name is read somewhere: a name in a submodule's `__all__`
must be referenced in `src/`, `demos/` or `bench/` outside its own
definition. Tests do not count, so code that only tests read fails here.
Every per-layer row of `BENCHMARK.json` names a callable the benchmark's
tracer wraps, so a rename cannot leave a row reading 0 unnoticed, and the
tracer's GRU flop hooks still read the shapes the GRU keeps. No module in
`src/` or `demos/` reads another module's private name, and no file in
`src/` tunes the allocator."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chatdqn"


def _trees():
    for top in ("src", "demos", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _names_read(node):
    """Identifiers that `node` reads: names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _public_names():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name in _exported(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, name


TREES = list(_trees())


@pytest.mark.parametrize("path, name", list(_public_names()),
                         ids=lambda v: v.stem if isinstance(v, pathlib.Path) else v)
def test_public_name_is_read_outside_its_definition(path, name):
    for other, tree in TREES:
        body = tree.body
        if other == path:
            body = [node for node in body if not _defines(node, name)]
        if any(name in _names_read(node) for node in body):
            return
    pytest.fail(f"{path.stem}.{name} is exported but nothing in src/, demos/ "
                f"or bench/ reads it")


# Per-layer rows of BENCHMARK.json whose function is gone: each reads 0
# until the benchmark renames it (ROADMAP item 1 lists the new names).
DEAD_LAYER_ROWS = {
    "embeddings.embed_sentence.calls",
    "embeddings.embed_sentence.self_s",
    "clustering.dialogue_vector.calls",
    "reward_predictor.examples_from_distorted.self_s",
}


def _traced_layer(layer):
    """Whether the benchmark's tracer wraps `layer`: `module.function` for a
    function in the module's `__all__`, or `module.Class.method` for a public
    method (or `__init__`) in `vars()` of a non-dataclass class there."""
    module, attr, *method = layer.split(".")
    mod = importlib.import_module(f"chatdqn.{module}")
    obj = getattr(mod, attr, None)
    if attr not in getattr(mod, "__all__", ()) or getattr(obj, "__module__", None) != mod.__name__:
        return False
    if not method:
        return inspect.isfunction(obj)
    (meth,) = method
    return (inspect.isclass(obj) and not dataclasses.is_dataclass(obj)
            and inspect.isfunction(vars(obj).get(meth))
            and (meth == "__init__" or not meth.startswith("_")))


def test_benchmark_layer_rows_name_traced_callables():
    rows = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    layered = [r["name"] for r in rows if "." in r["name"]]  # the rest are whole-run figures
    assert layered
    dead = {name for name in layered if not _traced_layer(name.rsplit(".", 1)[0])}
    assert dead == DEAD_LAYER_ROWS



def test_benchmark_tracer_counts_gru_flops_of_both_networks():
    # the traced run's flop hooks read gru_forward's X, and gru_backward's
    # dH and cache["X"]: a GRU that changed those shapes would make the
    # hooks raise or count nothing, and the traced run would go wrong
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from chatdqn import neuralnet

    rng = np.random.default_rng(0)
    X, lengths = neuralnet.pad_batch(rng.normal(size=(9, 4)), [[1, 2], [3], [4, 5, 6], [7]])
    tracer = spans.Tracer()
    tracer.install("chatdqn")
    try:
        net = neuralnet.QNetwork(4, 5, 3, rng=np.random.default_rng(1)).astype(np.float32)
        neuralnet.qnet_loss_and_grads(net, X, lengths, [0, 2, 1, 0], rng.normal(size=4),
                                      train_mode=True, rng=np.random.default_rng(2))
        reg = neuralnet.RewardRegressor(4, 5, rng=np.random.default_rng(3)).astype(np.float32)
        neuralnet.regressor_loss_and_grads(reg, X, lengths, rng.normal(size=4))
    finally:
        tracer.uninstall()
    for layer in ("neuralnet.gru_forward", "neuralnet.gru_backward"):
        assert tracer.flops[layer] > 0, layer
        assert tracer.layer.count(tracer.layers.index(layer)) == 4, layer

def _private_reads(tree):
    """(line, name) of each `x._name` that `tree` reads, where `x` is not
    `self` or `cls`, `_name` is not a dunder, and the file itself defines
    nothing called `_name` (a function, class, variable or attribute)."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                and node.attr not in defined):
            yield node.lineno, node.attr


def test_no_module_reads_another_modules_private_name():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path, tree in TREES if path.relative_to(ROOT).parts[0] in ("src", "demos")
             for line, name in _private_reads(tree)]
    assert found == []


def test_no_module_tunes_the_allocator():
    # setting MALLOC_* thresholds or calling mallopt would change the
    # allocator of every program that imports chatdqn; the networks reuse
    # their own work buffers instead
    found = [f"{path.relative_to(ROOT)}:{n}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "MALLOC_" in line or "mallopt" in line]
    assert found == []
