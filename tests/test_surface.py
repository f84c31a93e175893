"""Every public name is read somewhere: a name in a submodule's `__all__`
must be referenced in `src/`, `demos/` or `bench/` outside its own
definition. Tests do not count, so code that only tests read fails here."""

import ast
import pathlib

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
