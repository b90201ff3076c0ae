"""The public surface stays consistent: every exported name exists, the
package namespace imports cleanly, no module imports a name it never
uses, and no module touches another module's private attributes."""

import ast
import importlib
from pathlib import Path

import pytest

import dcoset

SRC = Path(dcoset.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"dcoset.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    assert [n for n in imported if not hasattr(dcoset, n)] == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        else:
            continue
        if ann is not None:
            yield ann


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # quoted annotations such as -> "ConstructibleSet"
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    used = _used_names(tree)
    assert sorted(n for n in _imported_names(tree) if n not in used) == []


def _module_level_privates(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_no_dead_privates(name):
    """A private module-level name nothing in its module reads is a leftover."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    used = _used_names(tree)
    assert sorted(n for n in _module_level_privates(tree) if n not in used) == []


def _own_attributes(tree):
    """Attribute names a module's classes define: methods, class-level
    assignments, __slots__ entries and attributes assigned on self or cls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                    yield from names
                    if "__slots__" in names:
                        for const in ast.walk(item.value):
                            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                                yield const.value
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            yield node.attr


@pytest.mark.parametrize("name", MODULES)
def test_no_foreign_private_attributes(name):
    """A module reads or writes a private attribute only on self or cls, or
    when one of its own classes defines that name: each class owns its
    private state."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    own = set(_own_attributes(tree))
    foreign = sorted(
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        and node.attr not in own
    )
    assert foreign == []


def _references(tree, skip=None):
    """Names a tree reads, as bare names or attributes, outside `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_public_function_has_a_caller():
    """A function in some `__all__` that no other code in `src/dcoset` and
    no benchmark reads is API that only tests use."""
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in MODULES}
    bench = SRC.parent.parent / "benchmarks"
    outside = set()
    for path in bench.glob("*.py"):
        outside.update(_references(ast.parse(path.read_text())))
    unused = []
    for name, tree in trees.items():
        module = importlib.import_module(f"dcoset.{name}")
        defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for attr in module.__all__:
            if attr not in defs or attr in outside:
                continue
            if not any(
                attr in _references(other, skip=defs[attr] if other is tree else None)
                for other in trees.values()
            ):
                unused.append(f"{name}.{attr}")
    assert unused == []
