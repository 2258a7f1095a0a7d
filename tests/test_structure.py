"""Module boundaries inside the cct package, checked on its source."""

import ast
import importlib
import pathlib

import cct

SRC = pathlib.Path(cct.__file__).parent


def private(name):
    """A leading underscore marks a private name; dunders are protocol names."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def boundary_breaches():
    """(file, line, what) for each read of another object's private field and
    each relative import of a private name from a module other than groups,
    which owns the helpers the other modules share."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and private(node.attr)
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                out.append((path.name, node.lineno, node.attr))
            elif (isinstance(node, ast.ImportFrom) and node.level > 0
                    and node.module != "groups"):
                out.extend((path.name, node.lineno, f"{node.module}.{alias.name}")
                           for alias in node.names if private(alias.name))
    return out


def test_no_private_access_across_objects_or_modules():
    assert boundary_breaches() == []


def nodes_outside(path, wanted, allowed):
    """(file, line, scope) for each node of `path` that `wanted` picks,
    unless its enclosing function (dotted through classes) is in `allowed`."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if wanted(child) and scope not in allowed:
                out.append((path.name, child.lineno, scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return out


def name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_one_constructor_builds_every_group():
    """Only `groups._bfs_group` numbers elements and picks the backing, so
    only it calls FiniteGroup(...), and only it reads the table cap."""
    calls, cap_reads = [], []
    for path in sorted(SRC.glob("*.py")):
        calls += nodes_outside(
            path, lambda n: isinstance(n, ast.Call) and name_of(n.func) == "FiniteGroup",
            {"_bfs_group"})
        cap_reads += nodes_outside(
            path, lambda n: name_of(n) == "CAYLEY_TABLE_MAX" and isinstance(n.ctx, ast.Load),
            {"_bfs_group"})
    assert calls == []
    assert cap_reads == []


def test_public_surface_matches_all():
    """Each module's `__all__` names only what the module defines, and the
    package re-exports from such a module only names listed there, so
    `from cct.<module> import *` and `import cct` agree."""
    stale, unlisted = [], []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("cct" if path.stem == "__init__" else f"cct.{path.stem}")
        stale += [(path.stem, name) for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"cct.{node.module}")
            if hasattr(module, "__all__"):
                unlisted += [(node.module, alias.name) for alias in node.names
                             if alias.name not in module.__all__]
    assert stale == []
    assert unlisted == []
