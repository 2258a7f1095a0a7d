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


def test_one_subgroup_walk_reads_the_subgroup_budget():
    """Only `groups.all_subgroups` walks the subgroup lattice, so only it
    reads SUBGROUP_ENUM_MAX."""
    def is_read(node):
        return name_of(node) == "SUBGROUP_ENUM_MAX" and isinstance(node.ctx, ast.Load)

    reads = []
    for path in sorted(SRC.glob("*.py")):
        reads += nodes_outside(path, is_read, {"all_subgroups"})
    assert reads == []
    assert [scope for *_, scope in nodes_outside(SRC / "groups.py", is_read, set())
            ] == ["all_subgroups", "all_subgroups"]


def test_one_slot_builder_reads_the_hom_domain_budget():
    """Only `homs._slots` builds the hom walk's candidates into a group, so
    only it reads HOM_DOMAIN_MAX."""
    def is_read(node):
        return name_of(node) == "HOM_DOMAIN_MAX" and isinstance(node.ctx, ast.Load)

    reads = []
    for path in sorted(SRC.glob("*.py")):
        reads += nodes_outside(path, is_read, {"_slots"})
    assert reads == []
    assert [scope for *_, scope in nodes_outside(SRC / "homs.py", is_read, set())
            ] == ["_slots", "_slots"]


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


def is_conjugator_pair(node):
    """A pair (g, inv(g)): a generator beside its inverse."""
    return (isinstance(node, ast.Tuple) and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Name)
            and isinstance(node.elts[1], ast.Call) and name_of(node.elts[1].func) == "inv"
            and [ast.dump(arg) for arg in node.elts[1].args] == [ast.dump(node.elts[0])])


def is_one_generator_test(node):
    """A comparison of a minimal generating set's length with 1, the set
    being a call of `minimal_generating_set` or the name `mgs`."""
    if not (isinstance(node, ast.Compare) and len(node.comparators) == 1):
        return False
    sides = [node.left, node.comparators[0]]

    def is_length(side):
        if not (isinstance(side, ast.Call) and name_of(side.func) == "len" and side.args):
            return False
        arg = side.args[0]
        return name_of(arg) == "mgs" or (isinstance(arg, ast.Call)
                                         and name_of(arg.func) == "minimal_generating_set")

    return (any(map(is_length, sides))
            and any(isinstance(side, ast.Constant) and side.value == 1 for side in sides))


def test_one_conjugation_loop_and_one_cyclic_domain_rule():
    """Only `groups._conjugates` pairs the group's generators with their
    inverses to conjugate by them.  Only `homs._hom_images` reads a cyclic
    domain's homomorphisms off its slot; the other tests for a one-element
    minimal generating set pick which factors to walk
    (`coreflections._walked_factors`) or bound (`catalogs._truncation_bounds`)
    and run no hom search."""
    pairs, cyclic_tests = [], []
    for path in sorted(SRC.glob("*.py")):
        pairs += nodes_outside(path, is_conjugator_pair, {"_conjugates"})
        cyclic_tests += nodes_outside(path, is_one_generator_test,
                                      {"_hom_images", "_walked_factors", "_truncation_bounds"})
    assert pairs == []
    assert cyclic_tests == []
    # each finder sees the one place it allows
    assert [scope for *_, scope in nodes_outside(SRC / "groups.py", is_conjugator_pair, set())
            ] == ["_conjugates"]
    assert [scope for *_, scope in nodes_outside(SRC / "homs.py", is_one_generator_test, set())
            ] == ["_hom_images"]


def imports_weakref(node):
    return ((isinstance(node, ast.Import) and any(a.name == "weakref" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "weakref"))


def builds_weak_key_dictionary(node):
    return isinstance(node, ast.Call) and name_of(node.func) == "WeakKeyDictionary"


def stores_private_field(node):
    """An assignment to `self._name`."""
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and name_of(node.value) == "self" and private(node.attr))


def test_one_cache_mechanism():
    """What is derived from a group or subgroup is kept by `groups._memo`,
    the one weak-keyed table, or by a `cached_property`; constructors fill
    no private cache fields."""
    weakref_users = [path.name for path in sorted(SRC.glob("*.py"))
                     if nodes_outside(path, imports_weakref, set())]
    assert weakref_users == ["groups.py"]
    assert [scope for *_, scope in nodes_outside(SRC / "groups.py", builds_weak_key_dictionary,
                                                 set())] == ["_memo"]
    inits = {"FiniteGroup.__init__", "Subgroup.__init__"}
    assert [(line, scope) for _, line, scope in nodes_outside(
        SRC / "groups.py", stores_private_field, set()) if scope in inits] == []
