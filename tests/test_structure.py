"""Module boundaries inside the cct package, checked on its source."""

import ast
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
