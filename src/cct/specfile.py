"""Group-spec files: one named definition per line.

    group NAME = cyclic N
    group NAME = abelian N1,N2,...
    group NAME = perm DEGREE : CYCLES; CYCLES; ...
    group NAME = present < ... > [budget N]
    group NAME = dihedral N | quaternion | symmetric N | alternating N
    group NAME = product NAME, NAME
    genspec NAME = freeprod NAME, NAME, ...
    genspec NAME = truncated P K

Lines starting with `#` (and trailing `#` comments) are ignored.  Names
must be unique and defined before use.  Permutation cycles are 1-based in
files; element indices in JSON reports are 0-based.
"""

from __future__ import annotations

import re

from .catalogs import truncated_generator
from .coreflections import GeneratorSpec
from .errors import ParseError, UndefinedName
from .groups import (
    FiniteGroup,
    abelian,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    perm_from_cycles,
    quaternion,
    symmetric,
)
from .presentations import parse_presentation, realize

__all__ = ["parse_spec_file", "parse_spec_text", "resolve_name", "builtin_group"]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CYCLE_RE = re.compile(r"\(\s*([0-9\s,]*?)\s*\)")

# The families named by one integer: spec-file constructor -> (built-in
# name prefix, what the integer counts, builder).
_ONE_INT_FAMILIES = {
    "cyclic": ("z", "order", cyclic),
    "dihedral": ("d", "order", dihedral),
    "symmetric": ("s", "degree", symmetric),
    "alternating": ("a", "degree", alternating),
}


def parse_spec_file(path) -> dict:
    """Parse a spec file into an environment of named groups and genspecs."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


def parse_spec_text(text: str) -> dict:
    env: dict[str, FiniteGroup | GeneratorSpec] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        _parse_line(line, lineno, env)
    return env


def _fail(line: int, column: int, message: str, expected: str = "") -> ParseError:
    return ParseError(message, line=line, column=column, expected=expected)


def _parse_line(line: str, lineno: int, env: dict):
    m = re.match(r"(group|genspec)\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$", line)
    if not m:
        raise _fail(lineno, 0, f"cannot parse definition {line!r}",
                    "'group NAME = ...' or 'genspec NAME = ...'")
    kind, name, rhs = m.group(1), m.group(2), m.group(3).strip()
    if name in env:
        raise _fail(lineno, m.start(2), f"name {name!r} already defined", "a fresh name")
    try:
        if kind == "group":
            env[name] = _parse_group_rhs(rhs, lineno, env)
        else:
            env[name] = _parse_genspec_rhs(rhs, lineno, env)
    except ValueError as exc:  # a constructor rejected its arguments
        raise _fail(lineno, m.start(3), str(exc)) from exc


def _ints(text: str, lineno: int, what: str) -> list[int]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise _fail(lineno, 0, f"missing {what}", "comma-separated integers")
    out = []
    for p in parts:
        if not p.removeprefix("-").isdecimal():
            raise _fail(lineno, 0, f"bad integer {p!r} in {what}", "an integer")
        out.append(int(p))
    return out


def _names(text: str, lineno: int, env: dict, what: str) -> list:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise _fail(lineno, 0, f"missing {what}", "comma-separated names")
    out = []
    for p in parts:
        if not _NAME_RE.fullmatch(p):
            raise _fail(lineno, 0, f"bad name {p!r} in {what}", "an identifier")
        if p not in env:
            raise UndefinedName(p, lineno)
        out.append(env[p])
    return out


def _one_int(text: str, lineno: int, head: str, what: str) -> int:
    nums = _ints(text, lineno, f"{head} {what}")
    if len(nums) != 1:
        raise _fail(lineno, 0, f"{head} takes one integer", "an integer")
    return nums[0]


def _parse_group_rhs(rhs: str, lineno: int, env: dict) -> FiniteGroup:
    head, _, rest = rhs.partition(" ")
    rest = rest.strip()
    if head in _ONE_INT_FAMILIES:
        _, what, build = _ONE_INT_FAMILIES[head]
        return build(_one_int(rest, lineno, head, what))
    if head == "abelian":
        return abelian(_ints(rest, lineno, "abelian factors"))
    if head == "quaternion":
        if rest:
            raise _fail(lineno, 0, "quaternion takes no arguments", "end of line")
        return quaternion()
    if head == "product":
        parts = _names(rest, lineno, env, "product factors")
        if len(parts) != 2:
            raise _fail(lineno, 0, "product takes exactly two names", "NAME, NAME")
        left, right = parts
        if not isinstance(left, FiniteGroup) or not isinstance(right, FiniteGroup):
            raise _fail(lineno, 0, "product factors must be groups", "group names")
        return direct_product(left, right)
    if head == "perm":
        return _parse_perm(rest, lineno)
    if head == "present":
        return _parse_present(rest, lineno)
    raise _fail(lineno, 0, f"unknown group constructor {head!r}",
                "cyclic | abelian | perm | present | dihedral | quaternion | "
                "symmetric | alternating | product")


def _parse_perm(rest: str, lineno: int) -> FiniteGroup:
    m = re.match(r"(\d+)\s*:\s*(.*)$", rest)
    if not m:
        raise _fail(lineno, 0, f"cannot parse perm spec {rest!r}", "'perm DEGREE : CYCLES; ...'")
    degree = int(m.group(1))
    if degree < 1:
        raise _fail(lineno, 0, "permutation degree must be positive", "a positive integer")
    body = m.group(2).strip()
    gens = []
    if body:
        for chunk in body.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            cycles = []
            consumed = _CYCLE_RE.sub("", chunk).strip()
            if consumed:
                raise _fail(lineno, 0, f"stray text {consumed!r} in cycles", "'(p1 p2 ...)'")
            for inner in _CYCLE_RE.findall(chunk):
                points = [p for p in re.split(r"[\s,]+", inner.strip()) if p]
                if not points:
                    continue
                cycles.append([int(p) for p in points])
            gens.append(perm_from_cycles(cycles, degree))
    return from_permutations(gens, degree)


def _parse_present(rest: str, lineno: int) -> FiniteGroup:
    end = rest.find(">")
    if not rest.startswith("<") or end < 0:
        raise _fail(lineno, 0, "presentation must be enclosed in <...>", "'< gens | relators >'")
    pres_text = rest[:end + 1]
    tail = rest[end + 1:].strip()
    budget = None
    if tail:
        m = re.fullmatch(r"budget\s+(\d+)", tail)
        if not m:
            raise _fail(lineno, 0, f"unexpected trailing text {tail!r}", "'budget N' or end of line")
        budget = int(m.group(1))
    try:
        pres = parse_presentation(pres_text)
    except ParseError as exc:
        raise _fail(lineno, exc.column, f"in presentation: {exc}", exc.expected) from exc
    return realize(pres, budget)


def _parse_genspec_rhs(rhs: str, lineno: int, env: dict) -> GeneratorSpec:
    head, _, rest = rhs.partition(" ")
    rest = rest.strip()
    if head == "freeprod":
        parts = _names(rest, lineno, env, "freeprod factors")
        factors = []
        for part in parts:
            if isinstance(part, GeneratorSpec):
                factors.extend(part.factors)
            else:
                factors.append(part)
        return GeneratorSpec(tuple(factors))
    if head == "truncated":
        nums = _ints(rest.replace(" ", ","), lineno, "truncated arguments")
        if len(nums) != 2:
            raise _fail(lineno, 0, "truncated takes a prime and a depth", "'truncated P K'")
        return truncated_generator(nums[0], nums[1])
    raise _fail(lineno, 0, f"unknown genspec constructor {head!r}", "freeprod | truncated")


_BUILTIN_RE = re.compile(r"([a-z])(\d+)")
_BUILTIN_FAMILIES = {prefix: build for prefix, _, build in _ONE_INT_FAMILIES.values()}


def builtin_group(name: str) -> FiniteGroup | None:
    """Built-in names: zN, sN, aN, dN, q8, v4 (None if not recognized)."""
    if name == "q8":
        return quaternion()
    if name == "v4":
        return abelian([2, 2])
    m = _BUILTIN_RE.fullmatch(name)
    if not m or m.group(1) not in _BUILTIN_FAMILIES:
        return None
    return _BUILTIN_FAMILIES[m.group(1)](int(m.group(2)))


def resolve_name(env: dict, name: str):
    """Spec-file definitions first, then built-in pattern names."""
    if name in env:
        return env[name]
    built = builtin_group(name)
    if built is None:
        raise UndefinedName(name)
    return built
