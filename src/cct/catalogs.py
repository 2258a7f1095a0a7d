"""Catalog-scale experiments: truncated generators, classification, and
the socle-equals-radical survey.

A catalog is a desk-scale stand-in for "all small groups": named
constructions with duplicates allowed, since classification dedupes.  The
truncated generator [Z/p, Z/p^2, ..., Z/p^k] is the finite shadow of the
cyclic free-product generator; the survey checks that socle and radical
agree on every catalog entry whose p-torsion fits under the truncation.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable

from . import config
from .coreflections import GeneratorSpec, radical
from .errors import OrderBudgetExceeded
from .groups import (
    FiniteGroup,
    Subgroup,
    _prime_factorization,
    abelian,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    quaternion,
    subgroup_generated,
    symmetric,
)
from .homs import Homomorphism, image, iso_invariants, isomorphic, minimal_generating_set
from .presentations import parse_presentation, realize

__all__ = [
    "CatalogEntry",
    "Catalog",
    "SocleRadicalRow",
    "SocleRadicalReport",
    "truncated_generator",
    "build_small_catalog",
    "classify_up_to_iso",
    "socle_equals_radical",
    "factor_through_class",
    "resolve_class_predicate",
]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: FiniteGroup
    recipe: str


class Catalog:
    """Ordered named groups with a construction recipe per entry."""

    def __init__(self, entries):
        self.entries = list(entries)
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("catalog names must be unique")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, name: str) -> CatalogEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)


# Miller-Rabin to the prime bases 2..41 is exact below this bound
# (Sorenson & Webster, Math. Comp. 86, 2017); 2..37 alone only below 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from _MR_EXACT_BELOW up."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large to test for primality")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def truncated_generator(p: int, k: int) -> GeneratorSpec:
    """The generator [Z/p, Z/p^2, ..., Z/p^k]."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("truncation depth must be positive")
    # p >= 2, so p^k > limit once 2^k is; test k before computing p^k
    limit = config.order_max()
    if k >= limit.bit_length() or p**k > limit:
        raise OrderBudgetExceeded(limit, f"truncated generator {p}^{k}")
    return GeneratorSpec(tuple(cyclic(p**j) for j in range(1, k + 1)))


# ---------------------------------------------------------------------------
# catalog construction


def _partitions(n: int, cap: int | None = None):
    if n == 0:
        yield ()
        return
    cap = n if cap is None else min(cap, n)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _abelian_types(n: int):
    """Non-cyclic abelian groups of order n as sorted prime-power factor lists."""
    per_prime = [[tuple(p**part for part in parts) for parts in _partitions(e)]
                 for p, e in _prime_factorization(n)]
    for chosen in itertools.product(*per_prime):
        # cyclic exactly when every prime has a single part (CRT)
        if any(len(parts) > 1 for parts in chosen):
            yield tuple(sorted(x for parts in chosen for x in parts))


def _dicyclic_presentation(m: int) -> str:
    # order 4m: a^(2m) = 1, b^2 = a^m, b^-1 a b = a^-1
    return f"< a, b | a^{2 * m}, b^-2 a^{m}, b^-1 a b a >"


def build_small_catalog(max_order: int) -> Catalog:
    """Named constructions of order <= max_order, duplicates allowed.

    Cyclic and abelian groups are generated from integer partitions of the
    prime exponents; dihedral and dicyclic families, the quaternion group,
    symmetric groups up to degree 4 and alternating up to degree 5 join
    when they fit, and finally pairwise direct products of the base list
    (skipping pairs that are both abelian, which the abelian types already
    cover up to isomorphism).
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    if max_order > config.order_max():
        raise OrderBudgetExceeded(config.order_max(), "catalog bound")

    entries: list[CatalogEntry] = []

    def add(name: str, group: FiniteGroup, recipe: str):
        entries.append(CatalogEntry(name, group, recipe))

    for n in range(1, max_order + 1):
        add(f"z{n}", cyclic(n), f"cyclic {n}")
    for n in range(2, max_order + 1):
        for factors in sorted(_abelian_types(n)):
            name = "ab" + "x".join(map(str, factors))
            add(name, abelian(factors), "abelian " + ",".join(map(str, factors)))
    for n in range(2, max_order + 1, 2):
        add(f"d{n}", dihedral(n), f"dihedral {n}")
    if max_order >= 8:
        add("q8", quaternion(), "quaternion")
    for m in range(3, max_order // 4 + 1):
        pres = _dicyclic_presentation(m)
        add(f"dic{4 * m}", realize(parse_presentation(pres)), f"present {pres}")
    for n in range(3, 5):
        if math.factorial(n) <= max_order:
            add(f"s{n}", symmetric(n), f"symmetric {n}")
    for n in range(4, 6):
        if math.factorial(n) // 2 <= max_order:
            add(f"a{n}", alternating(n), f"alternating {n}")

    base = list(entries)
    for i, left in enumerate(base):
        for right in base[i:]:
            if left.group.order < 2 or right.group.order < 2:
                continue
            if left.group.order * right.group.order > max_order:
                continue
            if left.group.is_abelian and right.group.is_abelian:
                continue
            add(f"{left.name}_{right.name}",
                direct_product(left.group, right.group),
                f"product {left.name}, {right.name}")
    return Catalog(entries)


# ---------------------------------------------------------------------------
# classification


def classify_up_to_iso(catalog: Catalog) -> list[list[CatalogEntry]]:
    """Partition entries into isomorphism classes.

    The representative of each class is its first entry in catalog order;
    the partition (as a set of sets of names) is invariant under catalog
    permutation because isomorphism is an equivalence.  An entry is only
    compared with the classes that share its `iso_invariants`, since no
    other class can hold a group isomorphic to it.
    """
    classes: list[list[CatalogEntry]] = []
    buckets: dict[tuple, list[list[CatalogEntry]]] = {}  # invariants -> their classes
    for entry in catalog:
        bucket = buckets.setdefault(iso_invariants(entry.group), [])
        for cls in bucket:
            if isomorphic(cls[0].group, entry.group):
                cls.append(entry)
                break
        else:
            bucket.append([entry])
            classes.append(bucket[-1])
    return classes


# ---------------------------------------------------------------------------
# socle-equals-radical survey


@dataclass(frozen=True)
class SocleRadicalRow:
    name: str
    order: int
    precondition_ok: bool | None
    socle_order: int
    radical_order: int
    chain_length: int
    equal: bool
    torsion_match: bool | None


@dataclass(frozen=True)
class SocleRadicalReport:
    rows: tuple[SocleRadicalRow, ...]

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rows if r.precondition_ok and not r.equal)

    @property
    def skipped(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rows if r.precondition_ok is False)


def _prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e and e >= 1, else None."""
    factors = _prime_factorization(n)
    return factors[0] if len(factors) == 1 else None


def _truncation_bounds(spec: GeneratorSpec) -> dict[int, int] | None:
    """Per-prime order bounds when every factor is a cyclic prime power."""
    bounds: dict[int, int] = {}
    for factor in spec.factors:
        pp = _prime_power(factor.order)
        if pp is None or len(minimal_generating_set(factor)) != 1:
            return None
        p = pp[0]
        bounds[p] = max(bounds.get(p, 0), factor.order)
    return bounds


def _bounded_orders(group: FiniteGroup, bounds: dict[int, int]) -> dict[int, bool]:
    """Each distinct element order that is a power of a prime in `bounds`,
    mapped to whether it is within that prime's bound."""
    out = {}
    for m in set(group.element_orders()):
        pp = _prime_power(m)
        if pp is not None and pp[0] in bounds:
            out[m] = m <= bounds[pp[0]]
    return out


def socle_equals_radical(gen: GeneratorSpec | FiniteGroup, catalog: Catalog) -> SocleRadicalReport:
    """Per-entry comparison of socle and radical under a generator.

    For generators whose factors are all cyclic prime powers (the
    truncated-generator shape) an entry only counts toward `failures` when
    its p-power torsion fits under the largest factor for each prime; the
    survey still computes the gap for violators and reports them as
    skipped.  For other generators the rows are informational and the
    failure list stays empty.
    """
    spec = GeneratorSpec.of(gen)
    bounds = _truncation_bounds(spec)
    rows = []
    for entry in catalog:
        group = entry.group
        precondition: bool | None = None
        torsion_match: bool | None = None
        if bounds is not None:
            within = _bounded_orders(group, bounds)
            precondition = all(within.values())
        chain = radical(spec, group)
        soc = chain.stages[0]
        rad = chain.final
        if bounds is not None:
            # the elements of p-power order within the per-prime bound
            orders = group.element_orders()
            torsion = subgroup_generated(
                group, [x for x in range(1, group.order) if within.get(orders[x], False)])
            torsion_match = torsion.members == soc.members
        rows.append(SocleRadicalRow(
            name=entry.name,
            order=group.order,
            precondition_ok=precondition,
            socle_order=soc.order,
            radical_order=rad.order,
            chain_length=chain.length,
            equal=soc.members == rad.members,
            torsion_match=torsion_match,
        ))
    return SocleRadicalReport(tuple(rows))


# ---------------------------------------------------------------------------
# bounded factorization check


def _is_p_subgroup(sub: Subgroup, p: int) -> bool:
    n = sub.order
    while n % p == 0:
        n //= p
    return n == 1


def resolve_class_predicate(name: str) -> Callable[[Subgroup], bool]:
    """Named predicates: 'N-group' for prime N, 'abelian', 'cyclic',
    'trivial', 'all'."""
    m = re.fullmatch(r"(\d+)-group", name)
    if m:
        p = int(m.group(1))
        if not _is_prime(p):
            raise ValueError(f"{p}-group: {p} is not prime")
        return lambda sub: _is_p_subgroup(sub, p)
    if name == "abelian":
        return lambda sub: all(
            sub.parent.mul(a, b) == sub.parent.mul(b, a)
            for a in sub.members for b in sub.members
        )
    if name == "cyclic":
        return lambda sub: any(
            sub.parent.element_order(x) == sub.order for x in sub.members
        )
    if name == "trivial":
        return lambda sub: sub.order == 1
    if name == "all":
        return lambda sub: True
    raise ValueError(f"unknown class predicate {name!r}")


def factor_through_class(hom: Homomorphism, class_predicate: str) -> Subgroup | None:
    """The image <im> of the hom when it lies in the named class, else None.

    When a subgroup M in the class contains the image, the map factors as
    K -> M -> H.  The named classes ('N-group', 'abelian', 'cyclic',
    'trivial', 'all') are closed under subgroups and quotients, so the image
    alone decides, and None is a proof: a factorization K -> M -> H through
    a class member M puts the image inside the image of M, a class member,
    so <im> is one too.
    """
    predicate = resolve_class_predicate(class_predicate)
    sub = image(hom)
    return sub if predicate(sub) else None
