"""Homomorphism and isomorphism enumeration between finite groups.

The enumerator backtracks over images of a minimal generating set of the
domain, prunes candidates whose element order does not divide the
generator's order, extends each full assignment through the domain's BFS
word table, and accepts exactly when every Cayley-graph edge is
multiplicative.  That acceptance check makes the search sound and
complete, and the lexicographic scan over image tuples makes the output
order reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import config
from .errors import OrderBudgetExceeded
from .groups import FiniteGroup, Subgroup, _first_bad_edge, subgroup_generated

__all__ = [
    "Homomorphism",
    "WordTable",
    "minimal_generating_set",
    "enumerate_homs",
    "iter_homs",
    "hom_count",
    "image",
    "isomorphism",
    "isomorphic",
]


@dataclass(frozen=True)
class Homomorphism:
    """A group homomorphism stored as generator images plus the full map."""

    domain: FiniteGroup
    codomain: FiniteGroup
    gen_images: tuple[int, ...]
    full_map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.full_map[x]

    def then(self, other: "Homomorphism") -> "Homomorphism":
        """Composite homomorphism: first self, then other."""
        if other.domain is not self.codomain:
            raise ValueError("composition mismatch: other.domain must be self.codomain")
        full = tuple(other.full_map[y] for y in self.full_map)
        return _make_hom(self.domain, other.codomain, full)

    def is_surjective(self) -> bool:
        return len(set(self.full_map)) == self.codomain.order

    def is_injective(self) -> bool:
        return len(set(self.full_map)) == self.domain.order

    def validate(self) -> None:
        """Re-check multiplicativity exactly, on every generator edge."""
        f = self.full_map
        if f[0] != 0:
            raise AssertionError("identity not mapped to identity")
        if self.gen_images != tuple(f[g] for g in self.domain.generators):
            raise AssertionError("gen_images inconsistent with full_map")
        bad = _first_bad_edge(self.domain, self.codomain, f)
        if bad is not None:
            raise AssertionError(f"not multiplicative at {bad}")


def _make_hom(domain: FiniteGroup, codomain: FiniteGroup, full: tuple[int, ...]) -> Homomorphism:
    return Homomorphism(domain, codomain, tuple(full[g] for g in domain.generators), full)


class WordTable:
    """BFS spanning tree of a group over a chosen generator tuple.

    Element x is reached as parent(x) * gens[edge(x)]; the induced word for
    x is therefore the BFS-shortest positive word, and images extend along
    discovery order in O(|G|) per candidate assignment.
    """

    def __init__(self, group: FiniteGroup, gens: tuple[int, ...]):
        self.group = group
        self.gens = gens
        n = group.order
        parent = [-1] * n
        edge = [-1] * n
        order = [0]
        seen = [False] * n
        seen[0] = True
        head = 0
        while head < len(order):
            x = order[head]
            head += 1
            for gi, g in enumerate(gens):
                y = group.mul(x, g)
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    edge[y] = gi
                    order.append(y)
        if len(order) != n:
            raise ValueError("generators do not generate the group")
        self.discovery = order
        self.parent = parent
        self.edge = edge

    def word(self, x: int) -> tuple[int, ...]:
        """Generator positions whose product reaches x from the identity."""
        out: list[int] = []
        while x != 0:
            out.append(self.edge[x])
            x = self.parent[x]
        return tuple(reversed(out))

    def extend(self, images: tuple[int, ...], codomain: FiniteGroup) -> tuple[int, ...]:
        """Full candidate map induced by generator images, via tree edges."""
        full = [0] * self.group.order
        for x in self.discovery[1:]:
            full[x] = codomain.mul(full[self.parent[x]], images[self.edge[x]])
        return tuple(full)


def minimal_generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """A smallest generating tuple.

    Scans tuple sizes k = 0, 1, 2, ... over candidates ordered by element
    order descending then index ascending, returning the first tuple whose
    closure is the whole group.
    """
    if group.order > config.order_max():
        raise OrderBudgetExceeded(config.order_max(), "minimal generating set")
    cached = getattr(group, "_min_gens", None)
    if cached is not None:
        return cached
    result: tuple[int, ...] | None = None
    if group.order == 1:
        result = ()
    else:
        candidates = sorted(range(1, group.order),
                            key=lambda x: (-group.element_order(x), x))
        for k in range(1, group.order.bit_length() + 1):
            for combo in itertools.combinations(candidates, k):
                if subgroup_generated(group, combo).order == group.order:
                    result = combo
                    break
            if result is not None:
                break
    if result is None:
        raise AssertionError("no generating tuple found")
    group._min_gens = result
    return result


def iter_homs(domain: FiniteGroup, codomain: FiniteGroup,
              domain_max: int | None = None) -> Iterator[Homomorphism]:
    """All homomorphisms domain -> codomain, each exactly once.

    Yields in lexicographic order of the image tuple of the minimal
    generating set (canonical element order of the codomain).
    """
    limit = domain_max if domain_max is not None else config.HOM_DOMAIN_MAX
    if domain.order > limit:
        raise OrderBudgetExceeded(limit, "hom enumeration domain")
    mgs = minimal_generating_set(domain)
    if not mgs:
        yield _make_hom(domain, codomain, (0,))
        return
    table = WordTable(domain, mgs)
    slots = [
        [y for y in range(codomain.order)
         if domain.element_order(g) % codomain.element_order(y) == 0]
        for g in mgs
    ]
    n = domain.order
    mul_d = domain.mul
    mul_c = codomain.mul
    for images in itertools.product(*slots):
        full = table.extend(images, codomain)
        ok = True
        for gi, g in enumerate(mgs):
            img = images[gi]
            for x in range(n):
                if full[mul_d(x, g)] != mul_c(full[x], img):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield _make_hom(domain, codomain, full)


def enumerate_homs(domain: FiniteGroup, codomain: FiniteGroup,
                   domain_max: int | None = None) -> list[Homomorphism]:
    """All homomorphisms domain -> codomain as a list (see iter_homs)."""
    return list(iter_homs(domain, codomain, domain_max))


def hom_count(domain: FiniteGroup, codomain: FiniteGroup,
              domain_max: int | None = None) -> int:
    """Number of homomorphisms, consuming the stream without storing maps."""
    return sum(1 for _ in iter_homs(domain, codomain, domain_max))


def image(hom: Homomorphism) -> Subgroup:
    """Image subgroup of a homomorphism."""
    return subgroup_generated(hom.codomain, set(hom.full_map))


def isomorphism(g: FiniteGroup, h: FiniteGroup) -> Homomorphism | None:
    """A bijective homomorphism g -> h, or None.

    Prefilters on order, element-order histogram, abelian flag and center
    size, then backtracks over images of a minimal generating set
    restricted to elements of equal order.
    """
    if g.order != h.order:
        return None
    if g.is_abelian != h.is_abelian:
        return None
    if g.order_histogram() != h.order_histogram():
        return None
    if g.center_size() != h.center_size():
        return None
    mgs = minimal_generating_set(g)
    if not mgs:
        return _make_hom(g, h, (0,))
    table = WordTable(g, mgs)
    slots = [
        [y for y in range(h.order) if h.element_order(y) == g.element_order(x)]
        for x in mgs
    ]
    n = g.order
    for images in itertools.product(*slots):
        full = table.extend(images, h)
        if len(set(full)) != n:
            continue
        ok = True
        for gi, gen in enumerate(mgs):
            img = images[gi]
            for x in range(n):
                if full[g.mul(x, gen)] != h.mul(full[x], img):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return _make_hom(g, h, full)
    return None


def isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """True iff a bijective homomorphism exists."""
    return isomorphism(g, h) is not None
