"""Homomorphism and isomorphism enumeration between finite groups.

One backtracking search serves `iter_homs`, `isomorphism` and the
radical's stages (`hom_image_lifts`).  It picks images for a minimal
generating set m1...mk of the domain, each from the codomain elements
whose order divides the generator's order (equals it, for an
isomorphism), in lexicographic order.  The walk follows the chain
<m1> < <m1, m2> < ... < <m1, ..., mk>: choosing the image of mj maps the
elements new to <m1, ..., mj>, each as p mi with p already mapped, and
checks every other Cayley edge (x, i), i <= j, inside that subgroup as
soon as both x and x mi are mapped.  A candidate dies at its first bad
edge, and a prefix of images whose map on <m1, ..., mj> is not a
homomorphism prunes its whole subtree.  A full map whose edges all pass
is a homomorphism, since every element is a product of the mi, so the
search is sound and complete; the lexicographic walk makes the output
order reproducible.  The walk only multiplies codomain labels, so it
runs as well on the cosets of a normal subgroup, which finds the
homomorphisms into a quotient without building it.
`groups._first_bad_edge` remains the check for a map given whole
(`Homomorphism.validate`, quotients).

Each caller hands the walk its input as one list of candidate images per
minimal generator, built by the caller that knows the codomain: `_slots`
for a group, the equal-order elements for `isomorphism`, the cosets r N
with r^m in N for `hom_image_lifts`.

Questions that conjugation in the codomain does not change walk homs only
up to conjugacy: `hom_count`, the socle and the functoriality checks of
`coreflections.check_invariants` let m1 run over the least element r of
each conjugacy class in its slot (`_slots(..., classes=True)`).  If
c r c^-1 = x, conjugation by c maps the homomorphisms with m1 -> r one to
one onto those with m1 -> x, so each one walked stands for |class(r)|
homomorphisms, by which `hom_count` weighs it, and the image of every
homomorphism is a conjugate of a walked one's image.  `iter_homs`,
`enumerate_homs`, `isomorphism` and `hom_image_lifts` keep the full walk
and its lexicographic order.

A cyclic domain, whose minimal generating set is one element m1 of order
n, needs no walk: the walk's only check is m1^n = 1, which every
candidate in m1's slot passes, so Hom(Z/n, X) is the slot itself.
`_hom_images` applies that rule for `hom_count`, the socle's images and
the radical's lifts; only callers that need whole maps walk a cyclic
domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import config
from .errors import OrderBudgetExceeded
from .groups import (FiniteGroup, Subgroup, _bfs_order, _Closure, _compose, _conjugates,
                     _first_bad_edge, _memo, _power, _prime_factorization, normal_closure,
                     subgroup_generated)

__all__ = [
    "Homomorphism",
    "minimal_generating_set",
    "enumerate_homs",
    "iter_homs",
    "hom_count",
    "image",
    "iso_invariants",
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
        full = _compose(self.full_map, other.full_map)
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
        if self.gen_images != _compose(self.domain.generators, f):
            raise AssertionError("gen_images inconsistent with full_map")
        bad = _first_bad_edge(self.domain, self.codomain, f)
        if bad is not None:
            raise AssertionError(f"not multiplicative at {bad}")


def _make_hom(domain: FiniteGroup, codomain: FiniteGroup, full: tuple[int, ...]) -> Homomorphism:
    return Homomorphism(domain, codomain, _compose(domain.generators, full), full)


# One level of the hom search: (target, source, generator position, is a
# check) steps, then the members of the chain subgroup they complete.
_Level = tuple[list[tuple[int, int, int, bool]], list[int]]


@_memo
def minimal_generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """A smallest generating tuple.

    The result is the first generating combination, in
    `itertools.combinations` order of size k = 1, 2, ..., over the
    candidates ordered by element order descending then index ascending.
    Two cuts find that same combination with little work:

    - Rank bound: no generating set is smaller than `_rank_lower_bound`,
      since every one maps onto a generating set of an elementary abelian
      quotient, so the sizes below it are not scanned.
    - Pruning: the combinations of one size are scanned depth first in the
      same order, growing each prefix's closure once and forking it for
      every next candidate.  A candidate already in its prefix's closure is
      skipped with its whole subtree: such a combination generates what a
      smaller one does, and every smaller one fails, being either scanned
      or ruled out by the bound.  Only failing combinations are skipped, so
      the first success is unchanged.
    """
    limit = config.order_max()
    if group.order > limit:
        raise OrderBudgetExceeded(limit, "minimal generating set")
    result: tuple[int, ...] | None = None
    if group.order == 1:
        result = ()
    else:
        candidates = sorted(range(1, group.order),
                            key=lambda x: (-group.element_order(x), x))
        for k in range(max(1, _rank_lower_bound(group)), group.order.bit_length() + 1):
            result = _first_generating(_Closure(group), candidates, 0, k)
            if result is not None:
                break
    if result is None:
        raise AssertionError("no generating tuple found")
    return result


def _first_generating(prefix: _Closure, candidates: list[int], start: int,
                      k: int) -> tuple[int, ...] | None:
    """First k-combination of candidates[start:] that, with the prefix's
    generators, generates the group; combinations holding a candidate that
    is redundant over the elements chosen before it are skipped."""
    for j in range(start, len(candidates) - k + 1):
        c = candidates[j]
        if c in prefix.members:
            continue
        closure = prefix.fork()
        closure.add(c)
        if k == 1:
            if closure.is_whole:
                return (c,)
        else:
            rest = _first_generating(closure, candidates, j + 1, k - 1)
            if rest is not None:
                return (c,) + rest
    return None


def _rank_lower_bound(group: FiniteGroup) -> int:
    """Largest rank of an elementary abelian quotient of the group.

    Every generating set maps onto a generating set of each quotient, so
    none is smaller.  For each prime p dividing |G|, N_p is the normal
    closure of the commutators [a, b] and powers a^p of the stored
    generators, so G / N_p is the largest elementary abelian p-quotient,
    of rank log_p [G : N_p].  For a p-group the bound is exact (Burnside's basis
    theorem; Holt, Eick & O'Brien, Handbook of Computational Group Theory,
    2005).
    """
    gens = group.generators
    mul, inv = group.mul, group.inv
    commutators = [mul(mul(inv(a), inv(b)), mul(a, b))
                   for a, b in itertools.combinations(gens, 2)]
    bound = 0
    for p, _ in _prime_factorization(group.order):
        powers = [_power(mul, a, p) for a in gens]
        index = group.order // normal_closure(group, commutators + powers).order
        rank = 0
        while index > 1:
            index //= p
            rank += 1
        bound = max(bound, rank)
    return bound


def iter_homs(domain: FiniteGroup, codomain: FiniteGroup) -> Iterator[Homomorphism]:
    """All homomorphisms domain -> codomain, each exactly once.

    Yields in lexicographic order of the image tuple of the minimal
    generating set (canonical element order of the codomain).
    """
    for full in _hom_maps(domain, codomain.mul, _slots(domain, codomain)):
        yield _make_hom(domain, codomain, full)


def _slots(domain: FiniteGroup, codomain: FiniteGroup,
           classes: bool = False) -> list[Iterable[int]]:
    """The walk's input into a group: per minimal generator of the domain,
    of order m, the codomain elements whose order divides m, in index order.

    With `classes`, the first slot is `_slot_classes` instead: one least
    element per conjugacy class, mapped to the class size, which `hom_count`
    weighs by.  The one check of the domain against HOM_DOMAIN_MAX.
    """
    if domain.order > config.HOM_DOMAIN_MAX:
        raise OrderBudgetExceeded(config.HOM_DOMAIN_MAX, "hom enumeration domain")
    ms = map(domain.element_order, minimal_generating_set(domain))
    return [_slot_classes(codomain, m) if classes and j == 0 else _slot(codomain, m)
            for j, m in enumerate(ms)]


def _slot(group: FiniteGroup, m: int) -> list[int]:
    """The elements of the group whose order divides m, in index order."""
    return [y for y, o in enumerate(group.element_orders()) if m % o == 0]


@_memo
def _slot_classes(group: FiniteGroup, m: int) -> dict[int, int]:
    """The conjugacy classes of the group among its elements whose order
    divides m: the least element of each class, in index order, mapped to
    the class size.

    Each class is the orbit of its least element under conjugation by the
    group's generators, so the work is |slot| |generators| conjugations,
    not one per element of the group.  An abelian group's classes are its
    elements, read off without orbits.
    """
    slot = _slot(group, m)
    if group.is_abelian:
        classes = dict.fromkeys(slot, 1)
    else:
        seen: set[int] = set()
        classes = {}
        for x in slot:
            if x in seen:
                continue
            seen.add(x)
            orbit = [x]
            for _, _, z in _conjugates(group, orbit):
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
            classes[x] = len(orbit)
    return classes


def hom_class_walk(domain: FiniteGroup, codomain: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """The full maps of the homomorphisms domain -> codomain that send m1
    to the least element of a conjugacy class: one per homomorphism up to
    conjugacy.  Left out of `__all__`: `check_invariants` calls it.
    """
    return _hom_maps(domain, codomain.mul, _slots(domain, codomain, classes=True))


def hom_class_images(domain: FiniteGroup, codomain: FiniteGroup) -> Iterator[int]:
    """The images of the domain's minimal generators under each
    homomorphism that sends m1 to a class's least element, hom by hom, so
    that every homomorphism's image is conjugate to the subgroup that one
    hom's images generate.  Left out of `__all__`: the socle calls it.
    """
    slots = _slots(domain, codomain, classes=True)
    return itertools.chain.from_iterable(_hom_images(domain, codomain.mul, slots))


def _hom_images(domain: FiniteGroup, mul: Callable[[int, int], int],
                slots: Sequence[Iterable[int]]) -> Iterator[tuple[int, ...]]:
    """The images of the minimal generating set under each homomorphism of
    `_hom_maps(domain, mul, slots)`, in its order.

    A cyclic domain needs no walk: each label a of its one slot is one
    homomorphism (a,) (see the module docstring).
    """
    mgs = minimal_generating_set(domain)
    if len(mgs) == 1:
        return ((a,) for a in slots[0])
    return (_compose(mgs, full) for full in _hom_maps(domain, mul, slots))


def _hom_maps(domain: FiniteGroup, mul: Callable[[int, int], int],
              slots: Sequence[Iterable[int]],
              bijective: bool = False) -> Iterator[tuple[int, ...]]:
    """Full maps of the homomorphisms domain -> C that send each minimal
    generator m_j into slots[j], or of the bijective ones only, in the
    slots' order of the minimal generating set's images.

    What the walk needs from the codomain C: its elements as labels
    0, 1, ..., with 0 the identity; `mul`, the group product on those
    labels; and `slots`, one list of candidate images per minimal
    generator.  Slots that hold every label whose order divides their
    generator's (equals it, for a bijection) give every homomorphism; the
    other labels never pass and may be left out.  With one element per
    conjugacy class in the first slot, every homomorphism is conjugate to
    one walked.  A `FiniteGroup` gives its own product; the cosets of a
    normal subgroup give the quotient's product without the quotient group
    being built (`hom_image_lifts`).

    A depth-first walk over the generators' slots: the image of m_j runs
    the j-th step list of `_chain_steps` on the map built so far, and the
    walk goes deeper only when every edge check passes, so a bad prefix of
    images is never extended.  A bijection must also be injective on each
    chain subgroup, which prunes dependent prefixes; on an elementary
    abelian domain every tuple of equal-order images passes the edge
    checks, so this is the test that decides.
    """
    levels = _chain_steps(domain)
    f = [0] * domain.order
    images = [0] * len(levels)

    def walk(j: int) -> Iterator[tuple[int, ...]]:
        if j == len(levels):
            yield tuple(f)
            return
        steps, members = levels[j]
        for a in slots[j]:
            images[j] = a
            for target, source, i, check in steps:
                v = mul(f[source], images[i])
                if not check:
                    f[target] = v
                elif f[target] != v:
                    break
            else:
                if not bijective or len({f[x] for x in members}) == len(members):
                    yield from walk(j + 1)

    yield from walk(0)


def hom_image_lifts(domain: FiniteGroup, group: FiniteGroup, coset_of: Sequence[int],
                    reps: Sequence[int]) -> Iterator[int]:
    """For every homomorphism domain -> group/N, a lift to `group` of the
    image of each minimal generator of the domain, hom by hom.

    N is a normal subgroup given by its coset labels: x lies in coset
    coset_of[x], whose representative is reps[coset_of[x]], and N is coset
    0.  `_hom_images` runs on the labels with the product
    coset_of[reps[a] reps[b]], and the slot of a generator of order m holds
    the cosets r N with r^m in N, so no quotient group is built.  The lifts
    generate, together with N, the preimage of the subgroup of group/N that
    the images generate.  Left out of `__all__`: its one caller is
    `coreflections.radical`.
    """
    mul = group.mul
    slots = [[c for c, r in enumerate(reps) if coset_of[_power(mul, r, m)] == 0]
             for m in map(domain.element_order, minimal_generating_set(domain))]
    images = _hom_images(domain, lambda a, b: coset_of[mul(reps[a], reps[b])], slots)
    return (reps[a] for hom in images for a in hom)


@_memo
def _chain_steps(domain: FiniteGroup) -> list[_Level]:
    """Per generator gens[j] of the domain's minimal generating set, the
    steps that extend a map on H_{j-1} = <gens[:j]> to H_j = <gens[:j+1]>,
    and the members of H_j.

    A step (target, source, i, check) computes v = f(source) f(gens[i]).
    A defining step sets f(target) = v; the elements new to H_j are
    defined in the BFS order of H_j over gens[:j+1], each from its BFS
    parent.  A checking step requires f(target) = v, one for every Cayley
    edge (x, i) inside H_j that is neither a tree edge nor an edge of
    H_{j-1}; it comes right after the later of its two ends is defined.
    Since gens is a minimal generating set, gens[j] lies outside H_{j-1},
    so every such edge has an end new to H_j.
    """
    gens = minimal_generating_set(domain)
    mul = domain.mul
    levels = []
    mapped = {0}
    for j in range(len(gens)):
        order, pos, parent, edge = _bfs_order(0, gens[:j + 1], mul, domain.order + 1)
        rank = {x: r for r, x in enumerate(x for x in order if x not in mapped)}
        steps, tree = [], set()
        for x in rank:
            p, i = order[parent[pos[x]]], edge[pos[x]]
            steps.append([(x, p, i, False)])
            tree.add((p, i))
        for x in order:
            for i in range(j + 1) if x in rank else (j,):
                if (x, i) not in tree:
                    y = mul(x, gens[i])
                    steps[max(rank.get(x, -1), rank.get(y, -1))].append((y, x, i, True))
        levels.append(([step for group in steps for step in group], order))
        mapped.update(rank)
    return levels


def enumerate_homs(domain: FiniteGroup, codomain: FiniteGroup) -> list[Homomorphism]:
    """All homomorphisms domain -> codomain as a list (see iter_homs)."""
    return list(iter_homs(domain, codomain))


def hom_count(domain: FiniteGroup, codomain: FiniteGroup) -> int:
    """Number of homomorphisms: |Hom| = sum over the conjugacy classes of
    the codomain of |class(r)| N_r, where N_r counts the homomorphisms that
    send the first minimal generator m1 to the class's least element r."""
    slots = _slots(domain, codomain, classes=True)
    return sum(slots[0][hom[0]] if hom else 1  # the trivial domain has one hom
               for hom in _hom_images(domain, codomain.mul, slots))


def image(hom: Homomorphism) -> Subgroup:
    """Image subgroup of a homomorphism."""
    return subgroup_generated(hom.codomain, set(hom.full_map))


@_memo
def iso_invariants(g: FiniteGroup) -> tuple:
    """Order, abelian flag, element-order histogram and center size: equal
    for isomorphic groups, so groups that differ in them are not."""
    return g.order, g.is_abelian, g.order_histogram(), g.center_size()


def isomorphism(g: FiniteGroup, h: FiniteGroup) -> Homomorphism | None:
    """A bijective homomorphism g -> h, or None.

    Prefilters on `iso_invariants`, then returns the first bijection of the
    equal-order scan.
    """
    if g.order != h.order or iso_invariants(g) != iso_invariants(h):
        return None
    orders = h.element_orders()
    slots = [[y for y, o in enumerate(orders) if o == m]
             for m in map(g.element_order, minimal_generating_set(g))]
    full = next(_hom_maps(g, h.mul, slots, bijective=True), None)
    return None if full is None else _make_hom(g, h, full)


def isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """True iff a bijective homomorphism exists."""
    return isomorphism(g, h) is not None
