"""Socles, radicals and the class-membership predicates they decide.

The socle of a target under a generator is the subgroup generated by the
images of all homomorphisms out of the generator's factors; the radical
grows the socle through an ascending chain, pulling the quotient's socle
back through the projection until the quotient admits no nontrivial
homomorphism from any factor.  A generator with several factors stands
for their formal free product, whose homomorphisms are exactly tuples of
factor homomorphisms, so the socle is computed factor-wise and the free
product itself is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, Subgroup, _Closure, is_normal, quotient
from .homs import Homomorphism, iter_homs

__all__ = [
    "GeneratorSpec",
    "RadicalChain",
    "RadicalCheck",
    "HierarchyReport",
    "socle",
    "radical",
    "is_generated",
    "is_constructible",
    "verify_radical_property",
    "hierarchy_report",
]


@dataclass(frozen=True)
class GeneratorSpec:
    """A class generator: one group, or a formal free product of several."""

    factors: tuple[FiniteGroup, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("generator spec needs at least one factor")
        for f in self.factors:
            if f.order < 2:
                raise ValueError("generator factors must be nontrivial")

    @classmethod
    def of(cls, gen: "GeneratorSpec | FiniteGroup") -> "GeneratorSpec":
        if isinstance(gen, GeneratorSpec):
            return gen
        return cls((gen,))


@dataclass(frozen=True)
class RadicalChain:
    """Strictly ascending socle-pullback stages; the last one is the radical."""

    target: FiniteGroup
    stages: tuple[Subgroup, ...]

    @property
    def final(self) -> Subgroup:
        return self.stages[-1]

    @property
    def length(self) -> int:
        return len(self.stages)

    def stage_orders(self) -> tuple[int, ...]:
        return tuple(s.order for s in self.stages)


def socle(gen: GeneratorSpec | FiniteGroup, target: FiniteGroup) -> Subgroup:
    """Subgroup generated by the images of all homomorphisms from `gen`.

    Raises OrderBudgetExceeded when a factor is too large to enumerate
    homomorphisms from.  The closure takes each homomorphism's generator
    images as the enumeration yields them and stops enumerating once it is
    the whole target.  The result is always normal (conjugating a
    homomorphism yields another one), which is asserted before returning.
    """
    spec = GeneratorSpec.of(gen)
    images = (y for factor in spec.factors
              for hom in iter_homs(factor, target)
              for y in hom.gen_images)
    result = _Closure(target).extend(images).subgroup()
    if not is_normal(target, result):
        raise AssertionError("socle is not normal: hom enumeration is broken")
    return result


def radical(gen: GeneratorSpec | FiniteGroup, target: FiniteGroup) -> RadicalChain:
    """Ascending chain from the socle to the radical.

    Each step quotients by the current stage, takes the socle in the
    quotient, and pulls it back through the projection; the chain stops
    when the pulled-back socle is trivial, so each kept stage strictly
    increases and at most log2 |target| steps occur.
    """
    spec = GeneratorSpec.of(gen)
    current = socle(spec, target)
    stages = [current]
    while current.order < target.order:
        qmap = quotient(target, current)
        upstairs = socle(spec, qmap.target)
        if upstairs.order == 1:
            break
        members = frozenset(
            x for x in range(target.order) if qmap.projection[x] in upstairs.members
        )
        current = Subgroup(target, members, _checked=True)
        stages.append(current)
    return RadicalChain(target, tuple(stages))


def is_generated(gen: GeneratorSpec | FiniteGroup, target: FiniteGroup) -> bool:
    """True iff the socle is the whole group."""
    return socle(gen, target).order == target.order


def is_constructible(gen: GeneratorSpec | FiniteGroup, target: FiniteGroup) -> bool:
    """True iff the radical chain terminates at the whole group."""
    return radical(gen, target).final.order == target.order


@dataclass(frozen=True)
class RadicalCheck:
    """Outcome of the radical's universal property check on one target."""

    ok: bool
    quotient_order: int
    offender: Homomorphism | None

    def __bool__(self) -> bool:
        return self.ok


def verify_radical_property(gen: GeneratorSpec | FiniteGroup,
                            target: FiniteGroup) -> RadicalCheck:
    """Check that the quotient by the radical admits only trivial homs.

    Always expected to hold; a False result signals an implementation bug
    and carries the offending homomorphism as a witness.
    """
    spec = GeneratorSpec.of(gen)
    chain = radical(spec, target)
    qmap = quotient(target, chain.final)
    for factor in spec.factors:
        for hom in iter_homs(factor, qmap.target):
            if any(hom.full_map):
                return RadicalCheck(False, qmap.target.order, hom)
    return RadicalCheck(True, qmap.target.order, None)


@dataclass(frozen=True)
class HierarchyReport:
    """Socle and radical of one target, plus the membership predicates."""

    socle: Subgroup
    radical: Subgroup
    socle_in_radical: bool
    generated: bool
    constructible: bool
    chain_length: int


def hierarchy_report(gen: GeneratorSpec | FiniteGroup,
                     target: FiniteGroup) -> HierarchyReport:
    """Compute the inclusion picture for one generator/target pair."""
    chain = radical(gen, target)
    soc = chain.stages[0]
    rad = chain.final
    return HierarchyReport(
        socle=soc,
        radical=rad,
        socle_in_radical=soc.members <= rad.members,
        generated=soc.order == target.order,
        constructible=rad.order == target.order,
        chain_length=chain.length,
    )
