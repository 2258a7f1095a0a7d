"""Socles, radicals and the class-membership predicates they decide.

The socle of a target under a generator is the subgroup generated by the
images of all homomorphisms out of the generator's factors.  Conjugating a
homomorphism gives another, so the socle is the normal closure of the
images of the homomorphisms that send the first minimal generator to a
conjugacy-class representative (`homs.hom_class_images`).  The radical
grows the socle through an ascending chain: the next stage after N is the
preimage of the socle of G/N, which is N joined with lifts of the images
of all homomorphisms into G/N.  Those homomorphisms are found in G itself,
by the hom walk run on the cosets of N (`homs.hom_image_lifts`), so no
quotient group is built; the chain stops when a stage adds nothing.  By
Lagrange, the image of a homomorphism from a factor A into G/N has an
order dividing both |A| and [G:N], so a factor of order prime to the
index maps trivially and is not walked; once no factor is left, the chain
ends without labelling the cosets of N.  A generator with several factors
stands for their formal free product, whose homomorphisms are exactly
tuples of factor homomorphisms, so the socle is computed factor-wise and
the free product itself is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .groups import FiniteGroup, Subgroup, _Closure, _cosets, is_normal, quotient
from .homs import Homomorphism, hom_class_images, hom_image_lifts, iter_homs

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
    homomorphisms from.  Only the homomorphisms that send a factor's first
    minimal generator to a conjugacy-class representative are walked: the
    closure takes their generator images as the walk yields them, stops
    walking once it is the whole target, and is then closed under
    conjugation.  The result is normal, which is asserted before returning
    a proper subgroup; the whole target is normal by definition.
    """
    return _normal_stage(target, _socle_closure(GeneratorSpec.of(gen), target))


def _socle_closure(spec: GeneratorSpec, target: FiniteGroup) -> _Closure:
    images = (y for factor in spec.factors for y in hom_class_images(factor, target))
    return _Closure(target).extend(images).close_under_conjugation()


def _normal_stage(target: FiniteGroup, closure: _Closure) -> Subgroup:
    result = closure.subgroup()
    if result.order < target.order and not is_normal(target, result):
        raise AssertionError("stage is not normal: hom enumeration or normal closure is broken")
    return result


def radical(gen: GeneratorSpec | FiniteGroup, target: FiniteGroup) -> RadicalChain:
    """Ascending chain from the socle to the radical.

    The stage after N is the preimage of the socle of target/N: a fork of
    N's closure, extended by lifts of the images of every homomorphism from
    each factor into target/N.  `homs.hom_image_lifts` finds those
    homomorphisms on the cosets of N, labelled once per stage, so no
    quotient group is built.  By Lagrange, the image of a homomorphism
    from a factor A into target/N has an order dividing both |A| and
    [target:N], so when they are coprime it is trivial and A is not walked;
    when no factor is left, the chain ends before the cosets are labelled.
    The chain stops when a stage adds nothing, which is when target/N
    admits only trivial homomorphisms, or when it reaches the whole target;
    each kept stage is at least twice the one before, so at most
    log2 |target| steps occur.  Every proper stage is asserted normal, as
    the socle is.
    """
    spec = GeneratorSpec.of(gen)
    closure = _socle_closure(spec, target)
    stages = [_normal_stage(target, closure)]
    while not closure.is_whole:
        index = target.order // len(closure.members)
        factors = [f for f in spec.factors if math.gcd(f.order, index) > 1]
        if not factors:
            break
        coset_of, reps = _cosets(target, closure.members)
        grown = closure.fork().extend(
            y for factor in factors
            for y in hom_image_lifts(factor, target, coset_of, reps))
        if len(grown.members) == len(closure.members):
            break
        closure = grown
        stages.append(_normal_stage(target, closure))
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
    return radical_chain_check(spec, radical(spec, target))


def radical_chain_check(spec: GeneratorSpec, chain: RadicalChain) -> RadicalCheck:
    """`verify_radical_property` on a radical chain already built for `spec`.

    Left out of `__all__`: it serves callers that hold the chain, such as
    `cli verify`, so that the chain is not built twice.
    """
    qmap = quotient(chain.target, chain.final)
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
