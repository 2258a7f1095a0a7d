"""Socles, radicals and the class-membership predicates they decide.

The socle of a target under a generator is the subgroup generated by the
images of all homomorphisms out of the generator's factors.  Conjugating a
homomorphism gives another, so the socle is the normal closure of the
images of the homomorphisms walked up to conjugacy
(`homs.hom_class_images`).  The radical grows the socle through an
ascending chain: the next stage after N is the preimage of the socle of
G/N, which is N joined with lifts of the images of all homomorphisms into
G/N.  Those homomorphisms are found in G itself, by the hom walk run on
the cosets of N (`homs.hom_image_lifts`), so no quotient group is built;
the chain stops when a stage adds nothing.  By Lagrange, the image of a
homomorphism from a factor A into G/N has an order dividing both |A| and
[G:N], so a factor of order prime to the index maps trivially and is not
walked; once no factor is left, the chain ends without labelling the
cosets of N.  Both read a cyclic factor's homomorphisms off its slot with
no walk (see `homs`).  A generator with several factors stands for their
formal free product, whose homomorphisms are exactly tuples of factor
homomorphisms, so the socle is computed factor-wise and the free product
itself is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .groups import (FiniteGroup, Subgroup, _Closure, _compose, _cosets, _generating_set,
                     _normal_stage, is_normal, quotient)
from .homs import (Homomorphism, hom_class_images, hom_class_walk, hom_image_lifts, iter_homs,
                   minimal_generating_set)

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
    "check_invariants",
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
    homomorphisms from.  The closure takes the images of the homomorphisms
    walked up to conjugacy as the walk yields them, stops walking once it
    is the whole target, and is then closed under conjugation.  The result
    is normal, which is asserted before returning a proper subgroup; the
    whole target is normal by definition.
    """
    return _normal_stage(target, _socle_closure(_walked_factors(GeneratorSpec.of(gen)), target))


def _walked_factors(spec: GeneratorSpec) -> list[FiniteGroup]:
    """The factors whose homomorphisms the socle and radical walk.

    A cyclic factor Z/a is a quotient of a cyclic factor Z/b when a divides
    b, so every homomorphism out of Z/a is one out of Z/b and adds no
    image: it is left out, and of equal cyclic factors only the last is
    kept.  Of a truncated generator Z/p * ... * Z/p^k only Z/p^k is walked.
    Z/b's order is a multiple of Z/a's, so the coprime stop of `radical`
    and the domain budget treat the two alike.  A factor that is the same
    object as a later one, cyclic or not, adds nothing either, and only its
    last copy is walked.
    """
    last = {id(f): i for i, f in enumerate(spec.factors)}
    cyclic = {i: f.order for i, f in enumerate(spec.factors)
              if len(minimal_generating_set(f)) == 1}

    def covered(i: int) -> bool:
        a = cyclic.get(i)
        return a is not None and any(j != i and b % a == 0 and (b > a or j > i)
                                     for j, b in cyclic.items())

    return [f for i, f in enumerate(spec.factors)
            if last[id(f)] == i and not covered(i)]


def _socle_closure(factors: list[FiniteGroup], target: FiniteGroup) -> _Closure:
    images = (y for factor in factors for y in hom_class_images(factor, target))
    return _Closure(target).extend(images).close_under_conjugation()


def radical(gen: GeneratorSpec | FiniteGroup, target: FiniteGroup) -> RadicalChain:
    """Ascending chain from the socle to the radical.

    The stage after N is a fork of N's closure, extended by lifts of the
    images of every homomorphism into target/N from each factor not
    coprime to [target:N], found on the cosets of N, which are labelled
    once per stage.  The chain stops when a stage adds nothing, which is
    when target/N admits only trivial homomorphisms, or when it reaches the
    whole target; each kept stage is at least twice the one before, so at
    most log2 |target| steps occur.  Every proper stage is asserted normal,
    as the socle is.
    """
    walked = _walked_factors(GeneratorSpec.of(gen))
    closure = _socle_closure(walked, target)
    stages = [_normal_stage(target, closure)]
    while not closure.is_whole:
        index = target.order // len(closure.members)
        factors = [f for f in walked if math.gcd(f.order, index) > 1]
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

    Left out of `__all__`: it serves `check_invariants`, which holds the
    chain, so that the chain is not built twice.
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


def check_invariants(gens: list[tuple[str, GeneratorSpec | FiniteGroup]],
                     catalog) -> tuple[int, list[dict]]:
    """Check the co-reflection invariants exactly: the number of checks and
    the failures, each a dict of `check`, `gen`, `target` and `witness`.

    Seven checks per named generator and catalog entry: the socle lies in
    the radical, both are normal, each stage at least doubles the last, the
    chain has at most log2 |G| + 1 stages, G/radical admits only trivial
    homs, and both are idempotent (a trivial or whole stage is, and G/G
    admits only trivial homs, so those pass unworked).  `Subgroup.as_group`
    builds each distinct proper stage of an entry as a group once, and
    every generator's idempotence checks reuse it.  One check per generator and
    ordered pair (A, B) of entries of order at most 12: every hom A -> B
    maps S(A) into S(B) and R(A) into R(B).  These are normal, so
    only the homs up to conjugacy (`homs.hom_class_walk`) map the stages'
    generators; a trivial source stage or a whole target needs no hom.
    The normality checks, `as_group` and these maps share each stage's one
    generating set (`groups._generating_set`).
    """
    specs = [(name, GeneratorSpec.of(gen)) for name, gen in gens]
    entries = list(catalog)
    failures: list[dict] = []

    def fail(check: str, gen: str, target: str, witness: str):
        failures.append({"check": check, "gen": gen, "target": target, "witness": witness})

    stages = []  # per generator, per entry: (socle, radical)
    for gen_name, spec in specs:
        stages.append([])
        for entry in entries:
            group = entry.group
            chain = radical(spec, group)
            soc, rad = chain.stages[0], chain.final
            stages[-1].append((soc, rad))
            if not soc.members <= rad.members:
                fail("socle-in-radical", gen_name, entry.name,
                     f"socle order {soc.order} not inside radical order {rad.order}")
            if not (is_normal(group, soc) and is_normal(group, rad)):
                fail("normality", gen_name, entry.name, "stage not normal")
            orders = chain.stage_orders()
            if any(b < 2 * a for a, b in zip(orders, orders[1:])):
                fail("chain-doubling", gen_name, entry.name, f"stage orders {orders}")
            if chain.length - 1 > math.log2(max(group.order, 1)):
                fail("chain-length", gen_name, entry.name, f"{chain.length} stages")
            if rad.order < group.order:
                chk = radical_chain_check(spec, chain)
                if not chk.ok:
                    fail("quotient-triviality", gen_name, entry.name,
                         f"hom with images {chk.offender.gen_images}")
            if 1 < soc.order < group.order and socle(spec, soc.as_group()).order != soc.order:
                fail("socle-idempotence", gen_name, entry.name, f"socle order {soc.order}")
            if (1 < rad.order < group.order
                    and radical(spec, rad.as_group()).final.order != rad.order):
                fail("radical-idempotence", gen_name, entry.name, f"radical order {rad.order}")

    small = [i for i, entry in enumerate(entries) if entry.group.order <= 12]
    names = ("socle-functoriality", "radical-functoriality")
    seeds = {(k, i): [_generating_set(stage) for stage in stages[k][i]]
             for k in range(len(specs)) for i in small}
    for a in small:
        for b in small:
            src, dst = entries[a], entries[b]
            todo = [(k, names[kind], source, stages[k][b][kind].members)
                    for k in range(len(specs))
                    for kind, source in enumerate(seeds[k, a])
                    if source and stages[k][b][kind].order < dst.group.order]
            for full in hom_class_walk(src.group, dst.group) if todo else ():
                for item in todo:
                    k, check, source, members = item
                    if not members.issuperset(_compose(source, full)):
                        fail(check, specs[k][0], f"{src.name}->{dst.name}",
                             f"gen images {_compose(src.group.generators, full)}")
                        todo = [other for other in todo if other is not item]
                if not todo:
                    break

    checks = 7 * len(specs) * len(entries) + len(specs) * len(small) ** 2
    return checks, failures
