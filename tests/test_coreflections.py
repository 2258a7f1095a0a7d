"""Socle, radical, and the invariants that tie them together."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cct


def brute_socle(gen_groups, target):
    """Oracle: generated subgroup of all brute-force hom images."""
    import itertools
    seeds = set()
    for a in gen_groups:
        for f in itertools.product(range(target.order), repeat=a.order):
            ok = all(
                f[a.mul(x, y)] == target.mul(f[x], f[y])
                for x in range(a.order) for y in range(a.order)
            )
            if ok:
                seeds.update(f)
    return cct.subgroup_generated(target, seeds)


# ---------------------------------------------------------------------------
# socle


def test_socle_z2_z4_against_brute_force(standard_groups):
    z2, z4 = standard_groups["z2"], standard_groups["z4"]
    sub = cct.socle(z2, z4)
    assert sub.sorted_members() == (0, 2)
    assert sub.members == brute_socle([z2], z4).members


def test_socle_z3_s3(standard_groups):
    z3, s3 = standard_groups["z3"], standard_groups["s3"]
    sub = cct.socle(z3, s3)
    assert sub.order == 3
    assert sub.members == brute_socle([z3], s3).members
    assert all(s3.element_order(x) in (1, 3) for x in sub.members)


def test_socle_a5_s5():
    a5, s5 = cct.alternating(5), cct.symmetric(5)
    sub = cct.socle(a5, s5)
    assert sub.order == 60
    assert s5.order // sub.order == 2
    assert cct.is_normal(s5, sub)


def test_socle_of_free_product_is_join_of_factor_socles(standard_groups):
    spec = cct.GeneratorSpec((standard_groups["z2"], standard_groups["z3"]))
    for key in ("z6", "s3", "d8", "a4", "q8"):
        target = standard_groups[key]
        joined = cct.subgroup_generated(
            target,
            cct.socle(standard_groups["z2"], target).members
            | cct.socle(standard_groups["z3"], target).members,
        )
        assert cct.socle(spec, target).members == joined.members


@functools.cache
def _socle_pairs():
    gens = [cct.cyclic(2), cct.cyclic(3), cct.abelian([2, 2]), cct.symmetric(3)]
    targets = [cct.symmetric(4), cct.dihedral(8), cct.quaternion(), cct.alternating(4),
               cct.cyclic(6), cct.abelian([2, 4]), cct.dihedral(12)]
    return gens, targets


@settings(max_examples=40)
@given(st.data())
def test_socle_is_closure_of_all_hom_images(data):
    gens, targets = _socle_pairs()
    factors = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2))
    target = data.draw(st.sampled_from(targets))
    images = set()
    for factor in factors:
        for hom in cct.enumerate_homs(factor, target):
            images.update(hom.full_map)
    expect = cct.subgroup_generated(target, images)
    assert cct.socle(cct.GeneratorSpec(tuple(factors)), target) == expect


def test_socle_stops_once_it_has_the_whole_target():
    # regression bound on work: the closure skips seeds it already holds and
    # the hom scan stops at the whole group (about 41k and 25k products)
    s7 = cct.symmetric(7)
    mul = s7.mul
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    s7.mul = counted
    for gen, order in ((cct.cyclic(3), 2520), (cct.symmetric(3), 5040)):
        calls = 0
        assert cct.socle(gen, s7).order == order
        assert calls < 100_000


def test_generator_spec_validation(standard_groups):
    with pytest.raises(ValueError):
        cct.GeneratorSpec(())
    with pytest.raises(ValueError):
        cct.GeneratorSpec((standard_groups["z1"],))
    spec = cct.GeneratorSpec.of(standard_groups["z2"])
    assert spec.factors == (standard_groups["z2"],)
    assert cct.GeneratorSpec.of(spec) is spec


# ---------------------------------------------------------------------------
# radical


def test_radical_z2_z4(standard_groups):
    chain = cct.radical(standard_groups["z2"], standard_groups["z4"])
    assert chain.stage_orders() == (2, 4)
    assert chain.length == 2


def test_radical_z3_s3(standard_groups):
    chain = cct.radical(standard_groups["z3"], standard_groups["s3"])
    assert chain.stage_orders() == (3,)
    assert chain.final.order == 3


def test_radical_of_trivial_target(standard_groups):
    chain = cct.radical(standard_groups["z2"], standard_groups["z1"])
    assert chain.stage_orders() == (1,)


@pytest.mark.parametrize("k", range(1, 7))
def test_radical_chain_length_on_cyclic_2_powers(k):
    chain = cct.radical(cct.cyclic(2), cct.cyclic(2**k))
    assert chain.length == k
    assert chain.stage_orders() == tuple(2**j for j in range(1, k + 1))


def test_radical_a5_s5():
    chain = cct.radical(cct.alternating(5), cct.symmetric(5))
    assert chain.final.order == 60
    assert chain.length == 1


# ---------------------------------------------------------------------------
# predicates


def test_is_generated_examples(standard_groups):
    assert cct.is_generated(standard_groups["z2"], standard_groups["s3"])
    assert not cct.is_generated(standard_groups["z2"], standard_groups["z4"])
    assert cct.is_generated(standard_groups["s3"], standard_groups["s3"])


def test_is_constructible_examples(standard_groups):
    assert cct.is_constructible(standard_groups["z2"], standard_groups["z4"])
    assert not cct.is_constructible(standard_groups["z3"], standard_groups["s3"])
    assert cct.is_constructible(standard_groups["z2"], standard_groups["z1"])


def test_verify_radical_property_examples(standard_groups):
    chk = cct.verify_radical_property(standard_groups["z2"], standard_groups["z4"])
    assert chk.ok and chk.quotient_order == 1
    chk = cct.verify_radical_property(standard_groups["z3"], standard_groups["s3"])
    assert chk.ok and chk.quotient_order == 2
    assert bool(chk)


def test_verify_radical_property_a5_s5():
    chk = cct.verify_radical_property(cct.alternating(5), cct.symmetric(5))
    assert chk.ok and chk.quotient_order == 2


def test_hierarchy_report_examples(standard_groups):
    rep = cct.hierarchy_report(standard_groups["z2"], standard_groups["z4"])
    assert rep.socle.order == 2 and rep.radical.order == 4
    assert rep.socle_in_radical and not rep.generated and rep.constructible
    assert rep.chain_length == 2

    rep = cct.hierarchy_report(standard_groups["z2"], standard_groups["z1"])
    assert rep.socle.order == rep.radical.order == 1
    assert rep.generated and rep.constructible

    rep = cct.hierarchy_report(cct.alternating(5), cct.symmetric(5))
    assert rep.socle.order == rep.radical.order == 60
    assert not rep.generated and not rep.constructible


# ---------------------------------------------------------------------------
# corpus invariants


GEN_KEYS = ("z2", "z3", "z4", "s3")


def test_corpus_normality_and_containment(standard_groups, catalog8):
    for key in GEN_KEYS:
        gen = standard_groups[key]
        for entry in catalog8:
            chain = cct.radical(gen, entry.group)
            soc, rad = chain.stages[0], chain.final
            assert soc.members <= rad.members, (key, entry.name)
            assert cct.is_normal(entry.group, soc), (key, entry.name)
            for stage in chain.stages:
                assert cct.is_normal(entry.group, stage), (key, entry.name)


def test_corpus_idempotence(standard_groups, catalog8):
    for key in GEN_KEYS:
        gen = standard_groups[key]
        for entry in catalog8:
            chain = cct.radical(gen, entry.group)
            soc, rad = chain.stages[0], chain.final
            assert cct.socle(gen, soc.as_group()).order == soc.order, (key, entry.name)
            assert cct.radical(gen, rad.as_group()).final.order == rad.order, (key, entry.name)


def test_corpus_chain_shape(standard_groups, catalog8):
    for key in GEN_KEYS:
        gen = standard_groups[key]
        for entry in catalog8:
            chain = cct.radical(gen, entry.group)
            orders = chain.stage_orders()
            assert all(b >= 2 * a for a, b in zip(orders, orders[1:]))
            assert chain.length - 1 <= math.log2(entry.group.order or 1)


def test_corpus_stabilization(standard_groups, catalog8):
    # one more step after termination changes nothing: the quotient by the
    # final stage has trivial socle
    for key in GEN_KEYS:
        gen = standard_groups[key]
        for entry in catalog8:
            chain = cct.radical(gen, entry.group)
            qm = cct.quotient(entry.group, chain.final)
            assert cct.socle(gen, qm.target).order == 1, (key, entry.name)


def test_corpus_quotient_triviality(standard_groups, catalog8):
    for key in GEN_KEYS:
        gen = standard_groups[key]
        for entry in catalog8:
            assert cct.verify_radical_property(gen, entry.group).ok, (key, entry.name)


def test_corpus_functoriality(standard_groups, catalog8):
    entries = [e for e in catalog8 if e.group.order <= 8]
    gens = [standard_groups[k] for k in GEN_KEYS]
    stages = {}
    for gen in gens:
        for e in entries:
            chain = cct.radical(gen, e.group)
            stages[(id(gen), e.name)] = (chain.stages[0], chain.final)
    for src in entries:
        for dst in entries:
            homs = cct.enumerate_homs(src.group, dst.group)
            for gen in gens:
                s_src, t_src = stages[(id(gen), src.name)]
                s_dst, t_dst = stages[(id(gen), dst.name)]
                for f in homs:
                    assert {f.full_map[x] for x in s_src.members} <= s_dst.members
                    assert {f.full_map[x] for x in t_src.members} <= t_dst.members
