"""Socle, radical, and the invariants that tie them together."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cct
from test_groups import random_groups


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


@settings(max_examples=40)
@given(st.data())
def test_socle_of_cyclic_is_generated_by_torsion(data):
    # a hom Z/n -> G is the choice of one y with y^n = 1
    n = data.draw(st.integers(2, 6))
    degree = data.draw(st.integers(1, 5))
    perms = st.permutations(range(degree)).map(tuple)
    group = cct.from_permutations(data.draw(st.lists(perms, min_size=1, max_size=3)), degree)
    torsion = [x for x in range(group.order) if n % group.element_order(x) == 0]
    assert cct.socle(cct.cyclic(n), group) == cct.subgroup_generated(group, torsion)


def full_walk_radical(factors, target):
    """Oracle: the radical chain with every hom found by the full `iter_homs`
    walk, into the target and into each quotient by the last stage."""
    def image_closure(group):
        images = {y for f in factors for hom in cct.iter_homs(f, group) for y in hom.full_map}
        return cct.subgroup_generated(group, images)

    stages = [image_closure(target)]
    while stages[-1].order < target.order:
        qmap = cct.quotient(target, stages[-1])
        upstairs = image_closure(qmap.target).members
        stage = cct.Subgroup(
            target, [x for x in range(target.order) if qmap.projection[x] in upstairs])
        if stage.order == stages[-1].order:
            break
        stages.append(stage)
    return stages


# abelian([2, 3]) is cyclic, but neither stored generator is its m1
CYCLIC_GENERATORS = {"z2": (cct.cyclic(2),), "z3": (cct.cyclic(3),), "z4": (cct.cyclic(4),),
                     "z6": (cct.cyclic(6),), "z2xz3": (cct.abelian([2, 3]),),
                     "z2*z4": (cct.cyclic(2), cct.cyclic(4))}


def _long_chain_groups():
    """Z/16 on a table and Z/8 on permutations: under Z/2 their chains have
    a stage for every power of 2, which drawn groups of degree 5 lack."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 0)
        z8 = cct.from_permutations([(1, 2, 3, 4, 5, 6, 7, 0)], 8)
    return [cct.cyclic(16), z8]


@settings(max_examples=80)
@given(random_groups() | st.sampled_from(_long_chain_groups()),
       st.sampled_from(sorted(CYCLIC_GENERATORS)))
def test_cyclic_generators_skip_the_walk_and_match_it(group, key):
    # Hom(Z/n, G) is the set of y with y^n = 1, read off without a walk
    factors = CYCLIC_GENERATORS[key]
    assert all(len(cct.minimal_generating_set(f)) == 1 for f in factors)
    for f in factors:
        assert cct.hom_count(f, group) == sum(1 for _ in cct.iter_homs(f, group)), key
    chain = cct.radical(cct.GeneratorSpec(factors), group)
    assert list(chain.stages) == full_walk_radical(factors, group), key
    assert cct.socle(cct.GeneratorSpec(factors), group) == chain.stages[0]


def test_cyclic_factors_dividing_another_are_not_walked(monkeypatch, catalog24):
    # Z/a is a quotient of Z/b when a | b, so its homs are among Z/b's
    walked = []
    images, lifts = cct.coreflections.hom_class_images, cct.coreflections.hom_image_lifts

    def counting_images(domain, target):
        walked.append(domain.order)
        return images(domain, target)

    def counting_lifts(domain, *args):
        walked.append(domain.order)
        return lifts(domain, *args)

    monkeypatch.setattr(cct.coreflections, "hom_class_images", counting_images)
    monkeypatch.setattr(cct.coreflections, "hom_image_lifts", counting_lifts)
    spec = cct.truncated_generator(2, 3)
    for entry in catalog24:
        cct.radical(spec, entry.group)
    assert set(walked) == {8}
    # of the equal Z/6 and abelian([2, 3]) the last is kept; Z/3 divides 6
    factors = (cct.cyclic(4), cct.symmetric(3), cct.cyclic(6), cct.abelian([2, 3]), cct.cyclic(3))
    walked.clear()
    z12 = cct.cyclic(12)  # the socle is whole only after the last walked factor
    images_of_all = {y for f in factors for hom in cct.iter_homs(f, z12) for y in hom.full_map}
    assert cct.socle(cct.GeneratorSpec(factors), z12) == cct.subgroup_generated(z12, images_of_all)
    assert walked == [4, 6, 6]


def test_a_factor_repeated_as_one_object_is_walked_once(monkeypatch):
    # freeprod g, g has the homs of g twice over, so the same images; the
    # JSON echo still lists both factors
    env = cct.specfile.parse_spec_text("group g = symmetric 3\ngenspec t = freeprod g, g\n")
    g, t = env["g"], env["t"]
    assert t.factors == (g, g) and t.factors[0] is t.factors[1]
    walked = []
    images, lifts = cct.coreflections.hom_class_images, cct.coreflections.hom_image_lifts

    def counting_images(domain, target):
        walked.append(domain)
        return images(domain, target)

    def counting_lifts(domain, *args):
        walked.append(domain)
        return lifts(domain, *args)

    monkeypatch.setattr(cct.coreflections, "hom_class_images", counting_images)
    monkeypatch.setattr(cct.coreflections, "hom_image_lifts", counting_lifts)
    for target in (cct.cyclic(8), cct.symmetric(4), cct.dihedral(12)):
        walked.clear()
        alone = cct.socle(g, target), cct.radical(g, target).stages
        walked_alone = list(walked)
        walked.clear()
        assert (cct.socle(t, target), cct.radical(t, target).stages) == alone
        assert walked == walked_alone and all(f is g for f in walked)
    assert cct.radical(t, cct.cyclic(8)).stage_orders() == (2, 4, 8)  # stages 2, 3 walk lifts


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


def test_socle_closure_stops_by_lagrange():
    # socle(Z/2, S7) is S7: once the union of cosets passes n/p elements,
    # p the least prime dividing [G : H], the closure is whole, so the last
    # coset step multiplies under half of S7 (all 5038 other elements
    # without the stop)
    s7 = cct.symmetric(7)
    mul_row = s7.mul_row
    products = 0

    def counted(x, ys):
        nonlocal products
        ys = list(ys)
        products += len(ys)
        return mul_row(x, ys)

    s7.mul_row = counted
    assert cct.socle(cct.cyclic(2), s7).order == 5040
    assert 0 < products < s7.order // 2


def test_socle_checks_normality_only_of_a_proper_subgroup(monkeypatch):
    # the stage check applies the normality rule to the closure's own
    # accepted generators, not through `is_normal`
    s5 = cct.symmetric(5)
    calls = []
    normal = cct.groups._normal

    def counting(group, members, gens):
        if group is s5:
            calls.append(list(gens))
        return normal(group, members, gens)

    monkeypatch.setattr(cct.groups, "_normal", counting)
    monkeypatch.setattr(cct.groups, "is_normal", lambda group, sub: pytest.fail("is_normal"))
    assert cct.socle(cct.cyclic(2), s5).order == 120
    assert calls == []
    assert cct.socle(cct.cyclic(3), s5).order == 60
    assert len(calls) == 1 and 0 < len(calls[0]) <= 5  # at most log2 60 generators

    # a stage that is not normal is caught
    s3 = cct.symmetric(3)
    transposition = next(x for x in range(1, 6) if s3.element_order(x) == 2)
    closure = cct.groups._Closure(s3).extend([transposition])
    with pytest.raises(AssertionError, match="not normal"):
        cct.coreflections._normal_stage(s3, closure)


def test_socle_reads_the_hom_domain_budget(monkeypatch):
    monkeypatch.setattr(cct.config, "HOM_DOMAIN_MAX", 4)
    with pytest.raises(cct.errors.OrderBudgetExceeded, match="hom enumeration domain"):
        cct.socle(cct.cyclic(6), cct.symmetric(3))
    assert cct.socle(cct.cyclic(4), cct.symmetric(3)).order == 6


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


def quotient_radical(spec, target):
    """Reference chain, built the way the radical used to be: quotient by the
    current stage, take the socle there, pull it back through the projection."""
    current = cct.socle(spec, target)
    stages = [current]
    while current.order < target.order:
        qmap = cct.quotient(target, current)
        upstairs = cct.socle(spec, qmap.target)
        if upstairs.order == 1:
            break
        current = cct.Subgroup(
            target, [x for x in range(target.order) if qmap.projection[x] in upstairs.members])
        stages.append(current)
    return [stage.members for stage in stages]


CHAIN_GENERATORS = {"z2": cct.cyclic(2), "z3": cct.cyclic(3), "z4": cct.cyclic(4),
                    "s3": cct.symmetric(3),
                    "z2*z3": cct.GeneratorSpec((cct.cyclic(2), cct.cyclic(3)))}


@settings(max_examples=60)
@given(st.data())
def test_radical_matches_quotient_built_chain(data):
    degree = data.draw(st.integers(1, 5))
    perms = st.permutations(range(degree)).map(tuple)
    group = cct.from_permutations(data.draw(st.lists(perms, min_size=1, max_size=3)), degree)
    key = data.draw(st.sampled_from(sorted(CHAIN_GENERATORS)))
    spec = CHAIN_GENERATORS[key]
    stages = [stage.members for stage in cct.radical(spec, group).stages]
    assert stages == quotient_radical(spec, group), key


def test_radical_matches_quotient_built_chain_on_catalog(catalog24):
    for key, spec in CHAIN_GENERATORS.items():
        for entry in catalog24:
            stages = [stage.members for stage in cct.radical(spec, entry.group).stages]
            assert stages == quotient_radical(spec, entry.group), (key, entry.name)


@settings(max_examples=40)
@given(st.data())
def test_every_hom_maps_socle_and_radical_into_their_images(data):
    # functoriality along the full hom walk, the reference for the walk up to
    # conjugacy that check_invariants runs
    groups = []
    for _ in range(2):
        degree = data.draw(st.integers(1, 4))
        perms = st.permutations(range(degree)).map(tuple)
        groups.append(cct.from_permutations(data.draw(st.lists(perms, min_size=1, max_size=2)),
                                            degree))
    key = data.draw(st.sampled_from(sorted(CHAIN_GENERATORS)))
    spec = CHAIN_GENERATORS[key]
    (s_src, r_src), (s_dst, r_dst) = [(chain.stages[0].members, chain.final.members)
                                      for chain in (cct.radical(spec, g) for g in groups)]
    for hom in cct.enumerate_homs(*groups):
        assert {hom(x) for x in s_src} <= s_dst, (key, hom.gen_images)
        assert {hom(x) for x in r_src} <= r_dst, (key, hom.gen_images)
    catalog = cct.Catalog(cct.CatalogEntry(name, g, "drawn") for name, g in zip("AB", groups))
    assert cct.check_invariants([(key, spec)], catalog)[1] == []


def test_check_invariants_reports_a_planted_wrong_socle(monkeypatch):
    # z4's socle under z2 is {0, 2}; with the trivial subgroup planted in its
    # place, every hom onto {0, 2} from a group whose socle is whole breaks
    # functoriality, and nothing else fails
    catalog = cct.build_small_catalog(4)
    z4 = catalog.get("z4").group
    radical = cct.coreflections.radical

    def planted(gen, target):
        chain = radical(gen, target)
        if target is not z4:
            return chain
        return cct.RadicalChain(target, (cct.Subgroup(target, [0]),) + chain.stages[1:])

    monkeypatch.setattr(cct.coreflections, "radical", planted)
    checks, failures = cct.check_invariants([("z2", cct.cyclic(2))], catalog)
    assert checks == 7 * 7 + 7 * 7
    assert [f["target"] for f in failures] == ["z2->z4", "ab2x2->z4", "d2->z4", "d4->z4"]
    assert {f["check"] for f in failures} == {"socle-functoriality"}
    assert failures[0] == {"check": "socle-functoriality", "gen": "z2", "target": "z2->z4",
                           "witness": "gen images (2,)"}
    assert all(f["witness"].startswith("gen images (") for f in failures)


def cyclic_subgroup(group, order):
    """The subgroup of the cyclic group with this order."""
    return cct.subgroup_generated(
        group, [next(x for x in range(group.order) if group.element_order(x) == order)])


@pytest.mark.parametrize("n,orders,failures", [
    # Z/24 under Z/2: a socle outside the radical can only be planted
    # together with another fault, here a socle that is not its own socle
    (24, (3, 8), [("socle-in-radical", "socle order 3 not inside radical order 8"),
                  ("socle-idempotence", "socle order 3")]),
    (16, (2, 2, 4, 8, 16), [("chain-doubling", "stage orders (2, 2, 4, 8, 16)")]),
    # a chain too long for log2 |G| cannot keep doubling
    (16, (2, 2, 2, 4, 8, 16), [("chain-doubling", "stage orders (2, 2, 2, 4, 8, 16)"),
                               ("chain-length", "6 stages")]),
    (16, (2, 4, 8), [("quotient-triviality", "hom with images (1,)")]),
    (16, (4, 8, 16), [("socle-idempotence", "socle order 4")]),
    (15, (1, 3), [("radical-idempotence", "radical order 3")]),
])
def test_check_invariants_reports_each_planted_fault(monkeypatch, n, orders, failures):
    # one cyclic target of order above 12, so no functoriality check runs;
    # its true chain under Z/2 passes every check
    target = cct.cyclic(n)
    catalog = cct.Catalog([cct.CatalogEntry(f"z{n}", target, f"cyclic {n}")])
    spec = [("z2", cct.cyclic(2))]
    assert cct.check_invariants(spec, catalog) == (7, [])
    planted = cct.RadicalChain(target, tuple(cyclic_subgroup(target, k) for k in orders))
    radical = cct.coreflections.radical
    monkeypatch.setattr(cct.coreflections, "radical",
                        lambda gen, group: planted if group is target else radical(gen, group))
    checks, found = cct.check_invariants(spec, catalog)
    assert checks == 7
    assert found == [{"check": check, "gen": "z2", "target": f"z{n}", "witness": witness}
                     for check, witness in failures]


def test_radical_skips_factors_coprime_to_the_index(monkeypatch):
    # a hom from A into G/N has image order dividing gcd(|A|, [G:N])
    labelled, walked = [], []
    cosets, lifts = cct.coreflections._cosets, cct.coreflections.hom_image_lifts

    def counting_cosets(group, members):
        labelled.append(len(members))
        return cosets(group, members)

    def counting_lifts(domain, *args):
        walked.append(domain.order)
        return lifts(domain, *args)

    monkeypatch.setattr(cct.coreflections, "_cosets", counting_cosets)
    monkeypatch.setattr(cct.coreflections, "hom_image_lifts", counting_lifts)
    for degree in (4, 6):
        chain = cct.radical(cct.cyclic(3), cct.symmetric(degree))
        assert chain.stage_orders() == (math.factorial(degree) // 2,)  # A4, A6
    assert labelled == walked == []

    spec = cct.GeneratorSpec((cct.cyclic(2), cct.cyclic(3)))
    assert cct.radical(spec, cct.cyclic(8)).stage_orders() == (2, 4, 8)
    assert labelled == [2, 4]
    assert walked == [2, 2]


@pytest.mark.parametrize("orders", [(4, 9), (5,)])
def test_radical_with_factors_often_coprime_to_the_index(orders, catalog24):
    spec = cct.GeneratorSpec(tuple(cct.cyclic(n) for n in orders))
    for entry in catalog24:
        stages = [stage.members for stage in cct.radical(spec, entry.group).stages]
        assert stages == quotient_radical(spec, entry.group), entry.name


def test_radical_is_least_normal_subgroup_with_hom_free_quotient(standard_groups, catalog24):
    # co-reflectivity: the radical is the intersection of all normal N such
    # that every hom from the generator into G/N is trivial
    for entry in catalog24:
        group = entry.group
        normal = [sub for sub in cct.all_subgroups(group) if cct.is_normal(group, sub)]
        for key in GEN_KEYS:
            gen = standard_groups[key]
            meet = frozenset(range(group.order))
            for sub in normal:
                if cct.socle(gen, cct.quotient(group, sub).target).order == 1:
                    meet &= sub.members
            assert meet == cct.radical(gen, group).final.members, (key, entry.name)


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


# ---------------------------------------------------------------------------
# cross-generator laws: A is B-generated iff S_A(G) <= S_B(G) for every G,
# and A is B-constructible iff R_A(G) <= R_B(G) for every G.  One way, an
# image of A is an image of a B-generated group (a group with only trivial
# homs from B has only trivial homs from A); the other way, take G = A.


def test_generators_are_ordered_by_their_socles_and_radicals(catalog24):
    gens = [e.group for e in catalog24 if 2 <= e.group.order <= 12]
    assert len(gens) == 30
    targets = [e.group for e in catalog24]
    socles = [[cct.socle(a, g).members for g in targets] for a in gens]
    radicals = [[cct.radical(a, g).final.members for g in targets] for a in gens]
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            assert cct.is_generated(b, a) == all(
                s_a <= s_b for s_a, s_b in zip(socles[i], socles[j])), (i, j)
            assert cct.is_constructible(b, a) == all(
                r_a <= r_b for r_a, r_b in zip(radicals[i], radicals[j])), (i, j)


@settings(max_examples=60)
@given(random_groups().filter(lambda g: g.order > 1),
       random_groups().filter(lambda g: g.order > 1), random_groups())
def test_generator_laws_on_random_groups(a, b, g):
    # the laws' forward implications over G = A, B and one more group; the
    # converses, at G = A, restate the definitions of is_generated and
    # is_constructible
    for target in (a, b, g):
        if cct.is_generated(b, a):
            assert cct.socle(a, target).members <= cct.socle(b, target).members
        if cct.is_constructible(b, a):
            assert (cct.radical(a, target).final.members
                    <= cct.radical(b, target).final.members)


# ---------------------------------------------------------------------------
# the classes' closure laws: A-generated groups are closed under quotients,
# A-constructible groups under quotients and extensions, and R_A(G) is the
# largest A-constructible normal subgroup of G.  Each law ties socle,
# radical, quotient and as_group together, through member sets.


def normal_sections(group):
    """(N, N as a group, G/N) for each normal subgroup N of `group`."""
    return [(n, n.as_group(), cct.quotient(group, n).target)
            for n in cct.all_subgroups(group) if cct.is_normal(group, n)]


def assert_closure_laws(a, g, sections):
    """Q-gen, Q-con, E-con and R-largest over each (N, N, G/N) of
    `sections`, and R-con."""
    generated = cct.is_generated(a, g)
    top = cct.radical(a, g).final
    constructible = top.order == g.order
    assert cct.is_constructible(a, top.as_group())  # R-con
    for n, n_group, q in sections:
        n_con, q_con = cct.is_constructible(a, n_group), cct.is_constructible(a, q)
        assert not generated or cct.is_generated(a, q)  # Q-gen
        assert not constructible or q_con  # Q-con
        assert not (n_con and q_con) or constructible  # E-con
        assert not n_con or n.members <= top.members  # R-largest


def test_generated_and_constructible_groups_keep_their_closure_laws():
    catalog = cct.build_small_catalog(16)
    gens = [e.group for e in catalog if 2 <= e.group.order <= 12]
    assert len(gens) == 30
    sections = [(e.group, normal_sections(e.group)) for e in catalog]
    for a in gens:
        for g, normals in sections:
            assert_closure_laws(a, g, normals)


@settings(max_examples=40)
@given(random_groups(), st.sampled_from(sorted(CHAIN_GENERATORS)))
def test_closure_laws_on_random_groups(g, key):
    assert_closure_laws(CHAIN_GENERATORS[key], g, normal_sections(g))


def test_generated_groups_are_not_closed_under_extensions(standard_groups):
    # Z/4 over its Z/2 is an extension of a Z/2-generated group by another,
    # and Z/2-constructible, but its one image of Z/2 has order 2
    z2, z4 = standard_groups["z2"], standard_groups["z4"]
    n = cct.subgroup_generated(z4, [x for x in range(4) if z4.element_order(x) == 2])
    assert n.order == 2 and cct.is_normal(z4, n)
    assert cct.is_generated(z2, n.as_group())
    assert cct.is_generated(z2, cct.quotient(z4, n).target)
    assert cct.is_constructible(z2, z4)
    assert not cct.is_generated(z2, z4)
    assert cct.socle(z2, z4).members == n.members
