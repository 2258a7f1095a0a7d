"""Homomorphism enumeration against brute-force oracles."""

import itertools
import math
import re

import pytest

import cct
from cct.errors import OrderBudgetExceeded


def brute_force_hom_maps(a, h):
    """Oracle: every function a -> h, kept iff multiplicative everywhere."""
    maps = set()
    for f in itertools.product(range(h.order), repeat=a.order):
        ok = True
        for x in range(a.order):
            fx = f[x]
            for y in range(a.order):
                if f[a.mul(x, y)] != h.mul(fx, f[y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            maps.add(f)
    return maps


# ---------------------------------------------------------------------------
# minimal generating sets


def test_minimal_generating_set_sizes(standard_groups):
    assert cct.minimal_generating_set(standard_groups["z6"]) == (1,)
    assert len(cct.minimal_generating_set(standard_groups["v4"])) == 2
    assert len(cct.minimal_generating_set(standard_groups["s3"])) == 2
    assert cct.minimal_generating_set(standard_groups["z1"]) == ()


def test_minimal_generating_set_no_singleton_for_v4(standard_groups):
    v4 = standard_groups["v4"]
    for x in range(4):
        assert cct.subgroup_generated(v4, [x]).order < 4


def test_minimal_generating_set_scan_order(standard_groups):
    # candidates are ordered by element order descending, index ascending
    z6 = standard_groups["z6"]
    first = cct.minimal_generating_set(z6)[0]
    assert z6.element_order(first) == 6


# ---------------------------------------------------------------------------
# enumeration vs oracle


def test_hom_z2_to_s3(standard_groups):
    homs = cct.enumerate_homs(standard_groups["z2"], standard_groups["s3"])
    oracle = brute_force_hom_maps(standard_groups["z2"], standard_groups["s3"])
    assert len(homs) == 4
    assert {h.full_map for h in homs} == oracle


def test_hom_counts_small(standard_groups):
    assert cct.hom_count(standard_groups["z3"], standard_groups["z2"]) == 1
    assert cct.hom_count(standard_groups["s3"], standard_groups["z3"]) == 1
    assert cct.hom_count(standard_groups["z2"], standard_groups["z4"]) == 2
    assert cct.hom_count(standard_groups["s3"], standard_groups["z1"]) == 1


def test_enumeration_matches_oracle_on_mixed_pairs(standard_groups):
    names = ["z1", "z2", "z3", "z4", "v4", "z6", "s3"]
    for da in names:
        for dh in names:
            a, h = standard_groups[da], standard_groups[dh]
            got = {hom.full_map for hom in cct.enumerate_homs(a, h)}
            assert got == brute_force_hom_maps(a, h), (da, dh)


def test_cyclic_hom_count_is_gcd():
    for m in range(1, 13):
        for n in range(1, 13):
            assert cct.hom_count(cct.cyclic(m), cct.cyclic(n)) == math.gcd(m, n)


def test_hom_count_multiplicative_over_products():
    targets = [cct.cyclic(3), cct.symmetric(3), cct.abelian([2, 2])]
    products = [(h1, h2, cct.direct_product(h1, h2)) for h1 in targets for h2 in targets]
    for m in range(1, 13):
        a = cct.cyclic(m)
        for h1, h2, prod in products:
            assert cct.hom_count(a, prod) == cct.hom_count(a, h1) * cct.hom_count(a, h2)


def test_enumeration_order_is_deterministic(standard_groups):
    a, h = standard_groups["v4"], standard_groups["d8"]
    first = [hom.gen_images for hom in cct.enumerate_homs(a, h)]
    second = [hom.gen_images for hom in cct.enumerate_homs(a, h)]
    assert first == second
    assert first == sorted(first)  # lexicographic over image tuples


def test_every_hom_validates(standard_groups):
    for a in (standard_groups["z4"], standard_groups["s3"]):
        for h in (standard_groups["d8"], standard_groups["a4"]):
            for hom in cct.enumerate_homs(a, h):
                hom.validate()


def test_validate_is_exact_on_large_domains():
    z256, z2 = cct.cyclic(256), cct.cyclic(2)
    parity = [x % 2 for x in range(256)]
    cct.Homomorphism(z256, z2, (1,), tuple(parity)).validate()
    for bad in (37, 255):
        broken = parity[:]
        broken[bad] ^= 1
        with pytest.raises(AssertionError):
            cct.Homomorphism(z256, z2, (1,), tuple(broken)).validate()


def test_validate_checks_every_generator_edge():
    # f(a, b) = a + bump(b) on Z/4 x Z/64 respects every edge of the first
    # generator (1, 0); a bump at b = 37 breaks only edges of (0, 1)
    g, z4 = cct.abelian([4, 64]), cct.cyclic(4)
    coords = [tuple(map(int, re.findall(r"\d+", g.label(x)))) for x in range(g.order)]
    assert coords[g.generators[0]] == (1, 0)
    for bump in (0, 2):
        f = tuple((a + (bump if b == 37 else 0)) % 4 for a, b in coords)
        hom = cct.Homomorphism(g, z4, tuple(f[x] for x in g.generators), f)
        if bump:
            with pytest.raises(AssertionError):
                hom.validate()
        else:
            hom.validate()


def test_domain_budget():
    with pytest.raises(OrderBudgetExceeded):
        cct.enumerate_homs(cct.cyclic(20), cct.cyclic(2), domain_max=10)


# ---------------------------------------------------------------------------
# images


def test_image_examples(standard_groups):
    s3 = standard_groups["s3"]
    homs = cct.enumerate_homs(standard_groups["z3"], s3)
    trivial = [h for h in homs if not any(h.full_map)]
    assert cct.image(trivial[0]).order == 1
    nontrivial = [h for h in homs if any(h.full_map)]
    assert all(cct.image(h).order == 3 for h in nontrivial)
    reduction = [h for h in cct.enumerate_homs(standard_groups["z4"], standard_groups["z2"])
                 if any(h.full_map)]
    assert cct.image(reduction[0]).order == 2


# ---------------------------------------------------------------------------
# isomorphism


def test_iso_examples(standard_groups):
    assert cct.isomorphic(standard_groups["z6"],
                          cct.direct_product(standard_groups["z2"], standard_groups["z3"]))
    assert not cct.isomorphic(standard_groups["z4"], standard_groups["v4"])
    d8, q8 = standard_groups["d8"], standard_groups["q8"]
    count4 = lambda g: sum(1 for x in range(g.order) if g.element_order(x) == 4)
    assert count4(d8) == 2 and count4(q8) == 6
    assert not cct.isomorphic(d8, q8)


def test_iso_reflexive_symmetric(catalog8):
    entries = list(catalog8)[:10]
    for e in entries:
        assert cct.isomorphic(e.group, e.group)
    for a in entries:
        for b in entries:
            assert cct.isomorphic(a.group, b.group) == cct.isomorphic(b.group, a.group)


def test_iso_witness_is_bijective_hom(standard_groups):
    w = cct.isomorphism(standard_groups["z6"],
                        cct.direct_product(standard_groups["z2"], standard_groups["z3"]))
    assert w is not None
    w.validate()
    assert w.is_injective() and w.is_surjective()


def test_iso_witnesses_compose(standard_groups):
    g = standard_groups["d8"]
    h = cct.realize(cct.parse_presentation("<r,s | r^4, s^2, (r s)^2>"), 200)
    k = cct.from_cayley([[g.mul(a, b) for b in range(8)] for a in range(8)])
    f1 = cct.isomorphism(g, h)
    f2 = cct.isomorphism(h, k)
    assert f1 is not None and f2 is not None
    composite = f1.then(f2)
    composite.validate()
    assert composite.is_injective() and composite.is_surjective()
    assert composite.domain is g and composite.codomain is k


def test_word_table_words_reproduce_elements(standard_groups):
    for key in ("s3", "d8", "a4"):
        g = standard_groups[key]
        gens = cct.minimal_generating_set(g)
        table = cct.WordTable(g, gens)
        for x in range(g.order):
            acc = 0
            for pos in table.word(x):
                acc = g.mul(acc, gens[pos])
            assert acc == x
