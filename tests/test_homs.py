"""Homomorphism enumeration against brute-force oracles."""

import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cct
from cct.errors import OrderBudgetExceeded
from cct.homs import _rank_lower_bound


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


def naive_generates(group, combo):
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in combo:
            y = group.mul(x, g)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == group.order


def first_generating_combination(group):
    """Oracle: the first generating combination in itertools.combinations
    order, over candidates sorted by element order descending, index
    ascending, each closed by a naive BFS."""
    if group.order == 1:
        return ()
    candidates = sorted(range(1, group.order), key=lambda x: (-group.element_order(x), x))
    for k in itertools.count(1):
        for combo in itertools.combinations(candidates, k):
            if naive_generates(group, combo):
                return combo


@settings(max_examples=60)
@given(st.data())
def test_minimal_generating_set_matches_oracle_on_permutation_groups(data):
    degree = data.draw(st.integers(1, 5))
    perms = st.permutations(range(degree)).map(tuple)
    gens = data.draw(st.lists(perms, min_size=1, max_size=3))
    group = cct.from_permutations(gens, degree)
    assert cct.minimal_generating_set(group) == first_generating_combination(group)


def test_minimal_generating_set_matches_oracle_on_catalog():
    for entry in cct.build_small_catalog(32):
        expect = first_generating_combination(entry.group)
        assert cct.minimal_generating_set(entry.group) == expect, entry.name


def _is_prime_power(n):
    p = next(p for p in range(2, n + 1) if n % p == 0)
    while n % p == 0:
        n //= p
    return n == 1


def test_rank_lower_bound_against_burnside_basis_theorem():
    # a p-group needs exactly as many generators as its Frattini quotient's
    # rank; any other group needs at least the largest such rank
    for entry in cct.build_small_catalog(64):
        group = entry.group
        bound = _rank_lower_bound(group)
        size = len(cct.minimal_generating_set(group))
        if group.order == 1 or _is_prime_power(group.order):
            assert bound == size, entry.name
        else:
            assert bound <= size, entry.name


def test_minimal_generating_set_work_is_bounded(monkeypatch):
    # regression bound on work: the rank bound skips the hopeless sizes and
    # redundant prefixes are pruned.  The exhaustive combination scan made
    # 41,751 closures on the first group and would make 7,666,240 on the
    # second.  The third, D8^3, has order 512, the largest hom domain; with
    # the bound but without the pruning it takes several seconds
    add = cct.groups._Closure.add
    calls = 0

    def counted(self, g):
        nonlocal calls
        calls += 1
        return add(self, g)

    monkeypatch.setattr(cct.groups._Closure, "add", counted)
    d8 = cct.dihedral(8)
    for group in (cct.direct_product(cct.abelian([2, 2]), cct.dihedral(16)),
                  cct.abelian([2] * 6),
                  cct.direct_product(cct.direct_product(d8, d8), d8)):
        calls = 0
        cct.minimal_generating_set(group)
        assert calls < 100


def test_minimal_generating_set_of_elementary_abelian_512():
    group = cct.abelian([2] * 9)
    assert cct.minimal_generating_set(group) == group.generators == tuple(range(1, 10))


def test_minimal_generating_set_reads_the_budget_only_for_a_search(monkeypatch):
    # the budget bounds the search, so a cached tuple is returned without it
    group = cct.dihedral(10)
    reads = 0

    def order_max():
        nonlocal reads
        reads += 1
        return 5

    monkeypatch.setattr(cct.config, "order_max", order_max)
    with pytest.raises(OrderBudgetExceeded, match="order budget 5 exceeded"):
        cct.minimal_generating_set(group)
    assert reads == 1
    monkeypatch.undo()
    expected = cct.minimal_generating_set(group)
    monkeypatch.setattr(cct.config, "order_max", order_max)
    assert cct.minimal_generating_set(group) == expected
    assert reads == 1


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


# ---------------------------------------------------------------------------
# homs up to conjugacy


def test_hom_count_matches_the_full_walk_on_catalog(catalog24):
    targets = {"s4": cct.symmetric(4), "s5": cct.symmetric(5), "a5": cct.alternating(5),
               "d12": cct.dihedral(12), "q8": cct.quaternion()}
    for entry in catalog24.entries:
        for name, target in targets.items():
            expect = sum(1 for _ in cct.iter_homs(entry.group, target))
            assert cct.hom_count(entry.group, target) == expect, (entry.name, name)


@settings(max_examples=40)
@given(st.data())
def test_hom_count_matches_the_full_walk_on_permutation_groups(data):
    domain = HOM_POOL[data.draw(st.sampled_from(sorted(HOM_POOL)))]
    degree = data.draw(st.integers(1, 5))
    perms = st.permutations(range(degree)).map(tuple)
    group = cct.from_permutations(data.draw(st.lists(perms, min_size=1, max_size=3)), degree)
    assert cct.hom_count(domain, group) == sum(1 for _ in cct.iter_homs(domain, group))


def brute_force_classes(group):
    """Oracle: every conjugacy class {g x g^-1 : g in G}, as a set."""
    def inverse(g):
        y = g
        while group.mul(y, g) != 0:
            y = group.mul(y, g)
        return y

    conjugators = [(g, inverse(g)) for g in range(group.order)]
    classes, seen = [], set()
    for x in range(group.order):
        if x not in seen:
            classes.append({group.mul(group.mul(g, x), ginv) for g, ginv in conjugators})
            seen |= classes[-1]
    return classes


def test_slot_classes_match_brute_force_conjugacy_classes(monkeypatch):
    # an abelian group's classes are its elements, found without orbits;
    # each table is built whole and then row by row on first read, where
    # conjugation reads one map per generator
    groups = []
    for eager_max in (cct.groups._EAGER_ROWS_MAX, 0):
        monkeypatch.setattr(cct.groups, "_EAGER_ROWS_MAX", eager_max)
        groups += [cct.symmetric(5), cct.alternating(5), cct.abelian([2, 6])]
    monkeypatch.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 100)
    groups.append(cct.from_permutations([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], 6))
    assert groups[-1].backing == "permutation-composition"
    for group in groups:
        orders = group.element_orders()
        classes = brute_force_classes(group)
        exponent = math.lcm(*orders)
        for m in (d for d in range(1, exponent + 1) if exponent % d == 0):
            got = cct.homs._slot_classes(group, m)
            expect = sorted((min(c), len(c)) for c in classes if m % orders[min(c)] == 0)
            assert list(got.items()) == expect
            assert sum(got.values()) == sum(1 for o in orders if m % o == 0)
    # maps were built for the two non-abelian tables built on first read only
    built = [vars(group).get("conjugation_maps") is not None for group in groups]
    assert built == [False, False, False, True, True, False, False]


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


def test_iso_center_size_tells_apart_what_the_histogram_does_not(monkeypatch):
    # Z/2 x Dic24 and Z/4 x Dic12 share order 48, the abelian flag and the
    # element-order histogram; their centers have orders 4 and 8
    dic = lambda m: cct.realize(cct.parse_presentation(
        f"< a, b | a^{2 * m}, b^-2 a^{m}, b^-1 a b a >"))
    g = cct.direct_product(cct.cyclic(2), dic(6))
    h = cct.direct_product(cct.cyclic(4), dic(3))
    assert (g.order, g.is_abelian, g.order_histogram()) == (h.order, h.is_abelian,
                                                            h.order_histogram())
    assert (g.center_size(), h.center_size()) == (4, 8)

    def no_scan(*args, **kwargs):
        raise AssertionError("the prefilter should decide")

    monkeypatch.setattr(cct.homs, "_hom_maps", no_scan)
    assert cct.isomorphism(g, h) is None and cct.isomorphism(h, g) is None


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


def hom_image_oracle(a, b):
    """Oracle: (images of a's minimal generating set, full map) of every hom
    a -> b, in lexicographic order of the images.  Each tuple of b's
    elements is extended by a BFS of its own and kept iff f(xy) = f(x) f(y)
    for every pair x, y."""
    mgs = cct.minimal_generating_set(a)
    out = []
    for images in itertools.product(range(b.order), repeat=len(mgs)):
        f = {0: 0}
        queue = [0]
        for x in queue:
            for g, img in zip(mgs, images):
                y = a.mul(x, g)
                if y not in f:
                    f[y] = b.mul(f[x], img)
                    queue.append(y)
        full = tuple(f[x] for x in range(a.order))
        if all(full[a.mul(x, y)] == b.mul(full[x], full[y])
               for x in range(a.order) for y in range(a.order)):
            out.append((images, full))
    return out


# The direct products store more generators than their minimal generating
# sets hold (z2xz3, z2xs3) or as many (z2xz4, v4xz2).  The hom search walks
# a chain of three subgroups out of v4xz2 and e8, and s4 is built from
# permutations on its three Coxeter generators.
HOM_POOL = {
    "z1": cct.cyclic(1), "z2": cct.cyclic(2), "z4": cct.cyclic(4), "z6": cct.cyclic(6),
    "v4": cct.abelian([2, 2]), "s3": cct.symmetric(3), "d8": cct.dihedral(8),
    "q8": cct.quaternion(), "a4": cct.alternating(4), "d12": cct.dihedral(12),
    "z2xz3": cct.direct_product(cct.cyclic(2), cct.cyclic(3)),
    "z2xs3": cct.direct_product(cct.cyclic(2), cct.symmetric(3)),
    "z2xz4": cct.direct_product(cct.cyclic(2), cct.cyclic(4)),
    "v4xz2": cct.direct_product(cct.abelian([2, 2]), cct.cyclic(2)),
    "e8": cct.abelian([2, 2, 2]),
    "s4": cct.from_permutations([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)], 4),
}


@settings(max_examples=200)
@given(st.sampled_from(sorted(HOM_POOL)), st.sampled_from(sorted(HOM_POOL)))
def test_hom_order_and_iso_witness_match_oracle(name_a, name_b):
    a, b = HOM_POOL[name_a], HOM_POOL[name_b]
    mgs = cct.minimal_generating_set(a)
    oracle = hom_image_oracle(a, b)
    got = [tuple(h.full_map[g] for g in mgs) for h in cct.iter_homs(a, b)]
    assert got == sorted(images for images, _ in oracle)
    bijective = [full for _, full in oracle if len(set(full)) == a.order == b.order]
    iso = cct.isomorphism(a, b)
    assert (None if iso is None else iso.full_map) == (bijective[0] if bijective else None)


def test_hom_search_prunes_along_the_generator_chain(monkeypatch):
    # D8 x Z/2 has minimal generators of orders 4, 4 and 2, so its slots in
    # S6 hold 256 * 256 * 76 = 4,980,736 image tuples.  Walking the chain
    # <m1> < <m1, m2> < D8 x Z/2 drops a pair of images that does not map
    # <m1, m2> homomorphically together with its 76 extensions: the search
    # makes 1,295,568 products in S6.  Checking every edge only once all
    # three images are chosen makes 31,895,088.
    domain = cct.direct_product(cct.dihedral(8), cct.cyclic(2))
    s6 = cct.symmetric(6)
    mul, calls = s6.mul, 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        if calls > 2_000_000:
            raise AssertionError("hom search made over 2,000,000 products")
        return mul(a, b)

    monkeypatch.setattr(s6, "mul", counted)
    assert [domain.element_order(g) for g in cct.minimal_generating_set(domain)] == [4, 4, 2]
    assert cct.hom_count(domain, s6) == 18256


def test_full_hom_walk_prunes_along_the_generator_chain(monkeypatch):
    # the same walk as above, through iter_homs: hom_count walks only one
    # image of m1 per conjugacy class of S6 (six of 256), so only the full
    # walk's products show whether the chain prunes
    domain = cct.direct_product(cct.dihedral(8), cct.cyclic(2))
    s6 = cct.symmetric(6)
    mul, calls = s6.mul, 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        if calls > 2_000_000:
            raise AssertionError("hom search made over 2,000,000 products")
        return mul(a, b)

    monkeypatch.setattr(s6, "mul", counted)
    assert sum(1 for _ in cct.iter_homs(domain, s6)) == 18256
