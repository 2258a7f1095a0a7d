"""Catalogs, classification, truncated generators, factorization checks."""

import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_groups import brute_subgroups

import cct
from cct.catalogs import Catalog, CatalogEntry, _is_prime, resolve_class_predicate
from cct.errors import OrderBudgetExceeded


def test_truncated_generator_factors():
    spec = cct.truncated_generator(2, 3)
    assert [f.order for f in spec.factors] == [2, 4, 8]
    spec = cct.truncated_generator(3, 1)
    assert [f.order for f in spec.factors] == [3]


def test_truncated_generator_errors():
    with pytest.raises(OrderBudgetExceeded):
        cct.truncated_generator(2, 20)
    with pytest.raises(ValueError):
        cct.truncated_generator(4, 2)
    with pytest.raises(ValueError):
        cct.truncated_generator(3, 0)
    # 3^(10^8) does not finish within a minute, so k is checked before p^k
    with pytest.raises(OrderBudgetExceeded, match=r"\(truncated generator 3\^100000000\)$"):
        cct.truncated_generator(3, 10**8)


def test_is_prime_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == trial_division(n) for n in range(-3, 10**4))
    # a strong pseudoprime to every prime base up to 37
    assert not _is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        _is_prime(3_317_044_064_679_887_385_961_981)


@pytest.mark.parametrize("p, prime", [(1000000000039, True), (200000000000062, False),
                                      (999999999999999989, True)])
def test_large_class_primes_resolve_fast(p, prime):
    start = time.perf_counter()
    if prime:
        trivial = cct.subgroup_generated(cct.cyclic(2), [])
        assert resolve_class_predicate(f"{p}-group")(trivial)
    else:
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            resolve_class_predicate(f"{p}-group")
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# catalogs


def test_catalog_max_order_one():
    cat = cct.build_small_catalog(1)
    assert len(cat) == 1
    assert cat.entries[0].group.order == 1


def test_catalog_orders_bounded(catalog24):
    assert all(e.group.order <= 24 for e in catalog24)


def test_catalog_names_unique(catalog24):
    names = [e.name for e in catalog24]
    assert len(names) == len(set(names))


def partition_count(e):
    """Oracle: number of partitions of e, by the coin-change recurrence."""
    ways = [1] + [0] * e
    for part in range(1, e + 1):
        for total in range(part, e + 1):
            ways[total] += ways[total - part]
    return ways[e]


def abelian_type_count(n):
    """Oracle: abelian groups of order n up to isomorphism, prod p(e) over p^e || n."""
    count, d = 1, 2
    while n > 1:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        count *= partition_count(e)
        d += 1
    return count


def test_catalog_has_each_abelian_type_once():
    catalog = cct.build_small_catalog(64)
    for n in range(1, 65):
        entries = [e for e in catalog if e.group.order == n
                   and e.recipe.split()[0] in ("cyclic", "abelian")]
        for e in entries:
            cyclic = any(e.group.element_order(x) == n for x in range(n))
            assert cyclic == (e.recipe.split()[0] == "cyclic"), e.name
        # an abelian group is determined by how many elements it has of each order
        histograms = {e.group.order_histogram() for e in entries}
        assert len(histograms) == len(entries) == abelian_type_count(n), n


def test_catalog_order8_slice_has_five_classes(catalog8):
    slice8 = Catalog([e for e in catalog8 if e.group.order == 8])
    classes = cct.classify_up_to_iso(slice8)
    assert len(classes) >= 5
    assert len(classes) == 5


def test_catalog6_contains_nonisomorphic_pair(catalog8):
    z6 = catalog8.get("z6").group
    d6 = catalog8.get("d6").group
    assert z6.is_abelian and not d6.is_abelian
    assert not cct.isomorphic(z6, d6)


def test_catalog_contains_dicyclic_and_products(catalog24):
    dic12 = catalog24.get("dic12").group
    assert dic12.order == 12
    assert sum(1 for x in range(12) if dic12.element_order(x) == 2) == 1
    assert not cct.isomorphic(dic12, catalog24.get("a4").group)
    assert not cct.isomorphic(dic12, catalog24.get("d12").group)
    prod = catalog24.get("z2_d6")
    assert prod.group.order == 12


# ---------------------------------------------------------------------------
# classification


def test_classify_merges_duplicates():
    cat = Catalog([
        CatalogEntry("a", cct.cyclic(6), "cyclic 6"),
        CatalogEntry("b", cct.direct_product(cct.cyclic(2), cct.cyclic(3)), "product"),
    ])
    classes = cct.classify_up_to_iso(cat)
    assert len(classes) == 1
    assert [e.name for e in classes[0]] == ["a", "b"]


def test_classify_singleton():
    cat = Catalog([CatalogEntry("only", cct.quaternion(), "quaternion")])
    assert len(cct.classify_up_to_iso(cat)) == 1


def test_classify_matches_the_pairwise_loop(monkeypatch):
    # oracle: compare each entry with every class representative so far
    catalog = cct.build_small_catalog(32)
    oracle = []
    for entry in catalog:
        for cls in oracle:
            if cct.isomorphic(cls[0].group, entry.group):
                cls.append(entry)
                break
        else:
            oracle.append([entry])
    compared = []

    def isomorphic(g, h):
        compared.append((g, h))
        return cct.isomorphic(g, h)

    monkeypatch.setattr(cct.catalogs, "isomorphic", isomorphic)
    classes = cct.classify_up_to_iso(catalog)
    assert [[e.name for e in cls] for cls in classes] == [[e.name for e in cls] for cls in oracle]
    # only groups that share their invariants are compared
    assert compared
    assert all(cct.homs.iso_invariants(g) == cct.homs.iso_invariants(h) for g, h in compared)


def seven_order8_constructions():
    return [
        CatalogEntry("z8", cct.cyclic(8), ""),
        CatalogEntry("z4xz2", cct.abelian([4, 2]), ""),
        CatalogEntry("z2cubed", cct.abelian([2, 2, 2]), ""),
        CatalogEntry("d8", cct.dihedral(8), ""),
        CatalogEntry("q8", cct.quaternion(), ""),
        CatalogEntry("d8pres", cct.realize(
            cct.parse_presentation("<r,s | r^4, s^2, (r s)^2>"), 200), ""),
        CatalogEntry("z2xz4", cct.direct_product(cct.cyclic(2), cct.cyclic(4)), ""),
    ]


def test_classify_seven_order8_constructions():
    classes = cct.classify_up_to_iso(Catalog(seven_order8_constructions()))
    assert len(classes) == 5
    by_name = {cls[0].name: sorted(e.name for e in cls) for cls in classes}
    assert by_name["d8"] == ["d8", "d8pres"]
    assert by_name["z4xz2"] == ["z2xz4", "z4xz2"]


def test_classify_invariant_under_permutation():
    entries = seven_order8_constructions()
    baseline = {frozenset(e.name for e in cls)
                for cls in cct.classify_up_to_iso(Catalog(entries))}
    import random
    rng = random.Random(5)
    for _ in range(3):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        got = {frozenset(e.name for e in cls)
               for cls in cct.classify_up_to_iso(Catalog(shuffled))}
        assert got == baseline


def test_classify_is_true_partition(catalog8):
    classes = cct.classify_up_to_iso(catalog8)
    names = [e.name for cls in classes for e in cls]
    assert sorted(names) == sorted(e.name for e in catalog8)
    for i, cls in enumerate(classes):
        for other in classes[i + 1:]:
            assert not cct.isomorphic(cls[0].group, other[0].group)


# ---------------------------------------------------------------------------
# socle-equals-radical survey


def test_survey_truncated_2_3(catalog8):
    report = cct.socle_equals_radical(cct.truncated_generator(2, 3), catalog8)
    assert report.failures == ()
    assert report.skipped == ()
    for row in report.rows:
        assert row.equal
        assert row.torsion_match


def test_survey_single_z2_records_gap(catalog8):
    cat = Catalog([e for e in catalog8 if e.name == "z4"])
    report = cct.socle_equals_radical(cct.cyclic(2), cat)
    row = report.rows[0]
    assert row.precondition_ok is False
    assert not row.equal
    assert row.socle_order == 2 and row.radical_order == 4
    assert report.failures == ()
    assert report.skipped == ("z4",)


def test_survey_empty_catalog():
    report = cct.socle_equals_radical(cct.truncated_generator(2, 2), Catalog([]))
    assert report.rows == ()
    assert report.failures == () and report.skipped == ()


def test_survey_noncyclic_generator_rows_are_informational(catalog8):
    cat = Catalog([e for e in catalog8 if e.name in ("z4", "z8")])
    report = cct.socle_equals_radical(cct.quaternion(), cat)
    assert report.failures == ()
    for row in report.rows:
        assert row.precondition_ok is None
        assert row.torsion_match is None


def test_survey_torsion_characterization_directly(catalog24):
    spec = cct.truncated_generator(2, 3)
    for entry in catalog24:
        g = entry.group
        torsion = [x for x in range(1, g.order)
                   if g.element_order(x) in (2, 4, 8)]
        expected = cct.subgroup_generated(g, torsion)
        assert cct.socle(spec, g).members == expected.members, entry.name


# ---------------------------------------------------------------------------
# bounded factorization


def test_factor_through_2_group_in_d8(standard_groups):
    d8 = standard_groups["d8"]
    hom = next(h for h in cct.enumerate_homs(standard_groups["z2"], d8)
               if any(h.full_map))
    sub = cct.factor_through_class(hom, "2-group")
    assert sub is not None
    assert set(hom.full_map) <= sub.members
    assert sub.order in (2, 4, 8)


def test_factor_through_2_group_in_s3(standard_groups):
    s3 = standard_groups["s3"]
    hom = next(h for h in cct.enumerate_homs(standard_groups["z2"], s3)
               if any(h.full_map))
    sub = cct.factor_through_class(hom, "2-group")
    assert sub is not None and sub.order == 2
    assert set(hom.full_map) <= sub.members


def test_factor_no_2_group_contains_3_cycle(standard_groups):
    s3 = standard_groups["s3"]
    hom = next(h for h in cct.enumerate_homs(standard_groups["z3"], s3)
               if any(h.full_map))
    assert cct.factor_through_class(hom, "2-group") is None


def test_factor_result_satisfies_predicate(standard_groups):
    a4 = standard_groups["a4"]
    for hom in cct.enumerate_homs(standard_groups["z2"], a4):
        sub = cct.factor_through_class(hom, "2-group")
        assert sub is not None
        assert resolve_class_predicate("2-group")(sub)
        assert set(hom.full_map) <= sub.members


def test_class_predicates():
    z6 = cct.cyclic(6)
    subs = cct.all_subgroups(z6)
    assert [resolve_class_predicate("trivial")(s) for s in subs] == [True, False, False, False]
    assert all(resolve_class_predicate("abelian")(s) for s in subs)
    assert all(resolve_class_predicate("cyclic")(s) for s in subs)
    with pytest.raises(ValueError):
        resolve_class_predicate("4-group")
    with pytest.raises(ValueError):
        resolve_class_predicate("weird")


_BRUTE_BY_LABELS = {}


def _oracle_subgroups(group):
    """brute_subgroups of a permutation group, in (order, sorted members)
    order.  Brute force is slow, so it runs once per element set: the same
    permutation group recurs under other generators and numberings."""
    key = frozenset(group.labels)
    if key not in _BRUTE_BY_LABELS:
        _BRUTE_BY_LABELS[key] = [frozenset(group.labels[x] for x in sub)
                                 for sub in brute_subgroups(group)]
    index = {label: x for x, label in enumerate(group.labels)}
    subs = [frozenset(index[label] for label in sub) for sub in _BRUTE_BY_LABELS[key]]
    return sorted(subs, key=lambda sub: (len(sub), sorted(sub)))


HOM_DOMAINS = (cct.cyclic(2), cct.cyclic(3), cct.cyclic(4), cct.abelian([2, 2]))
PREDICATES = ("2-group", "3-group", "5-group", "abelian", "cyclic", "trivial", "all")


@settings(max_examples=100)
@given(st.data())
def test_factor_through_class_matches_brute_force(data):
    # degrees 4 and 5 drawn more often: the small degrees give few groups
    degree = data.draw(st.integers(1, 5) | st.sampled_from([4, 5]))
    perms = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    group = cct.from_permutations(perms, degree)
    assume(group.order <= 20)  # the oracle is exponential in log2(order)
    domain = data.draw(st.sampled_from(HOM_DOMAINS))
    hom = data.draw(st.sampled_from(cct.enumerate_homs(domain, group)))
    image = set(hom.full_map)
    for name in PREDICATES:
        predicate = resolve_class_predicate(name)
        expected = next((sub for sub in _oracle_subgroups(group)
                         if image <= sub and predicate(cct.Subgroup(group, sub))), None)
        found = cct.factor_through_class(hom, name)
        assert (None if found is None else found.members) == expected, name


def test_subgroup_walks_grow_forked_closures(monkeypatch):
    calls = {"add": 0, "subgroup_generated": 0}
    add, generated = cct.groups._Closure.add, cct.groups.subgroup_generated

    def counting_add(self, g):
        calls["add"] += 1
        return add(self, g)

    def counting_generated(*args, **kwargs):
        calls["subgroup_generated"] += 1
        return generated(*args, **kwargs)

    monkeypatch.setattr(cct.groups._Closure, "add", counting_add)
    monkeypatch.setattr(cct.groups, "subgroup_generated", counting_generated)
    assert len(cct.all_subgroups(cct.abelian([2] * 5))) == 374
    assert calls["subgroup_generated"] == 0 and calls["add"] <= 10_000

    d64 = cct.dihedral(64)
    hom = next(h for h in cct.enumerate_homs(cct.cyclic(4), d64) if any(h.full_map))
    calls["add"] = 0
    assert cct.factor_through_class(hom, "2-group") is not None
    assert calls["add"] < 1000


def test_subgroup_walk_forks_once_per_coset_class(monkeypatch):
    # one fork per left coset x H, shared by the generators of <x>
    forks = 0
    fork = cct.groups._Closure.fork

    def counting_fork(self):
        nonlocal forks
        forks += 1
        return fork(self)

    monkeypatch.setattr(cct.groups._Closure, "fork", counting_fork)
    assert len(cct.all_subgroups(cct.abelian([2] * 5))) == 374
    assert forks <= 2500
    forks = 0
    assert len(cct.all_subgroups(cct.dihedral(64))) == 69
    assert forks <= 500


@pytest.mark.parametrize("name, domain, target, factors", [
    ("2-group", "z2", "e5", True), ("abelian", "z2", "e5", True), ("cyclic", "z2", "e5", True),
    ("2-group", "z3", "s3", False), ("3-group", "z2", "s3", False),
    ("abelian", "s3", "s4", False), ("cyclic", "v4", "a4", False), ("trivial", "z2", "d8", False)])
def test_built_in_class_is_decided_at_the_image(name, domain, target, factors,
                                                standard_groups, monkeypatch):
    # a built-in class is closed under subgroups, so <image> lies in it
    # exactly when some subgroup containing the image does: the answer is
    # <image> or None, with no subgroup walked ('all' holds on every image,
    # so it has no failing case)
    group = cct.abelian([2] * 5) if target == "e5" else standard_groups[target]
    hom = next(h for h in cct.enumerate_homs(standard_groups[domain], group) if h.is_injective())
    predicate = resolve_class_predicate(name)
    image = set(hom.full_map)
    assert any(image <= sub.members and predicate(sub)
               for sub in cct.all_subgroups(group)) == factors
    expected = cct.image(hom) if factors else None
    forks = 0
    fork = cct.groups._Closure.fork

    def counting_fork(self):
        nonlocal forks
        forks += 1
        return fork(self)

    monkeypatch.setattr(cct.groups._Closure, "fork", counting_fork)
    assert cct.factor_through_class(hom, name) == expected
    assert forks == 0


@settings(max_examples=100)
@given(st.data())
def test_all_subgroups_matches_brute_force_on_random_groups(data):
    degree = data.draw(st.integers(1, 5) | st.sampled_from([4, 5]))
    perms = data.draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    group = cct.from_permutations(perms, degree)
    assume(group.order <= 20)  # the oracle is exponential in log2(order)
    assert [sub.members for sub in cct.all_subgroups(group)] == _oracle_subgroups(group)


def test_truncation_survey_factors_each_distinct_order_once(monkeypatch):
    calls = 0
    prime_power = cct.catalogs._prime_power

    def counting(n):
        nonlocal calls
        calls += 1
        return prime_power(n)

    monkeypatch.setattr(cct.catalogs, "_prime_power", counting)
    spec = cct.GeneratorSpec((cct.cyclic(2), cct.cyclic(4), cct.cyclic(3)))
    group = cct.direct_product(cct.dihedral(16), cct.cyclic(3))
    distinct = len(set(group.element_orders()))
    report = cct.socle_equals_radical(spec, Catalog([CatalogEntry("d16xz3", group, "")]))
    assert calls == len(spec.factors) + distinct
    row, = report.rows
    assert row.precondition_ok is False  # D16 has elements of order 8 > 4
    torsion = cct.subgroup_generated(
        group, [x for x in range(1, group.order) if group.element_order(x) in (2, 3, 4)])
    assert row.torsion_match == (torsion.members == cct.socle(spec, group).members)
