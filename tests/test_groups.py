"""Group core: constructions, subgroup algebra, quotients."""

import functools
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cct
from cct.errors import NotAGroup, NotNormal, OrderBudgetExceeded


def brute_closure(group, seed):
    """Oracle: grow a subset under products until stable."""
    members = set(seed) | {0}
    while True:
        new = {group.mul(a, b) for a in members for b in members}
        new |= {group.inv(a) for a in members}
        if new <= members:
            return frozenset(members)
        members |= new


def naive_closure(group, seeds):
    """Oracle: BFS from the identity, multiplying every member by every seed."""
    members = {0}
    frontier = [0]
    for x in frontier:
        for g in seeds:
            y = group.mul(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def is_group_table(table):
    """Oracle: identity, two-sided inverses and associativity on all triples."""
    n = len(table)
    idents = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not idents:
        return False
    e = idents[0]
    if not all(any(table[x][y] == e == table[y][x] for y in range(n)) for x in range(n)):
        return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def intercalate_table(n):
    """Z/n with rows 1, n/2 + 1 and columns 2, n/2 + 2 swapped: a Latin
    square with identity and inverses, associative nowhere near row 1."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    h = n // 2
    for r in (1, h + 1):
        table[r][2], table[r][h + 2] = table[r][h + 2], table[r][2]
    return table


def brute_subgroups(group):
    """Oracle: closures of all generating sets up to log2(order) elements.

    Complete because a strictly ascending subgroup chain at least doubles,
    so every subgroup of a group of order n is generated by at most
    log2(n) elements.
    """
    max_gens = max(1, group.order.bit_length() - 1)
    found = {frozenset({0})}
    for k in range(1, max_gens + 1):
        for combo in itertools.combinations(range(1, group.order), k):
            found.add(brute_closure(group, combo))
    return found


def cayley_table(group):
    return [[group.mul(a, b) for b in range(group.order)] for a in range(group.order)]


# ---------------------------------------------------------------------------
# from_cayley


def test_from_cayley_trivial():
    g = cct.from_cayley([[0]])
    assert g.order == 1
    assert g.generators == (0,)


def test_from_cayley_cyclic4():
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    g = cct.from_cayley(table)
    assert g.order == 4
    assert g.generators == (1,)
    assert g.element_order(1) == 4


def test_from_cayley_nonassociative_witness():
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    table[2][3] = 4  # corrupt one entry of the order-6 cyclic table
    bad_triples = {
        (a, b, c)
        for a in range(6) for b in range(6) for c in range(6)
        if table[table[a][b]][c] != table[a][table[b][c]]
    }
    assert bad_triples
    with pytest.raises(NotAGroup) as exc:
        cct.from_cayley(table)
    assert exc.value.witness in bad_triples


@functools.cache
def _small_tables():
    return [cayley_table(g) for g in (
        cct.cyclic(7), cct.abelian([2, 2]), cct.symmetric(3), cct.dihedral(8),
        cct.quaternion(), cct.dihedral(10), cct.alternating(4), cct.abelian([2, 6]),
    )]


@settings(max_examples=150)
@given(st.data())
def test_from_cayley_is_exact_on_corrupted_tables(data):
    table = [row[:] for row in data.draw(st.sampled_from(_small_tables()))]
    n = len(table)
    for _ in range(data.draw(st.integers(0, 3))):
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[a][b] = data.draw(st.integers(0, n - 1))
    if is_group_table(table):
        assert cct.from_cayley(table).order == n
        return
    with pytest.raises(NotAGroup) as exc:
        cct.from_cayley(table)
    w = exc.value.witness
    if isinstance(w, tuple):
        a, b, c = w
        assert table[table[a][b]][c] != table[a][table[b][c]]


def test_from_cayley_checks_every_generator():
    # Z/2 x Z/4 with the intercalate at rows and columns 2, 3 swapped: the
    # first generator still associates with everything, the second does not
    table = cayley_table(cct.abelian([2, 4]))
    for r in (2, 3):
        table[r][2], table[r][3] = table[r][3], table[r][2]
    assert not is_group_table(table)
    with pytest.raises(NotAGroup) as exc:
        cct.from_cayley(table)
    a, b, c = exc.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_from_cayley_rejects_intercalate_512():
    table = intercalate_table(512)
    with pytest.raises(NotAGroup) as exc:
        cct.from_cayley(table)
    a, b, c = exc.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_from_cayley_rejects_no_identity():
    with pytest.raises(NotAGroup):
        cct.from_cayley([[1, 0], [1, 0]])


def test_from_cayley_rejects_malformed():
    with pytest.raises(ValueError):
        cct.from_cayley([[0, 1], [1]])
    with pytest.raises(ValueError):
        cct.from_cayley([[0, 7], [1, 0]])


# ---------------------------------------------------------------------------
# from_permutations


def test_from_permutations_s3():
    gens = [cct.perm_from_cycles([[1, 2]], 3), cct.perm_from_cycles([[1, 2, 3]], 3)]
    g = cct.from_permutations(gens, 3)
    assert g.order == 6
    assert not g.is_abelian


def test_from_permutations_empty_is_trivial():
    g = cct.from_permutations([], 4)
    assert g.order == 1


def test_from_permutations_s5_closure():
    gens = [cct.perm_from_cycles([[1, 2, 3, 4, 5]], 5), cct.perm_from_cycles([[1, 2]], 5)]
    g = cct.from_permutations(gens, 5)
    assert g.order == 120


def test_from_permutations_budget():
    gens = [cct.perm_from_cycles([[1, 2, 3, 4, 5]], 5), cct.perm_from_cycles([[1, 2]], 5)]
    with pytest.raises(OrderBudgetExceeded):
        cct.from_permutations(gens, 5, order_max=100)


def test_order_max_env_override(monkeypatch):
    monkeypatch.setenv("CCT_ORDER_MAX", "50")
    with pytest.raises(OrderBudgetExceeded):
        cct.symmetric(5)
    monkeypatch.setenv("CCT_ORDER_MAX", "not-a-number")
    with pytest.raises(ValueError):
        cct.symmetric(3)


# ---------------------------------------------------------------------------
# named families


def test_named_dispatch():
    assert cct.named("cyclic", 1).order == 1
    assert cct.named("alternating", 5).order == 60
    prod = cct.named("direct_product", cct.cyclic(2), cct.cyclic(3))
    assert prod.order == 6
    assert prod.is_abelian
    with pytest.raises(ValueError):
        cct.named("sporadic", 1)


def test_quaternion_structure():
    q8 = cct.quaternion()
    assert q8.order == 8
    orders = sorted(q8.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_dihedral_structure():
    d8 = cct.dihedral(8)
    orders = sorted(d8.element_order(x) for x in range(8))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    with pytest.raises(ValueError):
        cct.dihedral(7)


@pytest.mark.parametrize("factors", [[2, 4, 6], [4, 12], [2] * 6, [3, 1, 5], [9]])
def test_abelian_table_adds_componentwise(factors):
    g = cct.abelian(factors)
    coords = [tuple(map(int, re.findall(r"\d+", g.label(x)))) for x in range(g.order)]
    assert len(set(coords)) == g.order
    for x in range(g.order):
        for y in range(g.order):
            expect = tuple((u + v) % m for u, v, m in zip(coords[x], coords[y], factors))
            assert coords[g.mul(x, y)] == expect


def test_abelian_family():
    g = cct.abelian([2, 4])
    assert g.order == 8 and g.is_abelian
    assert max(g.element_order(x) for x in range(8)) == 4
    assert cct.abelian([1]).order == 1


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)])
def test_symmetric_orders(n, expected):
    assert cct.symmetric(n).order == expected


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (4, 12), (5, 60)])
def test_alternating_orders(n, expected):
    assert cct.alternating(n).order == expected


# ---------------------------------------------------------------------------
# element order


def test_element_order_examples(standard_groups):
    z6 = standard_groups["z6"]
    assert cct.element_order(z6, 0) == 1
    assert cct.element_order(z6, 1) == 6
    s5 = cct.symmetric(5)
    perm = cct.perm_from_cycles([[1, 2], [3, 4, 5]], 5)
    idx = next(x for x in range(120) if s5.label(x) == cct.groups.cycle_notation(perm))
    # oracle: repeated composition
    m, p = 1, perm
    while p != tuple(range(5)):
        p = tuple(p[i] for i in perm)
        m += 1
    assert m == 6
    assert cct.element_order(s5, idx) == 6


def test_element_order_divides_group_order(standard_groups):
    for g in standard_groups.values():
        for x in range(g.order):
            assert g.order % g.element_order(x) == 0


# ---------------------------------------------------------------------------
# subgroup algebra


def test_subgroup_generated_examples(standard_groups):
    z4, s3 = standard_groups["z4"], standard_groups["s3"]
    assert cct.subgroup_generated(z4, [2]).sorted_members() == (0, 2)
    transpositions = [x for x in range(6) if s3.element_order(x) == 2]
    assert cct.subgroup_generated(s3, transpositions[:1]).order == 2
    assert cct.subgroup_generated(s3, transpositions).order == 6


def test_subgroup_generated_matches_brute_closure(standard_groups):
    for g in (standard_groups["s3"], standard_groups["d8"], standard_groups["a4"]):
        for seed in itertools.combinations(range(g.order), 2):
            fast = cct.subgroup_generated(g, seed).members
            assert fast == brute_closure(g, seed)


@functools.cache
def _closure_groups():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 100)
        s7 = cct.symmetric(7)
    assert s7.backing == "permutation-composition"
    return [cct.symmetric(4), cct.dihedral(16), cct.abelian([2, 4, 6]), s7]


@settings(max_examples=60)
@given(st.data())
def test_subgroup_generated_matches_naive_closure(data):
    group = data.draw(st.sampled_from(_closure_groups()))
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=4))
    sub = cct.subgroup_generated(group, seeds)
    assert sub.members == naive_closure(group, seeds)
    assert group.order % sub.order == 0


def test_normal_closure_examples(standard_groups):
    s3, s4, z6 = standard_groups["s3"], standard_groups["s4"], standard_groups["z6"]
    transposition = next(x for x in range(1, 6) if s3.element_order(x) == 2)
    assert cct.normal_closure(s3, [transposition]).order == 6
    for seed in ([2], [3], [2, 3]):
        assert cct.normal_closure(z6, seed).members == cct.subgroup_generated(z6, seed).members
    double = cct.perm_from_cycles([[1, 2], [3, 4]], 4)
    idx = next(x for x in range(24) if s4.label(x) == cct.groups.cycle_notation(double))
    v4 = cct.normal_closure(s4, [idx])
    assert v4.order == 4
    assert cct.is_normal(s4, v4)


def test_is_normal_examples(standard_groups):
    s3 = standard_groups["s3"]
    a3 = cct.subgroup_generated(s3, [x for x in range(6) if s3.element_order(x) == 3])
    assert cct.is_normal(s3, a3)
    transposition = next(x for x in range(1, 6) if s3.element_order(x) == 2)
    assert not cct.is_normal(s3, cct.subgroup_generated(s3, [transposition]))
    z6 = standard_groups["z6"]
    for sub in cct.all_subgroups(z6):
        assert cct.is_normal(z6, sub)


# ---------------------------------------------------------------------------
# quotients


def test_quotient_s3_by_a3(standard_groups):
    s3 = standard_groups["s3"]
    a3 = cct.subgroup_generated(s3, [x for x in range(6) if s3.element_order(x) == 3])
    qm = cct.quotient(s3, a3)
    assert qm.target.order == 2
    assert {x for x in range(6) if qm.projection[x] == 0} == a3.members


def test_quotient_z4(standard_groups):
    z4 = standard_groups["z4"]
    qm = cct.quotient(z4, cct.subgroup_generated(z4, [2]))
    assert qm.target.order == 2


def test_quotient_q8_by_center(standard_groups):
    q8 = standard_groups["q8"]
    center = cct.subgroup_generated(q8, [x for x in range(8) if q8.element_order(x) <= 2])
    assert center.order == 2
    qm = cct.quotient(q8, center)
    assert qm.target.order == 4
    assert all(qm.target.element_order(x) <= 2 for x in range(4))  # Klein four


def test_quotient_projection_is_multiplicative(standard_groups):
    for g in (standard_groups["s4"], standard_groups["d8"]):
        for sub in cct.all_subgroups(g):
            if not cct.is_normal(g, sub):
                continue
            qm = cct.quotient(g, sub)
            assert qm.target.order * sub.order == g.order
            for a in range(g.order):
                for b in range(g.order):
                    assert qm.projection[g.mul(a, b)] == qm.target.mul(
                        qm.projection[a], qm.projection[b])


def test_quotient_rejects_non_normal(standard_groups):
    s3 = standard_groups["s3"]
    transposition = next(x for x in range(1, 6) if s3.element_order(x) == 2)
    with pytest.raises(NotNormal) as exc:
        cct.quotient(s3, cct.subgroup_generated(s3, [transposition]))
    g, x = exc.value.witness
    conj = s3.mul(s3.mul(g, x), s3.inv(g))
    assert conj not in cct.subgroup_generated(s3, [transposition]).members


# ---------------------------------------------------------------------------
# all_subgroups


def test_all_subgroups_counts(standard_groups):
    assert len(cct.all_subgroups(standard_groups["z6"])) == 4
    assert len(cct.all_subgroups(standard_groups["s3"])) == 6
    assert len(cct.all_subgroups(standard_groups["z1"])) == 1


def test_all_subgroups_matches_brute_force(standard_groups):
    for key in ("z6", "v4", "d8", "a4", "s4"):
        g = standard_groups[key]
        fast = {s.members for s in cct.all_subgroups(g)}
        assert fast == brute_subgroups(g), key


def test_all_subgroups_sorted_and_valid(standard_groups):
    subs = cct.all_subgroups(standard_groups["s4"])
    keys = [(s.order, s.sorted_members()) for s in subs]
    assert keys == sorted(keys)
    for s in subs:
        assert 24 % s.order == 0
        assert 0 in s.members


def test_all_subgroups_budget():
    with pytest.raises(OrderBudgetExceeded):
        cct.all_subgroups(cct.cyclic(200))
    assert len(cct.all_subgroups(cct.cyclic(200), enum_max=256)) == 12


# ---------------------------------------------------------------------------
# global invariants


def test_axioms_hold_on_catalog(catalog24):
    # full associativity scan on every constructed group (all of order <= 24
    # here, well under the exhaustive-scan regime), plus identity/inverse
    # axioms on all elements
    for entry in catalog24:
        g = entry.group
        table = cayley_table(g)
        n = g.order
        for a in range(n):
            assert table[0][a] == a and table[a][0] == a
            assert table[a][g.inv(a)] == 0 and table[g.inv(a)][a] == 0
        bad = [
            (a, b, c)
            for a in range(n) for b in range(n) for c in range(n)
            if table[table[a][b]][c] != table[a][table[b][c]]
        ]
        assert bad == [], (entry.name, bad[:1])


def assert_valid_subgroup(sub):
    g = sub.parent
    assert 0 in sub.members
    assert g.order % sub.order == 0
    for a in sub.members:
        assert g.inv(a) in sub.members
        for b in sub.members:
            assert g.mul(a, b) in sub.members


def test_operations_return_valid_subgroups(standard_groups):
    for key in ("z6", "s3", "d8", "q8", "a4"):
        g = standard_groups[key]
        assert_valid_subgroup(cct.subgroup_generated(g, [g.generators[0]]))
        assert_valid_subgroup(cct.normal_closure(g, [g.generators[0]]))
        for sub in cct.all_subgroups(g):
            assert_valid_subgroup(sub)
        assert_valid_subgroup(cct.socle(standard_groups["z2"], g))
        for stage in cct.radical(standard_groups["z2"], g).stages:
            assert_valid_subgroup(stage)


def test_construction_is_deterministic():
    a = cct.symmetric(4)
    b = cct.symmetric(4)
    assert cayley_table(a) == cayley_table(b)
    assert a.generators == b.generators and a.labels == b.labels


def test_subgroup_as_group(standard_groups):
    s3 = standard_groups["s3"]
    a3 = cct.subgroup_generated(s3, [x for x in range(6) if s3.element_order(x) == 3])
    g = a3.as_group()
    assert g.order == 3
    assert cct.isomorphic(g, cct.cyclic(3))


def test_permutation_backing_above_table_cap(monkeypatch):
    monkeypatch.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 100)
    s5 = cct.symmetric(5)
    assert s5.backing == "permutation-composition"
    assert s5.order == 120
    x = s5.generators[0]
    assert s5.mul(x, s5.inv(x)) == 0
    assert cct.subgroup_generated(s5, list(s5.generators)).order == 120
