"""Group core: constructions, subgroup algebra, quotients."""

import collections
import functools
import gc
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cct
from cct.cli import _BUILTIN_GENS
from cct.errors import NotAGroup, NotNormal, OrderBudgetExceeded
from cct.specfile import builtin_group


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


@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
def test_from_cayley_label_count_must_match(labels):
    with pytest.raises(ValueError, match=f"^{len(labels)} labels for a table of 2 elements$"):
        cct.from_cayley([[0, 1], [1, 0]], labels)


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


@pytest.mark.parametrize("table, message", [
    ([[0, 1.0], [1, 0]], "table entry 1.0 out of range at row 0"),
    ([[0, 1], [1, -1]], "table entry -1 out of range at row 1"),
    ([[0, 1], [2, 0]], "table entry 2 out of range at row 1"),
    ([[0, 1, 2], [1, 2, 0], [2, 5, 1.0]], "table entry 5 out of range at row 2"),
    ([[0, -1], [1]], "table entry -1 out of range at row 0"),  # before the short row
    ([[0, 1], [1, 0, 1]], "table is not square at row 1"),
])
def test_from_cayley_names_the_first_bad_entry(table, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cct.from_cayley(table)


def test_from_cayley_accepts_bool_entries():
    g = cct.from_cayley([[0, True], [True, 0]])
    assert g.order == 2 and g.mul(1, 1) == 0


def brute_identity(table):
    """Oracle: the two-sided identity of a magma, or None."""
    n = len(table)
    return next((e for e in range(n)
                 if all(table[e][x] == x == table[x][e] for x in range(n))), None)


def has_two_sided_inverse(table, e, x):
    return any(table[x][y] == e == table[y][x] for y in range(len(table)))


@st.composite
def magmas(draw):
    """Tables of order <= 6: arbitrary, with an identity planted, or a
    relabelled group table; then a few entries changed, and perhaps an
    element x given two right inverses y1 < y2 of which only y2 is also a
    left inverse, so the identity appears twice in row x."""
    n = draw(st.integers(1, 6))
    entries = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["arbitrary", "unital", "group"]))
    if kind == "group":
        base = cayley_table({4: cct.abelian([2, 2]), 6: cct.symmetric(3)}.get(n) or cct.cyclic(n))
        pi = draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[pi[a]][pi[b]] = pi[base[a][b]]
        e = pi[0]
    else:
        table = [[draw(entries) for _ in range(n)] for _ in range(n)]
        e = draw(entries)
        if kind == "unital":
            for x in range(n):
                table[e][x] = table[x][e] = x
    for _ in range(draw(st.integers(0, 2))):
        table[draw(entries)][draw(entries)] = draw(entries)
    others = [x for x in range(n) if x != e]
    if kind != "arbitrary" and len(others) >= 3 and draw(st.booleans()):
        x, y1, y2 = draw(st.permutations(others))[:3]
        y1, y2 = sorted((y1, y2))
        table[x][y1] = table[x][y2] = table[y2][x] = e
        table[y1][x] = draw(st.sampled_from(others))
    return table


@settings(max_examples=300)
@example([[0, 1, 2, 3],
          [1, 2, 0, 0],  # 1 * 2 = 0 but 2 * 1 = 3; 1 * 3 = 0 = 3 * 1
          [2, 3, 0, 1],
          [3, 0, 1, 2]])
@given(magmas())
def test_from_cayley_matches_brute_force_on_magmas(table):
    n = len(table)
    e = brute_identity(table)
    try:
        group = cct.from_cayley(table)
    except NotAGroup as exc:
        w = exc.witness
        if w is None:
            assert e is None
            return
        assert e is not None
        if isinstance(w, int):
            assert not has_two_sided_inverse(table, e, w)
            assert all(has_two_sided_inverse(table, e, x) for x in range(w))
        else:
            assert all(has_two_sided_inverse(table, e, x) for x in range(n))
            a, g, c = w
            assert table[table[a][g]][c] != table[a][table[g][c]]
        return
    assert group.order == n
    assert is_group_table(table)


# ---------------------------------------------------------------------------
# from_permutations


def test_from_permutations_s3():
    gens = [cct.perm_from_cycles([[1, 2]], 3), cct.perm_from_cycles([[1, 2, 3]], 3)]
    g = cct.from_permutations(gens, 3)
    assert g.order == 6
    assert not g.is_abelian


@pytest.mark.parametrize("cycles, degree, expected", [
    ([[1, 2], [2, 3]], 3, (2, 0, 1)),  # overlapping cycles compose left to right
    ([[1, 2, 3]], 4, (1, 2, 0, 3)),
    ([[3, 1, 2]], 3, (1, 2, 0)),
    ([[1], [2, 3]], 3, (0, 2, 1)),
    ([], 2, (0, 1)),
    ([[1, 3], [2, 3]], 3, (1, 2, 0)),
])
def test_perm_from_cycles_values(cycles, degree, expected):
    assert cct.perm_from_cycles(cycles, degree) == expected


@pytest.mark.parametrize("cycles, point", [
    ([[1, 2, 1]], 1),
    ([[3, 1, 2, 3]], 3),
    ([[1, 2], [2, 3, 2]], 2),
    ([[2, 2]], 2),
])
def test_perm_from_cycles_rejects_a_repeated_point(cycles, point):
    with pytest.raises(ValueError, match=f"repeats point {point}$"):
        cct.perm_from_cycles(cycles, 3)


def test_from_permutations_empty_is_trivial():
    g = cct.from_permutations([], 4)
    assert g.order == 1


def test_from_permutations_s5_closure():
    gens = [cct.perm_from_cycles([[1, 2, 3, 4, 5]], 5), cct.perm_from_cycles([[1, 2]], 5)]
    g = cct.from_permutations(gens, 5)
    assert g.order == 120


def test_order_max_env_override(monkeypatch):
    monkeypatch.setenv("CCT_ORDER_MAX", "50")
    with pytest.raises(OrderBudgetExceeded):
        cct.symmetric(5)
    monkeypatch.setenv("CCT_ORDER_MAX", "not-a-number")
    with pytest.raises(ValueError):
        cct.symmetric(3)


def _s5_order():
    gens = [cct.perm_from_cycles([[1, 2, 3, 4, 5]], 5), cct.perm_from_cycles([[1, 2]], 5)]
    return cct.from_permutations(gens, 5).order


@pytest.mark.parametrize("limit, call, size, expected", [
    ("HOM_DOMAIN_MAX", lambda: len(list(cct.iter_homs(cct.cyclic(20), cct.cyclic(2)))), 20, 2),
    ("HOM_DOMAIN_MAX", lambda: len(cct.enumerate_homs(cct.cyclic(20), cct.cyclic(2))), 20, 2),
    ("HOM_DOMAIN_MAX", lambda: cct.hom_count(cct.cyclic(20), cct.cyclic(2)), 20, 2),
    ("SUBGROUP_ENUM_MAX", lambda: len(cct.all_subgroups(cct.cyclic(200))), 200, 12),
    ("CCT_ORDER_MAX", _s5_order, 120, 120),
], ids=["iter_homs", "enumerate_homs", "hom_count", "all_subgroups", "from_permutations"])
def test_limit_is_read_from_config(monkeypatch, limit, call, size, expected):
    """Each entry point raises once its limit, read from `config` (or
    CCT_ORDER_MAX) when called, falls below `size`, and gives its result
    again at `size`."""
    def set_limit(value):
        if limit == "CCT_ORDER_MAX":
            monkeypatch.setenv(limit, str(value))
        else:
            monkeypatch.setattr(cct.config, limit, value)

    set_limit(size - 1)
    with pytest.raises(OrderBudgetExceeded, match=f"order budget {size - 1} exceeded"):
        call()
    set_limit(size)
    assert call() == expected


@pytest.mark.parametrize("target", [lambda: cct.cyclic(200), lambda: cct.symmetric(6)],
                         ids=["z200", "s6"])
@pytest.mark.parametrize("name", ["2-group", "abelian"])
def test_factor_through_class_enumerates_no_subgroups(monkeypatch, target, name):
    # the image alone decides, so a target above the subgroup budget answers
    monkeypatch.setattr(cct.config, "SUBGROUP_ENUM_MAX", 2)
    hom = next(h for h in cct.enumerate_homs(cct.cyclic(2), target()) if any(h.full_map))
    assert cct.factor_through_class(hom, name) == cct.image(hom)


@pytest.mark.parametrize("family", ["symmetric", "alternating"])
def test_huge_degree_fails_before_building(family):
    with pytest.raises(OrderBudgetExceeded, match=f"\\({family} 1000000\\)$"):
        getattr(cct, family)(10**6)


@pytest.mark.parametrize("build,error,message", [
    (lambda: cct.cyclic(20001), OrderBudgetExceeded, "(cyclic 20001)"),
    (lambda: cct.abelian([2, 10001]), OrderBudgetExceeded, "(abelian [2, 10001])"),
    (lambda: cct.dihedral(20002), OrderBudgetExceeded, "(dihedral 20002)"),
    (lambda: cct.direct_product(cct.cyclic(200), cct.cyclic(101)), OrderBudgetExceeded,
     "(direct product)"),
    (lambda: cct.build_small_catalog(20001), OrderBudgetExceeded, "(catalog bound)"),
    (lambda: cct.build_small_catalog(0), ValueError, "max_order must be positive"),
], ids=["cyclic", "abelian", "dihedral", "direct-product", "catalog-bound", "catalog-zero"])
def test_order_budget_gates_name_their_context(monkeypatch, build, error, message):
    # each gate fires before its group is built, at the default budget of 20000
    monkeypatch.delenv("CCT_ORDER_MAX", raising=False)
    with pytest.raises(error, match=f"{re.escape(message)}$") as exc:
        build()
    if error is OrderBudgetExceeded:
        assert exc.value.limit == 20000


# ---------------------------------------------------------------------------
# named families


def test_quaternion_structure():
    q8 = cct.quaternion()
    assert q8.order == 8
    orders = sorted(q8.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_quaternion_relations_by_label():
    q8 = cct.quaternion()
    x = {q8.label(e): e for e in range(8)}
    assert len(x) == 8
    prod = lambda *names: q8.label(functools.reduce(q8.mul, (x[n] for n in names)))
    assert prod("i", "i") == prod("j", "j") == prod("k", "k") == prod("i", "j", "k") == "-1"
    assert prod("i", "j") == "k" and prod("j", "i") == "-k"


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


def naive_element_order(group, x):
    """Oracle: multiply by x until the identity comes back."""
    m, y = 1, x
    while y != 0:
        y = group.mul(y, x)
        m += 1
    return m


def test_element_orders_match_repeated_multiplication():
    # each walk of <x> also fills the orders of x's powers, so check every
    # element, of table-backed and permutation-backed groups alike
    groups = [e.group for e in cct.build_small_catalog(32)]
    groups += [cct.alternating(7), cct.symmetric(7)]
    assert groups[-2].backing == "cayley-table"
    assert groups[-1].backing == "permutation-composition"
    for g in groups:
        got = [g.element_order(x) for x in range(g.order)]
        assert got == [naive_element_order(g, x) for x in range(g.order)], g


def test_element_orders_is_the_completed_cache():
    g = cct.dihedral(12)
    g.element_order(3)  # a partly filled cache is completed on first use
    orders = g.element_orders()
    assert orders == [naive_element_order(g, x) for x in range(g.order)]
    assert g.element_orders() is orders


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


@st.composite
def random_groups(draw, backings=("table", "permutations")):
    """A group generated by up to three permutations of degree at most 5,
    on one of `backings`: a Cayley table built whole, a table with every
    row built on first read ("first-read", the eager bound at 0), or, with
    the table cap at 0, its permutations."""
    degree = draw(st.integers(1, 5))
    perms = draw(st.lists(st.permutations(range(degree)).map(tuple), min_size=1, max_size=3))
    backing = draw(st.sampled_from(backings))
    with pytest.MonkeyPatch.context() as mp:
        if backing == "permutations":
            mp.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 0)
        elif backing == "first-read":
            mp.setattr(cct.groups, "_EAGER_ROWS_MAX", 0)
        return cct.from_permutations(perms, degree)


def naive_left_cosets(group, members):
    """Oracle: (coset_of, reps) of the left cosets x N, each built by
    multiplying x into every member, numbered by least element."""
    cosets = [frozenset(group.mul(x, k) for k in members) for x in range(group.order)]
    distinct = list(dict.fromkeys(cosets))
    return [distinct.index(c) for c in cosets], [min(c) for c in distinct]


@settings(max_examples=100)
@given(random_groups(), st.data())
def test_left_coset_closure_and_labels_match_naive_oracles(group, data):
    # each seed's closure adds whole left cosets (t r) H, one row product each
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=4))
    closure = cct.groups._Closure(group)
    for k, x in enumerate(seeds):
        closure.add(x)
        assert closure.members == naive_closure(group, seeds[:k + 1])
    x = data.draw(st.integers(0, group.order - 1))
    members = sorted(closure.members)
    assert list(group.mul_row(x, members)) == [group.mul(x, y) for y in members]
    assert cct.groups._cosets(group, closure.members) == naive_left_cosets(group, members)


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


def naive_is_normal(group, members):
    """Oracle: every member conjugated by every element stays a member."""
    return all(group.mul(group.mul(g, h), group.inv(g)) in members
               for g in range(group.order) for h in members)


@settings(max_examples=100)
@given(random_groups(), random_groups(("first-read",)))
def test_is_normal_matches_conjugating_every_member(drawn, first_read):
    # a table built on first read conjugates through one map per generator
    for group in (drawn, first_read):
        for sub in cct.all_subgroups(group):
            assert cct.is_normal(group, sub) == naive_is_normal(group, sub.members), sub


def test_radical_stages_are_normal_by_the_oracle(catalog24):
    gens = [builtin_group(name) for name in _BUILTIN_GENS]
    for entry in catalog24:
        for gen in gens:
            for stage in cct.radical(gen, entry.group).stages:
                assert naive_is_normal(entry.group, stage.members), (entry.name, stage)


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


def test_not_normal_witness_depends_on_the_subgroup_alone():
    # a frozenset's iteration order follows insertion order where members
    # collide, so the same subgroup built from its members in two orders
    # must still name the least member that a generator moves out, and the
    # first such generator
    s5 = cct.symmetric(5)
    for sub in cct.all_subgroups(s5):
        if cct.is_normal(s5, sub):
            continue
        witnesses = []
        for members in (sub.sorted_members(), sub.sorted_members()[::-1]):
            with pytest.raises(NotNormal) as exc:
                cct.quotient(s5, cct.Subgroup(s5, members))
            witnesses.append(exc.value.witness)
        moved = [(g, x) for x in sub.sorted_members() for g in s5.generators
                 if s5.mul(s5.mul(g, x), s5.inv(g)) not in sub]
        assert witnesses == [moved[0]] * 2


# ---------------------------------------------------------------------------
# all_subgroups


def test_all_subgroups_counts(standard_groups):
    assert len(cct.all_subgroups(standard_groups["z6"])) == 4
    assert len(cct.all_subgroups(standard_groups["s3"])) == 6
    assert len(cct.all_subgroups(standard_groups["z1"])) == 1


def test_all_subgroups_matches_brute_force(standard_groups):
    groups = [standard_groups[key] for key in ("z6", "v4", "d8", "q8", "a4", "s4")]
    for g in groups + [cct.dihedral(16), cct.abelian([2, 2, 2])]:
        fast = [(s.order, s.sorted_members()) for s in cct.all_subgroups(g)]
        assert fast == sorted((len(s), tuple(sorted(s))) for s in brute_subgroups(g)), g


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


def test_is_normal_and_as_group_share_one_generating_set(monkeypatch):
    s4 = cct.symmetric(4)
    sub = next(sub for sub in cct.all_subgroups(s4) if sub.order == 8)
    extend = cct.groups._Closure.extend
    closed = []

    def counting(closure, seeds):
        seeds = list(seeds)
        closed.append(seeds)
        return extend(closure, seeds)

    monkeypatch.setattr(cct.groups._Closure, "extend", counting)
    assert not cct.is_normal(s4, sub)  # a Sylow 2-subgroup of S4, one of three
    assert sub.as_group().order == 8
    assert not cct.is_normal(s4, sub)
    assert closed == [list(sub.sorted_members())]


def test_permutation_backing_above_table_cap(monkeypatch):
    monkeypatch.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 100)
    s5 = cct.symmetric(5)
    assert s5.backing == "permutation-composition"
    assert s5.order == 120
    x = s5.generators[0]
    assert s5.mul(x, s5.inv(x)) == 0
    assert cct.subgroup_generated(s5, list(s5.generators)).order == 120


def test_subgroup_rejects_members_out_of_range():
    # -4 would index the identity's row and 4 no row at all
    z4 = cct.cyclic(4)
    for members in ({0, -4}, {0, 4}):
        with pytest.raises(ValueError, match="range"):
            cct.Subgroup(z4, members)


@pytest.mark.parametrize("group,members,message", [
    (cct.cyclic(4), {1, 2, 3}, "must contain the identity"),
    (cct.cyclic(4), {0, 1, 2}, "size must divide the parent order"),
    (cct.cyclic(4), {0, 1}, "not closed under inverse at 1"),
    # the identity, (1 2) and (1 3)
    (cct.symmetric(3), {0, 1, 3}, "not closed under product"),
], ids=["identity", "divides", "inverse", "product"])
def test_subgroup_rejects_a_set_that_is_not_a_subgroup(group, members, message):
    with pytest.raises(ValueError, match=message):
        cct.Subgroup(group, members)


def test_default_cap_keeps_large_groups_off_the_table():
    z = cct.cyclic(4500)
    assert z.backing == "element-index"
    assert z.mul(4000, 700) == 200 and z.inv(1) == 4499
    s7 = cct.symmetric(7)
    whole = cct.subgroup_generated(s7, s7.generators).as_group()
    assert whole.order == 5040 and whole.backing == "element-index"
    assert all(whole.mul(x, whole.inv(x)) == 0 for x in range(whole.order))


def affine_table(p):
    """The maps x -> a x + b of Z/p under composition, (a, b) numbered
    (a - 1) p + b: a Cayley table that no BFS numbering produced."""
    def mul(x, y):
        (a1, b1), (a2, b2) = divmod(x, p), divmod(y, p)
        return ((a1 + 1) * (a2 + 1) % p - 1) * p + ((a1 + 1) * b2 + b1) % p
    return [[mul(x, y) for y in range(p * (p - 1))] for x in range(p * (p - 1))]


def _s6_point_stabilizer():
    s6 = cct.symmetric(6)
    return cct.subgroup_generated(s6, [x for x in range(720) if "6" not in s6.label(x)])


def _quotient_by_z2():
    g = cct.direct_product(cct.symmetric(5), cct.cyclic(2))
    z2 = next(x for x in range(g.order) if g.label(x) == "((),1)")
    return cct.quotient(g, cct.normal_closure(g, [z2])).target


# one group of order above 100 per constructor
_CAP_BUILDS = {
    "cyclic": lambda: cct.cyclic(120),
    "abelian": lambda: cct.abelian([2, 6, 10]),
    "dihedral": lambda: cct.dihedral(128),
    "direct_product": lambda: cct.direct_product(cct.symmetric(4), cct.cyclic(6)),
    "from_cayley": lambda: cct.from_cayley(affine_table(11)),
    "from_permutations": lambda: cct.symmetric(5),
    "realize": lambda: cct.realize(
        cct.parse_presentation("<a,b | a^60, a^30 b^-2, b^-1 a b a>"), 2000),
    "as_group": lambda: _s6_point_stabilizer().as_group(),
    "quotient": _quotient_by_z2,
}


def group_data(g):
    n = g.order
    return ([g.label(x) for x in range(n)], g.generators, [g.inv(x) for x in range(n)],
            g.element_orders(), cayley_table(g))


@pytest.mark.parametrize("name", sorted(_CAP_BUILDS))
def test_backing_leaves_the_group_unchanged(name, monkeypatch):
    tabled = _CAP_BUILDS[name]()
    monkeypatch.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 100)
    indexed = _CAP_BUILDS[name]()
    assert tabled.order > 100 and tabled.backing == "cayley-table"
    assert indexed.backing == ("permutation-composition"
                               if name == "from_permutations" else "element-index")
    assert group_data(indexed) == group_data(tabled)


@pytest.mark.parametrize("name", sorted(_CAP_BUILDS))
@pytest.mark.parametrize("cap", [None, 100])
def test_inverses_invert_under_the_product(name, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", cap)
    g = _CAP_BUILDS[name]()
    assert (g.backing == "cayley-table") == (cap is None)
    assert all(g.mul(x, g.inv(x)) == 0 == g.mul(g.inv(x), x) for x in range(g.order))


# ---------------------------------------------------------------------------
# Cayley tables built along the BFS tree


def bfs_perms(gens, degree):
    """Oracle: BFS over permutation tuples, composing "p then q" directly."""
    identity = tuple(range(degree))
    order, seen = [identity], {identity}
    for x in order:
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def cycle_string(perm):
    """Oracle: the cycles of a 0-based permutation, each from its least
    point and in order of those points, on 1-based points."""
    cycles, done = [], set()
    for start in range(len(perm)):
        if start not in done:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            done.update(cycle)
            if len(cycle) > 1:
                cycles.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(cycles) or "()"


@pytest.mark.parametrize("cycles, degree, expected", [
    ([], 1, "()"),
    ([[1, 2]], 2, "(1 2)"),
    ([[10, 12], [1, 11, 3]], 12, "(1 11 3)(10 12)"),
    ([[9, 10], [2, 3]], 10, "(2 3)(9 10)"),
    ([list(range(12, 0, -1))], 12, "(1 12 11 10 9 8 7 6 5 4 3 2)"),
])
def test_cycle_notation_values(cycles, degree, expected):
    perm = cct.perm_from_cycles(cycles, degree)
    assert cct.groups.cycle_notation(perm) == cycle_string(perm) == expected


@settings(max_examples=40)
@given(st.data())
def test_from_permutations_table_matches_all_products(data):
    # up to six moved points of up to twelve, so points 10 to 12 show up
    # with two digits; with the table cap at 0 the group composes its
    # permutations
    degree = data.draw(st.integers(1, 12))
    support = data.draw(st.lists(st.integers(0, degree - 1), unique=True, max_size=6))

    def on_support(images):
        perm = list(range(degree))
        for point, image in zip(support, images):
            perm[point] = image
        return tuple(perm)

    gens = data.draw(st.lists(st.permutations(support).map(on_support), max_size=3))
    if gens and data.draw(st.booleans()):
        gens.insert(data.draw(st.integers(0, len(gens))), tuple(range(degree)))
    if gens and data.draw(st.booleans()):
        gens.append(data.draw(st.sampled_from(gens)))
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 0)
        group = cct.from_permutations(gens, degree)
    order = bfs_perms(gens, degree)
    pos = {p: i for i, p in enumerate(order)}
    assert group.order == len(order)
    assert group.labels == tuple(cycle_string(p) for p in order)
    assert group.element_orders() == [naive_element_order(group, x) for x in range(group.order)]
    assert group.generators == (tuple(pos[g] for g in gens) or (0,))
    assert cayley_table(group) == [[pos[tuple(b[i] for i in a)] for b in order] for a in order]
    assert all(group.mul(x, group.inv(x)) == 0 for x in range(group.order))


@functools.cache
def _quotient_groups():
    return [cct.symmetric(4), cct.dihedral(16), cct.abelian([2, 4, 6]), cct.quaternion(),
            cct.direct_product(cct.symmetric(3), cct.cyclic(4))]


@settings(max_examples=40)
@given(st.data())
def test_quotient_table_is_the_coset_product(data):
    group = data.draw(st.sampled_from(_quotient_groups()))
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    q = cct.quotient(group, cct.normal_closure(group, seeds))
    cosets = [frozenset(x for x in range(group.order) if q.projection[x] == c)
              for c in range(q.target.order)]
    assert set(cosets[0]) == q.kernel.members
    for a in range(q.target.order):
        assert q.target.label(a) == group.label(min(cosets[a]))
        for b in range(q.target.order):
            product = {group.mul(x, y) for x in cosets[a] for y in cosets[b]}
            assert product == cosets[q.target.mul(a, b)]


@settings(max_examples=40)
@given(st.data())
def test_as_group_table_is_the_restricted_product(data):
    parent = data.draw(st.sampled_from(_quotient_groups()))
    seeds = data.draw(st.lists(st.integers(0, parent.order - 1), max_size=3))
    sub = cct.subgroup_generated(parent, seeds)
    group = sub.as_group()
    by_label = {parent.label(x): x for x in range(parent.order)}
    embed = [by_label[group.label(i)] for i in range(group.order)]
    assert embed[0] == 0 and set(embed) == sub.members
    greedy = []  # each member outside the BFS closure of those taken before
    for x in sub.sorted_members():
        if x not in naive_closure(parent, greedy):
            greedy.append(x)
    assert [embed[g] for g in group.generators] == (greedy or [0])
    assert all(embed[group.mul(i, j)] == parent.mul(embed[i], embed[j])
               for i in range(group.order) for j in range(group.order))
    assert cct.subgroup_generated(group, group.generators).order == group.order


def counting_multiplier_calls(monkeypatch):
    """Count the calls of every multiplier that `groups._perm_left` builds,
    by the length of its permutation: raw products of degree d under d,
    reads of a Cayley-table row through a column of n entries under n."""
    calls = collections.Counter()
    perm_left = cct.groups._perm_left

    def counting(p):
        left = perm_left(p)

        def counted(q):
            calls[len(p)] += 1
            return left(q)
        return counted

    monkeypatch.setattr(cct.groups, "_perm_left", counting)
    return calls


def test_from_permutations_composes_only_along_the_tree(monkeypatch):
    # n |gens| raw products for the BFS and n per generator column.  A7 is
    # above the eager bound, so building it reads no row; reading every
    # row, deepest first, then takes one read per row, each through its
    # tree edge's column.
    gens = [cct.perm_from_cycles([[1, 2, 3]], 7), cct.perm_from_cycles([list(range(1, 8))], 7)]
    _, _, parent, edge = cct.groups._bfs_order(tuple(range(7)), gens, cct.groups._compose, 2521)
    calls = counting_multiplier_calls(monkeypatch)
    counting = cct.groups._perm_left
    reads = []  # (row read, column read through), each by its first entry

    def recording(p):
        left = counting(p)
        if len(p) < 2520:  # a raw product
            return left
        return lambda q: reads.append((q[0], p[0])) or left(q)

    monkeypatch.setattr(cct.groups, "_perm_left", recording)
    a7 = cct.alternating(7)
    assert a7.order == 2520 > cct.groups._EAGER_ROWS_MAX and a7.backing == "cayley-table"
    assert a7.order <= calls[7] <= 2 * a7.order * len(a7.generators)
    assert calls[a7.order] == 0
    for x in reversed(range(a7.order)):
        a7.mul(x, 0)
    assert calls[a7.order] == a7.order - 1
    assert set(calls) == {7, a7.order}
    # row p's first entry is p, and generator g's column's is g
    assert sorted((a7.mul(p, g), p, g) for p, g in reads) == [
        (a, parent[a], a7.generators[edge[a]]) for a in range(1, a7.order)]


def test_slot_classes_build_no_row_beyond_the_generators(monkeypatch):
    # conjugation reads one map per generator, built off the generators'
    # own rows, so splitting A7's slots into classes builds no other row
    calls = counting_multiplier_calls(monkeypatch)
    a7 = cct.alternating(7)
    assert a7.order > cct.groups._EAGER_ROWS_MAX and calls[a7.order] == 0
    for m in (2, 3, 4):
        cct.homs._slot_classes(a7, m)
    assert calls[a7.order] == len(a7.generators) == 2


def test_closure_builds_only_the_accepted_seeds_rows(monkeypatch):
    # a new coset (t r) H is read as t (r H), off the accepted seed t's row,
    # so growing A7 through A4 (4 cosets of Z/3), A5 and a subgroup of order
    # 120 builds the rows that reading each accepted seed's row alone builds
    # on a second A7, tree-path climbs included
    calls = counting_multiplier_calls(monkeypatch)
    a7 = cct.alternating(7)
    by_label = {a7.label(x): x for x in range(a7.order)}
    seeds = [by_label[c] for c in ("(2 3 4)", "(1 2 3)", "(1 3 2)", "(3 4 5)", "(1 2)(6 7)",
                                   "(1 2 3 4 5 6 7)")]
    closure = cct.groups._Closure(a7)
    grown = []
    for x in seeds:
        closure.add(x)
        grown.append(set(closure.members))
    assert [len(members) for members in grown] == [3, 12, 12, 60, 120, a7.order]
    built = calls[a7.order]
    twin = cct.alternating(7)
    assert calls[a7.order] == built
    for t in closure.gens:
        twin.mul(t, 0)
    assert calls[a7.order] - built == built
    accepted = []
    for k, x in enumerate(seeds):
        if x not in naive_closure(a7, accepted):
            accepted.append(x)
        assert grown[k] == naive_closure(a7, seeds[:k + 1])
    assert closure.gens == accepted == [seeds[0], seeds[1], *seeds[3:]]


def test_permutation_group_reads_inverses_only_when_asked(monkeypatch):
    # the BFS applies each element's multiplier to the generators once,
    # and no inverse is computed until one is read
    calls = counting_multiplier_calls(monkeypatch)
    s7 = cct.symmetric(7)
    assert s7.backing == "permutation-composition"
    built = calls[7]
    assert built == s7.order * len(s7.generators) <= 2 * s7.order * len(s7.generators)
    cycle = s7.generators[1]
    assert s7.mul(cycle, s7.inv(cycle)) == 0
    # the 7-cycle's inverse is its sixth power by squaring (3 products),
    # read off its given order, and 1 more for the check
    assert calls[7] == built + 4


def test_inverse_walk_stops_on_a_product_that_is_not_a_group():
    # no power of 1 is 0 under min(a + b, 3): the walk stops after |G| steps,
    # whether an inverse, the orders or a closure's first seed asked for it
    for read in (lambda group: group.inv(1), lambda group: group.element_orders(),
                 lambda group: cct.subgroup_generated(group, [1]),
                 lambda group: cct.normal_closure(group, [1])):
        group = cct.groups._bfs_group(0, [1], lambda a, b: min(a + b, 3), 10, None)[0]
        assert group.order == 4
        with pytest.raises(AssertionError, match="identity"):
            read(group)


@pytest.mark.parametrize("build", [
    lambda: cct.cyclic(5),
    lambda: cct.symmetric(7),
], ids=["c5", "s7"])
def test_inverse_of_an_index_outside_the_group_is_refused(build):
    # the entry points that check their indices; `mul` and its kin do not
    group = build()
    for x in (-1, group.order):
        with pytest.raises(ValueError, match=f"element {x} is not in range"):
            group.inv(x)
        with pytest.raises(ValueError, match=f"element index {x} out of range"):
            cct.element_order(group, x)
        with pytest.raises(ValueError, match=f"element index {x} out of range"):
            cct.subgroup_generated(group, [x])
        with pytest.raises(ValueError, match=f"element index {x} out of range"):
            cct.normal_closure(group, [x])
        with pytest.raises(ValueError, match="subgroup members must lie in range"):
            cct.Subgroup(group, {0, x})


@pytest.mark.parametrize("build, backing", [
    (lambda: cct.symmetric(7), "permutation-composition"),
    (lambda: cct.alternating(7), "cayley-table"),
], ids=["s7", "a7"])
def test_row_products_and_inverses_agree_with_the_product(build, backing):
    group = build()
    assert group.backing == backing
    ys = list(range(group.order - 1, -1, -97))  # every 97th element, in descending order
    for x in range(group.order):
        assert list(group.mul_row(x, ys)) == [group.mul(x, y) for y in ys]
    assert all(group.mul(x, group.inv(x)) == 0 == group.mul(group.inv(x), x)
               for x in range(group.order))


@functools.cache
def _renumbered_table_1024():
    """The Cayley table of D128 x Q8, its elements renumbered at random: a
    1024-element table that no BFS numbering produced."""
    group = cct.direct_product(cct.dihedral(128), cct.quaternion())
    n = group.order
    new = list(range(n))
    random.Random(34).shuffle(new)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y, xy in enumerate(group.mul_row(x, range(n))):
            table[new[x]][new[y]] = new[xy]
    return table


# groups on both sides of the eager bound: S5's table is built whole, the
# others build each row when first read
_ROW_READ_BUILDS = {
    "symmetric(5)": lambda: cct.symmetric(5),
    "symmetric(6)": lambda: cct.symmetric(6),
    "dihedral(512)": lambda: cct.dihedral(512),
    "from_cayley(1024)": lambda: cct.from_cayley(_renumbered_table_1024()),
}


@pytest.mark.parametrize("name", list(_ROW_READ_BUILDS))
@pytest.mark.parametrize("reading", ["descending", "random"])
def test_rows_read_in_any_order_match_the_indexed_build(name, reading, monkeypatch):
    tabled = _ROW_READ_BUILDS[name]()
    monkeypatch.setattr(cct.groups.config, "CAYLEY_TABLE_MAX", 100)
    indexed = _ROW_READ_BUILDS[name]()
    assert tabled.backing == "cayley-table" != indexed.backing
    assert (tabled.order > cct.groups._EAGER_ROWS_MAX) == (name != "symmetric(5)")
    xs = list(reversed(range(tabled.order)))
    if reading == "random":
        random.Random(7).shuffle(xs)
    everything = range(tabled.order)
    for k, x in enumerate(xs):
        y = xs[-1 - k]
        if k % 2:  # row x is first read by `mul` or by `mul_row`, in turn
            assert tabled.mul(x, y) == indexed.mul(x, y)
        assert list(tabled.mul_row(x, everything)) == list(indexed.mul_row(x, everything))
        assert tabled.mul(x, y) == indexed.mul(x, y)
    # after every row: inverses read the element orders' power walks
    assert [tabled.inv(x) for x in xs] == [indexed.inv(x) for x in xs]


@pytest.mark.parametrize("name", ["symmetric(6)", "alternating(7)", "dihedral(512)",
                                  "from_cayley(1024)"])
def test_conjugation_maps_match_the_product(name):
    # a table built on first read conjugates through one map per generator;
    # an eager table and a permutation group multiply instead
    build = {"alternating(7)": lambda: cct.alternating(7), **_ROW_READ_BUILDS}[name]
    group = build()
    assert group.order > cct.groups._EAGER_ROWS_MAX and group.backing == "cayley-table"
    everything = range(group.order)
    assert list(cct.groups._conjugates(group, everything)) == [
        (g, x, group.mul(group.mul(g, x), group.inv(g)))
        for x in everything for g in group.generators]
    assert len(group.conjugation_maps) == len(group.generators)
    assert cct.symmetric(5).conjugation_maps is None
    assert cct.symmetric(7).conjugation_maps is None


def test_a_dropped_group_leaves_nothing_for_the_cyclic_collector():
    # a table built row by row keeps its tree and columns, in no cycle
    gc.collect()
    gc.disable()
    try:
        a7, s6 = cct.alternating(7), cct.symmetric(6)
        for group in (a7, s6):
            assert group.order > cct.groups._EAGER_ROWS_MAX
            for x in (group.order - 1, group.order - 2, group.order // 2):
                group.mul(x, x)
                group.mul_row(group.inv(x), [0, x])
        del a7, s6, group
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("length", [1, 2, 7])
def test_compose_reads_q_through_p(length):
    q = (3, 6, 0, 5, 1, 4, 2)
    p = (4, 0, 6, 2, 5, 1, 3)[:length]
    r = cct.groups._compose(p, q)
    assert type(r) is tuple and len(r) == length
    assert list(r) == [q[i] for i in p]


@pytest.mark.parametrize("build", [
    lambda: cct.symmetric(1),
    lambda: cct.from_permutations([(0,)], 1),
    lambda: cct.from_cayley([[0]]),
    lambda: cct.realize(cct.parse_presentation("<a, b | a, b>")),
], ids=["symmetric", "from_permutations", "from_cayley", "realize"])
def test_order_one_constructions_work(build):
    g = build()
    assert g.order == 1 and set(g.generators) == {0}
    assert g.mul(0, 0) == 0 and g.inv(0) == 0
    assert g.element_orders() == [1]
    assert [s.members for s in cct.all_subgroups(g)] == [frozenset({0})]
