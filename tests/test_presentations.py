"""Presentation parsing, coset enumeration, realization."""

import collections
import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cct
from cct.errors import BudgetExceeded, ParseError


def relator_texts(pres):
    return [r.text(pres.generators) for r in pres.relators]


def evaluate(group, word):
    """The element a word names, reading symbol i as the group's generator i."""
    acc = 0
    for sym, exp in word.letters:
        gen = group.generators[sym]
        acc = group.mul(acc, gen if exp > 0 else group.inv(gen))
    return acc


def bfs_words(group):
    """Each element's word in generator positions, as first reached by a
    FIFO breadth-first search from the identity over `group.generators`."""
    words = {0: ()}
    frontier = collections.deque([0])
    while frontier:
        x = frontier.popleft()
        for i, gen in enumerate(group.generators):
            y = group.mul(x, gen)
            if y not in words:
                words[y] = words[x] + (i,)
                frontier.append(y)
    return words


def cayley_presentation(group):
    """Presentation text on generators g0, g1, ... with one relator per
    Cayley edge x -> x g off the BFS tree: w(x) g w(x g)^-1, freely reduced
    by cancelling the common suffix of w(x) g and w(x g), w the BFS words.
    Tree edges reduce away and the rest pin the multiplication table."""
    words = bfs_words(group)
    relators = {}  # reduced (positive part, negated part) -> None, in first-seen order
    for x in range(group.order):
        for i, gen in enumerate(group.generators):
            left, right = words[x] + (i,), words[group.mul(x, gen)]
            while left and right and left[-1] == right[-1]:
                left, right = left[:-1], right[:-1]
            if left or right:
                relators[left, right] = None
    names = tuple(f"g{i}" for i in range(len(group.generators)))
    texts = [cct.Word(tuple((p, 1) for p in left) + tuple((p, -1) for p in reversed(right)))
             .text(names) for left, right in relators]
    return f"< {', '.join(names)} | {', '.join(texts)} >"


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_power():
    pres = cct.parse_presentation("<a | a^4>")
    assert pres.generators == ("a",)
    assert len(pres.relators) == 1
    assert pres.relators[0].letters == ((0, 1),) * 4


def test_parse_s3_presentation():
    pres = cct.parse_presentation("<a,b | a^2, b^2, (a b)^3>")
    assert pres.generators == ("a", "b")
    assert relator_texts(pres) == ["a^2", "b^2", "a b a b a b"]


def test_parse_missing_close():
    with pytest.raises(ParseError) as exc:
        cct.parse_presentation("<a,b | a^2 b")
    assert "'>'" in exc.value.expected or "end of input" in str(exc.value)


def test_parse_superscript_digit_is_an_unexpected_character():
    # '²' is a digit to str.isdigit but not one int() reads; '٣' is both
    with pytest.raises(ParseError) as exc:
        cct.parse_presentation("< a | a^² >")
    assert (exc.value.line, exc.value.column) == (1, 8)
    assert "unexpected character '²'" in str(exc.value)
    assert cct.parse_presentation("< a | a^٣ >") == cct.parse_presentation("< a | a^3 >")


def test_parse_star_is_a_product_separator():
    assert (cct.parse_presentation("<a, b | a*b*a^-1*b^-1>")
            == cct.parse_presentation("<a, b | a b a^-1 b^-1>"))


def test_parse_tabs_and_no_break_spaces_separate_tokens():
    spaced = cct.parse_presentation("<a, b | a^2, b^3, (a b)^2>")
    assert cct.parse_presentation("<a,\tb\t|\ta^2,\u00a0b^3,\u00a0(a\u00a0b)^2>") == spaced
    # whitespace right before the closing '>' is skipped too
    assert cct.parse_presentation("<a, b | a^2, b^3, (a b)^2 \t\n >") == spaced


def test_parse_unexpected_character_on_a_later_line():
    # the column counts from 0 at the start of the line
    with pytest.raises(ParseError) as exc:
        cct.parse_presentation("<a, b |\n  a^2, b# >")
    assert (exc.value.line, exc.value.column) == (2, 8)
    assert "unexpected character '#'" in str(exc.value)


def test_parse_unknown_generator():
    with pytest.raises(ParseError):
        cct.parse_presentation("<a | a b>")


def test_parse_negative_exponent_and_nesting():
    pres = cct.parse_presentation("<a,b | (a b^-1)^2>")
    assert pres.relators[0].letters == ((0, 1), (1, -1), (0, 1), (1, -1))
    pres = cct.parse_presentation("<a,b | ((a b) a)^-1>")
    assert pres.relators[0].letters == ((0, -1), (1, -1), (0, -1))


def test_parse_free_reduction_drops_empty():
    pres = cct.parse_presentation("<a,b | a a^-1, b^3>")
    assert relator_texts(pres) == ["b^3"]


def test_parse_equation_chains():
    pres = cct.parse_presentation("<a,b,c,d | a^4=b^4=c^4=d^4=1, abab=cdcd>")
    assert pres.generators == ("a", "b", "c", "d")
    # three relators from the first chain collapse pairwise, one closes on 1,
    # plus one from the second equation
    assert len(pres.relators) == 5
    assert relator_texts(pres)[-1] == "a b a b d^-1 c^-1 d^-1 c^-1"


def test_parse_juxtaposed_letters_with_exponent():
    pres = cct.parse_presentation("<a,b | ab^2>")
    assert pres.relators[0].letters == ((0, 1), (1, 1), (1, 1))


def test_parse_duplicate_names():
    with pytest.raises(ParseError):
        cct.parse_presentation("<a,a | a^2>")


def test_parse_zero_exponent_vanishes():
    pres = cct.parse_presentation("<a,b | a^0 b^2>")
    assert relator_texts(pres) == ["b^2"]


# ---------------------------------------------------------------------------
# coset enumeration


def test_todd_coxeter_s3():
    ct = cct.todd_coxeter(cct.parse_presentation("<a,b | a^2, b^2, (a b)^3>"), 100)
    assert ct.num_cosets == 6


@pytest.mark.parametrize("n", [1, 2, 5, 12, 50])
def test_todd_coxeter_cyclic(n):
    ct = cct.todd_coxeter(cct.parse_presentation(f"<a | a^{n}>"), 10 * n + 10)
    assert ct.num_cosets == n


def test_todd_coxeter_trivial_group():
    ct = cct.todd_coxeter(cct.parse_presentation("<a | a>"))
    assert ct.num_cosets == 1 and ct.action == ((0,),)


def test_todd_coxeter_budget_exceeded():
    pres = cct.parse_presentation("<a,b | a b a^-1 b^-1>")
    with pytest.raises(BudgetExceeded) as exc:
        cct.todd_coxeter(pres, 1000)
    assert exc.value.max_cosets == 1000
    assert exc.value.live == 867
    assert "(867 live at abort)" in str(exc.value)


def test_todd_coxeter_action_properties():
    pres = cct.parse_presentation("<a,b | a^4, b^2, (a b)^2>")
    ct = cct.todd_coxeter(pres, 100)
    assert ct.num_cosets == 8
    # transitive from coset 0 over the generator actions
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for perm in ct.action:
            if perm[x] not in seen:
                seen.add(perm[x])
                frontier.append(perm[x])
    assert seen == set(range(8))


def test_realize_quaternion():
    g = cct.realize(cct.parse_presentation("<a,b | a^4, a^2 b^-2, b^-1 a b a>"), 100)
    assert g.order == 8
    assert sum(1 for x in range(8) if g.element_order(x) == 4) == 6
    assert cct.isomorphic(g, cct.quaternion())


def test_realize_cyclic6():
    g = cct.realize(cct.parse_presentation("<a | a^6>"), 100)
    assert cct.isomorphic(g, cct.cyclic(6))


def test_realize_burnside_2_3():
    g = cct.realize(cct.parse_presentation("<a,b | a^3, b^3, (a b)^3, (a b^-1)^3>"), 2000)
    assert g.order == 27
    assert all(g.element_order(x) in (1, 3) for x in range(27))


def test_realize_relators_evaluate_to_identity():
    pres = cct.parse_presentation("<a,b | a^4, b^2, (a b)^2>")
    g = cct.realize(pres, 100)
    assert g.order == 8
    assert all(evaluate(g, rel) == 0 for rel in pres.relators)


def test_realize_is_deterministic():
    text = "<a,b | a^3, b^2, (a b)^2>"
    g1 = cct.realize(cct.parse_presentation(text), 100)
    g2 = cct.realize(cct.parse_presentation(text), 100)
    assert g1.labels == g2.labels
    assert g1.generators == g2.generators
    assert [[g1.mul(a, b) for b in range(g1.order)] for a in range(g1.order)] == \
           [[g2.mul(a, b) for b in range(g2.order)] for a in range(g2.order)]


@pytest.mark.parametrize("text", [
    "<a,b | a^2, b^2, (a b)^3>",
    "<a | a^12>",
    "<a,b | a^4, a^2 b^-2, b^-1 a b a>",
    "<a,b | a^3, b^3, (a b)^3, (a b^-1)^3>",
    "<r,s | r^6, s^2, (r s)^2>",
])
def test_realize_stable_under_larger_budget(text):
    pres = cct.parse_presentation(text)
    small = cct.realize(pres, 500)
    large = cct.realize(pres, 5000)
    assert small.order == large.order <= 128
    assert cct.isomorphic(small, large)


def test_infinite_example_parses_but_exceeds_budget():
    pres = cct.parse_presentation(
        "<a,b,c,d | a^4=b^4=c^4=d^4=1, abab=cdcd>")
    with pytest.raises(BudgetExceeded):
        cct.todd_coxeter(pres, 3000)


def test_realize_generator_symbol_alignment():
    pres = cct.parse_presentation("<a,b | a^2, b^3, a b a^-1 b^-1>")
    g = cct.realize(pres, 100)
    assert g.order == 6
    assert len(g.generators) == 2
    assert g.element_order(g.generators[0]) == 2
    assert g.element_order(g.generators[1]) == 3


# ---------------------------------------------------------------------------
# one HLT pass, closed by one exact check


def hlt_reference(pres, max_cosets=None):
    """The enumerator before involutions shared one column and tables were
    standardised, kept as a reference: two columns per generator, every
    relator scanned as declared, cosets numbered in definition order."""
    budget = max_cosets if max_cosets is not None else cct.config.DEFAULT_MAX_COSETS
    if budget < 1:
        raise ValueError("max_cosets must be at least 1")
    k = len(pres.generators)
    width = 2 * k
    # letter code: 2*sym for the generator, 2*sym+1 for its inverse
    relator_codes = [
        tuple(2 * s if e > 0 else 2 * s + 1 for s, e in rel.letters)
        for rel in pres.relators
    ]

    table = [[None] * width]
    parent = [0]

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(alpha, x):
        if len(table) >= budget:
            raise BudgetExceeded(budget, sum(parent[c] == c for c in range(len(table))))
        beta = len(table)
        table.append([None] * width)
        parent.append(beta)
        table[alpha][x] = beta
        table[beta][x ^ 1] = alpha

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            parent[hi] = lo
            queue.append(hi)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        for gamma in queue:  # merge appends while the loop runs
            for x, delta in enumerate(table[gamma]):
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
            # a dead coset's row is never read again once its entries moved
            table[gamma] = None

    def scan_and_fill(alpha, word):
        rows = table
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and (nxt := rows[f][word[i]]) is not None:
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and (nxt := rows[b][word[j] ^ 1]) is not None:
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                rows[f][word[i]] = b
                rows[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    alpha = 0
    while alpha < len(table):
        if parent[alpha] == alpha:
            for word in relator_codes:
                scan_and_fill(alpha, word)
                if parent[alpha] != alpha:
                    break
            else:  # alpha survived every relator: fill its row
                for x in range(width):
                    if table[alpha][x] is None:
                        define(alpha, x)
        alpha += 1

    live = [c for c in range(len(table)) if parent[c] == c]
    if any(None in table[c] for c in live):
        raise AssertionError("HLT pass left an incomplete coset table")
    pos = [-1] * len(table)
    for i, c in enumerate(live):
        pos[c] = i
    result = cct.CosetTable(
        len(live), tuple(tuple(pos[table[c][2 * s]] for c in live) for s in range(k))
    )
    if any(sorted(perm) != list(range(len(live))) for perm in result.action):
        raise AssertionError("coset action is not a permutation")
    if failing_cosets(result, pres):
        raise AssertionError("HLT pass left a relator unclosed")
    return result


def standardise(ct):
    """Renumber a coset table as Handbook §5.1 does: coset 0 first, the
    others as first reached when the numbered cosets are scanned in order
    over g1, g1^-1, g2, g2^-1, ..."""
    inverse = [[0] * ct.num_cosets for _ in ct.action]
    for inv, perm in zip(inverse, ct.action):
        for c, d in enumerate(perm):
            inv[d] = c
    order, pos = [0], {0: 0}
    for c in order:
        for perm, inv in zip(ct.action, inverse):
            for d in (perm[c], inv[c]):
                if d not in pos:
                    pos[d] = len(order)
                    order.append(d)
    return cct.CosetTable(ct.num_cosets,
                          tuple(tuple(pos[perm[c]] for c in order) for perm in ct.action))


# (presentation, cosets, smallest max_cosets that succeeds, SHA-256 of
# repr(action)), computed with the enumerator that repeated HLT passes until
# one made no definition, deduction or coincidence, then traced every
# relator from every coset; `hlt_reference` reproduces them.
PINNED_TABLES = [
    ("<a,b | a^2, b^2, (a b)^3>", 6, 8,
     "61dc1828206b53553bfd209bc8f77d56aadec5d152e2354dd0c332baca82ad5a"),
    ("<a,b | a^4, b^2, (a b)^2>", 8, 8,
     "8e251a2d31ff6822fe2a775e46a9fdb74e01536118488409c92dde74bc8669c3"),
    ("<a,b | a^3, b^3, (a b)^3, (a b^-1)^3>", 27, 33,
     "8429fee9b4bb12ec7dac4be44ac9cb029d46f41b26c53d5198be117a2aa07248"),
    ("<a,b | a^2, b^3, (a b)^5>", 60, 82,
     "df2070fe664c219b148eea915b8743113658c123b2c0f47369b42c4b7ce1d425"),
    ("<a,b | a^2, b^3, (a b)^7, (a^-1 b^-1 a b)^4>", 168, 542,
     "709251930abf164b99c18347b6ac94a9c1d91340b333b43e51bb2bb6cba1b2d6"),
    ("<a,b | a^2, b^4, (a b)^5, (a b^2)^5>", 360, 954,
     "9430e3f5e617db2ab92935a4f53bdee1633b9352bef6a5c4a89fbea3a8dcac99"),
    ("<a,b | a^32, b^-2 a^16, b^-1 a b a>", 64, 65,
     "b20349f764e957a22a75b874ad16b53c759c87fd3c783fd55a7d25154704988b"),
    ("<a,b | a^2, b^3, (a b)^7, (a^-1 b^-1 a b)^8>", 10752, 272596,
     "b50015847fc58d7eef0e44e2d0c440f6c5c00976bc44a31d4040272a8ab71531"),
]
PINNED_IDS = ["S3", "a4b2", "B23", "A5", "PSL27", "A6", "dic64", "237-8"]


@pytest.mark.parametrize("text,cosets,budget,digest", PINNED_TABLES, ids=PINNED_IDS)
def test_todd_coxeter_tables_unchanged(monkeypatch, text, cosets, budget, digest):
    # one HLT pass closes each of these tables, so the closing check runs once
    checks = 0
    check = failing_cosets

    def counting(ct, pres):
        nonlocal checks
        checks += 1
        return check(ct, pres)

    monkeypatch.setitem(globals(), "failing_cosets", counting)
    pres = cct.parse_presentation(text)
    ct = hlt_reference(pres, budget)
    assert checks == 1
    assert ct.num_cosets == cosets
    assert hashlib.sha256(repr(ct.action).encode()).hexdigest() == digest
    with pytest.raises(BudgetExceeded):
        hlt_reference(pres, budget - 1)


@pytest.mark.parametrize("text", [entry[0] for entry in PINNED_TABLES], ids=PINNED_IDS)
def test_todd_coxeter_is_standardised_hlt(text):
    pres = cct.parse_presentation(text)
    assert cct.todd_coxeter(pres) == standardise(hlt_reference(pres))


@pytest.mark.parametrize("text", [entry[0] for entry in PINNED_TABLES]
                         + [cct.catalogs._dicyclic_presentation(m) for m in range(3, 17)])
def test_presentation_text_parses_back(text):
    pres = cct.parse_presentation(text)
    assert cct.parse_presentation(pres.text()) == pres


# smallest max_cosets with which `todd_coxeter` succeeds on each PINNED_TABLES
# entry: an involution's s^2 costs no column and no scan, so the pass defines
# fewer cosets than `hlt_reference` does
PINNED_BUDGETS = [6, 8, 33, 66, 268, 762, 65, 119586]


@pytest.mark.parametrize("text,cosets,budget",
                         [(entry[0], entry[1], budget)
                          for entry, budget in zip(PINNED_TABLES, PINNED_BUDGETS)],
                         ids=PINNED_IDS)
def test_todd_coxeter_budgets_pinned(text, cosets, budget):
    pres = cct.parse_presentation(text)
    assert cct.todd_coxeter(pres, budget).num_cosets == cosets
    with pytest.raises(BudgetExceeded):
        cct.todd_coxeter(pres, budget - 1)


# (presentation, cosets, smallest max_cosets that succeeds, cosets live when
# the budget one below it runs out, SHA-256 of repr(action)) for the largest
# enumerations of the catalog-presentations benchmark, spelled as it spells them
PINNED_LARGE = [
    ("< s1, s2, s3, s4, s5, s6, s7 | s1^2, s2^2, s3^2, s4^2, s5^2, s6^2, s7^2, "
     "(s1 s2)^3, (s1 s3)^2, (s1 s4)^2, (s1 s5)^2, (s1 s6)^2, (s1 s7)^2, (s2 s3)^3, "
     "(s2 s4)^2, (s2 s5)^2, (s2 s6)^2, (s2 s7)^2, (s3 s4)^3, (s3 s5)^2, (s3 s6)^2, "
     "(s3 s7)^2, (s4 s5)^3, (s4 s6)^2, (s4 s7)^2, (s5 s6)^3, (s5 s7)^2, (s6 s7)^3 >",
     40320, 52457, 40322,
     "6da4255a8be7e8657cd3e2b419a1f951eafef2eec1c3bee3bd9b6d75b4a8b624"),
    ("< s1, s2, s3, s4, s5, s6 | s1^2, s2^2, s3^2, s4^2, s5^2, s6^2, (s1 s2)^2, "
     "(s1 s3)^3, (s1 s4)^2, (s1 s5)^2, (s1 s6)^2, (s2 s3)^2, (s2 s4)^3, (s2 s5)^2, "
     "(s2 s6)^2, (s3 s4)^3, (s3 s5)^2, (s3 s6)^2, (s4 s5)^3, (s4 s6)^2, (s5 s6)^3 >",
     51840, 57435, 51840,
     "1af35a7b624b07f98dc25370d646e43a1f402ba6d29273a47cd0f3665110ca27"),
]


@pytest.mark.parametrize("text,cosets,budget,live,digest", PINNED_LARGE, ids=["S8", "E6"])
def test_largest_enumerations_pinned(text, cosets, budget, live, digest):
    pres = cct.parse_presentation(text)
    ct = cct.todd_coxeter(pres, budget)
    assert ct.num_cosets == cosets
    assert hashlib.sha256(repr(ct.action).encode()).hexdigest() == digest
    with pytest.raises(BudgetExceeded) as exc:
        cct.todd_coxeter(pres, budget - 1)
    assert exc.value.live == live


def test_every_budget_of_a6_pinned():
    # the table grows by doubling; no growth step may move a budget or a
    # live count, so every budget below the smallest that succeeds is pinned
    pres = cct.parse_presentation("<a,b | a^2, b^4, (a b)^5, (a b^2)^5>")
    lives = []
    for budget in range(1, 762):
        with pytest.raises(BudgetExceeded) as exc:
            cct.todd_coxeter(pres, budget)
        lives.append(exc.value.live)
    assert (hashlib.sha256(repr(lives).encode()).hexdigest()
            == "21273b81f6927d3f8a888f3a77a227c733cb634f08a4ad4c228ea1dfc90fb4c9")
    assert cct.todd_coxeter(pres, 762).num_cosets == 360


def test_conjugated_relator_costs_what_the_relator_costs():
    # b^-1 (a b)^5 b is reduced cyclically to (a b)^5 before the pass
    for text in ("<a,b | a^2, b^3, (a b)^5>", "<a,b | a^2, b^3, b^-1 (a b)^5 b>"):
        pres = cct.parse_presentation(text)
        assert cct.todd_coxeter(pres, 66).num_cosets == 60
        with pytest.raises(BudgetExceeded):
            cct.todd_coxeter(pres, 65)


# irreducible finite Coxeter diagrams of rank <= 4 as (rank, {(i, j): m_ij}),
# unlisted pairs of generators commuting; H4 (order 14400) is left out
FINITE_COXETER = (
    [(1, {})]
    + [(2, {(0, 1): m}) for m in range(3, 9)]  # A2, B2, G2 and I2(m)
    + [(3, {(0, 1): 3, (1, 2): 3}), (3, {(0, 1): 4, (1, 2): 3}),
       (3, {(0, 1): 5, (1, 2): 3}),  # A3, B3, H3
       (4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}), (4, {(0, 1): 4, (1, 2): 3, (2, 3): 3}),
       (4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}), (4, {(0, 1): 3, (1, 2): 3, (1, 3): 3})]  # A4 B4 F4 D4
)


def coxeter_text(rank, edges):
    """<s1, ..., s_rank | s_i^2, (s_i s_j)^m_ij>, relators in the natural order."""
    names = [f"s{i + 1}" for i in range(rank)]
    rels = [f"{s}^2" for s in names]
    rels += [f"({names[i]} {names[j]})^{edges.get((i, j), 2)}"
             for i, j in itertools.combinations(range(rank), 2)]
    return f"< {', '.join(names)} | {', '.join(rels)} >"


# (presentation, cosets, smallest max_cosets that succeeds, cosets live when
# the budget one below it runs out) for presentations with relators that are
# a rotation of themselves or of their inverse
PINNED_SYMMETRIC = [
    (coxeter_text(*FINITE_COXETER[9]), 120, 120, 119),
    (coxeter_text(*FINITE_COXETER[11]), 384, 415, 386),
    (coxeter_text(*FINITE_COXETER[12]), 1152, 1200, 1156),
    (coxeter_text(*FINITE_COXETER[13]), 192, 192, 191),
    ("<a,b | a^2, b^3, (a b)^7, (a^-1 b^-1 a b)^4>", 168, 268, 191),
    ("<a,b | a^7, b^3, b^-1 a b a^-2>", 21, 27, 26),
]


@pytest.mark.parametrize("text,cosets,budget,live", PINNED_SYMMETRIC,
                         ids=["H3", "B4", "F4", "D4", "PSL27", "7:3"])
def test_symmetric_relator_budgets_pinned(text, cosets, budget, live):
    pres = cct.parse_presentation(text)
    assert cct.todd_coxeter(pres, budget).num_cosets == cosets
    with pytest.raises(BudgetExceeded) as exc:
        cct.todd_coxeter(pres, budget - 1)
    assert exc.value.live == live


@st.composite
def coxeter_presentations(draw):
    """A finite Coxeter group on <= 4 generators: a disjoint union of
    irreducible diagrams, generators shuffled, s^2 written either way."""
    rank, edges, left = 0, {}, 4
    while left and (not rank or draw(st.booleans())):
        r, part = draw(st.sampled_from([d for d in FINITE_COXETER if d[0] <= left]))
        edges.update({(i + rank, j + rank): m for (i, j), m in part.items()})
        rank, left = rank + r, left - r
    names = draw(st.permutations([f"s{i}" for i in range(rank)]))
    rels = [f"{s}^{draw(st.sampled_from([2, -2]))}" for s in names]
    rels += [f"({names[i]} {names[j]})^{edges.get((i, j), 2)}"
             for i, j in itertools.combinations(range(rank), 2)]
    order = draw(st.permutations(rels))
    return f"< {', '.join(sorted(names))} | {', '.join(order)} >"


@st.composite
def one_involution_presentations(draw):
    """Two generators, one of them an involution: a spherical triangle group
    <a, b | a^2, b^n, (a b)^m>, or the group <a, b | a^2, b^n, a b a^-1 b^-k>
    of order at most 2n; the last relator is perhaps conjugated by b."""
    a2 = draw(st.sampled_from(["a^2", "a^-2"]))
    if draw(st.booleans()):
        n, m = draw(st.sampled_from([(2, 2), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5),
                                     (4, 3), (5, 3), (6, 2), (7, 2)]))
        rels = [a2, f"b^{n}", f"(a b)^{m}"]
    else:
        n = draw(st.integers(1, 12))
        rels = [a2, f"b^{n}", f"a b a^-1 b^-{draw(st.integers(0, n))}"]
    if draw(st.booleans()):
        rels[-1] = f"b^-1 {rels[-1]} b"
    return f"< a, b | {', '.join(draw(st.permutations(rels)))} >"


@st.composite
def rotation_symmetric_presentations(draw):
    """Relators that are rotations of themselves or of their inverse, with
    uneven turns or turns only into the inverse: quotients
    <a, b | a^2, b^3, (a b)^n, (a^-1 b^-1 a b)^k> of the triangle groups with
    n <= 5, where the commutator power turns at 1, 4, 5, ... and, for k = 1,
    only into its inverse; or powers of letters that are not involutions, in
    <a, b | a^n, b^m, (a b^j)^2> with j prime to m and 1/n + 1/m > 1/2, or
    in the metacyclic <a, b | a^n, b^m, b^-1 a b a^-r> with r^m = 1 mod n."""
    kind = draw(st.sampled_from(["commutator", "triangle", "metacyclic"]))
    if kind == "commutator":
        rels = [draw(st.sampled_from(["a^2", "a^-2"])), "b^3",
                f"(a b)^{draw(st.integers(1, 5))}", f"(a^-1 b^-1 a b)^{draw(st.integers(1, 4))}"]
    elif kind == "triangle":
        n, m = draw(st.sampled_from([(3, 3), (3, 4), (4, 3), (3, 5), (5, 3)]))
        j = draw(st.sampled_from([j for j in range(1 - m, m) if math.gcd(j, m) == 1]))
        rels = [f"a^{n}", f"b^{m}", f"(a b^{j})^2"]
    else:
        n, m = draw(st.integers(3, 13)), draw(st.integers(2, 6))
        r = draw(st.sampled_from([r for r in range(1, n) if pow(r, m, n) == 1]))
        rels = [f"a^{n}", f"b^{m}", f"b^-1 a b a^-{r}"]
    return f"< a, b | {', '.join(draw(st.permutations(rels)))} >"


@st.composite
def permutation_group_presentations(draw):
    degree = draw(st.integers(1, 5))
    perms = st.permutations(range(degree)).map(tuple)
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    return cayley_presentation(cct.from_permutations(gens, degree))


@settings(max_examples=200, deadline=None)
@given(st.one_of(coxeter_presentations(), one_involution_presentations(),
                 rotation_symmetric_presentations(), permutation_group_presentations()))
def test_todd_coxeter_matches_standardised_hlt(text):
    # the largest group drawn is F4 (1152), which needs about 1,200 cosets:
    # an enumerator that fails to close one stops here instead of growing
    # toward the default 10^6
    pres = cct.parse_presentation(text)
    ct = cct.todd_coxeter(pres, max_cosets=20000)
    assert ct == standardise(hlt_reference(pres))
    assert standardise(ct) == ct


@settings(max_examples=300)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=8), st.integers(1, 5))
def test_skip_paths_are_the_least_and_greatest_turns(root, power):
    # columns 0 and 1 are each other's inverse, so are 2 and 3, and column
    # 4 is an involution's; words are powers, so they have turns of both kinds
    inv = [1, 0, 3, 2, 4]
    word = tuple(root) * power
    iword = tuple(inv[x] for x in word)
    inverse = iword[::-1]
    turns = [q for q in range(1, len(word)) if word[q:] + word[:q] in (word, inverse)]
    expected = (word[:turns[0]], iword[turns[-1]:][::-1]) if turns else ()
    assert cct.presentations._skip_paths(word, iword) == expected


def smallest_budget(pres):
    """The smallest max_cosets with which `todd_coxeter` succeeds, at most
    20000; a run that succeeds with some budget succeeds with every larger
    one."""
    lo, hi = 0, 20000
    cct.todd_coxeter(pres, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            cct.todd_coxeter(pres, mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


def enumeration(pres, budget):
    """The table with `budget` and the live cosets when `budget` - 1 runs
    out, None for budget 1; the run with `budget` - 1 must run out."""
    ct = cct.todd_coxeter(pres, budget)
    if budget == 1:
        return ct, None
    with pytest.raises(BudgetExceeded) as exc:
        cct.todd_coxeter(pres, budget - 1)
    return ct, exc.value.live


def assert_skips_change_nothing(pres, budget):
    # with no skip paths every relator is scanned at every live coset, so
    # the skipped scans must have been no-ops: the same cosets are defined
    # and the same budget runs out with the same cosets live
    skipping = enumeration(pres, budget)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cct.presentations, "_skip_paths", lambda word, iword: ())
        assert enumeration(pres, budget) == skipping


@st.composite
def trivial_generator_presentations(draw):
    """A finite Coxeter presentation with one generator also a relator, at
    any place: that generator's column then leads from a coset to itself,
    which must not count as leading to a smaller coset."""
    head, rels = draw(coxeter_presentations())[2:-2].split(" | ")
    rels = rels.split(", ")
    rels.insert(draw(st.integers(0, len(rels))), draw(st.sampled_from(head.split(", "))))
    return f"< {head} | {', '.join(rels)} >"


@settings(max_examples=60, deadline=None)
@given(st.one_of(coxeter_presentations(), trivial_generator_presentations(),
                 rotation_symmetric_presentations()))
def test_skipped_scans_change_nothing(text):
    pres = cct.parse_presentation(text)
    assert_skips_change_nothing(pres, smallest_budget(pres))


@pytest.mark.parametrize("text,budget",
                         [(entry[0], budget) for entry, budget in zip(PINNED_TABLES, PINNED_BUDGETS)]
                         + [(entry[0], entry[2]) for entry in PINNED_SYMMETRIC]
                         + [(coxeter_text(*FINITE_COXETER[7])[:-2] + ", s3 >", 13)],
                         ids=PINNED_IDS + ["H3", "B4", "F4", "D4", "PSL27-symmetric", "7:3",
                                           "A3-s3"])
def test_skipped_scans_change_nothing_pinned(text, budget):
    assert_skips_change_nothing(cct.parse_presentation(text), budget)


def failing_cosets(ct, pres):
    """Oracle: trace every relator letter by letter from every coset."""
    inverse = [{p: i for i, p in enumerate(perm)} for perm in ct.action]
    failing = set()
    for c in range(ct.num_cosets):
        for rel in pres.relators:
            x = c
            for sym, exp in rel.letters:
                x = ct.action[sym][x] if exp > 0 else inverse[sym][x]
            if x != c:
                failing.add(c)
    return failing


@pytest.mark.parametrize("text", [
    "<a,b | a^2, b^2, (a b)^3>",
    "<a,b | a^3, b^3, (a b)^3, (a b^-1)^3>",  # inverse letters
    "<a,b | a^2, b^2, (a b)^4>",  # a root of two letters squared twice
    "<a,b | a^8, b^2, b^-1 a b a>",  # one letter squared three times
    "<a,b | a^7, b^3, b^-1 a b a^-2>",  # a relator with no period
])
def test_closing_check_rejects_swapped_images(text):
    pres = cct.parse_presentation(text)
    ct = cct.todd_coxeter(pres)
    assert cct.presentations._closes(ct, pres)
    rejected = 0
    for sym, perm in enumerate(ct.action):
        for i, j in itertools.combinations(range(ct.num_cosets), 2):
            swapped = list(perm)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            action = ct.action[:sym] + (tuple(swapped),) + ct.action[sym + 1:]
            corrupted = cct.CosetTable(ct.num_cosets, action)
            failing = failing_cosets(corrupted, pres)
            assert cct.presentations._closes(corrupted, pres) == (not failing)
            rejected += bool(failing)
    assert rejected > 0


def test_closing_check_rejects_non_permutation():
    # a repeated coset, a coset past the last, one that indexes from the end,
    # and every coset but one too many entries
    pres = cct.parse_presentation("<a,b | a^2, b^2, (a b)^3>")
    ct = cct.todd_coxeter(pres)
    a = ct.action[0]
    for column in (a[1:2] + a[1:], (6,) + a[1:], (-1,) + a[1:], a + a[:1]):
        with pytest.raises(AssertionError):
            cct.presentations._closes(cct.CosetTable(6, (column,) + ct.action[1:]), pres)


@settings(max_examples=30)
@given(st.data())
def test_realize_cayley_presentation_is_isomorphic(data):
    # checks coset enumeration against from_permutations, which builds the
    # group independently
    degree = data.draw(st.integers(1, 6))
    perms = st.permutations(range(degree)).map(tuple)
    gens = data.draw(st.lists(perms | st.just(tuple(range(degree))), min_size=1, max_size=3))
    group = cct.from_permutations(gens, degree)
    pres = cct.parse_presentation(cayley_presentation(group))
    realized = cct.realize(pres)
    assert cct.isomorphic(realized, group)
    assert all(evaluate(realized, rel) == 0 for rel in pres.relators)


@pytest.mark.parametrize("text, sep", [
    ("<a,b | a^2, b^3, (a b)^5>", ""),
    ("<s1, s2, s3 | s1^2, s2^2, s3^2, (s1 s2)^3, (s2 s3)^3, (s1 s3)^2>", "*"),
])
def test_realize_labels_are_the_bfs_words(text, sep):
    pres = cct.parse_presentation(text)
    g = cct.realize(pres)
    paths = bfs_words(g)
    words = [sep.join(pres.generators[p] for p in paths[x]) or "1" for x in range(g.order)]
    assert [g.label(x) for x in range(g.order)] == words
    assert g.label(0) == "1" and g.label(g.generators[1]) == pres.generators[1]


def test_realize_above_the_table_cap():
    g = cct.realize(cct.parse_presentation("<a, b | a^2, b^3, (a b)^7, (a^-1 b^-1 a b)^8>"))
    assert g.order == 10752 > cct.config.CAYLEY_TABLE_MAX
    assert g.backing == "element-index"
    assert all(g.mul(x, g.inv(x)) == 0 == g.mul(g.inv(x), x) for x in range(g.order))
