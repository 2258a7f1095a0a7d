"""Presentation parsing, free products, coset enumeration, realization."""

import hashlib
import itertools

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
# free products


def test_free_product_of_cyclics():
    pres = cct.free_product([cct.cyclic(2), cct.cyclic(3)])
    assert pres.generators == ("a", "b")
    assert relator_texts(pres) == ["a^2", "b^3"]


def test_free_product_single_presentation_unchanged():
    pres = cct.parse_presentation("<x,y | x^2, y^2>")
    assert cct.free_product([pres]) is pres


def test_free_product_truncated_cyclics():
    pres = cct.free_product([cct.cyclic(2), cct.cyclic(4), cct.cyclic(8)])
    assert pres.generators == ("a", "b", "c")
    assert relator_texts(pres) == ["a^2", "b^4", "c^8"]


def test_free_product_renames_clashes():
    left = cct.parse_presentation("<a | a^2>")
    right = cct.parse_presentation("<a | a^3>")
    pres = cct.free_product([left, right])
    assert pres.generators == ("a", "a_2")
    assert relator_texts(pres) == ["a^2", "a_2^3"]


def test_free_product_of_nonabelian_group_realizes_back():
    # the Cayley-relation conversion pins the whole multiplication table
    s3 = cct.symmetric(3)
    pres = cct.free_product([s3])
    g = cct.realize(pres, 500)
    assert cct.isomorphic(g, s3)


# ---------------------------------------------------------------------------
# coset enumeration


def test_todd_coxeter_s3():
    ct = cct.todd_coxeter(cct.parse_presentation("<a,b | a^2, b^2, (a b)^3>"), 100)
    assert ct.num_cosets == 6
    assert ct.status == "closed"


@pytest.mark.parametrize("n", [1, 2, 5, 12, 50])
def test_todd_coxeter_cyclic(n):
    ct = cct.todd_coxeter(cct.parse_presentation(f"<a | a^{n}>"), 10 * n + 10)
    assert ct.num_cosets == n


def test_todd_coxeter_budget_exceeded():
    pres = cct.parse_presentation("<a,b | a b a^-1 b^-1>")
    with pytest.raises(BudgetExceeded) as exc:
        cct.todd_coxeter(pres, 1000)
    assert exc.value.max_cosets == 1000


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

# (presentation, cosets, smallest max_cosets that succeeds, SHA-256 of
# repr(action)), computed with the enumerator that repeated HLT passes until
# one made no definition, deduction or coincidence, then traced every
# relator from every coset.
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


@pytest.mark.parametrize("text,cosets,budget,digest", PINNED_TABLES,
                         ids=["S3", "a4b2", "B23", "A5", "PSL27", "A6", "dic64", "237-8"])
def test_todd_coxeter_tables_unchanged(monkeypatch, text, cosets, budget, digest):
    # one HLT pass closes each of these tables, so the closing check runs once
    checks = 0
    check = cct.presentations._closes

    def counting(ct, pres):
        nonlocal checks
        checks += 1
        return check(ct, pres)

    monkeypatch.setattr(cct.presentations, "_closes", counting)
    pres = cct.parse_presentation(text)
    ct = cct.todd_coxeter(pres, budget)
    assert checks == 1
    assert ct.num_cosets == cosets
    assert hashlib.sha256(repr(ct.action).encode()).hexdigest() == digest
    with pytest.raises(BudgetExceeded):
        cct.todd_coxeter(pres, budget - 1)


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
    pres = cct.parse_presentation("<a,b | a^2, b^2, (a b)^3>")
    ct = cct.todd_coxeter(pres)
    a = list(ct.action[0])
    a[0] = a[1]
    with pytest.raises(AssertionError):
        cct.presentations._closes(cct.CosetTable(6, (tuple(a),) + ct.action[1:]), pres)


@settings(max_examples=30)
@given(st.data())
def test_realize_presentation_of_is_isomorphic(data):
    # checks coset enumeration against from_permutations, which builds the
    # group independently
    degree = data.draw(st.integers(1, 6))
    perms = st.permutations(range(degree)).map(tuple)
    gens = data.draw(st.lists(perms | st.just(tuple(range(degree))), min_size=1, max_size=3))
    group = cct.from_permutations(gens, degree)
    pres = cct.presentation_of(group)
    realized = cct.realize(pres)
    assert cct.isomorphic(realized, group)
    assert all(evaluate(realized, rel) == 0 for rel in pres.relators)
