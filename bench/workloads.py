"""The three benchmark workloads.

Each workload has two parts.  ``setup(seed)`` builds the shared input
groups and catalogs through cct; the benchmark times it as set-up.
``prepare(shared, seed, workdir)`` builds the benchmark's own inputs
(tables, spec files) and the oracle answers outside every timed region, and
returns the fixed list of operations that one round sends, each with the
check its output must pass.

The seed only chooses among inputs of equal cost (conjugating permutations,
table relabellings, hom indices and the ``verify --seed``),
so the work per round does not depend on it.  The order of the operations is
fixed, so the same objects are alive at the same points of every run and
peak memory repeats.
"""

from __future__ import annotations

import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import cct
import cct.cli

import oracles


@dataclass
class Op:
    """One operation: ``fn(state)`` is timed, ``check(result)`` is not.

    ``state`` is a dict shared by the operations of one round, so a later
    operation can use an earlier one's output.  ``known_failure`` marks the
    one operation that fails on every run because of a named program fault.
    """

    name: str
    fn: Callable[[dict], Any]
    check: Callable[[Any], bool]
    known_failure: bool = False


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    code = cct.cli.run(argv + ["--format", "json"], out, err)
    return code, out.getvalue()


def _cli_result(outcome) -> dict | None:
    code, text = outcome
    return json.loads(text)["result"] if code == 0 else None


def _conjugate(perm, sigma):
    inverse = [0] * len(sigma)
    for i, j in enumerate(sigma):
        inverse[j] = i
    return oracles.compose(oracles.compose(tuple(inverse), perm), sigma)


def _cycle(points, n):
    out = list(range(n))
    for i, p in enumerate(points):
        out[p] = points[(i + 1) % len(points)]
    return tuple(out)


def _seeded_perm_group(gens, n, rng):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return cct.from_permutations([_conjugate(g, sigma) for g in gens], n)


def _witness_ok(iso, g, h) -> bool:
    """Bijective and multiplicative on all pairs."""
    if iso is None or iso.domain is not g or iso.codomain is not h:
        return False
    f = iso.full_map
    if len(f) != g.order or len(set(f)) != h.order:
        return False
    return all(f[g.mul(a, b)] == h.mul(f[a], f[b]) for a in range(g.order) for b in range(g.order))


# ---------------------------------------------------------------------------
# socle-large: few huge closures and long hom scans into S6, A7 and S7

SMALL_GENS = ("z2", "z3", "v4", "z4", "s3", "d8", "q8", "a4", "z6")


def socle_large_setup(seed: int) -> dict:
    rng = random.Random(seed)
    shared = {
        "z2": cct.cyclic(2), "z3": cct.cyclic(3), "v4": cct.abelian([2, 2]),
        "z4": cct.cyclic(4), "s3": cct.symmetric(3), "d8": cct.dihedral(8),
        "q8": cct.quaternion(), "a4": cct.alternating(4), "z6": cct.cyclic(6),
    }
    shared["S6"] = _seeded_perm_group([_cycle([0, 1], 6), _cycle(list(range(6)), 6)], 6, rng)
    shared["A7"] = _seeded_perm_group([_cycle([0, 1, 2], 7), _cycle(list(range(7)), 7)], 7, rng)
    shared["S7"] = _seeded_perm_group([_cycle([0, 1], 7), _cycle(list(range(7)), 7)], 7, rng)
    return shared


def socle_large_prepare(shared: dict, seed: int, workdir: str) -> list[Op]:
    if shared["S7"].backing != "permutation-composition" or shared["A7"].backing != "cayley-table":
        raise RuntimeError("socle-large needs a table-backed A7 and a permutation-backed S7")
    ops: list[Op] = []

    def socle_op(gen, target, expected):
        g, t = shared[gen], shared[target]
        ops.append(Op(f"socle {gen} {target}", lambda st: cct.socle(g, t),
                      lambda sub: sub.order == expected))

    def hierarchy_op(gen, target, expected):
        g, t = shared[gen], shared[target]
        ops.append(Op(f"hierarchy_report {gen} {target}", lambda st: cct.hierarchy_report(g, t),
                      lambda r: (r.socle.order, r.radical.order, r.chain_length) == (expected, expected, 1)))

    def hom_count_op(gen, target, expected):
        g, t = shared[gen], shared[target]
        ops.append(Op(f"hom_count {gen} {target}", lambda st: cct.hom_count(g, t),
                      lambda n: n == expected))

    for gen in SMALL_GENS:
        socle_op(gen, "S6", oracles.symmetric_socle_order(gen, 6))
    for gen in ("z2", "z3", "v4", "s3", "d8"):
        socle_op(gen, "A7", 2520)
    socle_op("z3", "S7", oracles.symmetric_socle_order("z3", 7))
    for gen in ("z3", "s3", "a4"):
        hierarchy_op(gen, "S6", oracles.symmetric_socle_order(gen, 6))
    hierarchy_op("z2", "A7", 2520)
    hom_count_op("d8", "S6", oracles.presented_hom_count(6, (4, 2, 2)))
    hom_count_op("a4", "S6", oracles.presented_hom_count(6, (2, 3, 3)))
    hom_count_op("z4", "S6", oracles.cyclic_hom_count(4, 6))
    hom_count_op("z6", "S7", oracles.cyclic_hom_count(6, 7))
    hom_count_op("z3", "A7", oracles.cyclic_hom_count(3, 7, alternating=True))

    def cli_socle_ok(outcome):
        res = _cli_result(outcome)
        return (res is not None and res["subgroup"]["order"] == 5040
                and len(res["subgroup"]["elements"]) == 5040 and res["is_generated"])

    def cli_hierarchy_ok(outcome):
        res = _cli_result(outcome)
        return (res is not None and res["socle"]["order"] == 360
                and res["radical"]["order"] == 360 and res["chain_length"] == 1)

    ops.append(Op("cli socle z2 s7", lambda st: _cli(["socle", "--gen", "z2", "--target", "s7"]),
                  cli_socle_ok))
    ops.append(Op("cli hierarchy z3 s6",
                  lambda st: _cli(["hierarchy", "--gen", "z3", "--target", "s6"]),
                  cli_hierarchy_ok))
    return ops


# ---------------------------------------------------------------------------
# radical-survey: radical chains, the survey, verify and factor: many tiny calls

CATALOG_ORDER = 64
CHAIN_TARGETS = (  # (prime, cyclic factors)
    [(2, [2**k]) for k in range(4, 11)]
    + [(3, [3, 9, 27]), (3, [9, 27]), (3, [3, 9]), (2, [4, 12]), (2, [2, 4, 6])]
)
SURVEY_GENERATORS = ((2, 2), (2, 3), (3, 2))
FACTOR_DOMAIN = 4
FACTOR_CLASSES = ("2-group", "abelian", "cyclic")


def radical_survey_setup(seed: int) -> dict:
    shared = {"z2": cct.cyclic(2), "z3": cct.cyclic(3)}
    for _, factors in CHAIN_TARGETS:
        key = tuple(factors)
        shared[key] = cct.cyclic(factors[0]) if len(factors) == 1 else cct.abelian(factors)
    shared["e4"] = cct.abelian([2] * 4)
    shared["e5"] = cct.abelian([2] * 5)
    shared["d32"] = cct.dihedral(32)
    shared["d64"] = cct.dihedral(64)
    shared["catalog"] = cct.build_small_catalog(CATALOG_ORDER)
    return shared


def _power_is_identity(group, x: int, m: int) -> bool:
    y = 0
    for _ in range(m):
        y = group.mul(y, x)
    return y == 0


def _class_holds(group, members, name: str) -> bool:
    if name == "2-group":
        return len(members) & (len(members) - 1) == 0
    if name == "abelian":
        return all(group.mul(a, b) == group.mul(b, a) for a in members for b in members)
    if name == "cyclic":
        return any(cct.element_order(group, x) == len(members) for x in members)
    raise ValueError(name)


def radical_survey_prepare(shared: dict, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    catalog = shared["catalog"]
    ops: list[Op] = []

    for p, factors in CHAIN_TARGETS:
        target = shared[tuple(factors)]
        gen = shared["z2" if p == 2 else "z3"]
        expected = oracles.radical_stage_orders(p, factors)

        def chain_ok(chain, target=target, expected=expected, p=p):
            index = target.order // chain.final.order
            return chain.stage_orders() == expected and index % p != 0

        ops.append(Op(f"radical z{p} {factors}",
                      lambda st, g=gen, t=target: cct.radical(g, t), chain_ok))

    def survey_ok(report):
        return report.failures == () and all(
            r.torsion_match for r in report.rows if r.precondition_ok)

    for p, k in SURVEY_GENERATORS:
        ops.append(Op(f"socle_equals_radical {p}^{k}",
                      lambda st, p=p, k=k: cct.socle_equals_radical(
                          cct.truncated_generator(p, k), catalog),
                      survey_ok))

    for key, expected in (("e4", oracles.elementary_abelian_subgroups(4)),
                          ("e5", oracles.elementary_abelian_subgroups(5)),
                          ("d32", oracles.dihedral_subgroups(16)),
                          ("d64", oracles.dihedral_subgroups(32))):
        ops.append(Op(f"all_subgroups {key}",
                      lambda st, g=shared[key]: cct.all_subgroups(g),
                      lambda subs, expected=expected: len(subs) == expected))

    verify_seed = rng.randrange(10**6)

    def verify_ok(outcome):
        code, text = outcome
        return code == 0 and json.loads(text)["result"]["passed"]

    ops.append(Op("cli verify", lambda st: _cli(
        ["verify", "--max-order", "16", "--seed", str(verify_seed)]), verify_ok))

    by_name = {e.name: e for e in catalog}
    targets = [e for e in catalog if e.group.order == 32]
    targets += [by_name["d64"], by_name["z8_q8"]]
    for position, entry in enumerate(targets):
        lines = []
        if entry.recipe.startswith("product "):
            for dep in entry.recipe[len("product "):].split(", "):
                lines.append(f"group {dep} = {by_name[dep].recipe}")
        lines.append(f"group {entry.name} = {entry.recipe}")
        path = os.path.join(workdir, f"{entry.name}.spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        group = entry.group
        images = [x for x in range(group.order) if _power_is_identity(group, x, FACTOR_DOMAIN)]
        index = rng.randrange(len(images))
        klass = FACTOR_CLASSES[position % len(FACTOR_CLASSES)]
        argv = ["factor", "--spec", path, "--gen", f"z{FACTOR_DOMAIN}", "--target", entry.name,
                "--class", klass, "--hom", str(index)]

        def factor_ok(outcome, group=group, image=images[index], klass=klass):
            res = _cli_result(outcome)
            if res is None or not res["found"] or res["hom_gen_images"] != [image]:
                return False
            members = set(res["subgroup"]["elements"])
            closed = all(group.mul(a, b) in members for a in members for b in members)
            return closed and image in members and _class_holds(group, members, klass)

        ops.append(Op(f"cli factor {entry.name} {klass} {index}",
                      lambda st, argv=argv: _cli(argv), factor_ok))
    return ops


# ---------------------------------------------------------------------------
# catalog-presentations: construction, classification and coset enumeration

def _coxeter(n_gens: int, edges) -> str:
    names = [f"s{i}" for i in range(1, n_gens + 1)]
    rels = [f"{s}^2" for s in names]
    for i in range(n_gens):
        for j in range(i + 1, n_gens):
            rels.append(f"({names[i]} {names[j]})^{3 if (i, j) in edges else 2}")
    return "< " + ", ".join(names) + " | " + ", ".join(rels) + " >"


REALIZE = (  # (name, presentation, order)
    ("A5", "< a, b | a^2, b^3, (a b)^5 >", 60),
    ("PSL27", "< a, b | a^2, b^3, (a b)^7, (a^-1 b^-1 a b)^4 >", 168),
    ("A6", "< a, b | a^2, b^4, (a b)^5, (a b^2)^5 >", 360),
) + tuple(  # dicyclic groups of order 4m: a^(2m) = 1, b^2 = a^m, b^-1 a b = a^-1
    (f"dic{4 * m}", f"< a, b | a^{2 * m}, b^-2 a^{m}, b^-1 a b a >", 4 * m) for m in range(3, 17)
)
TODD_COXETER = (
    ("237-8", "< a, b | a^2, b^3, (a b)^7, (a^-1 b^-1 a b)^8 >", 10752),
    ("S8", _coxeter(7, {(i, i + 1) for i in range(6)}), 40320),
    ("E6", _coxeter(6, {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}), 51840),
)
NON_ASSOCIATIVE_ORDER = 512


def _psl27_on_projective_line():
    """x -> x + 1 and x -> -1/x on the projective line over F_7 (7 is infinity)."""
    translate = tuple((x + 1) % 7 for x in range(7)) + (7,)
    invert = tuple([7] + [(-pow(x, -1, 7)) % 7 for x in range(1, 7)] + [0])
    return [translate, invert]


def catalog_presentations_setup(seed: int) -> dict:
    return {
        "A5": cct.alternating(5),
        "PSL27": cct.from_permutations(_psl27_on_projective_line(), 8),
        "d8": cct.dihedral(8),
        "q8": cct.quaternion(),
    }


def _valid_tables():
    """Cayley tables of Z/8 x Z/64, Z/1024 and the dihedral group of order 1024."""
    z8z64 = [[((a // 64 + b // 64) % 8) * 64 + (a + b) % 64 for b in range(512)]
             for a in range(512)]
    z1024 = [[(a + b) % 1024 for b in range(1024)] for a in range(1024)]
    m = 512

    def dihedral_mul(x, y):
        j1, i1 = divmod(x, m)
        j2, i2 = divmod(y, m)
        return (j1 ^ j2) * m + ((i1 + i2) if j2 == 0 else (i2 - i1)) % m

    d1024 = [[dihedral_mul(x, y) for y in range(2 * m)] for x in range(2 * m)]
    return {"z8xz64": z8z64, "z1024": z1024, "d1024": d1024}


def _relabel(table, rng):
    n = len(table)
    pi = list(range(n))
    rng.shuffle(pi)
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        row, new_row = table[a], new[pi[a]]
        for b in range(n):
            new_row[pi[b]] = pi[row[b]]
    labels = [""] * n
    for a in range(n):
        labels[pi[a]] = str(a)
    return new, labels


def non_associative_table(n: int = NON_ASSOCIATIVE_ORDER):
    """Z/n with the intercalate at rows 1, n/2+1 and columns 2, n/2+2 swapped:
    still a Latin square with identity and inverses, but not associative."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    r1, r2, c1, c2 = 1, n // 2 + 1, 2, n // 2 + 2
    table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
    table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
    return table


def catalog_presentations_prepare(shared: dict, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    abelian_classes = oracles.abelian_group_count(CATALOG_ORDER)
    ops: list[Op] = []

    def build(st):
        st["catalog"] = cct.build_small_catalog(CATALOG_ORDER)
        return st["catalog"]

    def elementary_divisors(recipe):
        head, _, args = recipe.partition(" ")
        if head not in ("cyclic", "abelian"):
            return None
        return tuple(sorted(p**e for m in args.split(",")
                            for p, e in oracles.factorize(int(m)).items()))

    def catalog_ok(catalog):
        types = {elementary_divisors(e.recipe) for e in catalog} - {None}
        return (len(types) == abelian_classes
                and all(1 <= e.group.order <= CATALOG_ORDER for e in catalog))

    def classes_ok(classes):
        def commutative(g):
            return all(g.mul(a, b) == g.mul(b, a) for a in range(g.order) for b in range(g.order))
        same_order = all(len({e.group.order for e in cls}) == 1 for cls in classes)
        return same_order and sum(commutative(cls[0].group) for cls in classes) == abelian_classes

    for name, text, order in REALIZE:
        def realize(st, name=name, text=text):
            group = cct.realize(cct.parse_presentation(text))
            if name in shared:
                st[name] = group
            return group
        ops.append(Op(f"realize {name}", realize, lambda g, order=order: g.order == order))

    for name, text, order in TODD_COXETER:
        ops.append(Op(f"todd_coxeter {name}",
                      lambda st, text=text: cct.todd_coxeter(cct.parse_presentation(text)),
                      lambda ct, order=order: ct.num_cosets == order))

    for name, table in _valid_tables().items():
        relabelled, labels = _relabel(table, rng)

        def table_ok(g, table=table):
            n = len(table)
            if g.order != n:
                return False
            orig = [int(g.label(x)) for x in range(n)]
            return all(orig[g.mul(u, v)] == table[orig[u]][orig[v]]
                       for u in range(n) for v in range(n))

        ops.append(Op(f"from_cayley {name}",
                      lambda st, t=relabelled, lab=labels: cct.from_cayley(t, lab), table_ok))

    bad = non_associative_table()
    witness = oracles.non_associative_witness(bad)
    if witness is None:
        raise RuntimeError("the intercalate-swapped table is associative")

    def reject(st):
        try:
            cct.from_cayley(bad)
        except cct.NotAGroup as exc:
            return exc
        return None

    def rejected(exc):
        if exc is None:
            return False
        w = exc.witness
        if isinstance(w, tuple) and len(w) == 3:
            a, b, c = w
            return bad[bad[a][b]][c] != bad[a][bad[b][c]]
        return True

    ops.append(Op(f"from_cayley non-associative {NON_ASSOCIATIVE_ORDER}", reject, rejected,
                  known_failure=True))

    # Operations that store or read round state; the catalog is built just
    # before it is classified, so it is alive during as few operations as
    # possible.
    ops.append(Op("build_small_catalog", build, catalog_ok))
    ops.append(Op("classify_up_to_iso", lambda st: cct.classify_up_to_iso(st["catalog"]),
                  classes_ok))
    for name in ("A5", "PSL27"):
        def iso(st, name=name):
            return st[name], cct.isomorphism(st[name], shared[name])
        ops.append(Op(f"isomorphism {name}", iso,
                      lambda r, name=name: _witness_ok(r[1], r[0], shared[name])))
    ops.append(Op("isomorphism d8 q8", lambda st: cct.isomorphism(shared["d8"], shared["q8"]),
                  lambda iso: iso is None))
    return ops


WORKLOADS = {
    "socle-large": (socle_large_setup, socle_large_prepare),
    "radical-survey": (radical_survey_setup, radical_survey_prepare),
    "catalog-presentations": (catalog_presentations_setup, catalog_presentations_prepare),
}
