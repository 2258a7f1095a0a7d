"""Spec files, CLI commands, exit codes, JSON reports."""

import hashlib
import io
import json

import pytest

import cct
import cct.cli
from cct.cli import run
from cct.errors import BudgetExceeded, OrderBudgetExceeded, ParseError, UndefinedName
from cct.specfile import builtin_group, parse_spec_text, resolve_name


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv + ["--format", "json"])
    assert code in (0, 1), err
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# spec files


def test_spec_file_grammar():
    env = parse_spec_text("""
# a small environment
group s3 = perm 3 : (1 2); (1 2 3)
group z4 = cyclic 4
group v = abelian 2,2
group d = dihedral 8
group q = quaternion
group sym = symmetric 3
group alt = alternating 4
group pq = product z4, v   # trailing comment
group qp = present <a,b | a^4, a^2 b^-2, b^-1 a b a> budget 500
genspec b = truncated 2 3
genspec fp = freeprod z4, s3
""")
    assert env["s3"].order == 6
    assert env["z4"].order == 4
    assert env["pq"].order == 16
    assert cct.isomorphic(env["qp"], cct.quaternion())
    assert [f.order for f in env["b"].factors] == [2, 4, 8]
    assert [f.order for f in env["fp"].factors] == [4, 6]


def test_spec_freeprod_flattens_a_named_genspec():
    env = parse_spec_text(
        "group z2 = cyclic 2\n"
        "group z3 = cyclic 3\n"
        "group s3 = symmetric 3\n"
        "genspec a = freeprod z2, z3\n"
        "genspec b = freeprod a, s3\n"
    )
    factors = env["b"].factors
    assert len(factors) == 3
    assert all(f is env[name] for f, name in zip(factors, ("z2", "z3", "s3")))


def test_spec_file_undefined_name():
    with pytest.raises(UndefinedName) as exc:
        parse_spec_text("group x = product s3, undefined_name\n")
    assert exc.value.name == "s3"  # first unresolved reference wins


def test_spec_file_duplicate_name():
    with pytest.raises(ParseError):
        parse_spec_text("group a = cyclic 2\ngroup a = cyclic 3\n")


def test_spec_file_syntax_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_spec_text("group ok = cyclic 2\ngroup bad = nonsense 5\n")
    assert exc.value.line == 2


def test_spec_file_perm_cycles_are_one_based():
    env = parse_spec_text("group t = perm 4 : (1 2)(3 4)\n")
    assert env["t"].order == 2


def test_spec_file_perm_cycle_repeating_a_point_is_rejected():
    with pytest.raises(ParseError, match="line 1.*repeats point 1"):
        parse_spec_text("group t = perm 3 : (1 2 1)\n")


def test_spec_file_perm_cycle_point_out_of_range_names_its_line():
    with pytest.raises(ParseError, match="line 2.*cycle point 4 out of range for degree 3"):
        parse_spec_text("group ok = cyclic 2\ngroup t = perm 3 : (1 4)\n")


@pytest.mark.parametrize("head", ["cyclic", "dihedral", "symmetric", "alternating"])
def test_spec_file_one_integer_constructor_given_two_names_its_line(head, tmp_path):
    text = f"group ok = cyclic 2\ngroup a = {head} 3, 4\n"
    with pytest.raises(ParseError, match=f"line 2.*{head} takes one integer") as exc:
        parse_spec_text(text)
    assert exc.value.line == 2
    spec = tmp_path / "groups.spec"
    spec.write_text(text)
    code, out, err = invoke(["catalog", "--spec", str(spec)])
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2") and "too many values" not in err


@pytest.mark.parametrize("line,message", [
    ("group x = cyclic 0", "cyclic order must be positive"),
    ("group x = abelian 2,0", "cyclic factors must be positive"),
    ("group x = dihedral 7", "dihedral order must be an even integer >= 2"),
    ("group x = symmetric 0", "symmetric degree must be positive"),
    ("genspec g = truncated 4 2", "4 is not prime"),
    ("group one = cyclic 1\ngenspec g = freeprod one", "generator factors must be nontrivial"),
])
def test_spec_file_constructor_error_names_its_line(line, message):
    text = f"group ok = cyclic 2\n{line}\n"
    lineno = text.count("\n")
    with pytest.raises(ParseError) as exc:
        parse_spec_text(text)
    assert exc.value.line == lineno
    assert str(exc.value).startswith(f"line {lineno}, ") and str(exc.value).endswith(message)


@pytest.mark.parametrize("line,message", [
    ("group = cyclic 2", "cannot parse definition"),
    ("group x = abelian", "missing abelian factors"),
    ("group x = cyclic ²", "bad integer '²' in cyclic order"),
    ("group x = cyclic --3", "bad integer '--3' in cyclic order"),
    ("group x = product", "missing product factors"),
    ("group x = product 1a, ok", "bad name '1a' in product factors"),
    ("group x = quaternion 8", "quaternion takes no arguments"),
    ("group x = product ok", "product takes exactly two names"),
    ("group x = product ok, gs", "product factors must be groups"),
    ("group x = perm : (1 2)", "cannot parse perm spec"),
    ("group x = perm 0 : (1)", "permutation degree must be positive"),
    ("group x = perm 3 : (1 2) x", "stray text 'x' in cycles"),
    ("group x = present a | a^2", "presentation must be enclosed in <...>"),
    ("group x = present junk words < a | a^2 >", "presentation must be enclosed in <...>"),
    ("group x = present < a | a^2 > extra", "unexpected trailing text 'extra'"),
    ("group x = present < a | b >", "in presentation: "),
    ("genspec g = truncated 2", "truncated takes a prime and a depth"),
    ("genspec g = nonsense ok", "unknown genspec constructor 'nonsense'"),
])
def test_spec_file_syntax_errors_name_their_line(line, message):
    text = f"group ok = cyclic 2\ngenspec gs = truncated 2 2\n{line}\n"
    with pytest.raises(ParseError) as exc:
        parse_spec_text(text)
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3, ") and message in str(exc.value)


def test_spec_file_presentation_without_budget_uses_the_default(monkeypatch):
    monkeypatch.setattr(cct.config, "DEFAULT_MAX_COSETS", 4)
    with pytest.raises(BudgetExceeded):
        parse_spec_text("group g = present < a | a^5 >\n")
    assert parse_spec_text("group g = present < a | a^5 > budget 5\n")["g"].order == 5


def test_builtin_names():
    assert builtin_group("z6").order == 6
    assert builtin_group("s4").order == 24
    assert builtin_group("a5").order == 60
    assert builtin_group("d10").order == 10
    assert builtin_group("q8").order == 8
    assert builtin_group("v4").order == 4
    assert builtin_group("nope") is None
    with pytest.raises(UndefinedName):
        resolve_name({}, "zz9")


def test_builtin_name_must_match_whole():
    # a `$` anchor also matched before a trailing newline, so "s3\n" was S3
    with pytest.raises(UndefinedName):
        resolve_name({}, "s3\n")
    code, out, err = invoke(["socle", "--gen", "z2", "--target", "s3\n"])
    assert code == 2 and out == ""


# ---------------------------------------------------------------------------
# commands


def test_socle_command_payload():
    code, rep = invoke_json(["socle", "--gen", "z2", "--target", "z4"])
    assert code == 0
    assert rep["result"]["subgroup"]["order"] == 2
    assert rep["result"]["subgroup"]["elements"] == [0, 2]
    assert rep["result"]["is_generated"] is False


def test_hierarchy_command_a5_s5():
    code, rep = invoke_json(["hierarchy", "--gen", "a5", "--target", "s5"])
    assert code == 0
    r = rep["result"]
    assert r["socle"]["order"] == 60 and r["radical"]["order"] == 60
    assert r["socle_in_radical"] is True
    assert r["is_generated"] is False and r["is_constructible"] is False


def test_radical_command_chain():
    code, out, err = invoke(["radical", "--gen", "z2", "--target", "z4"])
    assert code == 0
    assert "chain of lengths [2, 4]" in out


def test_homs_and_iso_commands():
    code, rep = invoke_json(["homs", "--gen", "z2", "--target", "s3"])
    assert rep["result"]["count"] == 4
    code, rep = invoke_json(["iso", "--gen", "z6", "--target", "d6"])
    assert rep["result"]["isomorphic"] is False
    code, rep = invoke_json(["iso", "--gen", "d6", "--target", "s3"])
    assert rep["result"]["isomorphic"] is True
    assert rep["result"]["witness_gen_images"] is not None


def test_factor_command():
    code, rep = invoke_json(["factor", "--gen", "z2", "--target", "s3",
                             "--class", "2-group", "--hom", "1"])
    assert rep["result"]["found"] is True
    assert rep["result"]["subgroup"]["order"] == 2


@pytest.mark.parametrize("p", [0, 1, 4, 9, 200000000000062])
def test_non_prime_errors_are_unchanged(p):
    code, out, err = invoke(["factor", "--gen", "z2", "--target", "s3",
                             "--class", f"{p}-group"])
    assert (code, out, err) == (2, "", f"error: {p}-group: {p} is not prime\n")
    with pytest.raises(ParseError) as exc:
        parse_spec_text(f"genspec b = truncated {p} 2\n")
    assert str(exc.value) == f"line 1, column 12: {p} is not prime"


def test_spec_file_huge_truncation_fails_fast(tmp_path):
    line = "genspec g = truncated 3 100000000\n"
    with pytest.raises(OrderBudgetExceeded, match=r"truncated generator 3\^100000000"):
        parse_spec_text(line)
    spec = tmp_path / "huge.spec"
    spec.write_text(line)
    code, out, err = invoke(["verify", "--spec", str(spec)])
    assert (code, out) == (2, "")
    assert "truncated generator 3^100000000" in err


PRESENTATIONS = [  # a presentation spelling out n letters, as a function of n
    lambda n: f"< a | a^{n} >",
    lambda n: f"< a, b | a^-{n - 3} b (b a)^-1 >",
    lambda n: f"< a, b | a^{n // 2 - 1} = b^{n // 2 - 1}, a b >",
]


@pytest.mark.parametrize("limit,what,build,spec", [
    ("PRESENTATION_LETTERS_MAX", "presentation letters",
     lambda n, text=text: cct.parse_presentation(text(n)),
     lambda n, text=text: f"group g = present {text(n)}")
    for text in PRESENTATIONS
] + [
    ("PERM_DEGREE_MAX", "permutation degree",
     lambda n: cct.perm_from_cycles([[1, 2]], n), lambda n: f"group t = perm {n} : (1 2)"),
    ("PERM_DEGREE_MAX", "permutation degree",
     lambda n: cct.from_permutations([], n), lambda n: f"group t = perm {n} :"),
], ids=["power", "word", "relation", "perm_from_cycles", "from_permutations"])
def test_oversized_inputs_fail_before_they_are_built(monkeypatch, tmp_path, limit, what,
                                                     build, spec):
    # the limits are read when the call is made, so a small one stands in
    # for the default: an input of `size` builds, an input two letters or points
    # larger raises InputTooLarge, and a spec file reports it with its line
    size = 12
    monkeypatch.setattr(cct.config, limit, size)
    build(size)
    with pytest.raises(cct.InputTooLarge) as exc:
        build(size + 2)
    assert (exc.value.what, exc.value.limit) == (what, size) and exc.value.size > size
    text = f"group ok = cyclic 2\n{spec(size + 2)}\n"
    with pytest.raises(ParseError) as exc:
        parse_spec_text(text)
    assert exc.value.line == 2 and f"{what} " in str(exc.value)
    path = tmp_path / "big.spec"
    path.write_text(text)
    code, out, err = invoke(["verify", "--spec", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2") and f"exceeds the limit {size}" in err


def test_classify_command_with_spec(tmp_path):
    spec = tmp_path / "groups.spec"
    spec.write_text(
        "group g1 = cyclic 8\n"
        "group g2 = abelian 4,2\n"
        "group g3 = abelian 2,2,2\n"
        "group g4 = dihedral 8\n"
        "group g5 = quaternion\n"
        "group g6 = present <r,s | r^4, s^2, (r s)^2>\n"
        "group g7 = abelian 2,4\n"
    )
    code, rep = invoke_json(["classify", "--spec", str(spec)])
    assert code == 0
    assert rep["result"]["class_count"] == 5


def test_verify_command_passes():
    code, out, err = invoke(["verify", "--max-order", "8", "--seed", "1"])
    assert code == 0
    assert "all passed" in out


def test_verify_exit_code_on_failure(monkeypatch):
    # force one invariant check to report a violation; the report must
    # carry a witness and the exit code must flip to 1
    monkeypatch.setattr(cct.coreflections, "is_normal", lambda group, sub: False)
    code, rep = invoke_json(["verify", "--max-order", "4", "--seed", "1"])
    assert code == 1
    assert rep["result"]["passed"] is False
    assert rep["result"]["failures"]
    assert all(f["witness"] for f in rep["result"]["failures"])


def test_usage_errors_exit_2():
    code, out, err = invoke(["socle", "--gen", "z2"])
    assert code == 2 and "required" in err
    code, out, err = invoke(["socle", "--gen", "z2", "--target", "zz9q"])
    assert code == 2 and "undefined" in err
    code, out, err = invoke(["factor", "--gen", "z2", "--target", "s3", "--hom", "99"])
    assert code == 2 and "out of range" in err


def test_budget_option_is_a_usage_error():
    # a coset budget is set per presentation, by `budget N` in the spec file
    code, out, err = invoke(["verify", "--budget", "5"])
    assert (code, out) == (2, "")


@pytest.mark.parametrize("command", ["classify", "verify", "catalog"])
def test_commands_that_read_no_names_ignore_them(monkeypatch, command):
    # s100000 is far past the order limit, so resolving it would fail
    argv = [command, "--max-order", "4"]
    code, plain = invoke_json(argv)
    assert code == 0
    code, named = invoke_json(argv + ["--gen", "s100000"])
    assert code == 0 and named["result"] == plain["result"]
    assert named["inputs"]["gen"] == "s100000" and named["inputs"]["orders"] == {}

    def no_resolve(env, name):
        raise AssertionError(f"{command} resolved {name!r}")

    monkeypatch.setattr(cct.cli, "resolve_name", no_resolve)
    for fmt in ("text", "json"):
        code, out, err = invoke(argv + ["--gen", "z2", "--target", "s3", "--format", fmt])
        assert (code, err) == (0, "")


def test_run_builds_one_parser_per_process(monkeypatch):
    top_level = []
    init = cct.cli.argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "cct":
            top_level.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cct.cli.argparse.ArgumentParser, "__init__", counting)
    cct.cli.build_parser.cache_clear()
    assert invoke(["catalog", "--max-order", "2"])[0] == 0
    assert invoke(["catalog", "--max-order", "3"])[0] == 0
    assert len(top_level) == 1


def test_multi_factor_genspec_rejected_where_group_needed(tmp_path):
    spec = tmp_path / "g.spec"
    spec.write_text("genspec b = truncated 2 3\n")
    code, out, err = invoke(["homs", "--spec", str(spec), "--gen", "b", "--target", "s3"])
    assert code == 2 and "multi-factor" in err
    # but socle accepts a multi-factor generator
    code, rep = invoke_json(["socle", "--spec", str(spec), "--gen", "b", "--target", "z8"])
    assert code == 0
    assert rep["result"]["is_generated"] is True
    assert rep["inputs"]["gen_factor_orders"] == [2, 4, 8]


def test_json_echo_credits_genspec_factors_to_the_generator_only(tmp_path):
    # a one-factor genspec target is read as its group, and its factors are
    # not the generator's
    spec = tmp_path / "g.spec"
    spec.write_text("group s3 = symmetric 3\ngroup z2 = cyclic 2\ngenspec t = freeprod s3\n")
    code, rep = invoke_json(["socle", "--spec", str(spec), "--gen", "z2", "--target", "t"])
    assert code == 0
    assert rep["inputs"]["gen_factor_orders"] is None
    assert rep["inputs"]["orders"] == {"z2": 2, "t": 6}


def test_json_echo_lists_a_repeated_factor_twice(tmp_path):
    # the walk takes a factor repeated as one object once, but the echo
    # lists every factor of the generator
    spec = tmp_path / "g.spec"
    spec.write_text("group g = symmetric 3\ngenspec t = freeprod g, g\n")
    code, rep = invoke_json(["socle", "--spec", str(spec), "--gen", "t", "--target", "s4"])
    assert code == 0
    assert rep["inputs"]["gen_factor_orders"] == [6, 6]
    code, alone = invoke_json(["socle", "--spec", str(spec), "--gen", "g", "--target", "s4"])
    assert rep["result"] == alone["result"]


def test_verify_with_spec_file(tmp_path):
    spec = tmp_path / "env.spec"
    spec.write_text(
        "group h1 = cyclic 8\n"
        "group h2 = dihedral 8\n"
        "group h3 = perm 4 : (1 2 3); (2 3 4)\n"
        "genspec b = truncated 2 2\n"
    )
    code, rep = invoke_json(["verify", "--spec", str(spec), "--seed", "3"])
    assert code == 0
    assert rep["result"]["passed"] is True
    assert rep["result"]["checks"] > 0


def test_parse_error_exit_2(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("group x = presen <a | a^2>\n")
    code, out, err = invoke(["classify", "--spec", str(spec)])
    assert code == 2


def test_budget_error_exit_2(tmp_path):
    spec = tmp_path / "inf.spec"
    spec.write_text("group f2 = present <a,b | a b a^-1 b^-1> budget 500\n")
    code, out, err = invoke(["classify", "--spec", str(spec)])
    assert code == 2 and "coset" in err


# ---------------------------------------------------------------------------
# catalog round trip and JSON contract


def test_catalog_text_round_trip():
    code, out, err = invoke(["catalog", "--max-order", "16"])
    assert code == 0
    env = parse_spec_text(out)
    catalog = cct.build_small_catalog(16)
    assert set(env) == {e.name for e in catalog}
    for entry in catalog:
        assert cct.isomorphic(env[entry.name], entry.group), entry.name


def test_reports_validate_against_schema():
    import importlib.resources

    import jsonschema
    schema = json.loads(
        importlib.resources.files("cct").joinpath("report.schema.json").read_text()
    )
    commands = [
        ["socle", "--gen", "z2", "--target", "z4"],
        ["radical", "--gen", "z2", "--target", "z8"],
        ["homs", "--gen", "z2", "--target", "s3"],
        ["iso", "--gen", "z8", "--target", "d8"],
        ["classify", "--max-order", "8"],
        ["hierarchy", "--gen", "z3", "--target", "s3"],
        ["factor", "--gen", "z2", "--target", "d8", "--hom", "1"],
        ["verify", "--max-order", "6", "--seed", "2"],
        ["catalog", "--max-order", "8"],
    ]
    for argv in commands:
        code, rep = invoke_json(argv)
        jsonschema.validate(rep, schema)


def test_json_index_convention():
    # cycles are 1-based in spec files, element indices 0-based in JSON
    code, rep = invoke_json(["socle", "--gen", "z2", "--target", "z4"])
    elements = rep["result"]["subgroup"]["elements"]
    assert elements[0] == 0
    assert all(isinstance(e, int) for e in elements)


@pytest.mark.parametrize("argv,digest", [
    (["homs", "--gen", "s3", "--target", "s4"],
     "35ea52a452d85fbd27d2bb1eefbb3f7535292935e7670d6a436e6d78bd3ebe74"),
    (["homs", "--gen", "q8", "--target", "s4"],
     "ba41a6d888e34100f04ea7a1e81da0ce094339f5683906196b6fd56b2e6be123"),
    (["socle", "--gen", "z2", "--target", "s7"],
     "76da9da90894b705f403ce21371e1c7be7caaa9fca338c486d75c57ffe27211a"),
    (["iso", "--gen", "s3", "--target", "d6"],
     "10978cb41b9da488e3a2e7795ce8b39314474ba6a58334e88998815176175fdc"),
    (["verify", "--max-order", "16", "--seed", "1"],
     "d00157b3ff115963e50a8a69850515de7e33b7a391093c7e239d393d6ef00de8"),
    (["radical", "--gen", "z2", "--target", "z16"],
     "bc1e5d2ae1cb85e0ec8d08e705e2222123e92390e67c034075496a18cb02eb7c"),
    (["hierarchy", "--gen", "z3", "--target", "s6"],
     "8f69046d3ce7cf77a091de817a0c5d9ab4c49a9e7ee93013460c82d6c34c164e"),
], ids=["homs-s3-s4", "homs-q8-s4", "socle-z2-s7", "iso-s3-d6", "verify-16-seed1",
        "radical-z2-z16", "hierarchy-z3-s6"])
def test_hom_reports_are_pinned(argv, digest):
    # the hom order, the isomorphism witness, the socle's members and the
    # radical chain's stages, end to end: SHA-256 of the sorted JSON report
    # without its timing
    code, rep = invoke_json(argv)
    assert code == 0
    rep.pop("timing")
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


def test_json_determinism_excluding_timing():
    argv = ["hierarchy", "--gen", "z2", "--target", "d8", "--seed", "9"]
    _, first = invoke_json(argv)
    _, second = invoke_json(argv)
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
