"""Command-line front end with deterministic text and JSON reports."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .catalogs import (
    Catalog,
    CatalogEntry,
    build_small_catalog,
    classify_up_to_iso,
    factor_through_class,
)
from .coreflections import GeneratorSpec, check_invariants, hierarchy_report, radical, socle
from .errors import CctError
from .groups import FiniteGroup, Subgroup
from .homs import enumerate_homs, isomorphism
from .specfile import builtin_group, parse_spec_file, resolve_name

_BUILTIN_GENS = ("z2", "z3", "z4", "s3")


def _subgroup_json(sub: Subgroup) -> dict:
    elements = list(sub.sorted_members())
    return {
        "order": sub.order,
        "elements": elements,
        "labels": [sub.parent.label(e) for e in elements],
    }


def _as_group(obj, name: str) -> FiniteGroup:
    if isinstance(obj, GeneratorSpec):
        if len(obj.factors) == 1:
            return obj.factors[0]
        raise ValueError(f"{name!r} is a multi-factor generator spec, not a group")
    return obj


def _resolve_inputs(env: dict, args) -> dict:
    """The objects that --gen and --target name, for a command that reads them.

    Both names are required before either is resolved, and an undefined one
    fails the command.  Only the commands that read the names call this; the
    others resolve nothing, and their reports echo the names without orders.
    """
    for attr in ("gen", "target"):
        if not getattr(args, attr):
            raise ValueError(f"--{attr} is required for {args.command}")
    return {attr: resolve_name(env, getattr(args, attr)) for attr in ("gen", "target")}


def _targets(env: dict, args) -> Catalog:
    """Groups named in the spec file, or the built-in catalog."""
    groups = [(name, obj) for name, obj in env.items() if isinstance(obj, FiniteGroup)]
    if groups:
        return Catalog([CatalogEntry(name, grp, "spec-file") for name, grp in groups])
    return build_small_catalog(args.max_order)


def _genspecs(env: dict) -> list[tuple[str, GeneratorSpec]]:
    """Generator specs named in the spec file, or the built-in defaults."""
    specs = [(name, obj) for name, obj in env.items() if isinstance(obj, GeneratorSpec)]
    if specs:
        return specs
    return [(name, GeneratorSpec.of(builtin_group(name))) for name in _BUILTIN_GENS]


# ---------------------------------------------------------------------------
# command handlers: take the spec environment, the parsed arguments and the
# resolved --gen/--target objects; return (result_dict, text_lines, exit_code)


def _cmd_socle(env, args, inputs):
    gen = GeneratorSpec.of(inputs["gen"])
    target = _as_group(inputs["target"], args.target)
    sub = socle(gen, target)
    generated = sub.order == target.order
    result = {"subgroup": _subgroup_json(sub), "is_generated": generated}
    lines = [
        f"socle of {args.target} (order {target.order}) under {args.gen}: "
        f"order {sub.order}",
        f"elements: {list(sub.sorted_members())}",
        f"is_generated: {generated}",
    ]
    return result, lines, 0


def _cmd_radical(env, args, inputs):
    gen = GeneratorSpec.of(inputs["gen"])
    target = _as_group(inputs["target"], args.target)
    chain = radical(gen, target)
    constructible = chain.final.order == target.order
    result = {
        "stages": [_subgroup_json(s) for s in chain.stages],
        "stage_orders": list(chain.stage_orders()),
        "chain_length": chain.length,
        "is_constructible": constructible,
    }
    lines = [
        f"radical of {args.target} (order {target.order}) under {args.gen}: "
        f"order {chain.final.order}",
        f"chain of lengths {list(chain.stage_orders())}",
        f"is_constructible: {constructible}",
    ]
    return result, lines, 0


def _cmd_homs(env, args, inputs):
    domain = _as_group(inputs["gen"], args.gen)
    codomain = _as_group(inputs["target"], args.target)
    homs = enumerate_homs(domain, codomain)
    result = {
        "count": len(homs),
        "domain_generators": list(domain.generators),
        "homs": [{"gen_images": list(h.gen_images)} for h in homs],
    }
    lines = [f"{len(homs)} homomorphisms {args.gen} -> {args.target}"]
    lines += [f"  gen images {list(h.gen_images)}" for h in homs]
    return result, lines, 0


def _cmd_iso(env, args, inputs):
    left = _as_group(inputs["gen"], args.gen)
    right = _as_group(inputs["target"], args.target)
    witness = isomorphism(left, right)
    result = {
        "isomorphic": witness is not None,
        "witness_gen_images": list(witness.gen_images) if witness else None,
    }
    lines = [f"{args.gen} ~ {args.target}: {witness is not None}"]
    return result, lines, 0


def _cmd_classify(env, args, inputs):
    catalog = _targets(env, args)
    classes = classify_up_to_iso(catalog)
    result = {
        "class_count": len(classes),
        "classes": [[e.name for e in cls] for cls in classes],
    }
    lines = [f"{len(catalog)} groups fall into {len(classes)} isomorphism classes"]
    lines += ["  " + ", ".join(e.name for e in cls) for cls in classes]
    return result, lines, 0


def _cmd_hierarchy(env, args, inputs):
    gen = GeneratorSpec.of(inputs["gen"])
    target = _as_group(inputs["target"], args.target)
    report = hierarchy_report(gen, target)
    result = {
        "socle": _subgroup_json(report.socle),
        "radical": _subgroup_json(report.radical),
        "socle_in_radical": report.socle_in_radical,
        "is_generated": report.generated,
        "is_constructible": report.constructible,
        "chain_length": report.chain_length,
    }
    lines = [
        f"hierarchy for {args.gen} acting on {args.target} (order {target.order}):",
        f"  socle order {report.socle.order}, radical order {report.radical.order}, "
        f"chain length {report.chain_length}",
        f"  generated={report.generated} constructible={report.constructible}",
    ]
    return result, lines, 0


def _cmd_factor(env, args, inputs):
    domain = _as_group(inputs["gen"], args.gen)
    codomain = _as_group(inputs["target"], args.target)
    homs = enumerate_homs(domain, codomain)
    if not 0 <= args.hom < len(homs):
        raise ValueError(f"--hom {args.hom} out of range (found {len(homs)} homs)")
    hom = homs[args.hom]
    sub = factor_through_class(hom, args.class_predicate)
    result = {
        "found": sub is not None,
        "class_predicate": args.class_predicate,
        "hom_gen_images": list(hom.gen_images),
        "subgroup": _subgroup_json(sub) if sub is not None else None,
    }
    if sub is None:
        lines = [f"no {args.class_predicate} subgroup of {args.target} contains the image"]
    else:
        lines = [f"hom #{args.hom} factors through a {args.class_predicate} subgroup "
                 f"of order {sub.order}"]
    return result, lines, 0


def _cmd_catalog(env, args, inputs):
    catalog = build_small_catalog(args.max_order)
    result = {
        "entries": [
            {"name": e.name, "order": e.group.order, "recipe": e.recipe}
            for e in catalog
        ],
    }
    lines = [f"# built-in catalog, max order {args.max_order}"]
    lines += [f"group {e.name} = {e.recipe}" for e in catalog]
    return result, lines, 0


def _cmd_verify(env, args, inputs):
    gens = _genspecs(env)
    catalog = _targets(env, args)
    checks, failures = check_invariants(gens, catalog)
    result = {"checks": checks, "failures": failures, "passed": not failures}
    lines = [f"{checks} checks on {len(catalog)} groups x {len(gens)} generators: "
             + ("all passed" if not failures else f"{len(failures)} FAILURES")]
    for f in failures:
        lines.append(f"  FAILURE {f['check']} gen={f['gen']} target={f['target']}: {f['witness']}")
    return result, lines, 1 if failures else 0


# every command, in the parser's order: its handler, and whether it reads
# --gen and --target
_COMMAND_TABLE = {
    "socle": (_cmd_socle, True),
    "radical": (_cmd_radical, True),
    "homs": (_cmd_homs, True),
    "iso": (_cmd_iso, True),
    "classify": (_cmd_classify, False),
    "hierarchy": (_cmd_hierarchy, True),
    "factor": (_cmd_factor, True),
    "verify": (_cmd_verify, False),
    "catalog": (_cmd_catalog, False),
}
COMMANDS = tuple(_COMMAND_TABLE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use and shared."""
    parser = argparse.ArgumentParser(
        prog="cct",
        description="Socles, radicals and cellular generators for finite groups.",
    )
    parser.add_argument("--version", action="version", version=f"cct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"{name} command")
        p.add_argument("--spec", default=None, help="group-spec file defining names")
        p.add_argument("--gen", default=None, help="generator name (group or genspec)")
        p.add_argument("--target", default=None, help="target group name")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-order", dest="max_order", type=int,
                       default=12 if name == "verify" else 8,
                       help="bound for built-in catalogs")
        p.add_argument("--seed", type=int, default=0,
                       help="echoed in the JSON report; no command reads it")
        if name == "factor":
            p.add_argument("--class", dest="class_predicate", default="2-group",
                           help="named class predicate (e.g. 2-group, abelian)")
            p.add_argument("--hom", type=int, default=0,
                           help="index into the enumerated homomorphism list")
    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    start = time.perf_counter()
    try:
        handler, reads_gen_and_target = _COMMAND_TABLE[args.command]
        env = parse_spec_file(args.spec) if args.spec else {}
        inputs = _resolve_inputs(env, args) if reads_gen_and_target else {}
        result, lines, code = handler(env, args, inputs)
    except (CctError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    elapsed = time.perf_counter() - start

    if args.format == "json":
        report = {
            "tool": "cct",
            "version": __version__,
            "command": args.command,
            "inputs": _inputs_echo(args, inputs),
            "result": result,
            "timing": {"seconds": round(elapsed, 6)},
        }
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        for line in lines:
            print(line, file=out)
    return code


def _inputs_echo(args, inputs: dict) -> dict:
    orders = {}
    for attr, obj in inputs.items():
        name = getattr(args, attr)
        if isinstance(obj, GeneratorSpec):
            if len(obj.factors) == 1:
                orders[name] = obj.factors[0].order
        else:
            orders[name] = obj.order
    gen = inputs.get("gen")
    gen_factor_orders = [f.order for f in gen.factors] if isinstance(gen, GeneratorSpec) else None
    return {
        "gen": args.gen,
        "target": args.target,
        "spec": args.spec,
        "seed": args.seed,
        "max_order": args.max_order,
        "orders": orders,
        "gen_factor_orders": gen_factor_orders,
    }


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
