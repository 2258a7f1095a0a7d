"""Benchmark-side tracer: spans and boundary counts around cct's public calls.

The tracer replaces each traced public function in every cct module
namespace that binds it (``cct``, ``cct.coreflections``, ``cct.cli``, ...),
so calls that cross modules are caught as well as calls made by the
benchmark.  Each call records a span ``(name, start, end, parent, op)``;
a generator function records one span per resumption, so the consumer's
work between two yields is never charged to the generator.  Self time is a
span's duration minus the durations of its direct children.

Nothing inside cct is modified: installing patches module attributes and
uninstalling restores the original objects.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import cct
import cct.catalogs
import cct.cli
import cct.coreflections
import cct.groups
import cct.homs
import cct.presentations
import cct.specfile

MODULES = (cct, cct.groups, cct.homs, cct.coreflections, cct.presentations,
           cct.catalogs, cct.specfile, cct.cli)

CONSTRUCTORS = ("from_cayley", "from_permutations", "cyclic", "abelian", "dihedral",
                "quaternion", "symmetric", "alternating", "direct_product")

# (defining module, function) pairs whose calls become spans.
TRACED = (
    [(cct.groups, name) for name in CONSTRUCTORS]
    + [(cct.groups, name) for name in ("subgroup_generated", "quotient", "is_normal",
                                       "all_subgroups")]
    + [(cct.homs, name) for name in ("iter_homs", "minimal_generating_set", "isomorphism")]
    + [(cct.coreflections, name) for name in ("socle", "radical", "verify_radical_property")]
    + [(cct.presentations, name) for name in ("parse_presentation", "todd_coxeter", "realize")]
    + [(cct.catalogs, name) for name in ("build_small_catalog", "classify_up_to_iso",
                                         "socle_equals_radical", "factor_through_class")]
    + [(cct.specfile, "parse_spec_text"), (cct.cli, "run")]
)


def layer_name(module, func: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    """Collects spans and counts while installed; a fresh one per traced run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.hom_pairs: list[tuple] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, func in TRACED:
            original = getattr(module, func)
            name = layer_name(module, func)
            wrapper = self._wrap(name, original)
            for mod in MODULES:
                if getattr(mod, func, None) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, t0: float, t1: float) -> None:
        self.stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.op)

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.split(".", 1)[1], None)
        if name == "homs.iter_homs":
            return self._wrap_generator(name, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "groups.subgroup_generated":
                gens = args[1] if len(args) > 1 else kwargs["gens"]
                if not isinstance(gens, (set, frozenset, list, tuple)):
                    gens = tuple(gens)
                    args = (args[0], gens) + args[2:]
                before = len(set(gens))
            elif name == "cli.run":
                out = args[1] if len(args) > 1 else kwargs.get("out")
                before = len(out.getvalue()) if hasattr(out, "getvalue") else 0
            else:
                before = None
            idx, parent = self._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._close(idx, parent, name, t0, t1)
            if name in _CONSTRUCTOR_NAMES:
                self.counts["groups.construct.calls"] += 1
                self.counts["groups.construct.elements"] += result.order
            if count is not None:
                count(result, args, kwargs, before)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            domain = args[0] if args else kwargs["domain"]
            codomain = args[1] if len(args) > 1 else kwargs["codomain"]
            self.hom_pairs.append((domain, codomain))
            try:
                while True:
                    idx, parent = self._open()
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        self._close(idx, parent, name, t0, t1)
                    self.counts[name + ".yielded"] += 1
                    yield item
            finally:
                it.close()

        return traced

    # -- boundary counts (run after the span closes) ------------------------

    def _count_subgroup_generated(self, result, args, kwargs, seeds):
        self.counts["groups.subgroup_generated.calls"] += 1
        self.counts["groups.subgroup_generated.seeds"] += seeds
        self.counts["groups.subgroup_generated.members"] += result.order

    def _count_quotient(self, result, args, kwargs, _):
        self.counts["groups.quotient.calls"] += 1
        self.counts["groups.quotient.elements"] += result.target.order

    def _count_is_normal(self, result, args, kwargs, _):
        self.counts["groups.is_normal.calls"] += 1

    def _count_all_subgroups(self, result, args, kwargs, _):
        self.counts["groups.all_subgroups.subgroups"] += len(result)

    def _count_minimal_generating_set(self, result, args, kwargs, _):
        self.counts["homs.minimal_generating_set.calls"] += 1

    def _count_isomorphism(self, result, args, kwargs, _):
        self.counts["homs.isomorphism.calls"] += 1
        self.counts["homs.isomorphism.found"] += result is not None

    def _count_socle(self, result, args, kwargs, _):
        self.counts["coreflections.socle.calls"] += 1

    def _count_radical(self, result, args, kwargs, _):
        self.counts["coreflections.radical.calls"] += 1
        self.counts["coreflections.radical.stages"] += result.length

    def _count_verify_radical_property(self, result, args, kwargs, _):
        self.counts["coreflections.verify_radical_property.calls"] += 1

    def _count_parse_presentation(self, result, args, kwargs, _):
        self.counts["presentations.parse_presentation.calls"] += 1

    def _count_todd_coxeter(self, result, args, kwargs, _):
        self.counts["presentations.todd_coxeter.calls"] += 1
        self.counts["presentations.todd_coxeter.cosets"] += result.num_cosets

    def _count_build_small_catalog(self, result, args, kwargs, _):
        self.counts["catalogs.build_small_catalog.entries"] += len(result)

    def _count_classify_up_to_iso(self, result, args, kwargs, _):
        self.counts["catalogs.classify_up_to_iso.classes"] += len(result)

    def _count_socle_equals_radical(self, result, args, kwargs, _):
        self.counts["catalogs.socle_equals_radical.rows"] += len(result.rows)

    def _count_run(self, result, args, kwargs, before):
        out = args[1] if len(args) > 1 else kwargs.get("out")
        self.counts["cli.run.calls"] += 1
        if hasattr(out, "getvalue"):
            self.counts["cli.run.report_bytes"] += len(out.getvalue()) - before

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def hom_candidates(self) -> int:
        """Candidate image tuples iter_homs had to scan, computed from outside.

        The product, over the domain's minimal generating set, of the number
        of codomain elements whose order divides the generator's order.
        """
        memo: dict[tuple[int, int], int] = {}
        total = 0
        for domain, codomain in self.hom_pairs:
            key = (id(domain), id(codomain))
            if key not in memo:
                co_orders = [codomain.element_order(y) for y in range(codomain.order)]
                product = 1
                for g in cct.homs.minimal_generating_set(domain):
                    m = domain.element_order(g)
                    product *= sum(1 for k in co_orders if m % k == 0)
                memo[key] = product
            total += memo[key]
        return total

    def write_spans(self, path, op_names: list[str]) -> None:
        """One JSON line of operation names, then one per span:
        [name, start, end, parent index, operation id]; operation id
        ``k`` is round ``k // len(op_names)``, operation
        ``op_names[k % len(op_names)]``."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"operations": op_names}) + "\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, round(t0 - base, 7), round(t1 - base, 7),
                                     parent, op]) + "\n")


_CONSTRUCTOR_NAMES = frozenset(f"groups.{name}" for name in CONSTRUCTORS)
