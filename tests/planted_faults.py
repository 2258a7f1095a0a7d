"""Planted faults: single exact edits to the package source, each with the
tests that must fail under it.

For each fault the script copies `src/` to a temporary directory and
applies the one edit.  The old text must occur exactly once, so a fault
whose code has changed is reported as stale instead of being skipped.  It
then runs the fault's tests against the copy in a subprocess with a time
limit of TIMEOUT seconds, and reports the fault as killed (a test
failed), survived (every test passed) or timed out.  A timeout counts as
killed, and is a finding of its own: some loop ran without a bound.
Before any fault, the same tests run once on an unedited copy and must
pass.  A fault whose tests ran against some other copy of the package
than the edited one would show up as surviving.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/planted_faults.py

The exit status is 1 when a fault survives, an edit is stale or the
unedited copy fails, and 0 otherwise.  pytest does not collect this file, since its name does not
start with "test_".
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120.0  # seconds allowed for one fault's tests


@dataclass(frozen=True)
class Fault:
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


ROW_READ_TESTS = tuple(
    f"tests/test_groups.py::test_rows_read_in_any_order_match_the_indexed_build[descending-{name}]"
    for name in ("symmetric(5)", "symmetric(6)", "dihedral(512)", "from_cayley(1024)"))

CONJUGATION_TESTS = ("tests/test_groups.py::test_conjugation_maps_match_the_product",)

CLOSURE_TESTS = (
    "tests/test_groups.py::test_left_coset_closure_and_labels_match_naive_oracles",
    "tests/test_coreflections.py::test_generators_are_ordered_by_their_socles_and_radicals",
)

FAULTS = (
    Fault("lagrange-greatest-prime", "cct/groups.py",
          "proper_max = n // _least_prime(n // len(old))",
          "proper_max = n // _prime_factorization(n // len(old))[-1][0]",
          CLOSURE_TESTS),
    Fault("lagrange-at-the-bound", "cct/groups.py",
          "if len(members) > proper_max:",
          "if len(members) >= proper_max:",
          CLOSURE_TESTS),
    Fault("reversed-table-row-product", "cct/groups.py",
          "mul_row = lambda a, ys: _compose(ys, table[a] or row(a))",
          "mul_row = lambda a, ys: [(table[y] or row(y))[a] for y in ys]",
          ("tests/test_groups.py::test_row_products_and_inverses_agree_with_the_product",)),
    Fault("reversed-permutation-row-product", "cct/groups.py",
          "map(left(order[a]), map(order.__getitem__, ys))",
          "(left(order[y])(order[a]) for y in ys)",
          ("tests/test_groups.py::test_row_products_and_inverses_agree_with_the_product",)),
    Fault("lazy-row-parent-column", "cct/groups.py",
          "table[b] = columns[edge[b]](table[parent[b]])",
          "table[b] = columns[edge[parent[b]]](table[parent[b]])",
          ROW_READ_TESTS),
    Fault("lazy-row-walk-one-short", "cct/groups.py",
          "while table[b] is None:",
          "while table[parent[b]] is None:",
          ROW_READ_TESTS),
    Fault("conjugation-map-by-the-inverse", "cct/groups.py",
          "inverse)\n                        for row_g in lefts]",
          "inverse)\n                        for row_g in unlefts]",
          CONJUGATION_TESTS),
    Fault("inverse-walk-parent-edge", "cct/groups.py",
          "inverse[a] = unlefts[edge[a]][inverse[parent[a]]]",
          "inverse[a] = unlefts[edge[parent[a]]][inverse[parent[a]]]",
          CONJUGATION_TESTS),
    Fault("inverse-is-the-element", "cct/groups.py",
          "        known = self._inverses\n",
          "        return x\n        known = self._inverses\n",
          ("tests/test_groups.py::test_inverses_invert_under_the_product",)),
    Fault("inverse-two-powers-long", "cct/groups.py",
          "self._orders[x] - 1",
          "self._orders[x] + 1",
          ("tests/test_groups.py::test_inverses_invert_under_the_product",)),
    Fault("closure-walk-too-short", "cct/groups.py",
          "for _ in range(self.group.order):",
          "for _ in range(self.group.order - 2):",
          ("tests/test_groups.py::test_left_coset_closure_and_labels_match_naive_oracles",)),
    Fault("token-ascii-digits", "cct/presentations.py",
          r"(?P<INT>\d+)",
          r"(?P<INT>[0-9]+)",
          ("tests/test_presentations.py::test_parse_superscript_digit_is_an_unexpected_character",)),
    Fault("token-keeps-star", "cct/presentations.py",
          r"(?P<SYM>[-<>|,()^=])|\*|",
          r"(?P<SYM>[-<>|,()^=*])|\*|",
          ("tests/test_presentations.py::test_parse_star_is_a_product_separator",)),
    Fault("normal-on-first-generator", "cct/groups.py",
          "return all(y in members for _, _, y in _conjugates(group, gens))",
          "return all(y in members for _, _, y in _conjugates(group, list(gens)[:1]))",
          ("tests/test_groups.py::test_is_normal_matches_conjugating_every_member",
           "tests/test_coreflections.py"
           "::test_radical_is_least_normal_subgroup_with_hom_free_quotient")),
)


def run_tests(src: Path, tests: tuple[str, ...], timeout: float = TIMEOUT) -> tuple[str, float]:
    """('passed' | 'failed' | 'timed out', seconds) for the tests run on the
    package under `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out", time.monotonic() - start
    return ("passed" if done.returncode == 0 else "failed"), time.monotonic() - start


def copy_source(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="planted-") as tmp:
        control = sorted({t for f in FAULTS for t in f.tests})
        outcome, seconds = run_tests(copy_source(Path(tmp) / "control"), tuple(control),
                                     TIMEOUT * len(FAULTS))
        print(f"{'unedited':<10} {'control':<34} {seconds:6.1f}s  {outcome}")
        if outcome != "passed":
            return 1
        for fault in FAULTS:
            src = copy_source(Path(tmp) / fault.name)
            target = src / fault.path
            text = target.read_text()
            found = text.count(fault.old)
            if found != 1:
                print(f"{'stale':<10} {fault.name:<34} old text found {found} times")
                bad += 1
                continue
            target.write_text(text.replace(fault.old, fault.new))
            outcome, seconds = run_tests(src, fault.tests)
            verdict = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
            bad += verdict == "survived"
            print(f"{verdict:<10} {fault.name:<34} {seconds:6.1f}s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
