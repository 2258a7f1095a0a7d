"""cct benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

One workload, as the metrics contract in BENCHMARK.json expects:

    python3 bench/run.py --workload socle-large --seed 1 --seconds 10 --trace 0

prints human-readable lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer metrics of a
traced run.  Every workload, untraced and traced, with a run record:

    python3 bench/run.py [--seed 1] [--seconds 10] [--runs 1] [--label NAME]

writes ``bench/results/BENCH_<label>.json``.  Each workload runs in its own
fresh single-threaded Python process; set-up is measured in further fresh
processes so that ``setup_s`` is a median.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

WORKLOAD_NAMES = ("socle-large", "radical-survey", "catalog-presentations")
SETUP_REPS = 3  # set-up samples per run: SETUP_REPS - 1 set-up-only processes + the run itself
RUN_DEADLINE_S = 170.0  # a workload run must end within 180 s

RAW = {"wall_s": "s", "op_p50_ms": "ms", "ref_ms": "ms"}
REFERENCE_ITERATIONS = 150  # about 25 ms of interpreter work on a quiet 2-core Xeon



def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# ---------------------------------------------------------------------------
# child processes: import cct, build inputs, run rounds


def _import_workloads():
    sys.path.insert(0, SRC_DIR)
    import cct
    if not os.path.abspath(cct.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"cct imported from {cct.__file__}, not from this checkout")
    import workloads
    return workloads


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like cct's loops.

    The machine's speed drifts by up to 1.7x over tens of seconds when other
    tenants load it, and cct's time drifts with it.  Dividing an operation's
    latency by this loop's time, measured just before and just after the
    operation, cancels most of that drift.  The loop mixes three kinds of
    work because contention slows them by different amounts: composing
    permutation tuples with dict counting and small-table lookups, a random
    walk over an 8 MB list, and the closure and Cayley table of S5 built the
    way `from_permutations` builds them.
    """
    global _WALK
    if _WALK is None:
        _WALK = [i & 255 for i in range(1 << 20)]
    t0 = time.perf_counter()
    perms = [tuple((i * k + k) % 7 for i in range(7)) for k in range(1, 7)]
    table = [[(a * 31 + b) % 97 for b in range(97)] for a in range(97)]
    counts: dict = {}
    acc = 0
    for r in range(REFERENCE_ITERATIONS):
        for p in perms:
            for q in perms:
                c = tuple(q[i] for i in p)
                counts[c] = counts.get(c, 0) + 1
        row = table[r % 97]
        for b in range(97):
            acc += table[row[b]][b]
    walk, mask, x = _WALK, len(_WALK) - 1, 12345
    for _ in range(REFERENCE_ITERATIONS * 150):
        x = (x * 1103515245 + 12345) & mask
        acc += walk[x]
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    order = [(0, 1, 2, 3, 4)]
    pos = {order[0]: 0}
    for x in order:
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in pos:
                pos[y] = len(order)
                order.append(y)
    table = [[pos[tuple(b[i] for i in a)] for b in order] for a in order]
    return time.perf_counter() - t0


_WALK = None


def _run_round(ops, tracer=None, op_base=0):
    """One pass over the operations.

    Returns (raw wall, latencies, latencies in reference units, reference
    times, failed, unexpected).  A full garbage collection before each
    operation keeps one operation's garbage from being collected, and timed,
    inside the next.
    """
    state: dict = {}
    wall = 0.0
    latencies, normalised, refs, failed, unexpected = [], [], [], [], []
    clock = time.perf_counter
    before = reference_loop()
    for i, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.op = op_base + i
            tracer.install()
        t0 = clock()
        try:
            result, error = op.fn(state), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, exc
        dt = clock() - t0
        if tracer is not None:
            tracer.uninstall()
        after = reference_loop()
        wall += dt
        latencies.append(dt)
        normalised.append(dt / ((before + after) / 2))
        refs.append(after)
        before = after
        try:
            ok = error is None and bool(op.check(result))
        except Exception:  # a check that cannot even read the output fails it
            ok = False
        if not ok:
            failed.append(op.name)
            if not op.known_failure:
                unexpected.append(f"{op.name}: {error!r}" if error else op.name)
    return wall, latencies, normalised, refs, failed, unexpected


def child_main(args) -> int:
    workloads = _import_workloads()
    setup, prepare = workloads.WORKLOADS[args.workload]
    shared = setup(args.seed)
    setup_s = time.perf_counter() - args.t0
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = prepare(shared, args.seed, workdir)
        blob = _measure(ops, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    blob["setup_s"] = setup_s
    blob["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(blob))
    return 0


def _measure(ops, args) -> dict:
    walls, latencies, traced_walls = [], [], []
    norm_walls, normalised, refs = [], [], []
    attempted, failed = 0, {}
    unexpected: list[str] = []
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    candidates = 0
    # Untraced runs take a median over at least two rounds; a traced run needs
    # one untraced and one traced round.
    min_rounds = 1 if tracer is not None else 2
    start = time.perf_counter()
    rounds = 0
    while True:
        passes = [None, tracer] if tracer is not None else [None]
        for tr in passes:
            wall, lat, norm, ref, fails, unexp = _run_round(ops, tr, op_base=rounds * len(ops))
            if tr is None:
                walls.append(wall)
                latencies.extend(lat)
                norm_walls.append(sum(norm))
                normalised.extend(norm)
                refs.extend(ref)
            else:
                traced_walls.append(wall)
                candidates += tr.hom_candidates()
                tr.hom_pairs.clear()
            attempted += len(ops)
            for name in fails:
                failed[name] = failed.get(name, 0) + 1
            unexpected.extend(unexp)
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start >= args.seconds:
            break
    blob = {"walls": walls, "latencies": latencies, "norm_walls": norm_walls,
            "normalised": normalised, "refs": refs, "attempted": attempted,
            "failed": failed, "unexpected": unexpected, "ops": len(ops)}
    if tracer is not None:
        blob["layers"] = _layer_metrics(tracer, candidates, walls, traced_walls)
        blob["layers"]["raw.wall_s"] = statistics.median(walls)
        blob["layers"]["raw.op_p50_ms"] = statistics.median(latencies) * 1000.0
        blob["layers"]["raw.ref_ms"] = statistics.median(refs) * 1000.0
        if blob["layers"]["trace.self_sum_s"] > statistics.mean(traced_walls):
            unexpected.append("trace: per-layer self times exceed the traced wall time")
        os.makedirs(RESULTS_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(
            RESULTS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"),
            [op.name for op in ops])
    return blob


def _layer_metrics(tracer, candidates, walls, traced_walls) -> dict:
    """Per-round means of self times and boundary counts over the traced rounds."""
    import tracer as tracer_mod
    k = len(traced_walls)
    self_s = tracer.self_times()
    self_s["groups.construct"] = sum(self_s.get(f"groups.{name}", 0.0)
                                     for name in tracer_mod.CONSTRUCTORS)
    counts = dict(tracer.counts)
    counts["homs.iter_homs.candidates"] = candidates
    yielded = counts.get("homs.iter_homs.yielded", 0)
    traced, untraced = statistics.median(traced_walls), statistics.median(walls)
    special = {
        "homs.iter_homs.accept_ratio": yielded / candidates if candidates else 0.0,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        # every span counted once; groups.construct is the sum of its constructors
        "trace.self_sum_s": sum(v for s, v in self_s.items() if s != "groups.construct") / k,
    }
    out = {}
    for name in metric_units("per_layer"):
        base, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif field == "self_s":
            out[name] = self_s.get(base, 0.0) / k
        else:
            out[name] = counts.get(name, 0) / k
    return out


# ---------------------------------------------------------------------------
# the parent: spawn set-up and run processes, aggregate, report


def _spawn(argv: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark run deadline passed")
    # A fixed string-hash seed makes set and dict layouts, and so peak
    # memory, repeat from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + argv + ["--t0", repr(t0)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child {argv} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the run record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [_spawn(["--child", "setup"] + common, deadline)["setup_s"]
              for _ in range(SETUP_REPS - 1)]
    blob = _spawn(["--child", "run"] + common
                  + ["--seconds", repr(seconds), "--trace", str(int(trace))], deadline)
    setups.append(blob["setup_s"])

    samples = {
        "setup_s": setups,
        "wall_ref": blob["norm_walls"],
        "op_p50_ref": blob["normalised"],
        "peak_rss_mib": [blob["peak_rss_mib"]],
        "wall_s": blob["walls"],
        "op_p50_ms": [x * 1000.0 for x in blob["latencies"]],
        "ref_ms": [x * 1000.0 for x in blob["refs"]],
    }
    metrics, raw = {}, {}
    if trace:
        units = metric_units("per_layer")
        for name, value in blob["layers"].items():
            metrics[name] = {"value": value, "unit": units[name]}
    else:
        for name, unit in metric_units("end_to_end").items():
            st = _stats(samples[name])
            metrics[name] = {"value": st["median"], "unit": unit, **st}
    for name, unit in RAW.items():
        st = _stats(samples[name])
        raw[name] = {"value": st["median"], "unit": unit, **st}
    failed = sum(blob["failed"].values())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not blob["unexpected"], "attempted": blob["attempted"], "failed": failed,
        "failed_ops": blob["failed"], "unexpected_failures": blob["unexpected"],
        "ops_per_round": blob["ops"], "metrics": metrics, "raw": raw, **_environment(),
    }


def _environment() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {"python": platform.python_version(), "nproc": affinity,
            "git_revision": _git_revision()}


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _print_record(rec: dict) -> None:
    tag = "traced" if rec["trace"] else "untraced"
    print(f"{rec['workload']} ({tag}, seed {rec['seed']}): attempted {rec['attempted']}, "
          f"failed {rec['failed']} {rec['failed_ops'] or ''}, correct {rec['correct']}")
    for op in rec["unexpected_failures"]:
        print(f"  UNEXPECTED FAILURE {op}")
    for name, m in list(rec["metrics"].items()) + [("raw." + k, v) for k, v in rec["raw"].items()]:
        extra = f"  (median of {m['n']}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g})" if "n" in m else ""
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}{extra}")


def _write(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def workload_main(args) -> int:
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _write(os.path.join(RESULTS_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
           rec)
    _print_record(rec)
    print(json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in rec["metrics"].items()},
    }))
    return 0


def all_main(args) -> int:
    """Every workload: --runs untraced runs (seeds seed, seed+1, ...) and one traced run."""
    summary = {"label": args.label, "seconds": args.seconds, "seed": args.seed,
               "runs": args.runs, "workloads": {}, **_environment()}
    ok = True
    for workload in WORKLOAD_NAMES:
        runs = [run_workload(workload, args.seed + r, args.seconds, False) for r in range(args.runs)]
        traced = run_workload(workload, args.seed, args.seconds, True)
        for rec in runs + [traced]:
            _print_record(rec)
        ok = ok and all(rec["correct"] for rec in runs + [traced])
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_ops": runs[0]["failed_ops"],
            "correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": {
                name: {**_stats(r["metrics"][name]["value"] for r in runs), "unit": unit}
                for name, unit in metric_units("end_to_end").items()
            },
            "raw": {
                name: {**_stats(r["raw"][name]["value"] for r in runs), "unit": unit}
                for name, unit in RAW.items()
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    path = os.path.join(RESULTS_DIR, f"BENCH_{args.label}.json")
    _write(path, summary)
    print(f"run record written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload (all mode)")
    parser.add_argument("--label", default="local", help="run record name (all mode)")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        return workload_main(args) if args.workload else all_main(args)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
