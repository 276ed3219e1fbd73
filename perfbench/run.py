"""iqp benchmark: one seeded workload per run, end-to-end or traced per layer.

Usage (from the root of a checkout that holds ``src/iqp``)::

    python3 perfbench/run.py --workload ladder-queries --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print every
metric by name with its unit and sample count.  ``--trace 0`` times the
workload untraced; ``--trace 1`` runs one untraced pass and two traced passes
and reports per-layer numbers and the tracing overhead.
"""

import time

T0 = time.perf_counter()  # set-up probes time everything after interpreter start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread per workload process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("ladder-queries", "verdicts", "cli-scenarios")
SETUP_PROBES = 2  # fresh-process set-ups before each timed pass, so they sample the whole run
# Each query runs once per pass (a CLI invocation once per loop iteration) and
# is timed by its fastest run: neighbours on a shared machine slow whole
# seconds at a time by up to 1.9x, and the minimum over runs spread across the
# run filters most of that out.  The pass count is fixed, not fitted to
# --seconds, so that every commit takes as many samples.
PASSES = 3

# per-layer values that must repeat exactly between the two traced passes
COUNT_KEYS = (
    "lp.calls", "lp.calls_per_set", "credal.constraint_sets", "lp.calls_by_caller.feasibility",
    "lp.calls_by_caller.lower_upper", "lp.calls_by_caller.huber", "lp.calls_by_caller.vertex",
    "lp.tableau_cells", "lp.bytes_computed", "credal.trajectories", "credal.rows",
    "credal.rows_considered", "credal.rows_emitted_ratio", "credal.csv_bytes",
    "typicality.vertex_samples", "typicality.distinct_vertices",
    "typicality.distinct_vertex_ratio", "system.sset_state_calls", "events.sset_event_calls",
    "events.parse_event_calls", "events.event_probability_calls", "cli.calls",
    "cli.bytes_written",
)


def import_package():
    """Import iqp from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "iqp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'iqp'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import iqp

    if Path(iqp.__file__).resolve().parent != SRC / "iqp":
        sys.exit(f"perfbench: imported iqp from {iqp.__file__}, expected {SRC / 'iqp'}")
    import workloads

    return workloads


def make_workload(wl, name: str, seed: int, workdir: Path):
    if name == "ladder-queries":
        return wl.LPWorkload(name, wl.LADDER, seed)
    if name == "verdicts":
        return wl.LPWorkload(name, wl.VERDICTS, seed)
    return wl.CLIWorkload(seed, workdir)


def setup_probe(args) -> None:
    """Import, generate, parse and build once, then print the elapsed seconds."""
    wl = import_package()
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        work = make_workload(wl, args.workload, args.seed, workdir)
        work.setup(work.configs())
        print(repr(time.perf_counter() - T0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args, probes: int) -> list[float]:
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# --- traced passes -----------------------------------------------------------------


def traced_pass(wl, work, tracer, reference_ops, failures) -> tuple[dict, dict]:
    """Set-up and one query pass under the tracer; returns (counts, times)."""
    tracer.reset()
    prepared = work.setup(work.configs())
    start = time.perf_counter()
    ops = work.run_pass(prepared)
    wall = time.perf_counter() - start
    for ref, op in zip(reference_ops, ops):
        if wl.fingerprint(ref) != wl.fingerprint(op):
            failures.append(f"traced {op.kind} (rung {op.rung}) differs from the untraced answer")
    agg = tracer.by_name()

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    lp_calls = get("lp.solve_lp", "calls")
    sets = len(tracer.sets)
    considered = sum(s[2] + s[3] + s[4] for s in tracer.sets)
    emitted = sum(s[2] for s in tracer.sets)
    cli_ops = [op for op in ops if isinstance(op.output, tuple)]  # (exit code, files)
    counts = {
        "lp.calls": lp_calls,
        "lp.calls_per_set": lp_calls / sets if sets else 0.0,
        "credal.constraint_sets": sets,
        **{f"lp.calls_by_caller.{k}": v for k, v in tracer.lp_callers.items()},
        "lp.tableau_cells": tracer.lp_cells,
        "lp.bytes_computed": 8 * tracer.lp_cells,
        "credal.trajectories": sum(s[0] for s in tracer.sets),
        "credal.rows": sum(s[1] for s in tracer.sets),
        "credal.rows_considered": considered,
        "credal.rows_emitted_ratio": emitted / considered if considered else 0.0,
        "credal.csv_bytes": tracer.csv_bytes,
        "typicality.vertex_samples": tracer.vertex_samples,
        "typicality.distinct_vertices": tracer.distinct_vertices,
        "typicality.distinct_vertex_ratio": (
            tracer.distinct_vertices / tracer.vertex_samples if tracer.vertex_samples else 0.0),
        "system.sset_state_calls": get("system.sset_state", "calls"),
        "events.sset_event_calls": get("events.sset_event", "calls"),
        "events.parse_event_calls": get("events.parse_event", "calls"),
        "events.event_probability_calls": get("events.event_probability", "calls"),
        "cli.calls": len(cli_ops),
        "cli.bytes_written": sum(len(b) for op in cli_ops for b in op.output[1].values()),
    }
    lp_spans = [(s, e) for n, s, e in zip(tracer.names, tracer.starts, tracer.ends)
                if n == "lp.solve_lp"]
    lp_by_rung: dict[int, float] = {}
    for op in ops:
        inside = sum(e - s for s, e in lp_spans if op.start <= s < op.start + op.seconds)
        lp_by_rung[op.rung] = lp_by_rung.get(op.rung, 0.0) + inside
    times = {
        "wall_s": wall,
        "lp.solve_s": get("lp.solve_lp", "total_s"),
        "lp.solve_s_p50": get("lp.solve_lp", "p50_s"),
        "lp_by_rung": lp_by_rung,
        "spans": agg,
    }
    return counts, times


def run_traced(wl, work, args, untraced_ops, untraced_wall, clock, failures) -> dict:
    import reference
    from tracing import Tracer

    tracer = Tracer(keep_lp_args=args.workload == "cli-scenarios")
    tracer.install()
    try:
        passes = [traced_pass(wl, work, tracer, untraced_ops, failures) for _ in range(2)]
        lp_args = list(tracer.lp_args)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    (c1, t1), (c2, t2) = passes
    for key in COUNT_KEYS:
        if c1[key] != c2[key]:
            failures.append(f"count {key} differs between traced passes: {c1[key]} vs {c2[key]}")
    for call in lp_args:  # the CLI's LPs of the second traced pass
        problem = reference.check_lp_call(clock, *call)
        if problem:
            failures.append(f"cli LP: {problem}")

    def mean(key: str) -> float:
        return (t1[key] + t2[key]) / 2

    spans = t2["spans"]

    def span(name: str, key: str = "total_s") -> float:
        return spans.get(name, {}).get(key, 0.0)

    lp_s, wall = mean("lp.solve_s"), mean("wall_s")
    highs_s = clock.seconds
    metrics = dict(c2)
    metrics.update({
        "lp.solve_s": lp_s,
        "lp.solve_s_p50": mean("lp.solve_s_p50"),
        "lp.highs_s": highs_s,
        "lp.highs_ratio": t2["lp.solve_s"] / highs_s,
        "lp.share": lp_s / wall,
        "credal.lp_rows_s": span("credal.lp_rows"),
        "credal.verify_witness_s": span("credal.verify_witness"),
        "credal.feasibility_self_s": span("credal.feasibility", "self_s"),
        "scenarios.parse_config_s": span("scenarios.parse_config"),
        "scenarios.build_system_s": span("scenarios.build_system"),
        "scenarios.build_constraints_s": span("scenarios.build_constraints"),
        "system.sset_state_s": span("system.sset_state"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
    })
    report = {
        "spans": spans,
        "highs_by_rung": clock.by_rung,
        "lp_by_rung": t2["lp_by_rung"],
    }
    return metrics, report


# --- main -------------------------------------------------------------------------------


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<6} {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time budget the seeded work is sized to (three passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args)
        return 0

    wl = import_package()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(wl, args, workdir: Path) -> int:
    work = make_workload(wl, args.workload, args.seed, workdir)
    prepared = work.setup(work.configs())

    # timed passes over the same work; trace mode needs one untraced pass only
    passes: list[tuple[float, list]] = []
    setup_times: list[float] = []
    for _ in range(1 if args.trace else PASSES):
        if not args.trace:
            setup_times += measure_setup(args, SETUP_PROBES)
        start = time.perf_counter()
        ops = work.run_pass(prepared)
        passes.append((time.perf_counter() - start, ops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed checks: HiGHS and direct sums on the first pass, exact repeats after it
    import reference

    clock = reference.HighsClock()
    first = passes[0][1]
    failures = work.check(prepared, first, clock)
    for _, ops in passes[1:]:
        for ref, op in zip(first, ops):
            if wl.fingerprint(ref) != wl.fingerprint(op):
                failures.append(f"{op.kind} (rung {op.rung}) changed between passes")
    attempted = sum(len(ops) for _, ops in passes)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops/pass={len(first)}")
    if hasattr(work, "rungs"):
        for row in wl.rung_table(work.rungs):
            print("  rung", json.dumps(row))

    if args.trace:
        metrics, report = run_traced(wl, work, args, first, passes[0][0], clock, failures)
        attempted += 2 * len(first)
        print("per-layer (second traced pass; times are the mean of both):")
        units = {}
        for key, value in metrics.items():
            unit = "s" if key.endswith("_s") or key.endswith("_p50") else (
                "B" if "bytes" in key else ("ratio" if "ratio" in key or "per_set" in key
                                             or key == "lp.share" else "count"))
            units[key] = unit
            print_metric(key, value, unit)
        print(f"  ratio bases: lp.highs_ratio = {metrics['lp.solve_s']:.6g} s / "
              f"{metrics['lp.highs_s']:.6g} s; lp.share = lp.solve_s / trace.wall_s; "
              f"credal.rows_emitted_ratio = {metrics['credal.rows']} / "
              f"{metrics['credal.rows_considered']}; typicality.distinct_vertex_ratio = "
              f"{metrics['typicality.distinct_vertices']} / {metrics['typicality.vertex_samples']}; "
              f"lp.calls_per_set = {metrics['lp.calls']} / {metrics['credal.constraint_sets']}")
        print("spans (calls, total s, self s):")
        for name, agg in sorted(report["spans"].items()):
            print(f"  {name:<40} {agg['calls']:>8} {agg['total_s']:>12.6f} {agg['self_s']:>12.6f}")
        for rung, highs in sorted(report["highs_by_rung"].items()):
            lp_s = report["lp_by_rung"].get(rung, 0.0)
            if highs > 0 and lp_s > 0 and hasattr(work, "rungs"):
                print(f"  lp.highs_ratio.r{rung} = {lp_s / highs:.4g} "
                      f"({lp_s:.4g} s iqp / {highs:.4g} s HiGHS)")
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        per_op: dict = {}
        for _, ops in passes:
            for op in ops:
                per_op.setdefault(op.key, []).append(op)
        per_op = list(per_op.values())
        op_times = [min(op.seconds for op in runs) for runs in per_op]
        e2e = {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "wall_s": (sum(op_times), "s", len(op_times)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
        print("end-to-end (untraced; wall_s sums each distinct query's fastest run):")
        for key, (value, unit, n) in e2e.items():
            print_metric(key, value, unit, f"n={n}")
        for key, (value, n) in work.metrics(per_op).items():
            print_metric(key, value, "s", f"n={n}")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}

    failed = min(attempted, len(failures))
    print_metric("failed_ops_frac", failed / attempted, "ratio", f"{failed}/{attempted}")
    for line in failures[:20]:
        print("  FAIL", line)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
