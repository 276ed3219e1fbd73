"""Smoke test: the smallest rung of each workload, checked, with no timing assertions.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_checked(work) -> list:
    prepared = work.setup(work.configs())
    ops = work.run_pass(prepared)
    assert ops
    assert work.check(prepared, ops, reference.HighsClock()) == []
    return ops


def test_ladder_smallest_rungs():
    # rung 0, plus the smallest DFT rung so that the verify_w11 path runs too
    rungs = tuple(dataclasses.replace(r, systems=1) for r in workloads.LADDER[:2])
    ops = run_checked(workloads.LPWorkload("ladder-queries", rungs, seed=7))
    assert {op.kind for op in ops} == {"feasibility", "lower_upper", "verify_w11"}


def test_verdicts_smallest_rung():
    rungs = (dataclasses.replace(workloads.VERDICTS[0], systems=2),)
    ops = run_checked(workloads.LPWorkload("verdicts", rungs, seed=7))
    verdicts = [op.output.feasible for op in ops if op.kind == "feasibility"]
    assert verdicts == [True, False]
    assert [op.kind for op in ops] == ["feasibility", "huber_check", "feasibility"]


def test_cli_one_iteration_traced(tmp_path):
    work = workloads.CLIWorkload(seed=7, workdir=tmp_path, iterations=1)
    ops = run_checked(work)
    assert len(ops) == len(workloads.CLI_SCENARIOS) * len(workloads.CLI_COMMANDS)

    tracer = Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            traced = work.run_pass(work.setup(work.configs()))
            counts.append({name: agg["calls"] for name, agg in tracer.by_name().items()})
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["cli.build_parser"] == len(ops)
    assert [workloads.fingerprint(op) for op in traced] == [workloads.fingerprint(op) for op in ops]
