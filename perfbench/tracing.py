"""In-memory span tracer installed from outside the package.

Each wrapper replaces the attribute that the caller actually resolves: ``credal``
reaches the solver as ``lp.solve_lp``, so one wrapper on ``iqp.lp.solve_lp``
sees every LP; ``cli``, ``scenarios`` and ``typicality`` import functions by
name, so those names are wrapped in the importing module as well.  Spans keep
a name, start, end and parent index; self time is a span's duration minus the
durations of its direct children (calls are single-threaded and nested).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

# (module, attribute) -> span name; a class attribute is given as "Class.method"
WRAPPED = {
    ("iqp.lp", "solve_lp"): "lp.solve_lp",
    ("iqp.credal", "feasibility"): "credal.feasibility",
    ("iqp.cli", "feasibility"): "credal.feasibility",
    ("iqp.credal", "lower_upper"): "credal.lower_upper",
    ("iqp.cli", "lower_upper"): "credal.lower_upper",
    ("iqp.credal", "huber_check"): "credal.huber_check",
    ("iqp.credal", "sample_vertex_measures"): "credal.sample_vertex_measures",
    ("iqp.typicality", "sample_vertex_measures"): "credal.sample_vertex_measures",
    ("iqp.credal", "verify_witness"): "credal.verify_witness",
    ("iqp.typicality", "verify_witness"): "credal.verify_witness",
    ("iqp.credal", "verify_farkas"): "credal.verify_farkas",
    ("iqp.credal", "ConstraintSet.lp_rows"): "credal.lp_rows",
    ("iqp.scenarios", "born_constraints"): "credal.born_constraints",
    ("iqp.scenarios", "qtr_constraints"): "credal.qtr_constraints",
    ("iqp.scenarios", "qtr_variant_constraints"): "credal.qtr_variant_constraints",
    ("iqp.cli", "constraints_csv"): "credal.csv",
    ("iqp.cli", "measure_csv"): "credal.csv",
    ("iqp.cli", "farkas_csv"): "credal.csv",
    ("iqp.scenarios", "parse_config"): "scenarios.parse_config",
    ("iqp.scenarios", "build_system"): "scenarios.build_system",
    ("iqp.cli", "build_system"): "scenarios.build_system",
    ("iqp.scenarios", "build_constraints"): "scenarios.build_constraints",
    ("iqp.cli", "build_constraints"): "scenarios.build_constraints",
    ("iqp.cli", "load_config"): "scenarios.load_config",
    ("iqp.system", "QuantumSystem.sset_state"): "system.sset_state",
    ("iqp.events", "sset_event"): "events.sset_event",
    ("iqp.credal", "sset_event"): "events.sset_event",
    ("iqp.typicality", "sset_event"): "events.sset_event",
    ("iqp.events", "parse_event"): "events.parse_event",
    ("iqp.scenarios", "parse_event"): "events.parse_event",
    ("iqp.cli", "parse_event"): "events.parse_event",
    ("iqp.credal", "event_probability"): "events.event_probability",
    ("iqp.typicality", "event_probability"): "events.event_probability",
    ("iqp.typicality", "verify_w11"): "typicality.verify_w11",
    ("iqp.cli", "verify_w11"): "typicality.verify_w11",
    ("iqp.typicality", "branch_stats"): "typicality.branch_stats",
    ("iqp.cli", "typicality_report"): "typicality.typicality_report",
    ("iqp.cli", "build_parser"): "cli.build_parser",
    ("iqp.cli", "main"): "cli.main",
}

LP_CALLERS = {
    "credal.feasibility": "feasibility",
    "credal.lower_upper": "lower_upper",
    "credal.huber_check": "huber",
    "credal.sample_vertex_measures": "vertex",
}


def tableau_cells(rows, rhs, senses) -> int:
    """Dense tableau size of one ``solve_lp`` call, from its argument shapes.

    One column per variable, per slack or surplus (every non-'==' row), per
    artificial (every row that is not '<=' after rows with a negative right
    side are flipped) and the right side; two cost rows below the constraints.
    """
    n_rows = len(senses)
    n_vars = len(rows[0]) if n_rows else 0
    flip = {">=": "<=", "<=": ">=", "==": "=="}
    std = [flip[s] if b < 0 else s for s, b in zip(senses, rhs)]
    slack_surplus = sum(s != "==" for s in senses)
    artificial = sum(s != "<=" for s in std)
    return (n_rows + 2) * (n_vars + slack_surplus + artificial + 1)


class Tracer:
    """Spans and counters of one traced pass; wrappers write into the live tracer."""

    def __init__(self, keep_lp_args: bool = False) -> None:
        self.keep_lp_args = keep_lp_args
        self.reset()
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.lp_cells = 0
        self.lp_callers: dict[str, int] = {k: 0 for k in LP_CALLERS.values()}
        self.lp_args: list[tuple] = []
        self.sets: list[tuple[int, int, int, int, int]] = []  # N, rows, emitted, skipped, filtered
        self.csv_bytes = 0
        self.vertex_samples = 0
        self.distinct_vertices = 0

    # --- spans -----------------------------------------------------------

    def span(self, name: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()

    def _caller(self) -> str | None:
        for idx in reversed(self.stack):
            caller = LP_CALLERS.get(self.names[idx])
            if caller:
                return caller
        return None

    def _wrapper(self, name: str, fn):
        tracer = self

        if name == "lp.solve_lp":
            def wrapped(objective, rows, rhs, senses, **kwargs):
                caller = tracer._caller()
                if caller:
                    tracer.lp_callers[caller] += 1
                tracer.lp_cells += tableau_cells(rows, rhs, senses)
                result = tracer.span(name, fn, (objective, rows, rhs, senses), kwargs)
                if tracer.keep_lp_args:
                    tracer.lp_args.append(
                        (objective, rows, rhs, list(senses), kwargs.get("maximize", False), result)
                    )
                return result
        elif name == "scenarios.build_constraints":
            def wrapped(*args, **kwargs):
                cs = tracer.span(name, fn, args, kwargs)
                tracer.sets.append((cs.space.size, len(cs), cs.emitted, cs.skipped, cs.filtered))
                return cs
        elif name == "cli.main":
            def wrapped(argv):
                return tracer.span(f"cli.main.{argv[0]}", fn, (argv,), {})
        elif name == "credal.csv":
            def wrapped(*args, **kwargs):
                text = tracer.span(name, fn, args, kwargs)
                tracer.csv_bytes += len(text.encode("utf-8"))
                return text
        elif name == "credal.sample_vertex_measures":
            def wrapped(*args, **kwargs):
                measures = tracer.span(name, fn, args, kwargs)
                tracer.vertex_samples += len(measures)
                tracer.distinct_vertices += len({m.probs.tobytes() for m in measures})
                return measures
        else:
            def wrapped(*args, **kwargs):
                return tracer.span(name, fn, args, kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        import importlib

        for (module_name, attr), name in WRAPPED.items():
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrapper(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # --- aggregation --------------------------------------------------------

    def durations(self) -> tuple[list[float], list[float]]:
        total = [e - s for s, e in zip(self.starts, self.ends)]
        self_time = list(total)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                self_time[parent] -= total[idx]
        return total, self_time

    def by_name(self) -> dict[str, dict[str, float]]:
        total, self_time = self.durations()
        out: dict[str, dict] = {}
        for name, tot, own in zip(self.names, total, self_time):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "samples": []})
            agg["calls"] += 1
            agg["total_s"] += tot
            agg["self_s"] += own
            agg["samples"].append(tot)
        for agg in out.values():
            agg["p50_s"] = statistics.median(agg.pop("samples"))
        return out

    def write(self, path: Path) -> None:
        """Spans as parallel arrays (times relative to the first start) plus aggregates."""
        t0 = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "start_s": [round(s - t0, 9) for s in self.starts],
                    "end_s": [round(e - t0, 9) for e in self.ends],
                    "parent": self.parents,
                    "by_name": self.by_name(),
                }
            )
        )
