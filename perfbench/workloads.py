"""Seeded workloads: config generators, set-up, timed passes and checks.

Every input reaches the program as an ``iqp-config/1`` JSON document through
``parse_config`` (or the CLI's ``--config``).  System ``k`` of rung ``r`` draws
from ``numpy.random.default_rng([seed, r, k])``, so a rung's systems do not
depend on which other rungs run.  Functions of the package are looked up on
their modules at call time, so wrappers installed by the tracer see the calls.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from iqp import cli, credal, events, scenarios, typicality
from iqp.system import Region, SSet

SCHEMA = "iqp-config/1"


@dataclass(frozen=True)
class Rung:
    """``systems`` seeded systems with m labels and n times.

    ``kind`` is ``dft`` (DFT steps, seeded initial state) or ``random`` (seeded
    QR unitaries and state); ``pairs`` is ``all`` time pairs or the ``chain``
    of consecutive times; E cross-time events; S vertex samples in one
    ``verify_w11`` branch check; ``huber`` runs ``huber_check`` on the
    feasible systems.
    """

    m: int
    n: int
    kind: str
    ruleset: str
    pairs: str
    systems: int
    E: int = 0
    S: int = 0
    huber: bool = False

    @property
    def N(self) -> int:
        return self.m**self.n


# Rung sizes keep three passes near 40 s on a 2-core machine at the seed
# commit.  Many small systems rather than a few large ones, because one LP's
# time varies 2-3x between seeded systems of the same shape.  For that reason
# N = 2048 runs feasibility only (one lower_upper there takes 0.6-1.3 s, and
# the one or two that fit would set the spread) and N = 4096 is left out (one
# system there takes 10-20 s).
LADDER = (
    Rung(2, 9, "random", "born+qtr-min", "chain", systems=12, E=2),
    Rung(3, 6, "dft", "born+qtr", "all", systems=6, E=1, S=1),
    Rung(2, 10, "random", "born+qtr-min", "chain", systems=7, E=1),
    Rung(4, 5, "dft", "born+qtr", "all", systems=4, E=1, S=1),
    Rung(2, 11, "random", "born+qtr-min", "chain", systems=5),
)

# Odd-numbered systems get a contradictory demand and are infeasible.  Huber
# runs at N = 256 only: one call takes 0.5-1.1 s at N = 512 and 0.1-1.1 s at
# N = 729 depending on the seed, and a few such calls would set the spread.
VERDICTS = (
    Rung(2, 8, "random", "born+qtr-min", "chain", systems=24, huber=True),
    Rung(4, 4, "dft", "born+qtr", "all", systems=16, huber=True),
    Rung(2, 9, "random", "born+qtr-min", "chain", systems=16),
    Rung(3, 6, "dft", "born+qtr", "all", systems=8),
    Rung(2, 10, "random", "born+qtr-min", "chain", systems=8),
    Rung(2, 11, "random", "born+qtr-min", "chain", systems=4),
)

CLI_SCENARIOS = ("beam-splitter", "mach-zehnder", "spreading-packet", "drifting-branch",
                 "adversarial-demo")
CLI_COMMANDS = ("scenario", "simulate", "feasibility", "bounds", "typicality", "branch")
CLI_ITERATIONS = 30  # loop iterations over all 30 invocations in one pass


def cli_expected_exit(scenario: str, command: str) -> int:
    """Exit codes of the built-in scenarios at the seed commit."""
    if scenario == "adversarial-demo" and command in ("feasibility", "bounds"):
        return 2
    if command == "branch" and scenario in ("mach-zehnder", "spreading-packet",
                                            "adversarial-demo"):
        return 1
    if command == "typicality" and scenario in ("spreading-packet", "adversarial-demo"):
        return 1
    return 0


# --- config generation -------------------------------------------------------


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _dft(m: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.exp(-2j * np.pi * j * k / m) / np.sqrt(m)


def _labels(rng: np.random.Generator, m: int) -> str:
    size = int(rng.integers(1, max(m - 1, 1) + 1))
    return ",".join(str(x) for x in sorted(rng.choice(m, size, replace=False).tolist()))


def make_config(rung: Rung, seed: int, r: int, k: int, infeasible: bool = False) -> dict:
    """One seeded ``iqp-config/1`` document for system ``k`` of rung ``r``."""
    rng = np.random.default_rng([seed, r, k])
    m, n = rung.m, rung.n
    psi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    psi /= np.linalg.norm(psi)
    if rung.kind == "dft":
        mats = [_dft(m)] * (n - 1)
        steps: list = ["dft"] * (n - 1)
    else:
        mats = [_unitary(rng, m) for _ in range(n - 1)]
        steps = [[[_pair(z) for z in row] for row in mat] for mat in mats]
    pairs: dict = {"max_region_size": 1}
    if rung.pairs == "chain":
        pairs["time_pairs"] = [[t, t + 1] for t in range(n - 1)]
    rules: dict = {"ruleset": rung.ruleset, "tau_norm": 1e-9, "pairs": pairs}
    queries: dict = {"seed": int(rng.integers(2**31)), "delta": 1e-3}

    times = []
    for _ in range(rung.E):
        t1, t2 = sorted(rng.choice(n, 2, replace=False).tolist())
        times.append(f"(t={t1},{{{_labels(rng, m)}}}) & (t={t2},{{{_labels(rng, m)}}})")
    queries["events"] = times
    if rung.S:
        # (t, {x}) and (t+2, {-x mod m}) have one pullback state under DFT
        # steps (the squared DFT is the parity permutation): a zero-drift branch
        t0, x = int(rng.integers(n - 2)), int(rng.integers(m))
        queries["branches"] = [{"name": "parity-echo", "ssets": [[t0, [x]], [t0 + 2, [(-x) % m]]]}]
        queries["samples"] = rung.S
    if infeasible:
        # demand P(S1 and S2) above min(w1, w2): impossible under the Born pins
        t1, t2 = sorted(rng.choice(n, 2, replace=False).tolist())
        a, b = (int(v) for v in rng.integers(m, size=2))
        state, weights = psi.copy(), []
        for t in range(n):
            weights.append(np.abs(state) ** 2)
            if t < n - 1:
                state = mats[t] @ state
        bound = min(weights[t1][a], weights[t2][b]) + 0.02 + 0.1 * float(rng.random())
        rules["extra_lower_bounds"] = [
            {"event": f"(t={t1},{{{a}}}) & (t={t2},{{{b}}})", "min_probability": bound}
        ]
    return {
        "schema": SCHEMA,
        "system": {
            "labels": [f"x{i}" for i in range(m)],
            "steps": steps,
            "initial_state": [_pair(z) for z in psi],
        },
        "rules": rules,
        "queries": queries,
    }


def rung_table(rungs: tuple[Rung, ...]) -> list[dict]:
    return [
        {"rung": r, "m": g.m, "n": g.n, "N": g.N, "kind": g.kind, "ruleset": g.ruleset,
         "pairs": g.pairs, "systems": g.systems, "E": g.E, "S": g.S, "huber": g.huber}
        for r, g in enumerate(rungs)
    ]


# --- operations ----------------------------------------------------------------


@dataclass
class Op:
    kind: str
    rung: int
    start: float
    seconds: float
    output: object = None
    error: str | None = None
    key: object = None  # ops with one key repeat one query; the fastest one counts


def _timed(ops: list[Op], kind: str, rung: int, fn, *args) -> object:
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failed query is counted, not fatal
        ops.append(Op(kind, rung, start, time.perf_counter() - start, None,
                      f"{type(exc).__name__}: {exc}"))
        return None
    ops.append(Op(kind, rung, start, time.perf_counter() - start, out))
    return out


def fingerprint(op: Op) -> object:
    """What must repeat exactly when the same query runs again."""
    out = op.output
    if out is None:
        return op.error
    if isinstance(out, tuple):  # a CLI invocation: (exit code, output files)
        return out
    if op.kind == "feasibility":
        vec = out.witness.probs if out.feasible else out.farkas.multipliers
        return out.feasible, vec.tobytes()
    if op.kind == "lower_upper":
        return out.status, out.lower, out.upper
    if op.kind == "verify_w11":
        return out.passes, out.worst_expectation, out.worst_tail, out.n_samples
    return out


# --- LP workloads (ladder-queries, verdicts) ------------------------------------


@dataclass
class Prepared:
    rung: int
    infeasible: bool
    cfg: object
    system: object
    space: object
    cs: object
    events: list = field(default_factory=list)
    branch: object = None


class LPWorkload:
    def __init__(self, name: str, rungs: tuple[Rung, ...], seed: int) -> None:
        self.name, self.rungs, self.seed = name, rungs, seed
        self.items = [
            (r, k, name == "verdicts" and k % 2 == 1)
            for r, rung in enumerate(rungs)
            for k in range(rung.systems)
        ]

    def configs(self) -> list[tuple[int, bool, dict]]:
        return [(r, bad, make_config(self.rungs[r], self.seed, r, k, bad))
                for r, k, bad in self.items]

    def setup(self, docs) -> list[Prepared]:
        out = []
        for r, bad, doc in docs:
            cfg = scenarios.parse_config(doc, source=f"{self.name}-r{r}")
            system = scenarios.build_system(cfg)
            space = events.TrajectorySpace.for_system(system)
            cs = scenarios.build_constraints(cfg, system, space)
            prep = Prepared(r, bad, cfg, system, space, cs,
                            [(e, events.parse_event(e, space)) for e in cfg.events])
            if cfg.branches:
                ssets = [SSet(t, Region.from_labels(labels, system.m))
                         for t, labels in cfg.branches[0].ssets]
                prep.branch = typicality.make_branch(system, ssets, cfg.tau_norm)
            out.append(prep)
        return out

    def run_pass(self, prepared: list[Prepared]) -> list[Op]:
        ops: list[Op] = []
        for p in prepared:
            _timed(ops, "feasibility", p.rung, credal.feasibility, p.cs)
            for _, event in p.events:
                _timed(ops, "lower_upper", p.rung, credal.lower_upper, p.cs, event)
            if p.branch is not None:
                _timed(ops, "verify_w11", p.rung, typicality.verify_w11, p.system, p.space,
                       p.cs, p.branch, p.cfg.delta, p.cfg.samples, p.cfg.seed)
            if self.rungs[p.rung].huber and not p.infeasible:
                _timed(ops, "huber_check", p.rung, credal.huber_check, p.cs)
        for i, op in enumerate(ops):
            op.key = i
        return ops

    def check(self, prepared: list[Prepared], ops: list[Op], clock) -> list[str]:
        """Compare one pass's answers with HiGHS and direct sums (untimed)."""
        import reference

        failures = []
        it = iter(ops)
        for p in prepared:
            clock.rung = p.rung
            feas = next(it)
            expected = [("feasibility", None)] + [("lower_upper", ev) for _, ev in p.events]
            if p.branch is not None:
                expected.append(("verify_w11", None))
            if self.rungs[p.rung].huber and not p.infeasible:
                expected.append(("huber_check", None))
            for kind, event in expected:
                op = feas if kind == "feasibility" else next(it)
                if op.error:
                    failures.append(f"r{p.rung} {kind}: {op.error}")
                    continue
                if kind == "feasibility":
                    problem = reference.check_feasibility(clock, p.cs, op.output)
                    if problem is None and op.output.feasible == p.infeasible:
                        problem = f"generated as {'in' if p.infeasible else ''}feasible"
                elif kind == "lower_upper":
                    problem = reference.check_bounds(clock, p.cs, event, op.output)
                elif kind == "huber_check":
                    feasible = feas.output.feasible if feas.output is not None else None
                    problem = reference.check_huber(clock, p.cs, op.output, feasible)
                else:
                    problem = self._check_w11(p, op.output, clock, reference)
                if problem:
                    failures.append(f"r{p.rung} {kind}: {problem}")
        return failures

    def _check_w11(self, p: Prepared, report, clock, reference) -> str | None:
        measures = credal.sample_vertex_measures(p.cs, p.cfg.samples, p.cfg.seed)
        problem = reference.check_vertices(clock, p.cs, measures, p.cfg.seed)
        if problem:
            return problem
        stats = [typicality.branch_stats(p.space, m.probs, p.branch, p.cfg.delta) for m in measures]
        if list(report.samples[: len(stats)]) != stats:
            return "verify_w11 statistics differ from its sampled vertices"
        if report.passes is not True:
            return f"zero-drift branch verdict {report.passes}"
        return None

    def metrics(self, ops_by_op: list[list[Op]]) -> dict[str, tuple[float, int]]:
        """Named per-query medians over queries, each timed by its fastest pass."""
        named = {"feasibility": "feasibility_s_p50", "lower_upper": "bounds_s_p50",
                 "huber_check": "huber_s_p50", "verify_w11": "vertex_s_p50"}
        values: dict[str, list[float]] = {}
        for runs in ops_by_op:
            seconds = min(op.seconds for op in runs)
            op = runs[0]
            if op.kind == "verify_w11":
                seconds /= self.rungs[op.rung].S
            values.setdefault(named[op.kind], []).append(seconds)
        return {k: (statistics.median(v), len(v)) for k, v in values.items()}


# --- cli-scenarios ------------------------------------------------------------------


class CLIWorkload:
    """All five built-in scenarios through every subcommand, in-process."""

    name = "cli-scenarios"

    def __init__(self, seed: int, workdir: Path, iterations: int = CLI_ITERATIONS) -> None:
        self.seed, self.workdir, self.iterations = seed, workdir, iterations
        self.first: dict[tuple[str, str], object] = {}

    def configs(self) -> list[tuple[str, str]]:
        return [(name, scenarios.config_json(scenarios.BUILTIN_SCENARIOS[name]()))
                for name in CLI_SCENARIOS]

    def setup(self, docs) -> list[str]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, text in docs:
            path = self.workdir / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            cfg = scenarios.load_config(str(path))
            system = scenarios.build_system(cfg)
            scenarios.build_constraints(cfg, system, events.TrajectorySpace.for_system(system))
            paths.append(str(path))
        return paths

    def _argv(self, name: str, command: str, config: str, outdir: Path) -> list[str]:
        if command == "scenario":
            return ["scenario", name, "--out", str(outdir / "scenario.json")]
        argv = [command, "--config", config, "--seed", str(self.seed)]
        return argv if command == "simulate" else argv + ["--outdir", str(outdir)]

    def run_pass(self, paths: list[str]) -> list[Op]:
        ops: list[Op] = []
        sink = io.StringIO()
        for _ in range(self.iterations):
            for r, (name, config) in enumerate(zip(CLI_SCENARIOS, paths)):
                for command in CLI_COMMANDS:
                    outdir = self.workdir / name / command
                    shutil.rmtree(outdir, ignore_errors=True)
                    outdir.mkdir(parents=True)
                    argv = self._argv(name, command, config, outdir)
                    start = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                            code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # a traceback out of main is a failure
                        ops.append(Op(command, r, start, time.perf_counter() - start, None,
                                      f"{type(exc).__name__}: {exc}", (name, command)))
                        continue
                    seconds = time.perf_counter() - start
                    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
                    ops.append(Op(command, r, start, seconds, (code, files), None, (name, command)))
                    sink.seek(0)
                    sink.truncate()
        return ops

    def check(self, _prepared, ops: list[Op], _clock) -> list[str]:
        """Pinned exit codes, and byte-identical outputs across iterations and passes."""
        failures = []
        for op in ops:
            name = CLI_SCENARIOS[op.rung]
            if op.error:
                failures.append(f"{name} {op.kind}: {op.error}")
                continue
            code, _ = op.output
            want = cli_expected_exit(name, op.kind)
            if code != want:
                failures.append(f"{name} {op.kind}: exit {code}, expected {want}")
            first = self.first.setdefault((name, op.kind), op.output)
            if op.output != first:
                failures.append(f"{name} {op.kind}: outputs differ between iterations")
        return failures

    def metrics(self, ops_by_op: list[list[Op]]) -> dict[str, tuple[float, int]]:
        times = [op.seconds for runs in ops_by_op for op in runs]  # every invocation
        q = statistics.quantiles(times, n=10)
        return {"cli_s_p50": (statistics.median(times), len(times)),
                "cli_s_p90": (q[8], len(times))}
