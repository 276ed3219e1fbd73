"""Command-line drivers tying scenarios, constraint generation and LP queries
into reproducible runs with CSV artifacts."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import lp
from .credal import (
    ConstraintSet,
    FeasibilityCertificate,
    constraints_csv,
    csv_text,
    farkas_csv,
    feasibility,
    format_number,
    lower_upper,
    measure_csv,
    presolve,
)
from .events import And, Atom, TrajectorySpace, parse_event, parse_expr
from .scenarios import (
    BUILTIN_SCENARIOS,
    FRACTION,
    NONNEGATIVE,
    ConfigError,
    Kind,
    ScenarioConfig,
    build_constraints,
    build_system,
    config_hash,
    config_json,
    load_config,
)
from .system import QuantumSystem, Region, SSet
from .typicality import make_branch, typicality_report, verify_w11, w11_measures

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


@dataclass
class RunReport:
    command: str
    config_hash: str = ""
    constraints: dict[str, int] = field(
        default_factory=lambda: {"emitted": 0, "skipped": 0, "filtered": 0, "lp_rows": 0,
                                 "implied": 0, "forced_cols": 0}
    )
    feasible: bool | None = None
    feasibility_path: str | None = None  # FeasibilityCertificate.path
    certificate_path: str | None = None
    bounds: list[dict] = field(default_factory=list)
    typicality_rows: int = 0
    branch_rows: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    exit_code: int = EXIT_OK
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, 2 is taken
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory only when it is missing."""
    try:
        handle = open(path, "w", encoding="utf-8", newline="")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "w", encoding="utf-8", newline="")
    with handle:
        handle.write(text)


def _fmt6(x: float) -> str:
    return f"{0.0 if abs(x) < 5e-10 else x:.6f}"


def _load(args: argparse.Namespace, report: RunReport,
          digest: bool = False) -> tuple[ScenarioConfig, QuantumSystem, TrajectorySpace]:
    """Parse the config and take the system its validation built, timed as
    ``load``; the config's digest is computed for a run report, or when the
    command prints it (``digest``)."""
    start = time.perf_counter()
    cfg = load_config(args.config)
    if digest or args.report:
        report.config_hash = config_hash(cfg)
    system = build_system(cfg)
    space = TrajectorySpace.for_system(system)
    report.timings["load"] = time.perf_counter() - start
    return cfg, system, space


def _seed(args: argparse.Namespace, cfg: ScenarioConfig) -> int:
    """The sampling seed, ``--seed`` over ``queries.seed``; a negative one is
    refused here, since the config reader accepts any integer."""
    source, seed = ("queries.seed", cfg.seed) if args.seed is None else ("--seed", args.seed)
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _cmd_scenario(args: argparse.Namespace, report: RunReport) -> int:
    builder = BUILTIN_SCENARIOS.get(args.name)
    if builder is None:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(f"unknown scenario {args.name!r}; built-ins: {known}")
    text = config_json(builder())
    if args.out:
        _write(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, report: RunReport) -> int:
    _, system, space = _load(args, report, digest=True)
    print(f"config {report.config_hash[:12]}  m={system.m}  n={system.n}  "
          f"trajectories={space.size}")
    print("time  state amplitudes" + " " * max(0, 22 * system.m - 18) + "singleton weights")
    for t in range(system.n):
        state = system.evolve(t)
        amps = "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in state)
        weights = " ".join(
            format_number(system.weight(SSet(t, Region.from_labels([x], system.m))))
            for x in range(system.m)
        )
        print(f"{t:<4}  {amps}  {weights}")
    return EXIT_OK


def _constraints(args: argparse.Namespace, cfg: ScenarioConfig, system: QuantumSystem,
                 space: TrajectorySpace, report: RunReport) -> ConstraintSet:
    """Build the set, and with ``--report`` its presolve for the report's counts."""
    start = time.perf_counter()
    cs = build_constraints(cfg, system, space)
    report.constraints.update(emitted=cs.emitted, skipped=cs.skipped, filtered=cs.filtered)
    if args.report:
        # lp_rows: the presolved rows the queries solve, normalization included;
        # implied: the rows the presolve dropped because the Born pins imply them;
        # forced_cols: the trajectories the presolve's forcing rows fixed at zero
        pre = presolve(cs)  # the LP queries then reuse it, so it is timed here
        report.constraints.update(lp_rows=len(pre.senses), implied=pre.implied,
                                  forced_cols=space.size - pre.live.size)
    report.timings["constraints"] = time.perf_counter() - start
    return cs


def _feasibility(cs: ConstraintSet, report: RunReport) -> FeasibilityCertificate:
    """Decide the set, timing the solve and recording the verdict and how it
    was decided in the report."""
    start = time.perf_counter()
    cert = feasibility(cs)
    report.timings["solve"] = time.perf_counter() - start
    report.feasible, report.feasibility_path = cert.feasible, cert.path
    return cert


def _cmd_feasibility(args: argparse.Namespace, report: RunReport) -> int:
    cfg, system, space = _load(args, report)
    outdir = Path(args.outdir)
    cs = _constraints(args, cfg, system, space, report)
    _write(outdir / "constraints.csv", constraints_csv(cs))

    cert = _feasibility(cs, report)
    print(f"constraints: {cs.emitted} emitted, {cs.skipped} vacuous, "
          f"{cs.filtered} filtered")
    if cert.feasible:
        path = outdir / "certificate.csv"
        _write(path, measure_csv(cert.witness))
        report.certificate_path = str(path)
        print(f"feasible: witness written to {path}")
        return EXIT_OK
    path = outdir / "farkas.csv"
    _write(path, farkas_csv(cert.farkas, cs))
    report.certificate_path = str(path)
    print(f"infeasible: margin {format_number(cert.farkas.margin)}, "
          f"certificate written to {path}")
    return EXIT_INFEASIBLE


def _cmd_bounds(args: argparse.Namespace, report: RunReport) -> int:
    cfg, system, space = _load(args, report)
    cs = _constraints(args, cfg, system, space, report)
    exprs = args.event if args.event else list(cfg.events)
    if not exprs:
        raise ValueError("no events: give --event or declare queries.events")
    # an --event is parsed here; the config's events were parsed by its validation
    events = [parse_event(expr, space) if args.event else cfg.event(expr, space)
              for expr in exprs]

    start = time.perf_counter()
    results = [lower_upper(cs, a) for a in events]
    report.timings["solve"] = time.perf_counter() - start

    rows = []
    for expr, res in zip(exprs, results):
        if res.status == "infeasible":
            print("infeasible", file=sys.stderr)
            report.feasible = False
            return EXIT_INFEASIBLE
        print(f"{_fmt6(res.lower)}, {_fmt6(res.upper)}")
        rows.append([expr, format_number(res.lower), format_number(res.upper)])
        report.bounds.append({"event": expr, "lower": res.lower, "upper": res.upper,
                              "path": res.path})
    _write(Path(args.outdir) / "bounds.csv", csv_text(["event", "lower", "upper"], rows))
    return EXIT_OK


def _parse_pair(expr: str, space: TrajectorySpace) -> tuple[SSet, SSet]:
    tree = parse_expr(expr, space)
    if not (isinstance(tree, And) and isinstance(tree.left, Atom)
            and isinstance(tree.right, Atom)):
        raise ValueError(f"pair must be 'atom & atom', got {expr!r}")

    def to_sset(atom: Atom) -> SSet:
        return SSet(atom.time, Region.from_labels(atom.labels, space.m))

    return to_sset(tree.left), to_sset(tree.right)


def _cmd_typicality(args: argparse.Namespace, report: RunReport) -> int:
    cfg, system, space = _load(args, report)
    cs = _constraints(args, cfg, system, space, report)
    if args.pair:
        pairs = [_parse_pair(expr, space) for expr in args.pair]
    else:
        pairs = list(dict.fromkeys(con.origin for con in cs.constraints if len(con.origin) == 2))
    if not pairs:
        raise ValueError("no pairs: give --pair or a ruleset that generates pairs")
    eps = args.epsilon if args.epsilon is not None else (
        cfg.epsilon if cfg.epsilon is not None else 1e-6
    )

    cert = _feasibility(cs, report)
    if not cert.feasible:
        print("infeasible constraint set; no measure to evaluate", file=sys.stderr)
        return EXIT_INFEASIBLE
    probs = cert.witness.probs

    rows = []
    for s1, s2 in pairs:
        rep = typicality_report(system, space, probs, s1, s2, eps, cfg.tau_norm)
        pair_text = f"({s1.text()} & {s2.text()})"
        verdict = "pass" if rep.passes else "fail"
        rows.append([
            pair_text,
            format_number(rep.weight),
            format_number(rep.distance),
            format_number(rep.relative_distance),
            format_number(rep.measured_ratio),
            format_number(rep.epsilon),
            "yes" if rep.qtr_fires else "no",
            verdict,
        ])
        print(f"{pair_text}  ratio={_fmt6(rep.measured_ratio)}  "
              f"rel_dist={rep.relative_distance:.3e}  fires={rep.qtr_fires}  {verdict}")
        report.typicality_rows += 1
    header = ["pair", "weight", "distance", "relative_distance", "ratio",
              "epsilon", "fires", "verdict"]
    _write(Path(args.outdir) / "typicality.csv", csv_text(header, rows))
    return EXIT_OK


def _cmd_branch(args: argparse.Namespace, report: RunReport) -> int:
    cfg, system, space = _load(args, report)
    decls = [br for br in cfg.branches if args.name is None or br.name == args.name]
    if not decls:
        declared = ", ".join(br.name for br in cfg.branches) or "none"
        raise ValueError(f"no matching branch (declared: {declared})")
    cs = _constraints(args, cfg, system, space, report)
    seed = _seed(args, cfg)
    # the vertex samples of every branch start from one phase 1: this
    # verdict's, or on a pinned chain set, decided without one, the first
    # sample's
    if not _feasibility(cs, report).feasible:
        print("infeasible constraint set; no measure to sample", file=sys.stderr)
        return EXIT_INFEASIBLE

    rows = []
    exit_code = EXIT_OK
    measures = None  # sampled for the first branch, then shared by the others
    for decl in decls:
        ssets = [SSet(t, Region.from_labels(labels, system.m)) for t, labels in decl.ssets]
        branch = make_branch(system, ssets, cfg.tau_norm)
        delta = args.delta if args.delta is not None else (
            decl.delta if decl.delta is not None else cfg.delta
        )
        start = time.perf_counter()
        if measures is None:
            measures = w11_measures(system, space, cs, cfg.samples, seed)
        w11 = verify_w11(system, space, cs, branch, delta, cfg.samples, seed, measures)
        report.timings["solve"] += time.perf_counter() - start
        if w11.passes is None:
            verdict = "vacuous"
        elif w11.passes:
            verdict = "pass"
        else:
            verdict = "fail"
            exit_code = EXIT_ERROR
        rows.append([
            decl.name,
            format_number(system.weight(branch.base)),
            format_number(branch.epsilon),
            format_number(w11.worst_expectation),
            format_number(w11.worst_tail),
            format_number(delta),
            format_number(w11.expectation_bound),
            format_number(w11.tail_bound),
            verdict,
        ])
        print(f"{decl.name}: eps={branch.epsilon:.3e}  "
              f"E(Y)>= {format_number(w11.worst_expectation)} "
              f"(bound {format_number(w11.expectation_bound)})  "
              f"tail<= {format_number(w11.worst_tail)} "
              f"(bound {format_number(w11.tail_bound)})  "
              f"samples={w11.n_samples}  {verdict}")
        report.branch_rows += 1
    header = ["branch", "weight", "epsilon", "expectation", "tail", "delta",
              "expectation_bound", "tail_bound", "verdict"]
    _write(Path(args.outdir) / "branch.csv", csv_text(header, rows))
    return exit_code


def _number(kind: Kind) -> Callable[[str], float]:
    """An argparse type for a flag that overrides a config number: the flag
    accepts what the config key accepts."""

    def read(text: str) -> float:
        try:
            if kind.admits(value := float(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {kind.text}, got {text!r}")

    return read


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario config JSON")
    sub.add_argument("--outdir", default=".", help="directory for CSV artifacts")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config's sampling seed (default 42); "
                          "only branch samples")
    sub.add_argument("--report", default=None, help="write a run-report JSON here")


@functools.cache  # parse_args leaves the tree as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iqp", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("scenario", help="emit a built-in scenario config")
    sc.add_argument("name", help="one of: " + ", ".join(sorted(BUILTIN_SCENARIOS)))
    sc.add_argument("--out", default=None, help="write the config here instead of stdout")
    sc.set_defaults(func=_cmd_scenario)

    sim = subs.add_parser("simulate", help="print evolved states and singleton weights")
    _add_common(sim)
    sim.set_defaults(func=_cmd_simulate)

    fe = subs.add_parser("feasibility", help="decide emptiness of the credal set")
    _add_common(fe)
    fe.set_defaults(func=_cmd_feasibility)

    bo = subs.add_parser("bounds", help="lower/upper probability of events")
    _add_common(bo)
    bo.add_argument("--event", action="append", default=None,
                    help="event expression (repeatable; default: config events)")
    bo.set_defaults(func=_cmd_bounds)

    ty = subs.add_parser("typicality", help="mutual-typicality reports for sset pairs")
    _add_common(ty)
    ty.add_argument("--pair", action="append", default=None,
                    help="pair as 'atom & atom' (repeatable; default: generated pairs)")
    ty.add_argument("--epsilon", type=_number(NONNEGATIVE), default=None,
                    help="typicality threshold >= 0 (default: config epsilon or 1e-6)")
    ty.set_defaults(func=_cmd_typicality)

    br = subs.add_parser("branch", help="branch-following statistics and bound checks")
    _add_common(br)
    br.add_argument("--name", default=None, help="branch to run (default: all declared)")
    br.add_argument("--delta", type=_number(FRACTION), default=None,
                    help="tail threshold override, in (0, 1)")
    br.set_defaults(func=_cmd_branch)
    return parser


def _provenance(exc: BaseException) -> str:
    """Deepest package module in the traceback, for error attribution."""
    origin = "iqp"
    tb = exc.__traceback__
    while tb is not None:
        scope = tb.tb_frame.f_globals
        # under `python -m iqp.cli` the module runs as __main__; its spec keeps the name
        module = getattr(scope.get("__spec__"), "name", None) or scope.get("__name__", "")
        if module.startswith("iqp."):
            origin = module.split(".", 1)[1]
        tb = tb.tb_next
    return origin


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; print any error, then write its report on every exit."""
    args = build_parser().parse_args(argv)
    report = RunReport(command=args.command)
    try:
        report.exit_code = args.func(args, report)
    except ConfigError as exc:
        report.error = "\n".join(f"error [scenarios]: {line}" for line in exc.errors)
    except lp.SimplexFailure as exc:
        report.error = f"error [lp]: {exc}"
    except (ValueError, OSError) as exc:
        report.error = f"error [{_provenance(exc)}]: {exc}"
    if report.error is not None:
        print(report.error, file=sys.stderr)
        report.exit_code = EXIT_ERROR
    if getattr(args, "report", None):
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        try:
            _write(Path(args.report), text)
        except OSError as exc:
            print(f"error [cli]: cannot write report: {exc}", file=sys.stderr)
            return EXIT_ERROR
    return report.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
