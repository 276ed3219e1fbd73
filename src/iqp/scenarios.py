"""Scenario configuration: JSON schema, validation, canonical builders.

Config files carry a system block (labels, step matrices or named
generators, initial state), a rule block (which constraint families to
generate and their parameters) and a query block (event expressions, branch
declarations, sampling controls).  Complex numbers are serialized as
``[re, im]`` pairs; step matrices may be replaced by the named generators
``identity``, ``hadamard`` (two labels only) and ``dft``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .credal import (
    ConstraintSet,
    born_constraints,
    lower_bound_constraints,
    merge_constraint_sets,
    qtr_constraints,
    qtr_variant_constraints,
)
from .events import Event, EventExpr, TrajectorySpace, evaluate_expr, parse_expr
from .events import parse_event  # noqa: F401  (perfbench/tracing.py wraps it here)
from .system import (
    DEFAULT_TAU_NORM,
    QuantumSystem,
    Region,
    SSet,
    dft_matrix,
    hadamard_matrix,
    identity_matrix,
)

SCHEMA_VERSION = "iqp-config/1"
RULE_TOKENS = ("born", "qtr", "qtr-min", "qtr-eps", "qtr-alpha")
# named steps: each generator gives the step matrix for m labels
GENERATORS = {
    "identity": identity_matrix,
    "hadamard": lambda m: hadamard_matrix(),
    "dft": dft_matrix,
}


class ConfigError(ValueError):
    """Validation failure carrying every problem found, not just the first."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class BranchDecl:
    name: str
    ssets: tuple[tuple[int, tuple[int, ...]], ...]  # (time, labels) per entry
    delta: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    labels: tuple[str, ...]
    steps: tuple[object, ...]  # generator name or matrix, a tuple of complex rows
    psi0: tuple[complex, ...]
    ruleset: tuple[str, ...]
    epsilon: float | None = None
    alpha: float | None = None
    tau_norm: float = DEFAULT_TAU_NORM
    max_region_size: int = 1
    time_pairs: tuple[tuple[int, int], ...] | None = None
    extra_lower_bounds: tuple[tuple[str, float], ...] = ()
    events: tuple[str, ...] = ()
    branches: tuple[BranchDecl, ...] = ()
    delta: float = 1e-3
    samples: int = 20
    seed: int = 42

    def __post_init__(self) -> None:
        # a matrix given as an array becomes rows of Python complex numbers,
        # so the generated __eq__ and __hash__ compare configs by content
        steps = tuple(
            step if isinstance(step, str)
            else tuple(tuple(complex(z) for z in row) for row in step)
            for step in self.steps
        )
        object.__setattr__(self, "steps", steps)

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return len(self.steps) + 1

    @functools.cached_property
    def system(self) -> QuantumSystem:
        """The config's system, built on first use and kept; not a field, so
        a copy made with ``dataclasses.replace`` builds its own."""
        steps = [_step_matrix(step, self.m) for step in self.steps]
        return QuantumSystem(self.labels, steps, np.array(self.psi0, dtype=complex))

    @functools.cached_property
    def trees(self) -> dict[str, EventExpr]:
        """The syntax tree of each event expression, ``events`` and the
        demands' (``extra_lower_bounds``), by its text: parsed on first use
        and kept, like ``system``; ``parse_config`` keeps the trees its
        validation parsed."""
        space = TrajectorySpace(self.m, self.n)
        exprs = [*self.events, *(expr for expr, _ in self.extra_lower_bounds)]
        return {expr: parse_expr(expr, space) for expr in exprs}

    def event(self, expr: str, space: TrajectorySpace) -> Event:
        """The event on ``space`` of the config expression ``expr``,
        evaluated from its kept tree (``trees``), with no parse."""
        return evaluate_expr(self.trees[expr], space)


# --- parsing / validation ---------------------------------------------------


def _is_number(x: object) -> bool:
    """A finite int or float: bools, NaN, infinities and ints past the float
    range are not numbers here."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_integer(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class Kind(NamedTuple):
    """The values a config key accepts, named as its message names them."""

    text: str
    admits: Callable[[object], bool]


NUMBER = Kind("a number", _is_number)
NONNEGATIVE = Kind("number >= 0", lambda x: _is_number(x) and x >= 0)
POSITIVE = Kind("number > 0", lambda x: _is_number(x) and x > 0)
FRACTION = Kind("number in (0, 1)", lambda x: _is_number(x) and 0 < x < 1)
INTEGER = Kind("integer", _is_integer)
COUNT = Kind("integer >= 1", lambda x: _is_integer(x) and x >= 1)
# each vertex sample is one LP, so a sample count is bounded
SAMPLES = Kind("integer in [1, 1000]", lambda x: _is_integer(x) and 1 <= x <= 1000)


class _Reader:
    """Checks the values of one config document, collecting every problem,
    each after its path, instead of stopping at the first."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def obj(self, value: object, path: str, keys: tuple[str, ...],
            message: str = "expected an object") -> dict | None:
        """``value`` if it is an object, each key outside ``keys`` reported."""
        if not isinstance(value, dict):
            self.fail(path, message)
            return None
        for key in value:
            if key not in keys:
                self.fail(f"{path}.{key}", "unknown key")
        return value

    def array(self, value: object, path: str) -> list | None:
        if isinstance(value, list):
            return value
        self.fail(path, "expected a list")
        return None

    def number(self, value: object, path: str, kind: Kind, optional: bool = False) -> object:
        """``value``, reported unless ``kind`` admits it (or it is an
        ``optional`` None)."""
        if not (kind.admits(value) or (optional and value is None)):
            self.fail(path, f"expected {kind.text}")
        return value

    def pair(self, value: object, path: str) -> complex:
        """An ``[re, im]`` pair as a complex number, 0 when reported."""
        if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
            return complex(value[0], value[1])
        self.fail(path, f"expected [re, im] number pair, got {value!r}")
        return 0j


def _matrix(r: _Reader, raw: list, path: str, m: int) -> list[list[complex]] | None:
    """A step matrix given as rows of ``[re, im]`` pairs; None when its shape
    is reported (a bad entry is reported and read as 0)."""
    if m and len(raw) != m:
        r.fail(path, f"expected {m} rows")
        return None
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            r.fail(f"{path}[{i}]", f"expected {len(raw)} entries")
            return None
        rows.append([r.pair(z, f"{path}[{i}][{j}]") for j, z in enumerate(row)])
    return rows


def _branch(r: _Reader, item: object, path: str, m: int, n: int) -> BranchDecl | None:
    """One ``queries.branches`` entry; None when a problem stops the read."""
    item = r.obj(item, path, ("name", "ssets", "delta"))
    if item is None:
        return None
    name, raw_ssets = item.get("name"), item.get("ssets")
    if not isinstance(name, str) or not name:
        r.fail(f"{path}.name", "expected non-empty string")
        return None
    if not isinstance(raw_ssets, list) or not raw_ssets:
        r.fail(f"{path}.ssets", "expected non-empty list of [t, [labels]]")
        return None
    ssets = []
    for j, entry in enumerate(raw_ssets):
        spath = f"{path}.ssets[{j}]"
        if not (isinstance(entry, list) and len(entry) == 2 and _is_integer(entry[0])
                and isinstance(entry[1], list)):
            r.fail(spath, "expected [time, [labels]]")
            return None
        t, region = entry
        if not 0 <= t < n:
            r.fail(spath, f"time {t} out of range 0..{n - 1}")
            return None
        for x in region:
            if not (_is_integer(x) and 0 <= x < max(m, 1)):
                r.fail(spath, f"label {x!r} out of range 0..{m - 1}")
                return None
        ssets.append((t, tuple(sorted(set(region)))))
    delta = r.number(item.get("delta"), f"{path}.delta", FRACTION, optional=True)
    return BranchDecl(name, tuple(ssets), delta)


def parse_config(data: object, source: str = "config") -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: top level must be an object"])
    r = _Reader()
    r.obj(data, source, ("schema", "system", "rules", "queries"))
    if data.get("schema") != SCHEMA_VERSION:
        r.fail(f"{source}.schema", f"expected {SCHEMA_VERSION!r}, got {data.get('schema')!r}")

    path = f"{source}.system"
    system = r.obj(data.get("system"), path, ("labels", "times", "steps", "initial_state"),
                   "missing or not an object") or {}
    labels = system.get("labels")
    if not isinstance(labels, list) or not labels or not all(isinstance(x, str) for x in labels):
        r.fail(f"{path}.labels", "expected non-empty list of strings")
        labels = []
    elif len(set(labels)) != len(labels):
        r.fail(f"{path}.labels", "labels must be distinct")
        labels = []
    m = len(labels)

    steps: list[object] = []
    raw_steps = r.array(system.get("steps"), f"{path}.steps") or []
    for k, raw in enumerate(raw_steps):
        step_path = f"{path}.steps[{k}]"
        if isinstance(raw, list):
            if (rows := _matrix(r, raw, step_path, m)) is not None:
                steps.append(rows)
        elif not isinstance(raw, str):
            r.fail(step_path, "expected generator name or matrix")
        elif raw not in GENERATORS:
            r.fail(step_path, f"unknown generator {raw!r}")
        elif raw == "hadamard" and m not in (0, 2):
            r.fail(step_path, f"hadamard needs exactly 2 labels, have {m}")
        else:
            steps.append(raw)
    n = len(raw_steps) + 1

    times = system.get("times")
    if times is not None and times != list(range(n)):
        r.fail(f"{path}.times", f"must equal {list(range(n))} for {n - 1} steps")
    psi = system.get("initial_state")
    if not isinstance(psi, list) or (m and len(psi) != m):
        r.fail(f"{path}.initial_state", f"expected list of {m or 'm'} [re, im] pairs")
        psi = []
    psi0 = tuple(r.pair(z, f"{path}.initial_state[{i}]") for i, z in enumerate(psi))

    path = f"{source}.rules"
    rules = r.obj(
        data.get("rules"), path,
        ("ruleset", "epsilon", "alpha", "tau_norm", "pairs", "extra_lower_bounds"),
        "missing or not an object",
    ) or {}
    raw_ruleset = rules.get("ruleset")
    tokens = raw_ruleset.split("+") if isinstance(raw_ruleset, str) and raw_ruleset else None
    ruleset: tuple[str, ...] = ()
    if tokens is None:
        r.fail(f"{path}.ruleset", "expected '+'-joined rule names")
    elif bad := [t for t in tokens if t not in RULE_TOKENS]:
        r.fail(f"{path}.ruleset", f"unknown rules {bad}, valid: {list(RULE_TOKENS)}")
    elif len(set(tokens)) != len(tokens):
        r.fail(f"{path}.ruleset", f"duplicate rules in {raw_ruleset!r}")
    else:
        ruleset = tuple(tokens)

    epsilon = r.number(rules.get("epsilon"), f"{path}.epsilon", NONNEGATIVE, optional=True)
    if "qtr-eps" in ruleset and epsilon is None:
        r.fail(f"{path}.epsilon", "required by qtr-eps")
    alpha = r.number(rules.get("alpha"), f"{path}.alpha", POSITIVE, optional=True)
    if "qtr-alpha" in ruleset and alpha is None:
        r.fail(f"{path}.alpha", "required by qtr-alpha")
    tau_norm = r.number(rules.get("tau_norm", ScenarioConfig.tau_norm), f"{path}.tau_norm",
                        NONNEGATIVE)

    pairs_path = f"{path}.pairs"
    pairs = r.obj(rules.get("pairs", {}), pairs_path, ("max_region_size", "time_pairs")) or {}
    max_region_size = r.number(pairs.get("max_region_size", ScenarioConfig.max_region_size),
                               f"{pairs_path}.max_region_size", COUNT)
    time_pairs = pairs.get("time_pairs")
    if time_pairs is not None and r.array(time_pairs, f"{pairs_path}.time_pairs") is not None:
        kept = []
        for i, tp in enumerate(time_pairs):
            tp_path = f"{pairs_path}.time_pairs[{i}]"
            if not (isinstance(tp, list) and len(tp) == 2 and all(map(_is_integer, tp))):
                r.fail(tp_path, "expected [t1, t2]")
            elif not all(0 <= t < n for t in tp):
                r.fail(tp_path, f"time out of range 0..{n - 1}")
            elif tp[0] == tp[1]:
                r.fail(tp_path, "times must differ")
            else:
                kept.append(tuple(tp))
        time_pairs = tuple(kept)

    extra_bounds = []
    raw_extra = r.array(rules.get("extra_lower_bounds", []), f"{path}.extra_lower_bounds")
    for i, item in enumerate(raw_extra or []):
        item_path = f"{path}.extra_lower_bounds[{i}]"
        item = r.obj(item, item_path, ("event", "min_probability"))
        if item is None:
            continue
        if not isinstance(item.get("event"), str):
            r.fail(f"{item_path}.event", "expected expression string")
            continue
        bound = r.number(item.get("min_probability"), f"{item_path}.min_probability", NUMBER)
        extra_bounds.append((item["event"], bound))

    path = f"{source}.queries"
    queries = r.obj(data.get("queries", {}), path,
                    ("events", "branches", "delta", "samples", "seed")) or {}
    events = queries.get("events", [])
    if not isinstance(events, list) or not all(isinstance(x, str) for x in events):
        r.fail(f"{path}.events", "expected list of expression strings")
        events = []
    raw_branches = r.array(queries.get("branches", []), f"{path}.branches") or []
    branches = [_branch(r, item, f"{path}.branches[{i}]", m, n)
                for i, item in enumerate(raw_branches)]
    branches = [br for br in branches if br is not None]
    names = [br.name for br in branches]
    if len(set(names)) != len(names):
        r.fail(f"{path}.branches", "duplicate branch names")
    delta = r.number(queries.get("delta", ScenarioConfig.delta), f"{path}.delta", FRACTION)
    samples = r.number(queries.get("samples", ScenarioConfig.samples), f"{path}.samples", SAMPLES)
    seed = r.number(queries.get("seed", ScenarioConfig.seed), f"{path}.seed", INTEGER)

    if r.errors:
        raise ConfigError(r.errors)

    cfg = ScenarioConfig(
        labels=tuple(labels),
        steps=tuple(steps),
        psi0=psi0,
        ruleset=ruleset,
        epsilon=None if epsilon is None else float(epsilon),
        alpha=None if alpha is None else float(alpha),
        tau_norm=float(tau_norm),
        max_region_size=max_region_size,
        time_pairs=time_pairs,
        extra_lower_bounds=tuple((expr, float(bound)) for expr, bound in extra_bounds),
        events=tuple(events),
        branches=tuple(branches),
        delta=float(delta),
        samples=samples,
        seed=seed,
    )

    # deep validation: the trajectory space (under the cap) and the system must
    # construct, and all expressions parse; the space goes first, so an over-cap
    # config never allocates its n propagators of m x m; the config keeps the
    # system, so build_system never builds it twice, and the syntax trees, so no
    # expression is parsed twice; parse_expr checks syntax and ranges without
    # building any atom on this validation-only space
    try:
        space = TrajectorySpace(cfg.m, cfg.n)
        build_system(cfg)
    except ValueError as exc:
        raise ConfigError([f"{source}.system: {exc}"]) from exc
    exprs = [(f"{source}.queries.events[{i}]", expr) for i, expr in enumerate(cfg.events)]
    exprs += [(f"{source}.rules.extra_lower_bounds[{i}].event", expr)
              for i, (expr, _) in enumerate(cfg.extra_lower_bounds)]
    trees = {}
    for expr_path, expr in exprs:
        try:
            trees[expr] = parse_expr(expr, space)
        except ValueError as exc:
            r.fail(expr_path, str(exc))
    if cfg.max_region_size > cfg.m:
        r.fail(f"{source}.rules.pairs.max_region_size",
               f"{cfg.max_region_size} exceeds label count {cfg.m}")
    if r.errors:
        raise ConfigError(r.errors)
    vars(cfg)["trees"] = trees  # the cached property's value, as its first use would store it
    return cfg


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                [f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
            ) from exc
        except RecursionError as exc:
            raise ConfigError([f"{path}: JSON nested too deeply to parse"]) from exc
    return parse_config(data, source=path)


# --- serialization ----------------------------------------------------------


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def config_to_dict(cfg: ScenarioConfig) -> dict:
    steps_out: list[object] = []
    for step in cfg.steps:
        if isinstance(step, str):
            steps_out.append(step)
        else:
            mat = np.asarray(step, dtype=complex)
            steps_out.append([[_pair(mat[i, j]) for j in range(cfg.m)] for i in range(cfg.m)])
    out: dict = {
        "schema": SCHEMA_VERSION,
        "system": {
            "labels": list(cfg.labels),
            "steps": steps_out,
            "initial_state": [_pair(z) for z in cfg.psi0],
        },
        "rules": {
            "ruleset": "+".join(cfg.ruleset),
            "tau_norm": cfg.tau_norm,
            "pairs": {"max_region_size": cfg.max_region_size},
        },
        "queries": {
            "events": list(cfg.events),
            "branches": [
                {
                    "name": br.name,
                    "ssets": [[t, list(labels)] for t, labels in br.ssets],
                    **({"delta": br.delta} if br.delta is not None else {}),
                }
                for br in cfg.branches
            ],
            "delta": cfg.delta,
            "samples": cfg.samples,
            "seed": cfg.seed,
        },
    }
    if cfg.epsilon is not None:
        out["rules"]["epsilon"] = cfg.epsilon
    if cfg.alpha is not None:
        out["rules"]["alpha"] = cfg.alpha
    if cfg.time_pairs is not None:
        out["rules"]["pairs"]["time_pairs"] = [list(tp) for tp in cfg.time_pairs]
    if cfg.extra_lower_bounds:
        out["rules"]["extra_lower_bounds"] = [
            {"event": expr, "min_probability": bound}
            for expr, bound in cfg.extra_lower_bounds
        ]
    return out


def config_json(cfg: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def config_hash(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- realization -------------------------------------------------------------


def _step_matrix(step: object, m: int) -> np.ndarray:
    if not isinstance(step, str):
        return np.asarray(step, dtype=complex)
    if step not in GENERATORS:
        raise ValueError(f"unknown generator {step!r}")
    return GENERATORS[step](m)


def build_system(cfg: ScenarioConfig) -> QuantumSystem:
    """The config's system, built once per config (see ``ScenarioConfig.system``)."""
    return cfg.system


def enumerate_pairs(
    system: QuantumSystem,
    max_region_size: int,
    time_pairs: tuple[tuple[int, int], ...] | None = None,
) -> list[tuple[SSet, SSet]]:
    """Deterministic cross-time pair family: all region pairs up to a size cap.

    Regions come by size, then by mask.  Only those within the cap are
    built, so the work grows with the regions kept rather than with 2^m.
    Each (time, region) is one ``SSet`` that every pair at that time shares.
    """
    m = system.m
    regions = [
        Region(mask, m)
        for size in range(1, min(max_region_size, m) + 1)
        for mask in sorted(sum(1 << x for x in labels)
                           for labels in itertools.combinations(range(m), size))
    ]
    if time_pairs is None:
        time_pairs = tuple(
            (t1, t2) for t1 in range(system.n) for t2 in range(t1 + 1, system.n)
        )
    at = {t: [SSet(t, r) for r in regions] for pair in time_pairs for t in pair}
    return [(s1, s2) for t1, t2 in time_pairs for s1 in at[t1] for s2 in at[t2]]


def singleton_family(system: QuantumSystem) -> list[SSet]:
    """All single-label ssets at all times, in (time, label) order; each
    label's region is one ``Region`` that every time shares."""
    regions = [Region(1 << x, system.m) for x in range(system.m)]
    return [SSet(t, r) for t in range(system.n) for r in regions]


def build_constraints(
    cfg: ScenarioConfig, system: QuantumSystem, space: TrajectorySpace
) -> ConstraintSet:
    """Realize the config's rule block as one merged constraint set.

    The pair family is enumerated once, and only when a pair rule reads it.
    """
    parts: list[ConstraintSet] = []
    pairs = (enumerate_pairs(system, cfg.max_region_size, cfg.time_pairs)
             if set(cfg.ruleset) - {"born"} else [])
    for token in cfg.ruleset:
        if token == "born":
            parts.append(born_constraints(system, space, singleton_family(system)))
        elif token == "qtr":
            parts.append(qtr_constraints(system, space, pairs, cfg.tau_norm))
        else:  # qtr-min, qtr-eps or qtr-alpha; qtr_variant_constraints rejects others
            variant = token.removeprefix("qtr-")
            value = {"eps": cfg.epsilon, "alpha": cfg.alpha}.get(variant)
            parts.append(qtr_variant_constraints(system, space, pairs, variant,
                                                 value, cfg.tau_norm))
    if cfg.extra_lower_bounds:
        demands = [(cfg.event(expr, space), bound, expr) for expr, bound in cfg.extra_lower_bounds]
        parts.append(lower_bound_constraints(space, demands))
    return merge_constraint_sets(parts)


# --- built-in scenarios -------------------------------------------------------

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def build_beam_splitter() -> ScenarioConfig:
    """Two-path splitter: one mixing step then free propagation.

    Each output path keeps its identity afterwards, so the per-path ssets at
    the two later times form zero-distance branches with weight one half.
    """
    return ScenarioConfig(
        labels=("reflected", "transmitted"),
        steps=("hadamard", "identity"),
        psi0=(1 + 0j, 0j),
        ruleset=("born", "qtr"),
        events=("(t=1,{0}) & (t=2,{0})",),
        branches=(
            BranchDecl("reflected-arm", ((1, (0,)), (2, (0,)))),
            BranchDecl("transmitted-arm", ((1, (1,)), (2, (1,)))),
        ),
    )


def build_mach_zehnder() -> ScenarioConfig:
    """Interferometer: two mixing steps; path projections interfere.

    Sequential projection probabilities for the two arms are 1/4 each while
    their union gives 1, so no additive measure reproduces them.
    """
    return ScenarioConfig(
        labels=("upper", "lower"),
        steps=("hadamard", "hadamard"),
        psi0=(1 + 0j, 0j),
        ruleset=("born", "qtr"),
        events=("(t=1,{0}) & (t=2,{0})",),
    )


def build_spreading_packet() -> ScenarioConfig:
    """Balanced packet whose halves mix: cross-time events stay undetermined.

    Every cross-time pullback pair sits at the distance that makes its
    typicality row vacuous, so the designated cross-time event keeps the full
    interval allowed by the marginals, [0, 1/2].
    """
    return ScenarioConfig(
        labels=("here", "there"),
        steps=("hadamard",),
        psi0=(_SQRT_HALF + 0j, 1j * _SQRT_HALF),
        ruleset=("born", "qtr"),
        events=("(t=0,{0}) & (t=1,{0})",),
    )


def build_drifting_branch() -> ScenarioConfig:
    """Slow in-place rotation of a balanced packet: a branch with tiny epsilon.

    The initial state is an eigenvector of the step, so region weights stay
    exactly one half while the pullback states drift by ~2*sin(theta)^2 per
    step; branch bounds are tight but not degenerate.
    """
    theta = 3.5e-4
    c, s = math.cos(theta), math.sin(theta)
    step = np.array([[c, 1j * s], [1j * s, c]])
    return ScenarioConfig(
        labels=("inside", "outside"),
        steps=(step, step),
        psi0=(_SQRT_HALF + 0j, _SQRT_HALF + 0j),
        ruleset=("born", "qtr"),
        tau_norm=1e-7,
        events=("(t=0,{0}) & (t=2,{0})",),
        branches=(BranchDecl("carried-packet", ((0, (0,)), (1, (0,)), (2, (0,)))),),
        samples=24,
    )


def build_adversarial_demo() -> ScenarioConfig:
    """Deliberately contradictory demands on an event and its complement."""
    return ScenarioConfig(
        labels=("x0", "x1"),
        steps=("identity",),
        psi0=(_SQRT_HALF + 0j, _SQRT_HALF + 0j),
        ruleset=("born",),
        extra_lower_bounds=(("(t=1,{0})", 0.8), ("!(t=1,{0})", 0.8)),
        events=("(t=1,{0})",),
    )


BUILTIN_SCENARIOS = {
    "beam-splitter": build_beam_splitter,
    "mach-zehnder": build_mach_zehnder,
    "spreading-packet": build_spreading_packet,
    "drifting-branch": build_drifting_branch,
    "adversarial-demo": build_adversarial_demo,
}
