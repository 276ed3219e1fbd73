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
import json
import math
from dataclasses import dataclass

import numpy as np

from .credal import (
    ConstraintSet,
    born_constraints,
    lower_bound_constraints,
    merge_constraint_sets,
    qtr_constraints,
    qtr_variant_constraints,
)
from .events import TrajectorySpace, parse_event, parse_expr
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
GENERATOR_NAMES = ("identity", "hadamard", "dft")


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


def _complex_pair(value: object, path: str, errors: list[str]) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(_is_number(v) for v in value)
    ):
        errors.append(f"{path}: expected [re, im] number pair, got {value!r}")
        return 0j
    return complex(value[0], value[1])


def _check_keys(block: dict, allowed: set[str], path: str, errors: list[str]) -> None:
    for key in block:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown key")


def parse_config(data: object, source: str = "config") -> ScenarioConfig:
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: top level must be an object"])
    _check_keys(data, {"schema", "system", "rules", "queries"}, source, errors)

    if data.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"{source}.schema: expected {SCHEMA_VERSION!r}, got {data.get('schema')!r}"
        )

    # system block
    system_block = data.get("system")
    labels: tuple[str, ...] = ()
    steps: list[object] = []
    psi0: tuple[complex, ...] = ()
    if not isinstance(system_block, dict):
        errors.append(f"{source}.system: missing or not an object")
        system_block = {}
    _check_keys(
        system_block,
        {"labels", "times", "steps", "initial_state"},
        f"{source}.system",
        errors,
    )
    raw_labels = system_block.get("labels")
    if (
        not isinstance(raw_labels, list)
        or not raw_labels
        or not all(isinstance(x, str) for x in raw_labels)
    ):
        errors.append(f"{source}.system.labels: expected non-empty list of strings")
    elif len(set(raw_labels)) != len(raw_labels):
        errors.append(f"{source}.system.labels: labels must be distinct")
    else:
        labels = tuple(raw_labels)
    m = len(labels)

    raw_steps = system_block.get("steps")
    if not isinstance(raw_steps, list):
        errors.append(f"{source}.system.steps: expected a list")
        raw_steps = []
    for k, raw in enumerate(raw_steps):
        path = f"{source}.system.steps[{k}]"
        if isinstance(raw, str):
            if raw not in GENERATOR_NAMES:
                errors.append(f"{path}: unknown generator {raw!r}")
            elif raw == "hadamard" and m not in (0, 2):
                errors.append(f"{path}: hadamard needs exactly 2 labels, have {m}")
            else:
                steps.append(raw)
        elif isinstance(raw, list):
            if m and len(raw) != m:
                errors.append(f"{path}: expected {m} rows")
                continue
            mat = np.zeros((len(raw), len(raw)), dtype=complex)
            ok = True
            for i, row in enumerate(raw):
                if not isinstance(row, list) or len(row) != len(raw):
                    errors.append(f"{path}[{i}]: expected {len(raw)} entries")
                    ok = False
                    break
                for j, entry in enumerate(row):
                    mat[i, j] = _complex_pair(entry, f"{path}[{i}][{j}]", errors)
            if ok:
                steps.append(mat)
        else:
            errors.append(f"{path}: expected generator name or matrix")
    n = len(raw_steps) + 1

    raw_times = system_block.get("times")
    if raw_times is not None and raw_times != list(range(n)):
        errors.append(
            f"{source}.system.times: must equal {list(range(n))} for {n - 1} steps"
        )

    raw_psi = system_block.get("initial_state")
    if not isinstance(raw_psi, list) or (m and len(raw_psi) != m):
        errors.append(
            f"{source}.system.initial_state: expected list of {m or 'm'} [re, im] pairs"
        )
    else:
        psi0 = tuple(
            _complex_pair(v, f"{source}.system.initial_state[{i}]", errors)
            for i, v in enumerate(raw_psi)
        )

    # rules block
    rules_block = data.get("rules")
    if not isinstance(rules_block, dict):
        errors.append(f"{source}.rules: missing or not an object")
        rules_block = {}
    _check_keys(
        rules_block,
        {"ruleset", "epsilon", "alpha", "tau_norm", "pairs", "extra_lower_bounds"},
        f"{source}.rules",
        errors,
    )
    raw_ruleset = rules_block.get("ruleset")
    ruleset: tuple[str, ...] = ()
    if not isinstance(raw_ruleset, str) or not raw_ruleset:
        errors.append(f"{source}.rules.ruleset: expected '+'-joined rule names")
    else:
        tokens = tuple(raw_ruleset.split("+"))
        bad = [t for t in tokens if t not in RULE_TOKENS]
        if bad:
            errors.append(
                f"{source}.rules.ruleset: unknown rules {bad}, valid: {list(RULE_TOKENS)}"
            )
        elif len(set(tokens)) != len(tokens):
            errors.append(f"{source}.rules.ruleset: duplicate rules in {raw_ruleset!r}")
        else:
            ruleset = tokens

    epsilon = rules_block.get("epsilon")
    if epsilon is not None and (not _is_number(epsilon) or epsilon < 0):
        errors.append(f"{source}.rules.epsilon: expected number >= 0")
    if "qtr-eps" in ruleset and epsilon is None:
        errors.append(f"{source}.rules.epsilon: required by qtr-eps")
    alpha = rules_block.get("alpha")
    if alpha is not None and (not _is_number(alpha) or alpha <= 0):
        errors.append(f"{source}.rules.alpha: expected number > 0")
    if "qtr-alpha" in ruleset and alpha is None:
        errors.append(f"{source}.rules.alpha: required by qtr-alpha")
    tau_norm = rules_block.get("tau_norm", DEFAULT_TAU_NORM)
    if not _is_number(tau_norm) or tau_norm < 0:
        errors.append(f"{source}.rules.tau_norm: expected number >= 0")

    pairs_block = rules_block.get("pairs", {})
    max_region_size = 1
    time_pairs: tuple[tuple[int, int], ...] | None = None
    if not isinstance(pairs_block, dict):
        errors.append(f"{source}.rules.pairs: expected an object")
        pairs_block = {}
    _check_keys(
        pairs_block, {"max_region_size", "time_pairs"}, f"{source}.rules.pairs", errors
    )
    raw_k = pairs_block.get("max_region_size", 1)
    if not isinstance(raw_k, int) or isinstance(raw_k, bool) or raw_k < 1:
        errors.append(f"{source}.rules.pairs.max_region_size: expected integer >= 1")
    else:
        max_region_size = raw_k
    raw_tp = pairs_block.get("time_pairs")
    if raw_tp is not None:
        if not isinstance(raw_tp, list):
            errors.append(f"{source}.rules.pairs.time_pairs: expected a list")
        else:
            collected = []
            for i, tp in enumerate(raw_tp):
                path = f"{source}.rules.pairs.time_pairs[{i}]"
                if (
                    not isinstance(tp, list)
                    or len(tp) != 2
                    or not all(isinstance(t, int) and not isinstance(t, bool) for t in tp)
                ):
                    errors.append(f"{path}: expected [t1, t2]")
                    continue
                t1, t2 = tp
                if not (0 <= t1 < n and 0 <= t2 < n):
                    errors.append(f"{path}: time out of range 0..{n - 1}")
                elif t1 == t2:
                    errors.append(f"{path}: times must differ")
                else:
                    collected.append((t1, t2))
            time_pairs = tuple(collected)

    extra_bounds: list[tuple[str, float]] = []
    raw_extra = rules_block.get("extra_lower_bounds", [])
    if not isinstance(raw_extra, list):
        errors.append(f"{source}.rules.extra_lower_bounds: expected a list")
        raw_extra = []
    for i, item in enumerate(raw_extra):
        path = f"{source}.rules.extra_lower_bounds[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: expected an object")
            continue
        _check_keys(item, {"event", "min_probability"}, path, errors)
        expr = item.get("event")
        bound = item.get("min_probability")
        if not isinstance(expr, str):
            errors.append(f"{path}.event: expected expression string")
            continue
        if not _is_number(bound):
            errors.append(f"{path}.min_probability: expected a number")
            continue
        extra_bounds.append((expr, float(bound)))

    # queries block
    queries_block = data.get("queries", {})
    if not isinstance(queries_block, dict):
        errors.append(f"{source}.queries: expected an object")
        queries_block = {}
    _check_keys(
        queries_block,
        {"events", "branches", "delta", "samples", "seed"},
        f"{source}.queries",
        errors,
    )
    raw_events = queries_block.get("events", [])
    if not isinstance(raw_events, list) or not all(
        isinstance(x, str) for x in raw_events
    ):
        errors.append(f"{source}.queries.events: expected list of expression strings")
        raw_events = []
    branches: list[BranchDecl] = []
    raw_branches = queries_block.get("branches", [])
    if not isinstance(raw_branches, list):
        errors.append(f"{source}.queries.branches: expected a list")
        raw_branches = []
    for i, item in enumerate(raw_branches):
        path = f"{source}.queries.branches[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: expected an object")
            continue
        _check_keys(item, {"name", "ssets", "delta"}, path, errors)
        name = item.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{path}.name: expected non-empty string")
            continue
        raw_ssets = item.get("ssets")
        if not isinstance(raw_ssets, list) or not raw_ssets:
            errors.append(f"{path}.ssets: expected non-empty list of [t, [labels]]")
            continue
        decl_ssets = []
        ok = True
        for j, entry in enumerate(raw_ssets):
            spath = f"{path}.ssets[{j}]"
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], int)
                or isinstance(entry[0], bool)
                or not isinstance(entry[1], list)
            ):
                errors.append(f"{spath}: expected [time, [labels]]")
                ok = False
                break
            t, raw_region = entry
            if not 0 <= t < n:
                errors.append(f"{spath}: time {t} out of range 0..{n - 1}")
                ok = False
                break
            label_ids = []
            for x in raw_region:
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < max(m, 1):
                    errors.append(f"{spath}: label {x!r} out of range 0..{m - 1}")
                    ok = False
                    break
                label_ids.append(x)
            if not ok:
                break
            decl_ssets.append((t, tuple(sorted(set(label_ids)))))
        if ok:
            branch_delta = item.get("delta")
            if branch_delta is not None and (
                not _is_number(branch_delta) or not 0 < branch_delta < 1
            ):
                errors.append(f"{path}.delta: expected number in (0, 1)")
            branches.append(BranchDecl(name, tuple(decl_ssets), branch_delta))
    names = [br.name for br in branches]
    if len(set(names)) != len(names):
        errors.append(f"{source}.queries.branches: duplicate branch names")

    delta = queries_block.get("delta", 1e-3)
    if not _is_number(delta) or not 0 < delta < 1:
        errors.append(f"{source}.queries.delta: expected number in (0, 1)")
    samples = queries_block.get("samples", 20)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        errors.append(f"{source}.queries.samples: expected integer >= 1")
    seed = queries_block.get("seed", 42)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append(f"{source}.queries.seed: expected integer")

    if errors:
        raise ConfigError(errors)

    cfg = ScenarioConfig(
        labels=labels,
        steps=tuple(steps),
        psi0=psi0,
        ruleset=ruleset,
        epsilon=None if epsilon is None else float(epsilon),
        alpha=None if alpha is None else float(alpha),
        tau_norm=float(tau_norm),
        max_region_size=max_region_size,
        time_pairs=time_pairs,
        extra_lower_bounds=tuple(extra_bounds),
        events=tuple(raw_events),
        branches=tuple(branches),
        delta=float(delta),
        samples=samples,
        seed=seed,
    )

    # deep validation: the trajectory space (under the cap) and the system must
    # construct, and all expressions parse; the space goes first, so an over-cap
    # config never allocates its n propagators of m x m; the config keeps the
    # system, so build_system never builds it twice; parse_expr checks syntax and
    # ranges without building any atom on this validation-only space
    try:
        space = TrajectorySpace(cfg.m, cfg.n)
        build_system(cfg)
    except ValueError as exc:
        raise ConfigError([f"{source}.system: {exc}"]) from exc
    expr_errors = []
    for i, expr in enumerate(cfg.events):
        try:
            parse_expr(expr, space)
        except ValueError as exc:
            expr_errors.append(f"{source}.queries.events[{i}]: {exc}")
    for i, (expr, _) in enumerate(cfg.extra_lower_bounds):
        try:
            parse_expr(expr, space)
        except ValueError as exc:
            expr_errors.append(f"{source}.rules.extra_lower_bounds[{i}].event: {exc}")
    if cfg.max_region_size > cfg.m:
        expr_errors.append(
            f"{source}.rules.pairs.max_region_size: {cfg.max_region_size} exceeds "
            f"label count {cfg.m}"
        )
    if expr_errors:
        raise ConfigError(expr_errors)
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
    if isinstance(step, str):
        if step == "identity":
            return identity_matrix(m)
        if step == "hadamard":
            return hadamard_matrix()
        if step == "dft":
            return dft_matrix(m)
        raise ValueError(f"unknown generator {step!r}")
    return np.asarray(step, dtype=complex)


def build_system(cfg: ScenarioConfig) -> QuantumSystem:
    """The config's system, built once per config (see ``ScenarioConfig.system``)."""
    return cfg.system


def enumerate_pairs(
    system: QuantumSystem,
    max_region_size: int,
    time_pairs: tuple[tuple[int, int], ...] | None = None,
) -> list[tuple[SSet, SSet]]:
    """Deterministic cross-time pair family: all region pairs up to a size cap."""
    m = system.m
    regions = sorted(
        (Region(mask, m) for mask in range(1, 1 << m)),
        key=lambda r: (r.size(), r.mask),
    )
    regions = [r for r in regions if r.size() <= max_region_size]
    if time_pairs is None:
        time_pairs = tuple(
            (t1, t2) for t1 in range(system.n) for t2 in range(t1 + 1, system.n)
        )
    out = []
    for t1, t2 in time_pairs:
        for r1 in regions:
            for r2 in regions:
                out.append((SSet(t1, r1), SSet(t2, r2)))
    return out


def singleton_family(system: QuantumSystem) -> list[SSet]:
    """All single-label ssets at all times, in (time, label) order."""
    return [
        SSet(t, Region.from_labels([x], system.m))
        for t in range(system.n)
        for x in range(system.m)
    ]


def build_constraints(
    cfg: ScenarioConfig, system: QuantumSystem, space: TrajectorySpace
) -> ConstraintSet:
    """Realize the config's rule block as one merged constraint set."""
    parts: list[ConstraintSet] = []
    pairs: list[tuple[SSet, SSet]] | None = None

    def pair_family() -> list[tuple[SSet, SSet]]:
        nonlocal pairs
        if pairs is None:
            pairs = enumerate_pairs(system, cfg.max_region_size, cfg.time_pairs)
        return pairs

    for token in cfg.ruleset:
        if token == "born":
            parts.append(born_constraints(system, space, singleton_family(system)))
        elif token == "qtr":
            parts.append(qtr_constraints(system, space, pair_family(), cfg.tau_norm))
        else:  # qtr-min, qtr-eps or qtr-alpha; qtr_variant_constraints rejects others
            variant = token.removeprefix("qtr-")
            value = {"eps": cfg.epsilon, "alpha": cfg.alpha}.get(variant)
            parts.append(qtr_variant_constraints(system, space, pair_family(), variant,
                                                 value, cfg.tau_norm))
    if cfg.extra_lower_bounds:
        demands = [
            (parse_event(expr, space), bound, expr)
            for expr, bound in cfg.extra_lower_bounds
        ]
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
