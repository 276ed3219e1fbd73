"""The per-sset constraint generators, kept as a test oracle.

These are the Born and pair-row generators that ``iqp.credal`` replaced by
generation per ``(time, region mask)``.  They read every row off ``SSet``
objects, and ``enumerate_pairs`` builds two new ones for every pair.  Each
pullback state is computed afresh from the cumulative propagator, with the
operations that ``QuantumSystem.sset_state`` used:
``U_t^H @ (indicator * (U_t @ psi0))``.
Each atom event comes from the trajectory digits of its time.  Nothing is
kept between calls, so the oracle shares no memo with the code under test.
Tests require the generators to reproduce its rows bit for bit: events,
right sides (as floats), tags, labels and origins, and the skipped and
filtered counts.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

import numpy as np

from iqp.credal import (
    ConstraintSet,
    LinearConstraint,
    admits,
    lower_bound_constraints,
    merge_constraint_sets,
)
from iqp.events import Event, TrajectorySpace, parse_event
from iqp.scenarios import ScenarioConfig, build_system
from iqp.system import QuantumSystem, Region, SSet, check_tau_norm


def pullback(system: QuantumSystem, s: SSet) -> np.ndarray:
    u = system.propagator(s.time)
    indicator = np.array([float(s.region.mask >> x & 1) for x in range(system.m)])
    return u.conj().T @ (indicator * (u @ system.psi0))


def weight(system: QuantumSystem, s: SSet) -> float:
    amplitudes = pullback(system, s)
    return float(np.vdot(amplitudes, amplitudes).real)


def distance(system: QuantumSystem, s1: SSet, s2: SSet) -> float:
    diff = pullback(system, s1) - pullback(system, s2)
    return float(np.vdot(diff, diff).real)


def atom(space: TrajectorySpace, s: SSet) -> Event:
    member = np.array([bool(s.region.mask >> x & 1) for x in range(space.m)])
    return Event(member[space.digits(s.time)])


def born_constraints(system: QuantumSystem, space: TrajectorySpace,
                     family: list[SSet]) -> ConstraintSet:
    rows = []
    for s in family:
        w = weight(system, s)
        for target, rhs in ((s, w), (s.complement(), 1.0 - w)):
            label = target.text()
            if admits(rhs, label):
                rows.append(LinearConstraint(atom(space, target), rhs, "born", label, (target,)))
    return ConstraintSet(space, rows, skipped=2 * len(family) - len(rows))


def pair_rows(system: QuantumSystem, space: TrajectorySpace, pairs: list[tuple[SSet, SSet]],
              tau_norm: float, tag: str, equal_weights: bool,
              bound: Callable[[float, float, float], float | None]) -> ConstraintSet:
    check_tau_norm(tau_norm)
    rows = []
    filtered = 0
    for s1, s2 in pairs:
        w1, w2 = weight(system, s1), weight(system, s2)
        if s1.time == s2.time or (equal_weights and abs(w1 - w2) > tau_norm):
            filtered += 1
            continue
        rhs = bound(w1, w2, distance(system, s1, s2))
        if rhs is None:
            filtered += 1
            continue
        label = f"({s1.text()} & {s2.text()})"
        if admits(rhs, label):
            rows.append(LinearConstraint(atom(space, s1) & atom(space, s2), rhs, tag, label,
                                         (s1, s2)))
    return ConstraintSet(space, rows, len(pairs) - filtered - len(rows), filtered)


def qtr_variant_constraints(system: QuantumSystem, space: TrajectorySpace,
                            pairs: list[tuple[SSet, SSet]], token: str,
                            value: float | None, tau_norm: float) -> ConstraintSet:
    """The rows of one typicality token: ``qtr`` or one of its variants."""
    variant = token.removeprefix("qtr-")

    def bound(w1: float, w2: float, dist: float) -> float | None:
        if token == "qtr":
            return w1 - dist
        if variant == "min":
            return min(w1, w2) - dist
        if variant == "eps":
            return None if w1 <= 0.0 or dist / w1 > value else w1 - dist
        return w1 - value * dist

    return pair_rows(system, space, pairs, tau_norm, token, variant != "min", bound)


def enumerate_pairs(system: QuantumSystem, max_region_size: int,
                    time_pairs: tuple[tuple[int, int], ...] | None) -> list[tuple[SSet, SSet]]:
    m = system.m
    regions = [Region(mask, m) for size in range(1, min(max_region_size, m) + 1)
               for mask in sorted(sum(1 << x for x in labels)
                                  for labels in itertools.combinations(range(m), size))]
    if time_pairs is None:
        time_pairs = tuple((t1, t2) for t1 in range(system.n) for t2 in range(t1 + 1, system.n))
    return [(SSet(t1, r1), SSet(t2, r2))
            for t1, t2 in time_pairs for r1 in regions for r2 in regions]


def build_constraints(cfg: ScenarioConfig) -> ConstraintSet:
    """``scenarios.build_constraints`` of ``cfg``, row for row, on a fresh system."""
    system = build_system(cfg)
    space = TrajectorySpace.for_system(system)
    pairs = enumerate_pairs(system, cfg.max_region_size, cfg.time_pairs)
    parts = []
    for token in cfg.ruleset:
        if token == "born":
            family = [SSet(t, Region.from_labels([x], system.m))
                      for t in range(system.n) for x in range(system.m)]
            parts.append(born_constraints(system, space, family))
        else:
            value = {"qtr-eps": cfg.epsilon, "qtr-alpha": cfg.alpha}.get(token)
            parts.append(qtr_variant_constraints(system, space, pairs, token, value,
                                                 cfg.tau_norm))
    if cfg.extra_lower_bounds:
        parts.append(lower_bound_constraints(space, [
            (parse_event(expr, space), bound, expr) for expr, bound in cfg.extra_lower_bounds]))
    return merge_constraint_sets(parts)


def rows_of(cs: ConstraintSet) -> tuple[int, int, list[tuple]]:
    """The skipped and filtered counts, then per row its event bits, right
    side, tag, label and origin: what the generators must reproduce."""
    return cs.skipped, cs.filtered, [(c.event.bits.tobytes(), c.rhs, c.tag, c.label, c.origin)
                                     for c in cs.constraints]
