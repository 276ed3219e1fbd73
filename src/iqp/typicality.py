"""Typicality diagnostics: mutual typicality, branches and their bounds.

Two events are mutually typical under a measure when each carries almost all
of the other's mass.  A branch is a family of same-weight ssets whose
pullback states stay close to the base sset's pullback; the branch-following
statistic Y counts, per trajectory, the fraction of branch times spent inside
the branch regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .credal import (
    CERTIFICATE_TOL,
    ConstraintSet,
    born_product_witness,
    sample_vertex_measures,
    verify_witness,
)
from .events import Event, TrajectorySpace, event_probability, sset_event
from .system import DEFAULT_TAU_NORM, QuantumSystem, SSet, check_tau_norm

CHECK_TOL = 1e-8


def _check_eps(eps: float) -> None:
    if not eps >= 0:  # NaN fails too
        raise ValueError("eps must be >= 0")


def mutual_typicality(
    probs: np.ndarray, a: Event, b: Event, eps: float
) -> tuple[bool, float]:
    """Ratio P(A and B) / max(P(A), P(B)) and whether it reaches 1 - eps."""
    _check_eps(eps)
    pa = event_probability(probs, a)
    pb = event_probability(probs, b)
    denom = max(pa, pb)
    if denom <= 0.0:
        raise ValueError("both events have zero probability")
    ratio = event_probability(probs, a & b) / denom
    return ratio >= 1.0 - eps, ratio


def qtr_predicate(
    system: QuantumSystem,
    s1: SSet,
    s2: SSet,
    eps: float,
    tau_norm: float = DEFAULT_TAU_NORM,
) -> bool:
    """Trigger of the physical typicality rule.

    Fires when the two ssets have equal weights (within tau_norm) and the
    relative pullback distance is at most eps.  The base weight must be
    positive for the relative distance to make sense.
    """
    _check_eps(eps)
    check_tau_norm(tau_norm)
    w1 = system.weight(s1)
    if w1 <= 0.0:
        raise ValueError("base sset has zero weight")
    w2 = system.weight(s2)
    if abs(w1 - w2) > tau_norm:
        return False
    return system.sset_distance(s1, s2) / w1 <= eps


@dataclass(frozen=True)
class TypicalityReport:
    pair: tuple[SSet, SSet]
    weight: float
    distance: float
    relative_distance: float
    epsilon: float
    qtr_fires: bool
    measured_ratio: float
    passes: bool


def typicality_report(
    system: QuantumSystem,
    space: TrajectorySpace,
    probs: np.ndarray,
    s1: SSet,
    s2: SSet,
    eps: float,
    tau_norm: float = DEFAULT_TAU_NORM,
) -> TypicalityReport:
    """Evaluate the rule's prediction for one sset pair under one measure.

    ``passes`` is vacuously true when the rule does not fire; when it fires,
    the measured mutual-typicality ratio must reach 1 - eps (up to check
    tolerance).
    """
    check_tau_norm(tau_norm)
    w1 = system.weight(s1)
    if w1 <= 0.0:
        raise ValueError("base sset has zero weight")
    dist = system.sset_distance(s1, s2)
    rel = dist / w1
    fires = rel <= eps
    equal_weights = abs(w1 - system.weight(s2)) <= tau_norm
    _, ratio = mutual_typicality(
        probs, sset_event(space, s1), sset_event(space, s2), eps
    )
    passes = (not (fires and equal_weights)) or ratio >= 1.0 - eps - CHECK_TOL
    return TypicalityReport(
        pair=(s1, s2),
        weight=w1,
        distance=dist,
        relative_distance=rel,
        epsilon=eps,
        qtr_fires=fires,
        measured_ratio=ratio,
        passes=passes,
    )


def cross_time_bound(
    system: QuantumSystem,
    s1: SSet,
    s2: SSet,
    s2p: SSet,
    tau_norm: float = DEFAULT_TAU_NORM,
) -> tuple[float, float]:
    """Interval pinning P(S1 and S2') via a same-time companion of S2.

    Requires S2 and S2' to share a time (their intersection is again an
    sset) and S1, S2 to have equal weights within tau_norm.  Returns
    ``w(S2 and S2') -/+ dist(S1, S2)``, unclamped.
    """
    check_tau_norm(tau_norm)
    if s2.time != s2p.time:
        raise ValueError(f"companion times differ: {s2.time} vs {s2p.time}")
    w1 = system.weight(s1)
    w2 = system.weight(s2)
    if abs(w1 - w2) > tau_norm:
        raise ValueError(f"weights differ beyond tolerance: {w1!r} vs {w2!r}")
    inter = SSet(s2.time, s2.region.intersect(s2p.region))
    w_inter = system.weight(inter)
    dist = system.sset_distance(s1, s2)
    return w_inter - dist, w_inter + dist


@dataclass(frozen=True)
class Branch:
    """Same-weight ssets over consecutive times tracking one wave packet."""

    ssets: tuple[SSet, ...]
    base: SSet
    epsilon: float


def make_branch(
    system: QuantumSystem,
    ssets: list[SSet],
    tau_norm: float = DEFAULT_TAU_NORM,
) -> Branch:
    """Validate equal weights and compute the branch's worst relative distance."""
    check_tau_norm(tau_norm)
    if not ssets:
        raise ValueError("branch needs at least one sset")
    base = ssets[0]
    w0 = system.weight(base)
    if w0 <= 0.0:
        raise ValueError("branch base has zero weight")
    eps = 0.0
    for s in ssets[1:]:
        if abs(system.weight(s) - w0) > tau_norm:
            raise ValueError(
                f"branch weight at {s.text()} differs from base beyond {tau_norm}"
            )
        eps = max(eps, system.sset_distance(base, s) / w0)
    return Branch(ssets=tuple(ssets), base=base, epsilon=eps)


@dataclass(frozen=True)
class BranchStats:
    expectation: float
    tail: float
    delta: float
    n_times: int


def branch_stats(
    space: TrajectorySpace,
    probs: np.ndarray,
    branch: Branch,
    delta: float,
) -> BranchStats:
    """Conditional statistics of the branch-following fraction Y.

    Y counts per trajectory how many branch times it spends inside the
    branch regions, normalized by the number of times; expectation and the
    tail P(Y <= 1 - delta) are conditioned on the base event.
    """
    k = len(branch.ssets)
    counts = np.zeros(space.size)
    for s in branch.ssets:
        counts += sset_event(space, s).bits
    base = sset_event(space, branch.base)
    vec = np.asarray(probs, dtype=float)
    p_base = event_probability(vec, base)
    if p_base <= 0.0:
        raise ValueError("base event has zero probability")
    expectation = float((vec * base.bits * counts).sum()) / (k * p_base)
    # Y <= 1 - delta is a shortfall k - counts of at least k * delta; the
    # relative slack keeps delta = j / k in the tail, and an absolute one
    # would put Y = 1 there once k * delta is below it
    in_tail = k - counts >= k * delta * (1.0 - 1e-9)
    tail = float((vec * base.bits * in_tail).sum()) / p_base
    return BranchStats(expectation=expectation, tail=tail, delta=delta, n_times=k)


@dataclass(frozen=True)
class W11Report:
    """Sampled verification of the branch expectation and tail bounds."""

    epsilon: float
    delta: float
    expectation_bound: float  # 1 - epsilon
    tail_bound: float  # epsilon / delta
    expectation_vacuous: bool
    tail_vacuous: bool
    n_samples: int
    product_witness_included: bool
    worst_expectation: float
    worst_tail: float
    samples: tuple[BranchStats, ...]
    passes: bool | None  # None when both bounds are vacuous


def verify_w11(
    system: QuantumSystem,
    space: TrajectorySpace,
    cs: ConstraintSet,
    branch: Branch,
    delta: float,
    samples: int,
    seed: int,
) -> W11Report:
    """Check the branch bounds on sampled polytope vertices.

    Vertices come from seeded random objectives; the independent-coupling
    witness is added when it satisfies the constraint set.  Bounds that say
    nothing (1 - eps <= 0 or eps/delta >= 1) are flagged vacuous rather than
    passed or failed.
    """
    if not delta > 0.0:  # NaN fails too
        raise ValueError("delta must be positive")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    eps = branch.epsilon
    exp_bound = 1.0 - eps
    tail_bound = eps / delta
    exp_vacuous = exp_bound <= 0.0
    tail_vacuous = tail_bound >= 1.0

    measures = sample_vertex_measures(cs, samples, seed)
    product = born_product_witness(system, space)
    product_included = verify_witness(cs, product.probs) <= CERTIFICATE_TOL
    if product_included:
        measures.append(product)

    stats = tuple(branch_stats(space, m.probs, branch, delta) for m in measures)
    worst_exp = min(s.expectation for s in stats)
    worst_tail = max(s.tail for s in stats)

    passes: bool | None
    if exp_vacuous and tail_vacuous:
        passes = None
    else:
        passes = True
        if not exp_vacuous and worst_exp < exp_bound - CHECK_TOL:
            passes = False
        if not tail_vacuous and worst_tail > tail_bound + CHECK_TOL:
            passes = False

    return W11Report(
        epsilon=eps,
        delta=delta,
        expectation_bound=exp_bound,
        tail_bound=tail_bound,
        expectation_vacuous=exp_vacuous,
        tail_vacuous=tail_vacuous,
        n_samples=len(measures),
        product_witness_included=product_included,
        worst_expectation=worst_exp,
        worst_tail=worst_tail,
        samples=stats,
        passes=passes,
    )
