"""Credal sets of trajectory measures: constraint generation and LP queries.

A credal set is the polytope of probability vectors over the trajectory space
cut out by event lower bounds.  Generators produce the Born family (marginal
pins via inequality pairs) and the wave-packet typicality family (cross-time
intersection lower bounds), plus relaxed/scaled variants.  Queries run on the
embedded simplex solver over the presolved rows (one per distinct event, one
'==' row per complementary pin, no pair row that the pins imply) and return
self-verified witnesses, Farkas certificates and attained lower/upper
probabilities.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .events import Event, TrajectorySpace, event_probability, sset_event
from .system import DEFAULT_TAU_NORM, QuantumSystem, SSet

MEASURE_TOL = 1e-9
CERTIFICATE_TOL = 1e-9
FARKAS_MARGIN = 1e-9
VACUOUS_RHS = 1e-12  # right sides at arithmetic-dust level are vacuous


@dataclass(frozen=True)
class TrajectoryMeasure:
    """Explicit probability vector over all trajectories (a polytope point)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.probs, dtype=float)
        vec.setflags(write=False)
        object.__setattr__(self, "probs", vec)
        if vec.ndim != 1:
            raise ValueError("measure must be a vector")
        low = float(vec.min(initial=0.0))
        if low < -MEASURE_TOL:
            raise ValueError(f"measure has negative entry {low}")
        total = float(vec.sum())
        if abs(total - 1.0) > MEASURE_TOL:
            raise ValueError(f"measure sums to {total!r}, not 1")

    def probability(self, a: Event) -> float:
        return event_probability(self.probs, a)


@dataclass(frozen=True)
class LinearConstraint:
    """Lower probability of an indicator event: the row ``P(event) >= rhs``."""

    event: Event
    rhs: float
    tag: str  # born | qtr | qtr-min | qtr-eps | qtr-alpha | demand
    label: str  # expression text of the generating event / pair
    # the sset a Born row pins (its event is S or S^c), or the pair (S1, S2)
    # whose intersection is a pair row's event; empty for demands
    origin: tuple[SSet, ...] = ()

    def satisfied_by(self, probs: np.ndarray) -> float:
        """Violation of this row under the given vector (0 when satisfied)."""
        return max(self.rhs - event_probability(probs, self.event), 0.0)


class Presolved(NamedTuple):
    """A presolved LP: normalization row first, then one row per kept event."""

    rows: np.ndarray
    rhs: np.ndarray
    senses: list[str]
    owners: list[int]  # per row after normalization: the constraint it keeps
    partners: list[int]  # per '==' row: the complement's constraint; -1 on '>='
    implied: int  # '>=' rows dropped because the '==' pins imply them


def admits(rhs: float, label: str) -> bool:
    """Whether ``P(A) >= rhs`` is a row; a vacuous one (implied by
    non-negativity, ``rhs <= VACUOUS_RHS``) is skipped instead.  A NaN or
    ``+inf`` right side is an error (``-inf`` is vacuous)."""
    if math.isnan(rhs) or rhs == math.inf:
        raise ValueError(f"row {label}: right side {rhs} is NaN or +inf")
    return rhs > VACUOUS_RHS


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Linear rows over the trajectory simplex (simplex rows are implicit).

    Frozen once built (``constraints`` is held as a tuple) and equal only to
    itself, so the queries key its presolve and phase 1 on its identity.
    """

    space: TrajectorySpace
    constraints: tuple[LinearConstraint, ...] = ()
    skipped: int = 0
    filtered: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def __len__(self) -> int:
        return len(self.constraints)

    @property
    def emitted(self) -> int:
        return len(self.constraints)

    def lp_rows(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Normalization row followed by one row per constraint."""
        rows, rhs = self._rows(self.constraints)
        return rows, rhs, ["=="] + [">="] * len(self.constraints)

    def _rows(self, constraints: Sequence[LinearConstraint]) -> tuple[np.ndarray, np.ndarray]:
        """Normalization row and right side, then one of each per given constraint."""
        rows = np.ones((1 + len(constraints), self.space.size))
        rhs = np.ones(1 + len(constraints))
        for i, con in enumerate(constraints, start=1):
            rows[i] = con.event.bits
            rhs[i] = con.rhs
        return rows, rhs

    def presolved(self) -> Presolved:
        """The rows of ``lp_rows`` that the polytope queries solve.

        Rows on one event collapse to the one with the largest bound (the
        first on ties).  A kept pair ``P(A) >= l``, ``P(A^c) >= l'`` with
        ``l + l'`` within ``VACUOUS_RHS`` of 1 becomes the one row
        ``P(A) = l``, owned by whichever event comes first: with
        normalization the pair pins ``P(A)`` to ``l`` up to that dust.  Pairs
        further from 1 stay two '>=' rows, so an over-pinned set stays
        infeasible and a band stays a band.

        A kept '>=' row ``P(A & B) >= l`` of a pair ``(S1, S2)`` whose atom
        events ``A`` and ``B`` '==' rows pin to ``w1`` and ``w2`` is then
        dropped when the pins imply it, so the polytope stays the same:

        1. when ``l <= w1 + w2 - 1`` (Frechet: ``P(A & B) >= P(A) + P(B) - 1``);
        2. when the kept row on ``(S1^c, S2^c)``, ``P(A^c & B^c) >= l'``, is at
           least as strong: ``1_{A&B} - 1_{A^c&B^c} = 1_A + 1_B - 1``, so it
           reads ``P(A & B) >= l' + w1 + w2 - 1``.  Compared in the
           orientation of the first of the two rows, the stronger stays, the
           first on ties.

        Kept rows follow the first appearance of their events; ``implied``
        counts the rows the two rules dropped.  Only the kept rows are built,
        from their constraints' event bits, each one bit for bit the row
        ``lp_rows`` gives that constraint.
        """
        bounds = [float(con.rhs) for con in self.constraints]
        keys = [con.event.bits.tobytes() for con in self.constraints]
        kept: dict[bytes, int] = {}  # event bits -> constraint of its row
        for i, key in enumerate(keys):
            if bounds[i] > bounds[kept.setdefault(key, i)]:
                kept[key] = i
        owners: list[int] = []
        partners: list[int] = []
        pins: dict[bytes, float] = {}  # event bits -> P(event) under an '==' row
        for i in kept.values():
            if keys[i] in pins:  # the complement's row already pins this event
                continue
            j = kept.get((~self.constraints[i].event.bits).tobytes(), -1)
            if j >= 0 and abs(bounds[i] + bounds[j] - 1.0) <= VACUOUS_RHS:
                pins[keys[i]] = bounds[i]
                pins[keys[j]] = 1.0 - bounds[i]
            else:
                j = -1
            owners.append(i)
            partners.append(j)
        implied = self._implied(owners, partners, bounds, pins)
        partners = [j for i, j in zip(owners, partners) if i not in implied]
        owners = [i for i in owners if i not in implied]
        rows, rhs = self._rows([self.constraints[i] for i in owners])
        senses = ["=="] + ["==" if j >= 0 else ">=" for j in partners]
        return Presolved(rows, rhs, senses, owners, partners, len(implied))

    def _implied(self, owners: list[int], partners: list[int], bounds: list[float],
                 pins: dict[bytes, float]) -> set[int]:
        """The kept '>=' rows (by constraint) that rules 1 and 2 of ``presolved``
        drop.  Each sset's pin is looked up once, through its atom event."""
        weights: dict[SSet, float | None] = {}

        def pinned(s: SSet) -> float | None:
            if s not in weights:
                weights[s] = pins.get(sset_event(self.space, s).bits.tobytes())
            return weights[s]

        implied: set[int] = set()
        # each kept, pinned pair row not yet matched: its ssets -> (constraint, shift)
        unmatched: dict[frozenset[SSet], tuple[int, float]] = {}
        for i, j in zip(owners, partners):
            origin = self.constraints[i].origin
            if j >= 0 or len(origin) != 2:
                continue
            w1, w2 = pinned(origin[0]), pinned(origin[1])
            if w1 is None or w2 is None:
                continue
            shift = w1 + w2 - 1.0  # P(S1 & S2) - P(S1^c & S2^c) under the pins
            if bounds[i] <= shift:  # rule 1
                implied.add(i)
                continue
            first = unmatched.pop(frozenset(s.complement() for s in origin), None)
            if first is None:
                unmatched[frozenset(origin)] = (i, shift)
            else:  # rule 2, in the first row's orientation
                f, f_shift = first
                implied.add(i if bounds[f] >= bounds[i] + f_shift else f)
        return implied


def _check_space(system: QuantumSystem, space: TrajectorySpace) -> None:
    if (system.m, system.n) != (space.m, space.n):
        raise ValueError(
            f"system is {system.m}x{system.n}, trajectory space is {space.m}x{space.n}"
        )


def born_constraints(
    system: QuantumSystem, space: TrajectorySpace, family: list[SSet]
) -> ConstraintSet:
    """Marginal pins for each sset: P(S) >= w(S) and P(S^c) >= 1 - w(S).

    Together with normalization the pair forces P(S) = w(S); rows with
    non-positive right side are implied by non-negativity and skipped.
    """
    _check_space(system, space)
    if not family:
        raise ValueError("born family must be non-empty")
    rows: list[LinearConstraint] = []
    for s in family:
        weight = system.weight(s)
        for target, rhs in ((s, weight), (s.complement(), 1.0 - weight)):
            label = target.text()
            if admits(rhs, label):
                rows.append(LinearConstraint(sset_event(space, target), rhs, "born", label, (s,)))
    return ConstraintSet(space, rows, skipped=2 * len(family) - len(rows))


def _pair_rows(
    system: QuantumSystem,
    space: TrajectorySpace,
    pairs: list[tuple[SSet, SSet]],
    tau_norm: float,
    tag: str,
    equal_weights: bool,
    bound: Callable[[float, float, float], float | None],
) -> ConstraintSet:
    """One row P(S1 and S2) >= bound(w1, w2, dist) per accepted cross-time pair.

    Same-time pairs, pairs whose weights differ by more than ``tau_norm``
    (when ``equal_weights``) and pairs whose bound is ``None`` are filtered;
    rows with non-positive right side are skipped as vacuous.
    """
    rows: list[LinearConstraint] = []
    filtered = 0
    # each sset's weight once, in first-use order, however many pairs share it
    ssets = dict.fromkeys(s for pair in pairs for s in pair)
    weights = {s: system.weight(s) for s in ssets}
    for s1, s2 in pairs:
        w1 = weights[s1]
        w2 = weights[s2]
        if s1.time == s2.time or (equal_weights and abs(w1 - w2) > tau_norm):
            filtered += 1
            continue
        rhs = bound(w1, w2, system.sset_distance(s1, s2))
        if rhs is None:
            filtered += 1
            continue
        label = f"({s1.text()} & {s2.text()})"
        if admits(rhs, label):  # before the intersection is built
            event = sset_event(space, s1) & sset_event(space, s2)
            rows.append(LinearConstraint(event, rhs, tag, label, (s1, s2)))
    return ConstraintSet(space, rows, len(pairs) - filtered - len(rows), filtered)


def qtr_constraints(
    system: QuantumSystem,
    space: TrajectorySpace,
    pairs: list[tuple[SSet, SSet]],
    tau_norm: float = DEFAULT_TAU_NORM,
) -> ConstraintSet:
    """Typicality rows P(S1 and S2) >= w(S1) - dist(S1, S2).

    Only cross-time pairs with weights equal within ``tau_norm`` generate a
    row; rows with non-positive right side are skipped as vacuous.
    """
    _check_space(system, space)
    if not tau_norm >= 0:  # NaN fails too
        raise ValueError("tau_norm must be >= 0")
    return _pair_rows(system, space, pairs, tau_norm, "qtr", True,
                      lambda w1, w2, dist: w1 - dist)


def qtr_variant_constraints(
    system: QuantumSystem,
    space: TrajectorySpace,
    pairs: list[tuple[SSet, SSet]],
    variant: str,
    value: float | None = None,
    tau_norm: float = DEFAULT_TAU_NORM,
) -> ConstraintSet:
    """Relaxations and rescalings of the typicality rule.

    'min'   drops the equal-weight filter and bounds by min(w1, w2) - dist;
    'eps'   keeps only pairs with relative distance <= value (>= 0);
    'alpha' scales the distance penalty: w1 - value * dist (value > 0).
    """
    _check_space(system, space)
    if variant == "min":
        if value is not None:
            raise ValueError("min variant takes no parameter")
    elif variant == "eps":
        if value is None or not value >= 0:
            raise ValueError("eps variant needs a threshold >= 0")
    elif variant == "alpha":
        if value is None or not value > 0:
            raise ValueError("alpha variant needs a scale > 0")
    else:
        raise ValueError(f"unknown variant {variant!r}")

    def bound(w1: float, w2: float, dist: float) -> float | None:
        if variant == "min":
            return min(w1, w2) - dist
        if variant == "eps":
            return None if w1 <= 0.0 or dist / w1 > value else w1 - dist
        return w1 - value * dist

    return _pair_rows(system, space, pairs, tau_norm, f"qtr-{variant}", variant != "min", bound)


def lower_bound_constraints(
    space: TrajectorySpace, demands: list[tuple[Event, float, str]]
) -> ConstraintSet:
    """Raw event lower bounds, e.g. user-declared demands from a scenario."""
    rows: list[LinearConstraint] = []
    for event, rhs, label in demands:
        if len(event) != space.size:
            raise ValueError("event length does not match space")
        if admits(rhs, label):
            rows.append(LinearConstraint(event, rhs, "demand", label))
    return ConstraintSet(space, rows, skipped=len(demands) - len(rows))


def merge_constraint_sets(sets: list[ConstraintSet]) -> ConstraintSet:
    """One set holding every row of ``sets`` in order, with summed counters."""
    if not sets:
        raise ValueError("nothing to merge")
    space = sets[0].space
    if any(cs.space != space for cs in sets):
        raise ValueError("cannot merge constraint sets over different spaces")
    return ConstraintSet(
        space=space,
        constraints=[con for cs in sets for con in cs.constraints],
        skipped=sum(cs.skipped for cs in sets),
        filtered=sum(cs.filtered for cs in sets),
    )


# --- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class FarkasCertificate:
    """Non-negative combination of rows proving the polytope empty.

    ``normalization + sum_i multipliers[i] * indicator_i`` is componentwise
    <= 0 over trajectories while ``normalization + sum_i multipliers[i] *
    rhs_i`` is >= the margin, so no probability vector can satisfy all rows.
    """

    multipliers: np.ndarray
    normalization: float
    margin: float


@dataclass(frozen=True)
class FeasibilityCertificate:
    witness: TrajectoryMeasure | None = None
    farkas: FarkasCertificate | None = None

    def __post_init__(self) -> None:
        if (self.witness is None) == (self.farkas is None):
            raise ValueError("exactly one of witness/farkas must be populated")

    @property
    def feasible(self) -> bool:
        return self.witness is not None


def verify_witness(cs: ConstraintSet, probs: np.ndarray) -> float:
    """Max violation of the constraint rows and simplex rows, by direct sums."""
    vec = np.asarray(probs, dtype=float)
    worst = max(abs(float(vec.sum()) - 1.0), max(0.0, -float(vec.min(initial=0.0))))
    for con in cs.constraints:
        worst = max(worst, con.satisfied_by(vec))
    return worst


def verify_farkas(cs: ConstraintSet, cert: FarkasCertificate) -> tuple[float, float]:
    """Recompute the certificate's componentwise slack and margin directly."""
    combo = np.full(cs.space.size, cert.normalization)
    total = cert.normalization
    for mult, con in zip(cert.multipliers, cs.constraints):
        combo += mult * con.event.bits
        total += mult * con.rhs
    return float(combo.max()), float(total)


def _lift_farkas(duals: np.ndarray, owners: list[int], partners: list[int],
                 count: int) -> tuple[np.ndarray, float]:
    """Multipliers of the ``count`` constraints and the normalization's, from
    the Farkas duals of presolved rows.

    A '>=' row's dual goes to its owner.  An '==' row ``P(A) = l`` with dual
    ``y >= 0`` does too; with ``y < 0``, ``y * 1_A = y - y * 1_{A^c}``, so
    ``-y`` goes to the complement's constraint and ``y`` to normalization.
    Every other constraint gets 0.  Values are assigned, not added, so a
    -0.0 keeps its sign bit.
    """
    mult = np.zeros(count)
    normalization = float(duals[0])
    for y, owner, partner in zip(duals[1:].tolist(), owners, partners):
        if partner < 0 and y < -1e-8:
            raise lp.SimplexFailure(
                f"negative multiplier {y:.3e} on inequality row {owner}"
            )
        if partner < 0 or y >= 0.0:
            mult[owner] = y
        else:
            mult[partner] = -y
            normalization += y
    mult[mult < 0.0] = 0.0  # -0.0 is not below zero and keeps its sign bit
    return mult, normalization


@functools.lru_cache(maxsize=1)
def presolve(cs: ConstraintSet) -> Presolved:
    """``cs.presolved()``, kept for the last set asked about.

    Keyed on the set's identity, which is sound because a set is frozen and
    the cache's reference to it keeps its id from being reused.  One entry,
    so a caller that reads the presolve (the CLI's run report) and the
    queries that solve it share one, while the rows of one set at most stay
    alive however many sets the caller keeps.
    """
    return cs.presolved()


@functools.lru_cache(maxsize=1)
def _prepared(cs: ConstraintSet) -> tuple[Presolved, lp.FeasibleStart]:
    """The presolved rows of ``cs`` and their phase 1, for the polytope queries.

    Keyed on the set's identity like ``presolve``.  One entry, so queries
    asked one after another about one set share a single presolve and phase
    1, while one start at most stays alive however many sets the caller
    keeps.
    """
    pre = presolve(cs)
    return pre, lp.feasible_start(pre.rows, pre.rhs, pre.senses)


def _solve(cs: ConstraintSet, objective: np.ndarray, maximize: bool = False) -> lp.LPResult:
    """``objective`` over the presolved rows of ``cs``, from their phase 1
    (``_prepared``); any status but optimal or infeasible is a failure."""
    (rows, rhs, senses, *_), start = _prepared(cs)
    result = lp.solve_lp(objective, rows, rhs, senses, maximize=maximize, start=start)
    if result.status not in (lp.OPTIMAL, lp.INFEASIBLE):
        raise lp.SimplexFailure(f"unexpected LP status {result.status!r}")
    return result


def feasibility(cs: ConstraintSet) -> FeasibilityCertificate:
    """Phase-1 feasibility with a self-verified witness or Farkas certificate.

    The phase 1 is the one later bounds and vertex samples of ``cs`` start
    from.  It runs on the presolved rows, whose Farkas duals
    ``_lift_farkas`` maps back to one multiplier per constraint.
    """
    result = _solve(cs, np.zeros(cs.space.size))
    if result.status == lp.OPTIMAL:
        witness = TrajectoryMeasure(result.x)
        worst = verify_witness(cs, witness.probs)
        if worst > CERTIFICATE_TOL:
            raise lp.SimplexFailure(
                f"witness verification failed: max violation {worst:.3e}"
            )
        return FeasibilityCertificate(witness=witness)

    pre, _ = _prepared(cs)
    mult, normalization = _lift_farkas(result.farkas_duals, pre.owners, pre.partners, len(cs))
    cert = FarkasCertificate(multipliers=mult, normalization=normalization, margin=0.0)
    slack, margin = verify_farkas(cs, cert)
    cert = FarkasCertificate(multipliers=mult, normalization=normalization, margin=margin)
    if slack > CERTIFICATE_TOL or margin < FARKAS_MARGIN:
        raise lp.SimplexFailure(
            f"Farkas verification failed: slack {slack:.3e}, margin {margin:.3e}"
        )
    return FeasibilityCertificate(farkas=cert)


# --- bounds ----------------------------------------------------------------


@dataclass(frozen=True)
class BoundsResult:
    status: str  # "both-solved" | "infeasible"
    lower: float | None = None
    upper: float | None = None
    argmin: TrajectoryMeasure | None = None
    argmax: TrajectoryMeasure | None = None

    def __post_init__(self) -> None:
        if self.status == "infeasible":
            if self.argmin is not None or self.argmax is not None:
                raise ValueError("infeasible result cannot carry witnesses")
            return
        if self.lower is None or self.upper is None:
            raise ValueError("solved result needs both bounds")
        if not -1e-9 <= self.lower <= self.upper + 1e-9:
            raise ValueError(f"bounds out of order: {self.lower}, {self.upper}")
        if self.upper > 1.0 + 1e-9:
            raise ValueError(f"upper bound {self.upper} exceeds 1")


def lower_upper(cs: ConstraintSet, a: Event) -> BoundsResult:
    """LP min/max of the event's probability over the credal polytope.

    Both solves start from the phase 1 of ``cs`` (``_prepared``).
    """
    if len(a) != cs.space.size:
        raise ValueError("event length does not match space")
    objective = a.bits.astype(float)
    low = _solve(cs, objective)
    if low.status == lp.INFEASIBLE:
        return BoundsResult(status="infeasible")
    high = _solve(cs, objective, maximize=True)

    return BoundsResult(
        status="both-solved",
        lower=float(low.objective),
        upper=float(high.objective),
        argmin=TrajectoryMeasure(low.x),
        argmax=TrajectoryMeasure(high.x),
    )


def born_product_witness(
    system: QuantumSystem, space: TrajectorySpace
) -> TrajectoryMeasure:
    """Independent coupling of the per-time marginals; satisfies every Born pin."""
    _check_space(system, space)
    vec = np.array([1.0])
    for t in range(system.n):
        marginal = np.abs(system.evolve(t)) ** 2
        vec = np.kron(vec, marginal)
    return TrajectoryMeasure(vec)


def huber_check(cs: ConstraintSet) -> float:
    """Huber-Strassen non-emptiness criterion for lower-bound rows.

    Minimizes the total mass ``sum_w mu(w)`` of a non-negative ``mu`` that
    meets every row, ``sum_w indicator_i(w) * mu(w) >= rhs_i``; the credal set
    is non-empty exactly when the optimum is <= 1.  By LP duality the optimum
    equals the maximum of ``sum_i a_i * rhs_i`` over non-negative ``a`` with
    ``sum_i a_i * indicator_i(w) <= 1`` for every trajectory ``w``, but this
    form has one row per constraint rather than one per trajectory.  The
    rows are not presolved: without normalization a complementary pair does
    not collapse to one row.  Its phase 1 is its own and leaves the set's
    (``_prepared``) in place.
    """
    for con in cs.constraints:
        if con.event.is_empty and con.rhs > 0:
            raise ValueError(
                f"malformed row: empty event with positive bound {con.rhs!r}"
            )
    if not cs.constraints:
        return 0.0
    rows, rhs, senses = cs.lp_rows()
    # without the normalization row: the total mass is what is minimized
    result = lp.solve_lp(np.ones(cs.space.size), rows[1:], rhs[1:], senses[1:])
    if result.status != lp.OPTIMAL:
        raise lp.SimplexFailure(f"unexpected LP status {result.status!r}")
    return float(result.objective)


def sample_vertex_measures(
    cs: ConstraintSet, count: int, seed: int
) -> list[TrajectoryMeasure]:
    """Polytope vertices from seeded random linear objectives (reproducible).

    Every sample is re-optimized from the phase 1 of ``cs`` (``_prepared``).
    """
    rng = np.random.default_rng(seed)
    out: list[TrajectoryMeasure] = []
    for _ in range(count):
        result = _solve(cs, rng.standard_normal(cs.space.size))
        if result.status == lp.INFEASIBLE:
            raise ValueError("constraint set is infeasible")
        out.append(TrajectoryMeasure(result.x))
    return out


# --- CSV export -------------------------------------------------------------


def format_number(x: float) -> str:
    """Fixed 9 decimal places, no negative zero, locale independent."""
    if abs(x) < 5e-10:
        x = 0.0
    return f"{x:.9f}"


def csv_text(header: list[str], rows: Iterable[list[object]]) -> str:
    """The header line and one line per row, CSV-quoted, each ended by a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def constraints_csv(cs: ConstraintSet) -> str:
    return csv_text(
        ["tag", "relation", "rhs", "expression"],
        ([con.tag, ">=", format_number(con.rhs), con.label] for con in cs.constraints),
    )


def measure_csv(measure: TrajectoryMeasure) -> str:
    return csv_text(
        ["trajectory_index", "probability"],
        ([i, format_number(float(p))] for i, p in enumerate(measure.probs)),
    )


def farkas_csv(cert: FarkasCertificate, cs: ConstraintSet) -> str:
    rows: list[list[object]] = [["-1", "normalization", "", "", format_number(cert.normalization)]]
    for i, (mult, con) in enumerate(zip(cert.multipliers, cs.constraints)):
        rows.append([i, "constraint", con.tag, con.label, format_number(float(mult))])
    rows.append(["", "margin", "", "", format_number(cert.margin)])
    return csv_text(["row", "kind", "tag", "expression", "multiplier"], rows)
