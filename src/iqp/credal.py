"""Credal sets of trajectory measures: constraint generation and LP queries.

A credal set is the polytope of probability vectors over the trajectory space
cut out by event lower bounds.  Generators produce the Born family (marginal
pins via inequality pairs) and the wave-packet typicality family (cross-time
intersection lower bounds), plus relaxed/scaled variants.  Queries run on the
embedded simplex solver over the presolved rows (one per distinct event, one
'==' row per complementary pin, no pair row that the pins imply) and return
self-verified witnesses, Farkas certificates and attained lower/upper
probabilities.  The presolve also fixes at zero the trajectories that forcing
rows rule out (a zero-drift typicality row or a demand reaching a Born pin, a
certain event), by exact deductions, and solves over the other columns only;
answers are padded back to every trajectory and certificates lifted to every
constraint.  A deduction that exceeds its pin by ``FARKAS_MARGIN`` is itself
the certificate, and feasibility then runs no phase 1.  The presolve is built
in three stages, each on first use: the pins (``_pinned``), which also test
each demand against the pins that contain it, the support (``_supported``:
implied rows, forcings, live columns) and the LP rows (``_presolve``).  A set
that a demand refutes is answered from the pins alone, and a forced set whose
support factors from the support stage, so neither builds an LP row.

Every generated row names its event by its origin, the ssets whose atoms
intersect to it, and every reader of a set takes the strongest row on each
event from one scan of its rows.  A pinned chain set, whose rows are Born pins fixing every
single-time marginal and pair rows on consecutive times, gets its
feasibility verdict without the LP: a measure meets its rows exactly when
its consecutive pair marginals do, and the pair problems decouple into one
closed-form coupling per time step, which glue into a Markov-chain witness
(Lauritzen, *Graphical Models*, 1996).  A chain set that this test finds
infeasible, and every other set, goes to the presolve and the LP, which give
the Farkas certificate.  On a feasible chain set over two labels, the bounds
of an event on two times come from a forward pass over the times between
them, one closed-form interval per step, with an attaining measure for each
bound; every other bound is an LP.  One routine, ``_window_measures``, glues
every measure of the chain path from the couplings' kernels, the verdict's
witness being the one with an empty window.  A set whose forcing rows leave
a live support fixed by the labels of two consecutive times, as
non-overlapping packets do, gets the product of those times' marginals as its
witness, with no phase 1.

Huber's check (``huber_check``) answers a feasible set with no LP, from the
set's witness above and a row and its complement's certificate below; every
other set solves Huber's LP.

Everything the queries read of a set, its strongest row per event, those
rows unpacked for ``verify_witness``, the presolve's three stages, phase 1,
chain record and verified witness, is one reading (``_reading``), each part
computed on first use and kept for the last set asked about.  The
presolve's pins (``_pinned``) and the chain scan (``_pinned_chain``) both
start from the strongest rows, so the set's rows are passed over once.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .events import Event, TrajectorySpace, event_probability, membership_rows, sset_event
from .system import DEFAULT_TAU_NORM, QuantumSystem, Region, SSet, check_tau_norm

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
        if not low >= -MEASURE_TOL:  # NaN fails too
            raise ValueError(f"measure has negative or NaN entry {low}")
        total = float(vec.sum())
        if not abs(total - 1.0) <= MEASURE_TOL:  # NaN and inf fail too
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
    # the ssets whose atoms intersect to the row's event: one for a Born row
    # (S for the row on S, S^c for the row on its complement), the pair
    # (S1, S2) for a pair row; empty for demands
    origin: tuple[SSet, ...] = ()


# a combination of constraints' rows, as (constraint, coefficient) pairs,
# with -1 standing for normalization
Terms = tuple[tuple[int, float], ...]


class Forcing(NamedTuple):
    """A deduction of the presolve: every trajectory in ``rest`` is zero.

    ``terms`` combine the rows of constraints (-1 for normalization) into
    ``1_F - 1_E``: a row ``P(F) >= l`` minus an upper bound ``P(E) <= u``,
    with ``F`` inside ``E`` and ``l >= u``.  The combination is -1 on
    ``rest``, the trajectories of ``E`` outside ``F``, and 0 elsewhere, and
    its right side ``l - u`` is at least 0 and below ``FARKAS_MARGIN``: a
    larger one proves the set empty (``Presolved.empty``) instead.  ``rest``
    is an event, one bit per trajectory, built from ``E`` and ``F`` on their
    packed bits.
    """

    terms: Terms
    rest: Event  # E outside F, the fixed trajectories


class Presolved(NamedTuple):
    """A presolved LP over the live columns: normalization row first, then
    one row per kept event, row ``k + 1`` being that of ``owners[k]``.  The
    other fields name constraints by index, as ``Forcing.terms`` do."""

    rows: np.ndarray
    rhs: np.ndarray
    senses: list[str]
    owners: list[int]  # per row after normalization: the constraint it keeps
    partners: list[int]  # per '==' row: the complement's constraint; -1 on '>='
    implied: int  # '>=' rows dropped because the '==' pins imply them
    live: np.ndarray  # the columns of ``rows``, in order; every other one is zero
    collapsed: list[int]  # '>=' rows (by constraint) a kept row implies on ``live``
    forcings: tuple[Forcing, ...]  # the deductions that fixed the other columns, in order
    empty: Terms  # a deduction proving the set empty (right side >= FARKAS_MARGIN), or ()


class _Pin(NamedTuple):
    """``P(event) = weight`` under an '==' row of the presolve."""

    weight: float  # as rounded, for the implied-row rules
    reach: float  # the least float l with l >= P(event) in real arithmetic
    upper: Terms  # 1_event over '==' rows, by constraint


def _pins(row: int, rhs: float) -> tuple[_Pin, _Pin]:
    """The pins of ``A`` and ``A^c`` under the '==' row ``P(A) = rhs`` owned by
    constraint ``row``, terms being '==' rows by constraint and -1 standing
    for normalization.

    ``1 - rhs`` may round down; the sign of the exactly rounded
    ``w + rhs - 1`` tells, and the reach is then the next float up.
    """
    w = 1.0 - rhs
    reach = w if math.fsum((w, rhs, -1.0)) >= 0.0 else math.nextafter(w, math.inf)
    return _Pin(rhs, rhs, ((row, 1.0),)), _Pin(w, reach, ((-1, 1.0), (row, -1.0)))


def _strongest(constraints: Sequence[LinearConstraint]) -> dict[bytes, int]:
    """Per distinct event, keyed by its packed bits (``Event.key``), the
    constraint with the largest bound (the first on ties), in the order the
    events first appear."""
    kept: dict[bytes, int] = {}
    for i, con in enumerate(constraints):
        key = con.event.key
        if con.rhs > constraints[kept.setdefault(key, i)].rhs:
            kept[key] = i
    return kept


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
    itself, so the queries key their reading of it (``_reading``) on its
    identity.  A row whose event is not over ``space`` is refused.
    """

    space: TrajectorySpace
    constraints: tuple[LinearConstraint, ...] = ()
    skipped: int = 0
    filtered: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for con in self.constraints:
            if len(con.event) != self.space.size:
                raise ValueError(f"row {con.label}: event length does not match space")

    def __len__(self) -> int:
        return len(self.constraints)

    @property
    def emitted(self) -> int:
        return len(self.constraints)

    def lp_rows(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Normalization row followed by one row per constraint."""
        rows, rhs = self._rows(self.constraints)
        return rows, rhs, ["=="] + [">="] * len(self.constraints)

    def _rows(self, constraints: Sequence[LinearConstraint],
              live: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Normalization row and right side, then one of each per given
        constraint, over the ``live`` columns (all when ``None``); the
        events' bits are unpacked in one call."""
        rows = np.ones((1 + len(constraints), self.space.size if live is None else live.size))
        rhs = np.ones(1 + len(constraints))
        bits = membership_rows([con.event for con in constraints], self.space.size)
        rows[1:] = bits if live is None else bits[:, live]
        rhs[1:] = [con.rhs for con in constraints]
        return rows, rhs


class _Pinned(NamedTuple):
    """The presolve's first stage (``_pinned``): the kept rows paired into
    '==' pins, and a demand's deduction that proves the set empty."""

    bounds: dict[int, float]  # per kept row, by constraint: its bound
    owners: list[int]  # the kept rows, in the order their events first appear
    partners: list[int]  # per kept row, as in ``Presolved``
    pins: dict[bytes, tuple[_Pin, Event]]  # event key -> its pin under an '==' row, the event
    refuted: Terms  # the first demand's deduction with right side >= FARKAS_MARGIN, or ()


class _Support(NamedTuple):
    """The presolve's second stage (``_supported``): the rows that rules 1
    and 2 keep and the forcing rows' deductions, fields as in ``Presolved``."""

    owners: list[int]
    partners: list[int]
    implied: int
    forcings: tuple[Forcing, ...]
    live: np.ndarray
    empty: Terms


_CERTAIN: Terms = ((-1, 1.0),)  # normalization as the upper bound P(E) <= 1


def _deduction(row: int, upper: Terms) -> Terms:
    """Row ``row`` minus the upper bound ``upper`` (``_Pin.upper``)."""
    return ((row, 1.0),) + tuple((r, -c) for r, c in upper)


def _refutes(terms: Terms, bounds: dict[int, float]) -> bool:
    """Whether the deduction's exactly summed right side is at least
    ``FARKAS_MARGIN``, so that it proves the set empty."""
    return math.fsum(c * (1.0 if r < 0 else bounds[r]) for r, c in terms) >= FARKAS_MARGIN


def _demand_deductions(con: LinearConstraint, i: int, j: int, bounds: dict[int, float],
                       pins: dict[bytes, tuple[_Pin, Event]]) -> Iterator[tuple[Terms, Event]]:
    """The deductions of the demand ``con``, kept as constraint ``i`` with
    partner ``j``, in order, each with the trajectories it fixes: a bound of
    at least 1 reaches normalization, and then, unless the demand is an '=='
    row, each pinned event that contains its own, in ``pins`` order, whose
    pin it reaches.  Events are tested on their packed bits."""
    if bounds[i] >= 1.0:  # a certain event
        yield _deduction(i, _CERTAIN), ~con.event
    if j < 0:
        for pin, event in pins.values():
            if bounds[i] >= pin.reach and con.event <= event:
                yield _deduction(i, pin.upper), event - con.event


def _pinned(cs: ConstraintSet, paired: dict[int, int]) -> _Pinned:
    """The presolve's pins, from ``paired``, the strongest row per event
    paired with the strongest row on its complement (``_Reading.paired``),
    and the first deduction of a demand (a row without origin), in row
    order, that proves the set empty.

    A kept pair ``P(A) >= l``, ``P(A^c) >= l'`` with ``l + l'`` within
    ``VACUOUS_RHS`` of 1 becomes the one row ``P(A) = l``, owned by
    whichever event comes first: with normalization the pair pins ``P(A)``
    to ``l`` up to that dust.  Pairs further from 1 stay two '>=' rows, so
    an over-pinned set stays infeasible and a band stays a band.  Events are
    matched on their packed bits (``Event.key``).

    Each demand's deductions (``_demand_deductions``) are tested until one
    has an exact right side of at least ``FARKAS_MARGIN``; no array is built.
    """
    bounds = {i: float(cs.constraints[i].rhs) for i in paired}
    owners: list[int] = []
    partners: list[int] = []
    pins: dict[bytes, tuple[_Pin, Event]] = {}
    for i, j in paired.items():
        event = cs.constraints[i].event
        if event.key in pins:  # the complement's row already pins this event
            continue
        if j >= 0 and abs(bounds[i] + bounds[j] - 1.0) <= VACUOUS_RHS:
            pin, co_pin = _pins(i, bounds[i])
            co_event = cs.constraints[j].event
            pins[event.key], pins[co_event.key] = (pin, event), (co_pin, co_event)
        else:
            j = -1
        owners.append(i)
        partners.append(j)
    refuted = next((terms for i, j in zip(owners, partners) if not cs.constraints[i].origin
                    for terms, _ in _demand_deductions(cs.constraints[i], i, j, bounds, pins)
                    if _refutes(terms, bounds)), ())
    return _Pinned(bounds, owners, partners, pins, refuted)


def _supported(cs: ConstraintSet, pinned: _Pinned) -> _Support:
    """The rows of the pins stage (``_pinned``) that the pins do not imply,
    the forcing rows' deductions and the columns they leave live.

    A kept '>=' row ``P(A & B) >= l`` of a pair ``(S1, S2)`` whose atom
    events ``A`` and ``B`` '==' rows pin to ``w1`` and ``w2`` is dropped
    when the pins imply it, so the polytope stays the same:

    1. when ``l <= w1 + w2 - 1`` (Frechet: ``P(A & B) >= P(A) + P(B) - 1``);
    2. when the kept row on ``(S1^c, S2^c)``, ``P(A^c & B^c) >= l'``, is at
       least as strong: ``1_{A&B} - 1_{A^c&B^c} = 1_A + 1_B - 1``, so it
       reads ``P(A & B) >= l' + w1 + w2 - 1``.  Compared in the
       orientation of the first of the two rows, the stronger stays, the
       first on ties.

    ``implied`` counts the rows the two rules dropped.

    Forcing rows then fix columns at zero (Andersen and Andersen,
    "Presolving in linear programming", Math. Prog. 71, 1995): a kept row
    ``P(F) >= l`` and an upper bound ``P(E) <= u`` with ``F`` inside
    ``E`` and ``l >= u`` force every trajectory of ``E`` outside ``F`` to
    zero.  Three kinds are recognized, in row order:

    - a row ``P(A) >= l`` with ``l >= 1`` fixes ``A^c``, normalization
      being the upper bound;
    - a kept '>=' row of a pair ``(S1, S2)`` reaching the pin of ``S1``
      (zero drift: ``l >= w1``) fixes ``S1 & S2^c``, and one reaching the
      pin of ``S2`` fixes ``S1^c & S2``;
    - a kept '>=' demand reaching the pin of an event that contains its
      own fixes the rest of that event (``_demand_deductions``).

    A pin carried by the complement's '==' row ``P(A^c) = r`` is reached
    when the exactly rounded ``l + r - 1`` is at least 0, so every fix
    holds in real arithmetic and needs no tolerance.  A deduction whose
    exactly summed right side ``l - u`` is at least ``FARKAS_MARGIN``
    fixes nothing: ``1_F - 1_E <= 0`` with that right side is a Farkas
    certificate.  ``empty`` is the pins stage's ``refuted``, else the first
    such deduction of a row with an origin.  ``forcings`` keep each
    deduction in constraint indices, for lifting Farkas certificates back
    to every constraint; the fixed sets are combined as events.
    """
    bounds, owners, partners, pins = pinned.bounds, pinned.owners, pinned.partners, pinned.pins

    def pin(s: SSet) -> tuple[_Pin, Event] | None:
        """The pin of ``s`` and its atom event, ``None`` when unpinned."""
        return pins.get(sset_event(cs.space, s).key)

    implied: set[int] = set()
    fixes: list[Forcing] = []
    empty: Terms = ()

    def fix(terms: Terms, rest: Event) -> None:
        """The deduction ``terms`` fixes ``rest``, unless it proves the set
        empty instead."""
        nonlocal empty
        if not _refutes(terms, bounds):
            fixes.append(Forcing(terms, rest))
        elif not empty:
            empty = terms

    # each kept, pinned pair row not yet matched: its ssets, as (time, region
    # mask) pairs, which are cheaper to build than SSets -> (constraint, shift)
    unmatched: dict[frozenset[tuple[int, int]], tuple[int, float]] = {}
    full = (1 << cs.space.m) - 1
    for i, j in zip(owners, partners):
        con = cs.constraints[i]
        if not con.origin:  # a demand
            for terms, rest in _demand_deductions(con, i, j, bounds, pins):
                fix(terms, rest)
            continue
        if bounds[i] >= 1.0:  # a certain event
            fix(_deduction(i, _CERTAIN), ~con.event)
        if j >= 0 or len(con.origin) == 1:
            continue
        supersets = [pin(s) for s in con.origin]  # the pair's two ssets, when pinned
        # a row reaching a pin fixes the rest of the pinned event (zero drift)
        for sup in supersets:
            if sup is not None and bounds[i] >= sup[0].reach:
                fix(_deduction(i, sup[0].upper), sup[1] - con.event)
        if supersets[0] is None or supersets[1] is None:
            continue
        pin1, pin2 = supersets[0][0], supersets[1][0]
        shift = pin1.weight + pin2.weight - 1.0  # P(S1 & S2) - P(S1^c & S2^c) under the pins
        if bounds[i] <= shift:  # rule 1
            implied.add(i)
            continue
        key = [(s.time, s.region.mask) for s in con.origin]
        first = unmatched.pop(frozenset((t, mask ^ full) for t, mask in key), None)
        if first is None:
            unmatched[frozenset(key)] = (i, shift)
        else:  # rule 2, in the first row's orientation
            f, f_shift = first
            implied.add(i if bounds[f] >= bounds[i] + f_shift else f)
    forcings = tuple(fix for fix in fixes
                     if fix.terms[0][0] not in implied and not fix.rest.is_empty)
    fixed = Event.none(cs.space)
    for forcing in forcings:
        fixed |= forcing.rest
    return _Support([i for i in owners if i not in implied],
                    [j for i, j in zip(owners, partners) if i not in implied],
                    len(implied), forcings, (~fixed).indices(), pinned.refuted or empty)


def _presolve(cs: ConstraintSet, support: _Support) -> Presolved:
    """The rows of ``cs.lp_rows()`` that the polytope queries solve, over the
    columns that can be non-zero: the last of the presolve's three stages,
    each a field of the set's reading (``_Reading``) built on first use.

    1. ``_pinned`` collapses the rows on one event to the strongest
       (``_Reading.strongest``), pairs complementary rows into '==' pins
       and finds a demand's deduction that proves the set empty;
    2. ``_supported`` drops the rows the pins imply (rules 1 and 2) and
       fixes at zero the columns that forcing rows rule out;
    3. here, the kept rows are built over the ``live`` columns only, each
       one bit for bit its owner's row of ``lp_rows`` on them, in one call
       (``ConstraintSet._rows``), and rows equal there collapse: the
       largest '>=' bound wins, the first on ties, and a '>=' row is dropped
       (``collapsed``) when an '==' row, normalization included, on the same
       columns has at least its bound.

    Kept rows follow the first appearance of their events.  ``empty`` is
    the first demand's deduction that proves the set empty, else the first
    of another row, each in row order.
    """
    owners, partners = support.owners, support.partners
    collapsed: list[int] = []
    if not support.forcings:
        rows, rhs = cs._rows([cs.constraints[i] for i in owners])
    else:
        rows, rhs = cs._rows([cs.constraints[i] for i in owners], support.live)
        keep = _collapse(rows, rhs.tolist(), partners)
        collapsed = [i for i, kept in zip(owners, keep) if not kept]
        owners = [i for i, kept in zip(owners, keep) if kept]
        partners = [j for j, kept in zip(partners, keep) if kept]
        rows, rhs = rows[[True] + keep], rhs[[True] + keep]
    senses = ["=="] + ["==" if j >= 0 else ">=" for j in partners]
    return Presolved(rows, rhs, senses, owners, partners, support.implied, support.live,
                     collapsed, support.forcings, support.empty)


def _collapse(rows: np.ndarray, rhs: list[float], partners: list[int]) -> list[bool]:
    """Per row after normalization, whether it stays: every '==' row does,
    and a '>=' row unless an equal row implies it, a stronger '>=' row (the
    first on ties) or an '==' row with at least its bound, normalization
    included."""
    keys = [row.tobytes() for row in rows]
    caps = {keys[0]: 1.0}  # row -> the largest right side of an '==' row equal to it
    best: dict[bytes, int] = {}  # row -> its strongest '>=' row
    for k, j in enumerate(partners, start=1):
        if j >= 0:
            caps[keys[k]] = max(caps.get(keys[k], -math.inf), rhs[k])
        elif rhs[k] > rhs[best.setdefault(keys[k], k)]:
            best[keys[k]] = k
    return [j >= 0 or (best[keys[k]] == k and caps.get(keys[k], -math.inf) < rhs[k])
            for k, j in enumerate(partners, start=1)]


def _check_space(system: QuantumSystem, space: TrajectorySpace) -> None:
    if (system.m, system.n) != (space.m, space.n):
        raise ValueError(
            f"system is {system.m}x{system.n}, trajectory space is {space.m}x{space.n}"
        )


def _keys(system: QuantumSystem, ssets: Iterable[SSet]) -> list[tuple[int, int]]:
    """Each sset's ``(time, region mask)``; ``QuantumSystem.sset_key`` refuses
    the first that is not an sset of ``system``."""
    m, n = system.m, system.n
    return [(s.time, s.region.mask) if s.region.m == m and 0 <= s.time < n
            else system.sset_key(s) for s in ssets]


def _labels(m: int) -> Callable[[int, int], str]:
    """``SSet.text`` of ``(time, region mask)`` over ``m`` labels, each
    region's text formatted once for the generator call that holds it."""
    region = functools.cache(lambda mask: Region(mask, m).text())
    return lambda t, mask: f"(t={t},{region(mask)})"


def born_constraints(
    system: QuantumSystem, space: TrajectorySpace, family: list[SSet]
) -> ConstraintSet:
    """Marginal pins for each sset: P(S) >= w(S) and P(S^c) >= 1 - w(S).

    Together with normalization the pair forces P(S) = w(S); rows with
    non-positive right side are implied by non-negativity and skipped.  Each
    row's origin is the sset whose atom is its event, S or S^c.
    Weights and atoms are read per ``(time, region mask)`` from the system's
    and the space's memos.
    """
    _check_space(system, space)
    if not family:
        raise ValueError("born family must be non-empty")
    keys = _keys(system, family)
    weights = [system.region_state(t, mask).weight for t, mask in keys]
    full = (1 << system.m) - 1
    text = _labels(system.m)
    rows: list[LinearConstraint] = []
    for s, (t, mask), weight in zip(family, keys, weights):
        for target, rhs, origin in ((mask, weight, s), (mask ^ full, 1.0 - weight, s.complement())):
            label = text(t, target)
            if admits(rhs, label):
                rows.append(LinearConstraint(space.atom(t, target), rhs, "born", label, (origin,)))
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
    rows with non-positive right side are skipped as vacuous.  The pairs are
    read as ``(time, region mask)`` keys, and each key's state is fetched
    once, in first-use order.  Only a pair that passes the filters formats
    its label, and only an emitted row builds its event.
    """
    check_tau_norm(tau_norm)
    keys = _keys(system, (s for pair in pairs for s in pair))
    states = {k: system.region_state(*k) for k in dict.fromkeys(keys)}
    text = _labels(system.m)
    rows: list[LinearConstraint] = []
    filtered = 0
    for k1, k2, origin in zip(keys[::2], keys[1::2], pairs):
        a, b = states[k1], states[k2]
        if k1[0] == k2[0] or (equal_weights and abs(a.weight - b.weight) > tau_norm):
            filtered += 1
            continue
        rhs = bound(a.weight, b.weight, a.distance(b))
        if rhs is None:
            filtered += 1
            continue
        label = f"({text(*k1)} & {text(*k2)})"
        if admits(rhs, label):  # before the intersection is built
            rows.append(LinearConstraint(space.atom(*k1) & space.atom(*k2), rhs, tag, label,
                                         origin))
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
    # how the set was decided: "chain" (the chain couplings), "support" (the
    # product on the forced support), "presolve" (``Presolved.empty``) | "lp"
    path: str = "lp"

    def __post_init__(self) -> None:
        if (self.witness is None) == (self.farkas is None):
            raise ValueError("exactly one of witness/farkas must be populated")

    @property
    def feasible(self) -> bool:
        return self.witness is not None


class _Witness(NamedTuple):
    """A measure of a set that ``verify_witness`` accepts, and the path that
    found it (``FeasibilityCertificate.path``)."""

    probs: np.ndarray
    path: str  # "chain" | "support" | "lp"


class _Reading:
    """Everything the queries read of one constraint set, each part computed
    on first use; the set is frozen, so no part goes stale."""

    def __init__(self, cs: ConstraintSet) -> None:
        self.cs = cs

    @functools.cached_property
    def strongest(self) -> dict[bytes, int]:
        """The one scan of the set's rows (``_strongest``), which the
        presolve, the chain scan, ``verify_witness`` and ``huber_check``
        read."""
        return _strongest(self.cs.constraints)

    @functools.cached_property
    def unpacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``strongest`` unpacked once, in one call
        (``membership_rows``): one bool row per event over every trajectory,
        and the events' bounds."""
        kept = [self.cs.constraints[i] for i in self.strongest.values()]
        bits = membership_rows([con.event for con in kept], self.cs.space.size)
        return bits, np.array([con.rhs for con in kept])

    @functools.cached_property
    def paired(self) -> dict[int, int]:
        """Per row of ``strongest``, in its order, the row of ``strongest``
        on the complement event, or -1, for the presolve's pins
        (``_pinned``) and Huber's lower bound (``_huber_lower``).  A
        complement's key (``Event.complement_key``) is computed once per set
        and pair: a row found as another's complement is paired back."""
        strongest, constraints = self.strongest, self.cs.constraints
        paired: dict[int, int] = {}
        later: dict[int, int] = {}  # a row found as an earlier row's complement -> that row
        for i in strongest.values():
            j = later.pop(i, None)
            if j is None:
                j = strongest.get(constraints[i].event.complement_key, -1)
                later[j] = i
            paired[i] = j
        return paired

    @functools.cached_property
    def pinned(self) -> _Pinned:
        """The presolve's pins and a demand's refutation (``_pinned``)."""
        return _pinned(self.cs, self.paired)

    @functools.cached_property
    def support(self) -> _Support:
        """The presolve's implied rows, forcings and live columns (``_supported``)."""
        return _supported(self.cs, self.pinned)

    @functools.cached_property
    def presolved(self) -> Presolved:
        """The rows the LP queries solve (``_presolve``)."""
        return _presolve(self.cs, self.support)

    @functools.cached_property
    def start(self) -> lp.FeasibleStart:
        """The phase 1 of ``presolved``, which every LP query of the set starts from."""
        return lp.feasible_start(self.presolved.rows, self.presolved.rhs, self.presolved.senses)

    @functools.cached_property
    def chain(self) -> _Chain | None:
        """The chain path's record (``_chain_couplings``), ``None`` off it."""
        return _chain_couplings(self.cs)

    @functools.cached_property
    def witness(self) -> _Witness | None:
        """The set's one verified witness (``_witness``), which
        ``feasibility`` and ``huber_check`` read."""
        return _witness(self.cs)


@functools.lru_cache(maxsize=1)
def _reading(cs: ConstraintSet) -> _Reading:
    """The reading of ``cs``, kept for the last set asked about.

    Keyed on the set's identity, which is sound because a set is frozen and
    the cache's reference to it keeps its id from being reused.  One entry,
    so the queries asked one after another about one set, and a caller that
    reads its presolve (the CLI's run report), share one scan, one unpacking
    of its strongest rows, presolve stages, phase 1, chain record and
    witness, while one set at most stays alive however many sets the caller
    keeps.
    """
    return _Reading(cs)


def verify_witness(cs: ConstraintSet, probs: np.ndarray) -> float:
    """Max violation of the constraint rows and simplex rows, by direct sums;
    ``math.inf`` when an entry of ``probs`` is NaN or infinite, so that no
    caller's ``> CERTIFICATE_TOL`` test accepts it (a NaN would compare
    false).

    Only the strongest row on each distinct event is summed, from the set's
    reading (``_Reading.unpacked``, its events unpacked once into bool
    rows): on one event ``l - P(event)`` rounds monotonically in ``l``, so
    the weaker rows' violations are at most its own and the maximum is the
    same float.  One ``einsum`` sums every row's members against the
    measure; its order of addition differs from ``event_probability``'s
    pairwise sum, so a row's sum can differ from it in the last bits, within
    the bound of any summation order (Higham 2002, section 4.2).  A set with
    no rows leaves the simplex rows' violation.
    """
    vec = np.asarray(probs, dtype=float)
    if vec.shape != (cs.space.size,):
        raise ValueError(f"measure has length {vec.shape}, space has {cs.space.size}")
    total = float(vec.sum())
    if not math.isfinite(total):  # a NaN or infinite entry, or an overflowing sum
        return math.inf
    worst = max(abs(total - 1.0), max(0.0, -float(vec.min(initial=0.0))))
    bits, bounds = _reading(cs).unpacked
    return float(np.fmax.reduce(bounds - np.einsum("ij,j->i", bits, vec), initial=worst))


def _combination(cs: ConstraintSet, mult: np.ndarray,
                 normalization: float) -> tuple[np.ndarray, float]:
    """The combination ``normalization + sum_i mult[i] * 1_i`` of the
    constraints' rows on every trajectory, and its right side
    ``normalization + sum_i mult[i] * rhs_i``, by direct sums in constraint
    order.  ``verify_farkas`` checks a certificate with it and
    ``_lift_farkas`` folds the deductions into one.

    Only constraints with a nonzero multiplier are summed.  Adding a zero
    changes no float but -0.0, and a sum holds -0.0 only if it started from
    it, so the zero terms are added as well when the normalization is -0.0.
    """
    combo = np.full(cs.space.size, normalization)
    total = normalization
    from_negative_zero = normalization == 0.0 and math.copysign(1.0, normalization) < 0
    summed = [(m, con) for m, con in zip(mult, cs.constraints) if m != 0.0 or from_negative_zero]
    rows = membership_rows([con.event for _, con in summed], cs.space.size)
    for (m, con), bits in zip(summed, rows):
        combo += m * bits
        total += m * con.rhs
    return combo, total


def verify_farkas(cs: ConstraintSet, cert: FarkasCertificate) -> tuple[float, float]:
    """Recompute the certificate's componentwise slack and margin directly
    (``_combination``).  A certificate needs one multiplier per constraint.
    """
    shape = np.shape(cert.multipliers)
    if shape != (len(cs),):
        raise ValueError(f"certificate has shape {shape}, set has {len(cs)} rows")
    combo, total = _combination(cs, cert.multipliers, cert.normalization)
    return float(combo.max()), float(total)


def presolve(cs: ConstraintSet) -> Presolved:
    """The presolve of ``cs`` (``_presolve``), as held by its reading
    (``_reading``), so a caller that reads it (the CLI's run report) and the
    queries that solve it share one.  It builds all three stages, the LP
    rows included, which a refuted or forced-support set's verdict never
    reads."""
    return _reading(cs).presolved


def _solve(cs: ConstraintSet, objective: np.ndarray, maximize: bool = False) -> lp.LPResult:
    """``objective`` over the presolved rows of ``cs``, from their phase 1
    (``_Reading.start``); any status but optimal or infeasible is a failure.

    The objective is taken on the live columns, and ``x`` is padded back to
    every trajectory with the fixed ones at zero.
    """
    reading = _reading(cs)
    pre = reading.presolved
    result = lp.solve_lp(np.asarray(objective)[pre.live], pre.rows, pre.rhs, pre.senses,
                         maximize=maximize, start=reading.start)
    if result.status not in (lp.OPTIMAL, lp.INFEASIBLE):
        raise lp.SimplexFailure(f"unexpected LP status {result.status!r}")
    if result.x is not None:
        x = np.zeros(cs.space.size)
        x[pre.live] = result.x
        result.x = x
    return result


def _lift_farkas(cs: ConstraintSet, pre: Presolved,
                 duals: np.ndarray) -> tuple[np.ndarray, float]:
    """Multipliers of the constraints and the normalization's, from the
    Farkas duals of the LP rows (normalization, then those of ``pre.owners``).

    The duals are scattered onto one entry per constraint and one for
    normalization, at index -1, the index space of ``Forcing.terms``.  The
    LP's combination, summed as ``verify_farkas`` sums it
    (``_combination``), is at most 0 on the live columns only, so in
    reverse order each deduction's ``1_F - 1_E`` (-1 on its columns, right
    side at least 0) is added ``lam`` times, ``lam`` the largest positive
    coefficient left on those columns, which keeps the margin.
    ``_multipliers`` then rewrites the '==' rows.
    """
    y = np.zeros(len(cs) + 1)
    y[-1] = duals[0]
    y[pre.owners] = duals[1:]
    if pre.forcings:
        combo, _ = _combination(cs, y[:-1], y[-1])
        for forcing in reversed(pre.forcings):
            cols = forcing.rest.bits
            lam = float(combo[cols].max())
            if lam > 0.0:
                for i, coef in forcing.terms:
                    y[i] += lam * coef
                combo[cols] -= lam
    return _multipliers(pre, y)


def _multipliers(pre: Presolved | _Pinned, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Multipliers of the constraints and the normalization's, from a
    combination ``y`` of constraint rows in which only '==' rows of ``pre``
    may be negative (normalization at index -1).  The presolve's later
    stages drop no '==' row, so its pins stage (``_Pinned``) gives a
    deduction the same multipliers as the LP rows.

    An '==' row ``P(A) = l`` with ``y < 0`` is rewritten by
    ``y * 1_A = y - y * 1_{A^c}``: ``-y`` goes to the complement's constraint
    and ``y`` to normalization.  Every other entry stays with its constraint,
    which keeps the sign bit of a -0.0.  A kept '>=' row with a clearly
    negative entry is a failure; a collapsed row needs no such check, since
    it enters a deduction only as its forcing row, with coefficient +1.
    """
    normalization = float(y[-1])
    mult = y[:-1]
    for i, j in zip(pre.owners, pre.partners):
        dual = float(mult[i])
        if j < 0 and dual < -1e-8:
            raise lp.SimplexFailure(f"negative multiplier {dual:.3e} on inequality row {i}")
        if j >= 0 and dual < 0.0:
            mult[i], mult[j] = 0.0, -dual
            normalization += dual
    mult[mult < 0.0] = 0.0  # -0.0 is not below zero and keeps its sign bit
    return mult, normalization


def _checked(cs: ConstraintSet, mult: np.ndarray,
             normalization: float) -> tuple[FarkasCertificate, str | None]:
    """The certificate with its margin summed directly, and why
    ``verify_farkas`` rejects it (``None`` when it accepts)."""
    slack, margin = verify_farkas(cs, FarkasCertificate(mult, normalization, 0.0))
    cert = FarkasCertificate(multipliers=mult, normalization=normalization, margin=margin)
    if slack > CERTIFICATE_TOL or margin < FARKAS_MARGIN:
        return cert, f"slack {slack:.3e}, margin {margin:.3e}"
    return cert, None


def _pinned_chain(cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray] | None:
    """The marginals ``mu[t, a]`` and the pair bounds ``bounds[t, a, b]`` of a
    pinned chain set, ``None`` when ``cs`` is not one.

    The scan reads the strongest row per event of the set's reading
    (``_Reading.strongest``), which the presolve and ``verify_witness`` read
    too; a weaker row on the same event is implied by it.  A pinned chain set
    has an origin on every such row, each naming the row's event
    (``LinearConstraint.origin``).  A one-sset row bounds its sset's atom,
    keyed by ``(time, region mask)``, except that a row on the full label set
    bounds the universal event, whose one strongest row stands for every
    time, so its key is time-free (``-1``).  Each two-sset row joins single labels
    at consecutive times, in either order, so it bounds the cell ``(t, a),
    (t + 1, b)`` (0 on a cell without a row).  Two rows on one key are on two
    events, so one origin misnames its event, and the set is refused.  At
    every time, each label ``a`` must be pinned by the presolve's rule: the
    bounds ``l`` on ``{a}`` and ``l'`` on its complement (0 without a row)
    have ``l + l'`` within ``VACUOUS_RHS`` of 1.  The pin is ``mu[t, a] = l``.

    The rows are scanned last to first, because generated sets put their
    demand and pair rows after the Born rows, and the scan builds no array
    before every row has passed.  A NaN bound is stored and then fails the
    pin or residual test.
    """
    m, n = cs.space.m, cs.space.n
    full = (1 << m) - 1

    def atom(t: int, mask: int) -> tuple[int, int]:
        return (-1 if mask == full else t, mask)

    events: dict[tuple[int, int], float] = {}  # atom(t, mask) -> the bound on the atom
    cells: dict[tuple[int, int, int], float] = {}  # (t, a, b) -> the pair bound
    for i in reversed(_reading(cs).strongest.values()):
        con = cs.constraints[i]
        for s in con.origin:
            if not 0 <= s.time < n or not 0 < s.region.mask <= full:
                return None
        if len(con.origin) == 1:
            (s,) = con.origin
            table, key = events, atom(s.time, s.region.mask)
        elif len(con.origin) == 2:
            (t, a), (u, b) = sorted((s.time, s.region.mask) for s in con.origin)
            if u - t != 1 or a & (a - 1) or b & (b - 1):
                return None
            table, key = cells, (t, a.bit_length() - 1, b.bit_length() - 1)
        else:  # a demand (no origin), or three or more ssets
            return None
        if key in table:
            return None
        table[key] = con.rhs
    for t in range(n):
        for a in range(m):
            pinned = events.get(atom(t, 1 << a), 0.0) + events.get(atom(t, full ^ (1 << a)), 0.0)
            if not abs(pinned - 1.0) <= VACUOUS_RHS:
                return None
    mu = np.array([[events.get(atom(t, 1 << a), 0.0) for a in range(m)] for t in range(n)])
    bounds = np.zeros((n - 1, m, m))
    for (t, a, b), rhs in cells.items():
        bounds[t, a, b] = rhs
    return mu, bounds


def _label_sums(table: np.ndarray) -> np.ndarray:
    """``table`` summed over its last axis, the labels added in index order."""
    total = table[..., 0].copy()
    for a in range(1, table.shape[-1]):
        total += table[..., a]
    return total


class _Chain(NamedTuple):
    """A feasible pinned chain set, read once (``_Reading.chain``)."""

    mu: np.ndarray  # mu[t, a]: the pinned marginals
    bounds: np.ndarray  # bounds[t, a, b]: the strongest pair bound per cell
    couplings: np.ndarray  # pi[t][a, b]: a coupling of (mu[t], mu[t + 1]) above bounds[t]
    kernels: np.ndarray  # the chain's steps, pi[t][a, b] / mu[t][a] (0 where mu[t][a] = 0)


def _chain_couplings(cs: ConstraintSet) -> _Chain | None:
    """The marginals, pair bounds, consecutive couplings ``pi[t]`` and their
    kernels of a pinned chain set (``_pinned_chain``) that is feasible, else
    ``None``.  The set's reading holds it (``_Reading.chain``), so that its
    verdict and its bounds share one scan and one set of kernels.

    A measure meets every row of the set exactly when each pair marginal
    ``pi[t]`` has row sums ``mu[t]``, column sums ``mu[t + 1]`` and
    ``pi[t] >= bounds[t]``; any such family glues into a Markov chain
    (``_window_measures``).  With the residuals ``r = mu[t] - bounds[t].1`` and
    ``c = mu[t + 1] - 1.bounds[t]`` both non-negative, the residual problem
    has no upper bounds and equal totals, so ``bounds[t] + r c^T / sum(r)``
    (``bounds[t]`` when ``sum(r) = 0``) is such a coupling.  A negative
    residual makes the pair problem, and so the set, infeasible, and
    ``None`` leaves that verdict to the LP.
    """
    chain = _pinned_chain(cs)
    if chain is None:
        return None
    mu, bounds = chain
    rows = mu[:-1] - _label_sums(bounds)
    cols = mu[1:] - _label_sums(bounds.transpose(0, 2, 1))
    if not ((rows >= 0.0).all() and (cols >= 0.0).all()):  # NaN fails too
        return None
    total = _label_sums(rows)[:, None, None]
    spread = rows[:, :, None] * cols[:, None, :]
    couplings = bounds + np.divide(spread, total, out=np.zeros_like(spread), where=total > 0.0)
    starts = mu[:-1, :, None]
    kernels = np.divide(couplings, starts, out=np.zeros_like(couplings), where=starts > 0.0)
    return _Chain(mu, bounds, couplings, kernels)


def _chain_witness(cs: ConstraintSet) -> np.ndarray | None:
    """The Markov chain ``mu[0][w0] * prod over t of kernels[t][wt, wt+1]``
    of the couplings of ``cs`` (``_Reading.chain``), ``None`` off the chain
    path."""
    chain = _reading(cs).chain
    return None if chain is None else _window_measures(chain.mu, chain.kernels, 0, [], ())


def _support_witness(cs: ConstraintSet) -> np.ndarray | None:
    """The product of two consecutive marginals on the live support of a
    forced set, ``None`` when the support does not factor.

    The presolve's support stage (``_Reading.support``), which builds no LP
    row, must have forcings, no ``empty`` deduction and at most ``m**2``
    live trajectories.  The first times ``t,
    t + 1`` whose labels are one-to-one on the live trajectories then
    determine each of them, and the measure is ``mu_t[w_t] * mu_t+1[w_t+1]``
    there and 0 elsewhere, ``mu_u[a]`` the strongest bound on the atom of
    label ``a`` at ``u`` (0 without a row).  Under non-overlapping packets
    the typicality rows leave such a support, whose measures are the
    couplings of the two Born marginals (Frechet, 1951), the product among
    them.  Only the two times' digits are computed, and a ``set`` tells
    whether their pairs repeat.
    """
    reading = _reading(cs)
    support = reading.support
    space = cs.space
    m, n = space.m, space.n
    if support.empty or not support.forcings or support.live.size > m * m:
        return None
    strongest = reading.strongest

    def marginal(u: int) -> np.ndarray:
        keys = [space.atom(u, 1 << a).key for a in range(m)]
        return np.array([cs.constraints[strongest[k]].rhs if k in strongest else 0.0
                         for k in keys])

    live = support.live
    labels = live // m ** (n - 1) % m
    for t in range(n - 1):
        after = live // m ** (n - 2 - t) % m
        if len(set((labels * m + after).tolist())) == live.size:
            probs = np.zeros(space.size)
            probs[live] = marginal(t)[labels] * marginal(t + 1)[after]
            return probs
        labels = after
    return None


def _start_witness(cs: ConstraintSet) -> np.ndarray | None:
    """The basic point of the set's phase 1 (``lp.FeasibleStart.point``,
    from ``_Reading.start``), padded to every trajectory, ``None`` when
    phase 1 finds the set infeasible."""
    reading = _reading(cs)
    point = reading.start.point
    if point is None:
        return None
    probs = np.zeros(cs.space.size)
    probs[reading.presolved.live] = point
    return probs


def _accepted(cs: ConstraintSet, probs: np.ndarray | None, path: str) -> _Witness | None:
    """``probs`` as the witness ``path`` found, when ``verify_witness``
    accepts it."""
    if probs is None or verify_witness(cs, probs) > CERTIFICATE_TOL:
        return None
    return _Witness(probs, path)


def _witness(cs: ConstraintSet) -> _Witness | None:
    """The first measure of ``cs`` that ``verify_witness`` accepts, of the
    chain path's (``_chain_witness``), the product on the forced support
    (``_support_witness``) and the basic point of the set's phase 1
    (``_start_witness``), in that order, which is also the order of their
    cost; ``None`` when none is accepted.  Only the last runs an LP
    routine, phase 1.  A set that the presolve proves empty
    (``Presolved.empty``) runs no phase 1 and has none, and one that a
    demand refutes (``_Reading.pinned``) builds no support stage either.
    The set's reading holds it (``_Reading.witness``).
    """
    chained = _accepted(cs, _chain_witness(cs), "chain")
    reading = _reading(cs)
    if chained is not None or reading.pinned.refuted or reading.support.empty:
        return chained
    return (_accepted(cs, _support_witness(cs), "support")
            or _accepted(cs, _start_witness(cs), "lp"))


def feasibility(cs: ConstraintSet) -> FeasibilityCertificate:
    """Feasibility with a self-verified witness or Farkas certificate; its
    ``path`` says which of the steps below decided it.

    The witness is the set's one verified witness (``_Reading.witness``,
    found by ``_witness``), tried in this order:

    1. a pinned chain set (``_pinned_chain``), whose pins are those the
       presolve finds, with non-negative coupling residuals: the Markov
       chain ``mu[0][w0] * prod over t of kernels[t][wt, wt+1]`` of the
       couplings (``_chain_couplings``), glued by ``_window_measures`` with
       an empty window, whose check also sums the one-sset rows on regions
       the pins do not read.  Neither the presolve nor phase 1 runs then;
       vertex samples of ``cs``, and bounds the forward pass does not answer
       (``_chain_bounds``), build both in the set's reading (``_reading``);
    2. a forced set whose live support factors through two consecutive
       times: the product of their marginals there (``_support_witness``),
       with no phase 1 and no LP row built (``_Reading.support``);
    3. the basic point of the set's phase 1, the one later bounds and vertex
       samples of ``cs`` start from.

    When the presolve finds a deduction that proves the set empty, no
    witness is looked for past the first.  A demand's, from the pins stage
    (``_Pinned.refuted``), comes first and needs neither the support stage
    nor the LP rows; any other row's is the support stage's ``empty``.  The
    deduction's multipliers are read over the pins stage's rows
    (``_multipliers``), and when ``verify_farkas`` accepts them as a
    certificate, that is the answer and no phase 1 runs.  Otherwise phase 1
    on the LP rows (``_Reading.presolved``) decides: an infeasible
    one's Farkas duals ``_lift_farkas`` maps back, in one pass, to one
    multiplier per constraint, and a feasible one's point that fails the
    check is a failure.
    """
    reading = _reading(cs)
    found = reading.witness
    if found is not None:
        return FeasibilityCertificate(witness=TrajectoryMeasure(found.probs), path=found.path)

    pinned = reading.pinned
    empty = pinned.refuted or reading.support.empty
    if empty:
        y = np.zeros(len(cs) + 1)
        for i, coef in empty:
            y[i] += coef
        cert, problem = _checked(cs, *_multipliers(pinned, y))
        if problem is None:
            return FeasibilityCertificate(farkas=cert, path="presolve")

    probs = _start_witness(cs)
    if probs is not None:
        witness = TrajectoryMeasure(probs)
        worst = verify_witness(cs, witness.probs)
        if worst > CERTIFICATE_TOL:
            raise lp.SimplexFailure(
                f"witness verification failed: max violation {worst:.3e}"
            )
        return FeasibilityCertificate(witness=witness)

    cert, problem = _checked(cs, *_lift_farkas(cs, reading.presolved, reading.start.farkas_duals))
    if problem is not None:
        raise lp.SimplexFailure(f"Farkas verification failed: {problem}")
    return FeasibilityCertificate(farkas=cert)


# --- bounds ----------------------------------------------------------------


@dataclass(frozen=True)
class BoundsResult:
    status: str  # "both-solved" | "infeasible"
    lower: float | None = None
    upper: float | None = None
    argmin: TrajectoryMeasure | None = None
    argmax: TrajectoryMeasure | None = None
    path: str = "lp"  # "chain" (the forward pass of ``_chain_bounds``) | "lp"

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


def _dependent_times(a: Event, space: TrajectorySpace) -> list[int] | None:
    """The times whose label an event of ``space``, over two labels, reads,
    ``None`` past two.

    Events are read as words, their packed bits (``Event.key``) big-endian,
    trajectory 0 the most significant bit.  A trajectory with label 1 at
    ``t`` and the one ``2**(n - 1 - t)`` before it differ only in that
    label, and shifting the event's word by that block lines each such pair
    up: the event reads ``t`` exactly when the word and its shift differ on
    the space's atom of label 1 at ``t`` (``space.atom(t, 0b10)``), which is
    the two label halves of ``bits.reshape(2**t, 2, -1)`` compared.
    """
    n = space.n
    word = int.from_bytes(a.key, "big")
    times = [t for t in range(n) if (word ^ (word >> (1 << (n - 1 - t))))
             & int.from_bytes(space.atom(t, 0b10).key, "big")]
    return times if len(times) <= 2 else None


# a point of one step of the forward pass: P(w_t1 = 0, w_t = 0), the coupling
# entry f[0, 0] at t, and P(w_t1 = 0, w_t = a, w_t+1 = 0) for a = 0, 1
_Point = tuple[float, float, float, float]


def _forward_pass(mu: list[list[float]], bounds: list[list[list[float]]], t1: int,
                  t2: int) -> list[tuple[float, float, _Point, _Point]] | None:
    """Per step ``t`` from ``t1`` to ``t2 - 1``, the interval ``[lo, hi]`` of
    ``u = P(w_t1 = 0, w_t+1 = 0)`` over the measures of a feasible binary
    chain set, and a point of the step attaining each end; ``None`` when a
    coupling interval is empty in floats.

    With ``q = mu[t1][0]``, the state at ``t`` is the table ``g[x, a] =
    P(w_t1 = x, w_t = a)``, whose one free entry is ``u``.  A coupling ``f >=
    bounds[t]`` of ``(mu[t], mu[t + 1])`` has one free entry ``s = f[0, 0]``,
    and a step splits each ``g[x, a]`` over ``b`` within ``f[a, b]``.  So the
    next ``u`` ranges over ``[max(0, u + s - mu[t][0]) + max(0, c - u - s),
    min(q, mu[t+1][0], mu[t+1][0] + u - s, q - u + s)]``, ``c = q - mu[t][1]
    + mu[t+1][0]``: its low end is convex in ``u + s``, least on
    ``[min(mu[t][0], c), max(mu[t][0], c)]``, and its high end concave in ``u
    - s``, largest at ``(q - mu[t+1][0]) / 2``, so each end is the clipped
    extremum.  ``u`` starts at ``q``, and every set of reachable ``u`` is an
    interval, the projection of a polytope.
    """
    q = mu[t1][0]
    lo = hi = q
    steps = []
    for t in range(t1, t2):
        (a0, a1), (b0, _) = mu[t], mu[t + 1]
        (l00, l01), (l10, l11) = bounds[t]
        s_lo, s_hi = max(l00, l11 - a1 + b0), min(a0 - l01, b0 - l10)
        if not s_lo <= s_hi:
            return None
        c = q - a1 + b0
        z = min(max(lo + s_lo, min(a0, c)), hi + s_hi)  # u + s at the low end
        u = min(max(lo, z - s_hi), hi)
        s = min(max(z - u, s_lo), s_hi)
        low = (u, s, max(0.0, u + s - a0), max(0.0, c - u - s))
        z = min(max(lo - s_hi, (q - b0) / 2), hi - s_lo)  # u - s at the high end
        u = min(max(lo, z + s_lo), hi)
        s = min(max(u - z, s_lo), s_hi)
        high = (u, s, min(s, u), min(b0 - s, q - u))
        lo, hi = low[2] + low[3], high[2] + high[3]
        steps.append((lo, hi, low, high))
    return steps


def _window_measures(mu: list[list[float]] | np.ndarray, kernels: np.ndarray, t1: int,
                     steps: list[tuple[float, float, _Point, _Point]],
                     targets: tuple[float, ...]) -> np.ndarray:
    """Per target ``v`` in the last interval of ``steps`` (``_forward_pass``),
    a measure of the chain set with ``P(w_t1 = 0, w_t2 = 0) = v`` over every
    trajectory, one row each; with no steps and no targets, the one measure
    ``mu[0][w0] * prod over t of kernels[t][wt, wt+1]``, as a vector.

    Walking back from ``t2``, each step's point interpolates its two ends
    as ``v`` does its interval, which the step's convexity allows, and sets
    ``v`` for the step before.  On ``[t1, t2]`` a measure is the Markov
    chain of ``(w_t1, w_t)`` through those points, its step ``h[x, a, b] /
    g[x, a]`` (0 where ``g[x, a] = 0``); elsewhere it takes the couplings'
    ``kernels`` (``_Chain.kernels``), time 0 the most significant digit.  The
    measures share their steps before ``t1`` and are built side by side
    from there, on a leading axis, which an empty window never adds.
    """
    walks = []
    for v in targets:
        points = []
        for lo, hi, low, high in reversed(steps):
            lam = min(max((v - lo) / (hi - lo), 0.0), 1.0) if hi > lo else 0.0
            points.append([x + lam * (y - x) for x, y in zip(low, high)])
            v = points[-1][0]
        walks.append(points[::-1])
    q = mu[t1][0]
    probs = np.array(mu[0])
    for t, kernel in enumerate(kernels):
        if not t1 <= t < t1 + len(steps):
            probs = probs[..., None] * kernel
            continue
        (a0, a1), (b0, _) = mu[t], mu[t + 1]
        rows = []
        for u, s, h0, h1 in (points[t - t1] for points in walks):
            # h[x, a, b] = P(w_t1 = x, w_t = a, w_t+1 = b) over g[x, a] = P(w_t1 = x, w_t = a)
            h = ((h0, u - h0), (h1, q - u - h1), (s - h0, a0 - s - u + h0),
                 (b0 - s - h1, a1 - b0 + s - q + u + h1))
            g = (u, q - u, a0 - u, a1 - q + u)
            rows.append([(hb[0] / ga, hb[1] / ga) if ga > 0.0 else (0.0, 0.0)
                         for hb, ga in zip(h, g)])
        step = np.array(rows).reshape(len(walks), 2, 2, 2)
        if t == t1:  # the tag is the current label
            probs = probs[..., None] * step[:, [0, 1], [0, 1]].reshape(
                (len(walks),) + (1,) * t1 + (2, 2))
        else:
            shape = [len(walks)] + [1] * (t + 2)
            shape[1 + t1] = shape[1 + t] = shape[2 + t] = 2
            probs = probs[..., None] * step.reshape(shape)
    return probs.reshape(*probs.shape[:-len(mu)], -1)  # one axis per time flattened


def _chain_bounds(cs: ConstraintSet, a: Event) -> BoundsResult | None:
    """Bounds of an event on two times over a feasible pinned chain set on
    two labels, with an attaining measure for each; ``None`` for any other
    set or event, or when a measure fails ``verify_witness``.  An event on
    one time is left to the LP, which returns its pinned marginal.

    With both marginals of times ``t1 < t2`` pinned, ``P00 = P(w_t1 = 0,
    w_t2 = 0)`` is the one free entry of their joint table: ``P01 =
    mu[t1][0] - P00``, ``P10 = mu[t2][0] - P00`` and ``P11 = mu[t1][1] -
    mu[t2][0] + P00``.  An event on both times has probability ``alpha +
    beta * P00`` with ``beta`` in -2..2, and its bounds are its value at the
    ends of the interval of ``P00``, which ``_forward_pass`` computes.  Rows
    outside ``[t1, t2]`` do not narrow that interval: a measure on the
    window meeting its rows extends by the couplings' kernels, which meet
    theirs.
    """
    if cs.space.m != 2:
        return None
    chain = _reading(cs).chain
    if chain is None:
        return None
    times = _dependent_times(a, cs.space)
    if times is None or len(times) != 2:  # three times or more, one, or none
        return None
    t1, t2 = times
    marginals = chain.mu.tolist()
    steps = _forward_pass(marginals, chain.bounds.tolist(), t1, t2)
    if steps is None:
        return None
    cells = a.bits.reshape(1 << t1, 2, 1 << (t2 - t1 - 1), 2, -1)[0, :, 0, :, 0].reshape(-1)
    (p0, p1), q0 = marginals[t1], marginals[t2][0]
    beta = int(cells[0]) - int(cells[1]) - int(cells[2]) + int(cells[3])
    lo, hi = steps[-1][:2]
    targets = (lo, hi) if beta > 0 else (hi, lo)
    found = []
    for v, probs in zip(targets, _window_measures(marginals, chain.kernels, t1, steps, targets)):
        if verify_witness(cs, probs) > CERTIFICATE_TOL:
            return None
        table = (v, p0 - v, q0 - v, p1 - q0 + v)
        found.append((sum(p for p, inside in zip(table, cells) if inside),
                      TrajectoryMeasure(probs)))
    (lower, argmin), (upper, argmax) = found
    return BoundsResult("both-solved", lower, upper, argmin, argmax, path="chain")


def lower_upper(cs: ConstraintSet, a: Event) -> BoundsResult:
    """Min/max of the event's probability over the credal polytope.

    An event on two times over a feasible pinned chain set on two labels
    takes the forward pass of ``_chain_bounds``, with no presolve, phase 1
    or LP.  Every other query, and one whose measure fails its check, runs
    the LP: both solves start from the phase 1 of ``cs`` (``_Reading.start``).
    """
    if len(a) != cs.space.size:
        raise ValueError("event length does not match space")
    chained = _chain_bounds(cs, a)
    if chained is not None:
        return chained
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

    The value H is the least total mass ``sum_w mu(w)`` of a non-negative
    ``mu`` that meets every row, ``sum_w indicator_i(w) * mu(w) >= rhs_i``;
    the credal set is non-empty exactly when H <= 1.  By LP duality H is
    also the largest ``sum_i a_i * rhs_i`` over non-negative ``a`` with
    ``sum_i a_i * indicator_i(w) <= 1`` for every trajectory ``w``.

    A feasible set needs no LP.  Its witness (``_Reading.witness``), a
    measure of mass 1 within ``CERTIFICATE_TOL`` of each of its k strongest
    rows, gives H <= 1 + (k + 1) * ``CERTIFICATE_TOL``, and a row or a
    complementary pair of rows with multiplier 1 gives H >= L
    (``_huber_lower``).  When L lies between 1 - ``VACUOUS_RHS`` and that
    upper bound and the witness verifies, the value is L.  Every other set,
    each empty one among them, gets Huber's LP (``_huber_lp``); an L above
    the upper bound rules the witness out, so it is not looked for.  An L
    of ``+inf`` (``l + l'`` past the float range) is the value, with no LP.
    A row on the empty event with a positive bound is refused either way.
    """
    kept = [cs.constraints[i] for i in _reading(cs).strongest.values()]
    for con in kept:  # the largest bound on the empty event, if it has rows
        if con.event.is_empty and con.rhs > 0:
            raise ValueError(f"malformed row: empty event with positive bound {con.rhs!r}")
    lower = _huber_lower(cs)
    if lower == math.inf:  # H is at least l + l', so it rounds to +inf as well
        return math.inf
    upper = 1.0 + (len(kept) + 1) * CERTIFICATE_TOL  # a larger L rules out every witness
    if 1.0 - VACUOUS_RHS <= lower <= upper and _reading(cs).witness is not None:
        return lower
    return _huber_lp(cs)


def _huber_lower(cs: ConstraintSet) -> float:
    """A lower bound on Huber's value from the strongest rows
    (``_Reading.strongest``): the largest ``l``, or ``l + l'`` of a row and
    the row on its complement (``_Reading.paired``), the first on ties;
    ``-inf`` on a set without rows.  The sum of two floats is correctly
    rounded, as ``math.fsum`` would return it, and ``+inf`` where that
    would overflow.

    A multiplier of 1 on one row, or on a row and its complement, is dual
    feasible for Huber's LP, since the indicators sum to at most 1 on every
    trajectory.  That sum is checked on every trajectory for the chosen
    rows, and the bound is ``-inf`` when it exceeds 1.
    """
    best, chosen = -math.inf, ()
    for i, j in _reading(cs).paired.items():
        low = float(cs.constraints[i].rhs)
        options = [((i,), low)]
        if j >= 0:
            options.append(((i, j), low + float(cs.constraints[j].rhs)))
        for rows, value in options:
            if value > best:
                best, chosen = value, rows
    if chosen:
        rows = membership_rows([cs.constraints[r].event for r in chosen], cs.space.size)
        if not rows.sum(axis=0).max() <= 1:
            return -math.inf
    return best


def _huber_lp(cs: ConstraintSet) -> float:
    """Huber's value by its LP: the least total mass of a non-negative
    measure over every trajectory that meets the strongest row on each
    distinct event (``_Reading.strongest``, as the presolve reads them).

    The LP is not otherwise presolved: without normalization a
    complementary pair does not collapse to one row.  A set without rows is
    an LP without rows, optimal at 0.  Its phase 1 is its own and leaves
    the set's (``_Reading.start``) in place.
    """
    kept = [cs.constraints[i] for i in _reading(cs).strongest.values()]
    rows, rhs = cs._rows(kept)
    # the total mass is what is minimized, not normalized
    result = lp.solve_lp(np.ones(cs.space.size), rows[1:], rhs[1:], [">="] * (len(rhs) - 1))
    if result.status != lp.OPTIMAL:
        raise lp.SimplexFailure(f"unexpected LP status {result.status!r}")
    return float(result.objective)


def sample_vertex_measures(
    cs: ConstraintSet, count: int, seed: int
) -> list[TrajectoryMeasure]:
    """Polytope vertices from seeded random linear objectives (reproducible).

    Every sample is re-optimized from the phase 1 of ``cs`` (``_Reading.start``).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
