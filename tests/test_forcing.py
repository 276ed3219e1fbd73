"""The presolve's forcing rows: exact fixes, live-column answers, lifted certificates.

``credal.presolve`` fixes the trajectories that a forcing row proves
zero (a zero-drift typicality row reaching a Born pin, or a certain event)
and solves over the live columns only.  Here the forced presolve is checked
against the unforced rows (``lp_rows`` through the simplex solver) and scipy's
HiGHS: verdicts, witnesses padded back to every trajectory, bounds and lifted
Farkas certificates.  Seeded sets come from the benchmark's own config
generator, so the shapes it times are the shapes tested.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import scipy_bounds, scipy_feasible
from iqp import credal, lp
from iqp.credal import (
    CERTIFICATE_TOL,
    FARKAS_MARGIN,
    ConstraintSet,
    LinearConstraint,
    feasibility,
    lower_upper,
    presolve,
    verify_farkas,
    verify_witness,
)
from iqp.events import Event, TrajectorySpace, parse_event, sset_event
from iqp.scenarios import BUILTIN_SCENARIOS, build_constraints, build_system, parse_config
from iqp.system import Region, SSet

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, Rung, make_config  # noqa: E402

BOUND_TOL = 1e-9


def realize_doc(doc):
    cfg = parse_config(doc)
    system = build_system(cfg)
    space = TrajectorySpace.for_system(system)
    return cfg, space, build_constraints(cfg, system, space)


def realize_builtin(name):
    cfg = BUILTIN_SCENARIOS[name]()
    system = build_system(cfg)
    space = TrajectorySpace.for_system(system)
    return space, build_constraints(cfg, system, space)


def unforced(cs, objective, maximize=False):
    """``objective`` over the full rows of ``lp_rows``, with its own phase 1."""
    return lp.solve_lp(objective, *cs.lp_rows(), maximize=maximize)


def assert_certificate(cs, cert):
    """A lifted certificate over every constraint, checked by direct sums."""
    assert cert.multipliers.shape == (len(cs),) and np.all(cert.multipliers >= 0.0)
    slack, margin = verify_farkas(cs, cert)
    assert slack <= CERTIFICATE_TOL and margin >= FARKAS_MARGIN


SHAPES = [
    Rung(3, 5, "dft", "born+qtr", "all", 1),
    Rung(4, 4, "dft", "born+qtr", "all", 1),
    Rung(2, 8, "random", "born+qtr-min", "chain", 1),
]


@pytest.mark.parametrize("infeasible", [False, True])
@pytest.mark.parametrize("seed", [3, 29])
@pytest.mark.parametrize("rung", SHAPES, ids=lambda r: f"{r.kind}-m{r.m}-n{r.n}")
def test_forced_matches_unforced_and_highs(rung, seed, infeasible):
    cfg, space, cs = realize_doc(make_config(rung, seed, 0, 0, infeasible))
    pre = presolve(cs)
    # DFT all-pairs sets keep one trajectory per packet pair; random ones fix nothing
    assert (pre.live.size == rung.m**2) == (rung.kind == "dft")
    if rung.kind != "dft":
        assert pre.live.size == space.size and not pre.forcings

    cert = feasibility(cs)
    full = unforced(cs, np.zeros(space.size))
    assert cert.feasible == (full.status == lp.OPTIMAL) == scipy_feasible(cs) == (not infeasible)
    rng = np.random.default_rng(seed)
    events = [parse_event(e, space) for e in cfg.events]
    events += [Event(rng.random(space.size) < 0.4) for _ in range(2)]
    if not cert.feasible:
        assert_certificate(cs, cert.farkas)
        assert all(lower_upper(cs, a).status == "infeasible" for a in events)
        return

    assert cert.witness.probs.shape == (space.size,)
    assert np.all(cert.witness.probs[np.setdiff1d(np.arange(space.size), pre.live)] == 0.0)
    assert verify_witness(cs, cert.witness.probs) <= CERTIFICATE_TOL
    for a in events:
        res = lower_upper(cs, a)
        objective = a.bits.astype(float)
        low, high = unforced(cs, objective), unforced(cs, objective, maximize=True)
        assert (res.lower, res.upper) == pytest.approx((low.objective, high.objective),
                                                      abs=BOUND_TOL)
        assert (res.lower, res.upper) == pytest.approx(scipy_bounds(cs, a), abs=BOUND_TOL)
        for value, measure in ((res.lower, res.argmin), (res.upper, res.argmax)):
            assert verify_witness(cs, measure.probs) <= CERTIFICATE_TOL
            assert measure.probability(a) == pytest.approx(value, abs=BOUND_TOL)


@pytest.mark.parametrize("r", [i for i, rung in enumerate(LADDER) if rung.kind == "dft"])
def test_ladder_dft_rungs_keep_m_squared_columns(r):
    """Every system of the benchmark's DFT rungs keeps one trajectory per
    packet pair: the zero-drift rows link each time's label to time 0's and 1's."""
    rung = LADDER[r]
    for k in range(rung.systems):
        _, space, cs = realize_doc(make_config(rung, 1, r, k))
        assert presolve(cs).live.size == rung.m**2 < space.size


def combination(cs, terms):
    """``terms`` over the constraints' rows (-1 for normalization): the
    combination per trajectory and its right side, summed exactly."""
    combo = np.zeros(cs.space.size)
    products = []
    for i, coef in terms:
        con = cs.constraints[i] if i >= 0 else None
        bits, rhs = (1.0, 1.0) if con is None else (con.event.bits, con.rhs)
        combo += coef * bits
        products.append(coef * rhs)
    return combo, math.fsum(products)


@pytest.mark.parametrize("source", [(rung, bad) for rung in SHAPES[:2] for bad in (False, True)]
                         + ["beam-splitter", "mach-zehnder"],
                         ids=["dft-m3-n5", "dft-m3-n5-infeasible", "dft-m4-n4",
                              "dft-m4-n4-infeasible", "beam-splitter", "mach-zehnder"])
def test_forcing_terms_name_constraints(source):
    """Each deduction's terms, by constraint with -1 for normalization, sum
    to -1 on its columns and 0 elsewhere, with a right side of at least 0
    and below the margin; the one that proves the infeasible sets empty is
    -1 on some columns and 0 elsewhere, with a right side of at least it."""
    infeasible = False
    if isinstance(source, str):
        space, cs = realize_builtin(source)
    else:
        rung, infeasible = source
        _, space, cs = realize_doc(make_config(rung, 3, 0, 0, infeasible))
    pre = presolve(cs)
    assert pre.forcings
    for fix in pre.forcings:
        combo, right = combination(cs, fix.terms)
        assert combo.tolist() == np.where(fix.rest.bits, -1.0, 0.0).tolist()
        assert 0.0 <= right < FARKAS_MARGIN
    assert bool(pre.empty) == infeasible
    if pre.empty:
        combo, right = combination(cs, pre.empty)
        assert set(combo.tolist()) == {-1.0, 0.0} and right >= FARKAS_MARGIN


INFEASIBLE_SHAPES = [
    Rung(2, 8, "random", "born+qtr-min", "chain", 1),
    Rung(4, 4, "dft", "born+qtr", "all", 1),
    Rung(3, 6, "dft", "born+qtr", "all", 1),
]


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("rung", INFEASIBLE_SHAPES, ids=lambda r: f"{r.kind}-m{r.m}-n{r.n}")
def test_demand_above_its_pin_needs_no_phase1(rung, k, phase1_calls):
    """The benchmark's contradictory demand asks more of ``S1 & S2`` than the
    pin of ``S1`` or ``S2`` allows: one deduction is the whole certificate."""
    _, space, cs = realize_doc(make_config(rung, 7, 0, k, infeasible=True))
    pre = presolve(cs)
    combo, right = combination(cs, pre.empty)
    # -1 on the pinned event outside the demand's, 0 elsewhere
    assert set(combo.tolist()) <= {-1.0, 0.0} and combo.min() == -1.0
    assert right >= FARKAS_MARGIN
    assert pre.empty[0] == (len(cs) - 1, 1.0)  # the demand is the last row
    assert not any(fix.terms[0][0] == len(cs) - 1 for fix in pre.forcings)

    cert = feasibility(cs)
    assert phase1_calls == []
    assert not cert.feasible and not scipy_feasible(cs)
    assert_certificate(cs, cert.farkas)
    assert np.count_nonzero(cert.farkas.multipliers) == 2
    assert cert.farkas.margin == pytest.approx(right, abs=1e-12)
    # the other queries still run phase 1 on the rows, which is infeasible too
    assert lower_upper(cs, Event.all(space)).status == "infeasible"
    assert len(phase1_calls) == 1


def test_rejected_deduction_falls_back_to_phase1(phase1_calls, monkeypatch):
    """When ``verify_farkas`` rejects the deduction's certificate, phase 1
    runs as it does for any other set and its lifted certificate answers."""
    _, _, cs = realize_doc(make_config(INFEASIBLE_SHAPES[0], 7, 0, 1, infeasible=True))
    assert presolve(cs).empty
    checked = []

    def reject_first(cs_, cert):
        checked.append(cert)
        slack, margin = verify_farkas(cs_, cert)
        return (slack, 0.0) if len(checked) == 1 else (slack, margin)

    monkeypatch.setattr(credal, "verify_farkas", reject_first)
    cert = feasibility(cs)
    assert len(checked) == 2 and len(phase1_calls) == 1
    assert not cert.feasible
    assert_certificate(cs, cert.farkas)


class TestDemandAtItsPin:
    """A demand inside a pinned event reaches the pin like a pair row: at the
    pin it fixes the rest of the event, and only a bound past the pin by at
    least ``FARKAS_MARGIN`` decides the set without phase 1."""

    SPACE = TrajectorySpace(2, 2)
    A = SSet(0, Region.from_labels([0], 2))
    B = SSet(1, Region.from_labels([0], 2))
    W = 0.3

    def demand_set(self, complement, above):
        a = sset_event(self.SPACE, self.A)
        rows = [LinearConstraint(a, self.W, "born", "a", (self.A,)),
                LinearConstraint(~a, 1.0 - self.W, "born", "!a", (self.A,))]
        target = ~a if complement else a
        pin = self.W
        if complement:  # the least float at or above 1 - W in real arithmetic
            pin = 1.0 - self.W
            if Fraction(pin) < 1 - Fraction(self.W):
                pin = math.nextafter(pin, 1.0)
        demand = target & sset_event(self.SPACE, self.B)
        rows.append(LinearConstraint(demand, pin + above, "demand", "d"))
        return ConstraintSet(self.SPACE, rows), target & ~demand

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("above", [0.0, 0.5 * FARKAS_MARGIN])
    def test_below_the_margin_runs_phase1(self, complement, above, phase1_calls):
        cs, rest = self.demand_set(complement, above)
        pre = presolve(cs)
        assert pre.empty == ()
        fix, = [fix for fix in pre.forcings if fix.terms[0][0] == 2]
        assert fix.rest.bits.tolist() == rest.bits.tolist()
        combo, right = combination(cs, fix.terms)
        assert combo.tolist() == np.where(fix.rest.bits, -1.0, 0.0).tolist()
        assert 0.0 <= right < FARKAS_MARGIN
        assert feasibility(cs).feasible == scipy_feasible(cs)
        assert len(phase1_calls) == 1

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("above", [FARKAS_MARGIN, 0.02])
    def test_past_the_margin_needs_no_phase1(self, complement, above, phase1_calls):
        cs, rest = self.demand_set(complement, above + 1e-15)  # past the pin's rounding
        pre = presolve(cs)
        assert pre.empty and pre.empty[0] == (2, 1.0)
        combo, right = combination(cs, pre.empty)
        assert combo.tolist() == np.where(rest.bits, -1.0, 0.0).tolist()
        assert right >= FARKAS_MARGIN
        cert = feasibility(cs)
        assert phase1_calls == [] and not cert.feasible
        if above > 1e-6:  # HiGHS's own tolerance is 1e-7
            assert not scipy_feasible(cs)
        assert_certificate(cs, cert.farkas)
        # the demand, the row on the complement of the pinned event, and
        # normalization: 1_D + 1_{E^c} - 1 <= 0 for D inside E
        assert cert.farkas.multipliers.tolist() == [1.0 if complement else 0.0,
                                                    0.0 if complement else 1.0, 1.0]
        assert cert.farkas.normalization == -1.0


def test_certain_event_past_one_needs_no_phase1(phase1_calls):
    """``P(A) >= 1.5``: the row minus normalization has right side 0.5."""
    space = TrajectorySpace(2, 2)
    cs = ConstraintSet(space, [LinearConstraint(parse_event("(t=1,{0})", space), 1.5,
                                                "demand", "a")])
    cert = feasibility(cs)
    assert phase1_calls == [] and not cert.feasible
    assert cert.farkas.multipliers.tolist() == [1.0] and cert.farkas.normalization == -1.0
    assert cert.farkas.margin == 0.5


def test_mach_zehnder_certain_events_collapse():
    """``P((t=0,{0})) >= 1`` and ``P((t=2,{0})) >= 1`` fix every trajectory
    outside both; the intersection row and the two certain rows then equal
    normalization, so normalization and the t=1 pin are the whole LP."""
    space, cs = realize_builtin("mach-zehnder")
    pre = presolve(cs)
    assert pre.senses == ["==", "=="]
    assert pre.live.tolist() == [0, 2]  # (0, 0, 0) and (0, 1, 0)
    assert sorted(cs.constraints[i].label for i in pre.collapsed) == [
        "((t=0,{0}) & (t=2,{0}))", "(t=0,{0})", "(t=2,{0})"]
    for text in ["(t=1,{0})", "(t=0,{0}) & (t=1,{1})", "(t=2,{1})"]:
        a = parse_event(text, space)
        res = lower_upper(cs, a)
        assert (res.lower, res.upper) == pytest.approx(scipy_bounds(cs, a), abs=BOUND_TOL)


class TestExactReach:
    """A pair row fixes its cylinder exactly when its bound reaches the pin in
    real arithmetic, with no tolerance either way."""

    SPACE = TrajectorySpace(2, 2)
    A = SSet(0, Region.from_labels([0], 2))
    B = SSet(1, Region.from_labels([0], 2))

    @classmethod
    def born(cls, s, bounds):
        """``P(target) >= rhs`` for each ``(target, rhs)``, pinning ``s``."""
        return [LinearConstraint(sset_event(cls.SPACE, t), rhs, "born", t.text(), (s,))
                for t, rhs in bounds]

    @classmethod
    def pair(cls, rhs):
        event = sset_event(cls.SPACE, cls.A) & sset_event(cls.SPACE, cls.B)
        return LinearConstraint(event, rhs, "qtr", "((t=0,{0}) & (t=1,{0}))", (cls.A, cls.B))

    @pytest.mark.parametrize("complement_first", [False, True])
    @pytest.mark.parametrize("ulps", [-1, 0])
    def test_one_ulp_below_the_pin_fixes_nothing(self, complement_first, ulps):
        # 1.0 - 0.3 rounds below 1 - 0.3, so when P(A^c) >= 0.3 owns the pin,
        # the row's bound reaches P(A) only one float above 1.0 - 0.3
        bounds = [(self.A, 1.0 - 0.3), (self.A.complement(), 0.3)]
        exact = Fraction(1.0 - 0.3)  # P(A) under the pin
        pin = 1.0 - 0.3
        if complement_first:
            bounds.reverse()
            exact = 1 - Fraction(0.3)
            pin = math.nextafter(pin, 1.0)
        assert Fraction(pin) >= exact > Fraction(math.nextafter(pin, 0.0))
        bound = pin if ulps == 0 else math.nextafter(pin, 0.0)
        cs = ConstraintSet(self.SPACE, self.born(self.A, bounds) + self.born(
            self.B, [(self.B, 0.8), (self.B.complement(), 0.2)]) + [self.pair(bound)])
        pre = presolve(cs)
        # (0, 1) is A & B^c, the cylinder the row fixes when it reaches A's pin
        assert pre.live.tolist() == ([0, 2, 3] if ulps == 0 else [0, 1, 2, 3])
        assert feasibility(cs).feasible == scipy_feasible(cs)
        a = sset_event(self.SPACE, self.A) & ~sset_event(self.SPACE, self.B)
        res = lower_upper(cs, a)
        assert (res.lower, res.upper) == pytest.approx(scipy_bounds(cs, a), abs=1e-12)
        if ulps == 0:
            assert res.upper == 0.0


def test_lift_needs_two_deductions_in_reverse_order():
    """Three times pinned at 1/2 and zero-drift rows on (t0, t1) and (t1, t2)
    leave the trajectories (0, 0, 0) and (1, 1, 1).  A demand on
    ``(t=0,{0}) & (t=2,{1})`` is then 0 on the live columns; its two
    trajectories were fixed by different deductions, so the reduced LP's
    certificate needs both lifted, the later one first."""
    space = TrajectorySpace(2, 3)
    s = [SSet(t, Region.from_labels([0], 2)) for t in range(3)]
    atoms = [sset_event(space, x) for x in s]
    rows = []
    for x in s:
        rows += [LinearConstraint(sset_event(space, t), 0.5, "born", t.text(), (x,))
                 for t in (x, x.complement())]
    for x, y in ((0, 1), (1, 2)):
        rows.append(LinearConstraint(atoms[x] & atoms[y], 0.5, "qtr", f"pair{x}{y}",
                                     (s[x], s[y])))
    demand = atoms[0] & ~atoms[2]
    rows.append(LinearConstraint(demand, 0.1, "demand", "(t=0,{0}) & (t=2,{1})"))
    cs = ConstraintSet(space, rows)
    pre = presolve(cs)
    assert pre.live.tolist() == [0, 7] and len(pre.forcings) == 4
    # the LP sees the demand as 0 >= 0.1
    assert pre.rows[pre.owners.index(len(rows) - 1) + 1].tolist() == [0.0, 0.0]

    cert = feasibility(cs)
    assert not cert.feasible and not scipy_feasible(cs)
    assert_certificate(cs, cert.farkas)
    assert cert.farkas.margin == pytest.approx(0.1, abs=1e-12)
    # both typicality rows carry weight: each covers one trajectory of the demand
    assert cert.farkas.multipliers[6] > 0.0 and cert.farkas.multipliers[7] > 0.0


def test_contradictory_certain_events_leave_no_column():
    """``P(A) >= 1`` and ``P(A^c) >= 1`` fix every trajectory; the empty LP is
    infeasible and its certificate lifts to both rows."""
    space = TrajectorySpace(2, 2)
    a = parse_event("(t=1,{0})", space)
    cs = ConstraintSet(space, [LinearConstraint(a, 1.0, "demand", "a"),
                               LinearConstraint(~a, 1.0, "demand", "!a")])
    pre = presolve(cs)
    # both rows then equal normalization on no columns at all
    assert pre.live.size == 0 and pre.rows.shape == (1, 0) and pre.collapsed == [0, 1]
    cert = feasibility(cs)
    assert not cert.feasible
    assert_certificate(cs, cert.farkas)
    assert cert.farkas.margin == pytest.approx(1.0, abs=1e-12)


def certain_events_set():
    """``test_contradictory_certain_events_leave_no_column``'s set."""
    space = TrajectorySpace(2, 2)
    a = parse_event("(t=1,{0})", space)
    return ConstraintSet(space, [LinearConstraint(a, 1.0, "demand", "a"),
                                 LinearConstraint(~a, 1.0, "demand", "!a")])


FORCED = [(rung, seed, k) for rung in SHAPES[:2] + INFEASIBLE_SHAPES[1:]
          for seed, k in ((3, 0), (7, 1), (29, 2))]


@pytest.mark.parametrize("source", FORCED + ["certain"],
                         ids=lambda s: s if isinstance(s, str) else f"m{s[0].m}-n{s[0].n}-{s[1]}")
def test_collapsed_rows_lift_to_non_negative_multipliers(source, monkeypatch):
    """Every collapsed row's multiplier is at least 0 before ``_multipliers``
    rewrites the '==' rows, from the presolve's deduction and from phase 1's
    lifted Farkas duals alike, so ``_multipliers`` checks only kept rows."""
    if source == "certain":
        cs = certain_events_set()
    else:
        rung, seed, k = source
        cs = realize_doc(make_config(rung, seed, 0, k, infeasible=True))[2]
    pre = presolve(cs)
    assert pre.collapsed and pre.forcings
    seen = []
    spied = credal._multipliers

    def spy(pre_, y):
        seen.append(y[pre_.collapsed].copy())
        return spied(pre_, y)

    monkeypatch.setattr(credal, "_multipliers", spy)
    assert not feasibility(cs).feasible
    result = credal._solve(cs, np.zeros(cs.space.size))
    assert result.status == lp.INFEASIBLE
    cert, _ = credal._checked(cs, *credal._lift_farkas(cs, pre, result.farkas_duals))
    assert_certificate(cs, cert)
    assert len(seen) == 2
    assert all((y >= 0.0).all() for y in seen)
