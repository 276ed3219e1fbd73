"""Differential checks of the presolved LP against scipy on the full rows.

``credal.presolve`` keeps one row per distinct event and turns each
complementary pin into one '==' row; feasibility, bounds and vertex samples
solve those rows.  Every answer here is compared with conftest's HiGHS
oracles, which read each constraint as its own '>=' row, and witnesses and
lifted Farkas certificates are summed directly over ``lp_rows()``.  Systems
are seeded random unitaries (QR of a complex Gaussian); the hypothesis
profile is derandomized, so every run draws the same bounded set of examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import realize, scipy_bounds, scipy_feasible, seeded_config
from iqp.credal import (
    FARKAS_MARGIN,
    VACUOUS_RHS,
    ConstraintSet,
    LinearConstraint,
    feasibility,
    lower_bound_constraints,
    lower_upper,
    merge_constraint_sets,
    presolve,
    sample_vertex_measures,
    verify_farkas,
)
from iqp.events import Event, TrajectorySpace, parse_event, sset_event
from iqp.scenarios import singleton_family
from iqp.system import Region, SSet

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60)
BOUND_TOL = 1e-7
ROW_TOL = 1e-9
MAX_N = {2: 6, 3: 4, 4: 3}  # at most 81 trajectories


def row_violation(cs, probs) -> float:
    """Worst violation of the simplex, normalization and every '>=' row of ``lp_rows``."""
    rows, rhs, _ = cs.lp_rows()
    x = np.asarray(probs, dtype=float)
    worst = max(abs(float(x.sum()) - 1.0), -float(x.min(initial=0.0)))
    return max(worst, float(np.max(rhs[1:] - rows[1:] @ x, initial=0.0)))


def pinned_weight(pre, bits):
    """``P(event)`` under the presolve's '==' rows, or ``None`` when none pins it."""
    row = bits.astype(float)
    for k, sense in enumerate(pre.senses[1:], start=1):
        if sense == "==" and np.array_equal(pre.rows[k], row):
            return pre.rhs[k]
        if sense == "==" and np.array_equal(pre.rows[k], 1.0 - row):
            return 1.0 - pre.rhs[k]
    return None


def assert_presolve_keeps_rows(cs):
    """Each kept row is its owner's row of ``lp_rows`` on the live columns, and
    an '==' row pins an event whose complement's bound sums with it to 1.
    Every distinct event is kept, paired, collapsed on the live columns, or
    dropped because the pins imply its largest bound: by Frechet, or by the
    kept '>=' row on the complements of its two ssets."""
    rows, rhs, senses = cs.lp_rows()
    pre = presolve(cs)
    assert len(pre.senses) == len(pre.rows) == len(pre.rhs) == 1 + len(pre.owners)
    assert pre.rows[0].tobytes() == rows[0][pre.live].tobytes() and pre.senses[0] == "=="
    events = set()
    for k, (owner, partner) in enumerate(zip(pre.owners, pre.partners), start=1):
        assert pre.rows[k].tobytes() == rows[1 + owner][pre.live].tobytes()
        assert pre.rhs[k] == rhs[1 + owner]
        bits = cs.constraints[owner].event.bits
        assert cs.constraints[owner].rhs == max(
            con.rhs for con in cs.constraints if np.array_equal(con.event.bits, bits))
        events.add(bits.tobytes())
        if partner >= 0:
            assert pre.senses[k] == "=="
            assert np.array_equal(cs.constraints[partner].event.bits, ~bits)
            assert abs(rhs[1 + owner] + rhs[1 + partner] - 1.0) <= VACUOUS_RHS
        else:
            assert pre.senses[k] == ">="
    distinct = {con.event.bits.tobytes() for con in cs.constraints}
    paired = {cs.constraints[j].event.bits.tobytes() for j in pre.partners if j >= 0}
    assert events | paired <= distinct and not events & paired
    collapsed = {cs.constraints[i].event.bits.tobytes() for i in pre.collapsed}
    assert collapsed <= distinct - events - paired
    dropped = distinct - events - paired - collapsed
    assert len(dropped) == pre.implied
    kept_bounds = {pre.rows[k].tobytes(): pre.rhs[k]
                   for k, sense in enumerate(pre.senses) if sense == ">="}
    for key in dropped:
        first = max((i for i, con in enumerate(cs.constraints)
                     if con.event.bits.tobytes() == key), key=lambda i: rhs[1 + i])
        s1, s2 = cs.constraints[first].origin
        a, b = sset_event(cs.space, s1).bits, sset_event(cs.space, s2).bits
        assert (a & b).tobytes() == key
        shift = pinned_weight(pre, a) + pinned_weight(pre, b) - 1.0
        parallel = kept_bounds.get((~a & ~b).astype(float).tobytes(), -np.inf)
        # rule 1, or rule 2 up to the rounding of the other row's orientation
        assert rhs[1 + first] <= max(shift, parallel + shift + 1e-15)


def assert_farkas_verifies(cs, cert):
    """The lifted certificate proves the full rows empty, by direct sums."""
    rows, rhs, _ = cs.lp_rows()
    mult = cert.multipliers
    assert mult.shape == (len(cs),) and np.all(mult >= 0.0)
    y = np.concatenate([[cert.normalization], mult])
    assert float((y @ rows).max()) <= ROW_TOL
    assert float(y @ rhs) >= FARKAS_MARGIN
    slack, margin = verify_farkas(cs, cert)
    assert slack <= ROW_TOL and margin == pytest.approx(cert.margin, abs=1e-12)


def with_demand(cs, atoms, rng, kind):
    """``cs`` plus one demand the oracle says keeps it feasible or makes it empty."""
    if kind == "none":
        return cs
    atom = atoms[int(rng.integers(len(atoms)))]
    candidates = [atom, ~atom, Event(rng.random(len(atom)) < 0.5)]
    bounds = [(event, *scipy_bounds(cs, event)) for event in candidates if not event.is_empty]
    if kind == "feasible":
        event, low, high = bounds[int(rng.integers(len(bounds)))]
        rhs = low + rng.uniform(0.0, 1.0) * (high - low)
    else:
        event, low, high = min(bounds, key=lambda b: b[2])
        assert high < 1.0 - 1e-6  # a Born-pinned atom or complement always qualifies
        rhs = high + rng.uniform(0.05, 1.0) * (1.0 - high)
    return merge_constraint_sets([cs, lower_bound_constraints(cs.space, [(event, rhs, kind)])])


@st.composite
def cases(draw):
    m = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, MAX_N[m]))
    ruleset = draw(st.sampled_from(["born", "born+qtr", "born+qtr-min"]))
    chain = draw(st.booleans())
    demand = draw(st.sampled_from(["none", "feasible", "infeasible"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return m, n, ruleset, chain, demand, seed


@PROFILE
@given(cases())
def test_presolved_queries_match_scipy(case):
    m, n, ruleset, chain, demand, seed = case
    cfg = seeded_config(m, n, "random", ruleset, chain, seed)
    space, cs = realize(cfg)
    atoms = [sset_event(space, s) for s in singleton_family(cfg.system)]
    rng = np.random.default_rng(seed)
    cs = with_demand(cs, atoms, rng, demand)
    assert_presolve_keeps_rows(cs)

    cert = feasibility(cs)
    assert cert.feasible == scipy_feasible(cs) == (demand != "infeasible")
    events = [atoms[0], atoms[-1], Event(rng.random(space.size) < 0.4)]
    if not cert.feasible:
        assert_farkas_verifies(cs, cert.farkas)
        assert all(lower_upper(cs, a).status == "infeasible" for a in events)
        return

    assert row_violation(cs, cert.witness.probs) <= ROW_TOL
    for a in events:
        res = lower_upper(cs, a)
        low, high = scipy_bounds(cs, a)
        assert res.lower == pytest.approx(low, abs=BOUND_TOL)
        assert res.upper == pytest.approx(high, abs=BOUND_TOL)
        for value, measure in ((res.lower, res.argmin), (res.upper, res.argmax)):
            assert row_violation(cs, measure.probs) <= ROW_TOL
            assert measure.probability(a) == pytest.approx(value, abs=ROW_TOL)

    rows, rhs, _ = cs.lp_rows()
    objectives = np.random.default_rng(seed + 1).standard_normal((2, space.size))
    samples = sample_vertex_measures(cs, 2, seed + 1)
    for c, measure in zip(objectives, samples):
        assert row_violation(cs, measure.probs) <= ROW_TOL
        best = linprog(c, A_eq=rows[:1], b_eq=rhs[:1], A_ub=-rows[1:], b_ub=-rhs[1:],
                       bounds=(0, None), method="highs")
        assert float(c @ measure.probs) == pytest.approx(best.fun, abs=BOUND_TOL)


class TestPairTolerance:
    """Only a pair whose bounds sum to 1 within VACUOUS_RHS becomes one '==' row."""

    @staticmethod
    def pair(bound_a, bound_not_a):
        space = TrajectorySpace(2, 2)
        a = parse_event("(t=1,{0})", space)
        return a, lower_bound_constraints(space, [(a, bound_a, "a"), (~a, bound_not_a, "!a")])

    def test_over_pinned_stays_infeasible(self):
        _, cs = self.pair(0.5 + 1e-6, 0.5)
        assert presolve(cs).senses == ["==", ">=", ">="]
        cert = feasibility(cs)
        assert not cert.feasible and not scipy_feasible(cs)
        assert cert.farkas.margin == pytest.approx(1e-6, abs=1e-12)
        assert_farkas_verifies(cs, cert.farkas)

    def test_band_stays_a_band(self):
        a, cs = self.pair(0.5 - 1e-6, 0.5)
        assert presolve(cs).senses == ["==", ">=", ">="]
        res = lower_upper(cs, a)
        assert (res.lower, res.upper) == pytest.approx((0.5 - 1e-6, 0.5), abs=1e-12)

    @pytest.mark.parametrize("dust", [-VACUOUS_RHS, 0.0, VACUOUS_RHS / 2])
    def test_pin_within_dust_is_one_row(self, dust):
        a, cs = self.pair(0.25 + dust, 0.75)
        pre = presolve(cs)
        assert (pre.senses, pre.owners, pre.partners) == (["==", "=="], [0], [1])
        assert feasibility(cs).feasible
        res = lower_upper(cs, a)
        assert (res.lower, res.upper) == pytest.approx((0.25, 0.25), abs=1e-11)

    def test_duplicate_events_keep_largest_first_on_ties(self):
        space = TrajectorySpace(2, 2)
        a = parse_event("(t=1,{0})", space)
        cs = lower_bound_constraints(space, [(a, 0.2, "a"), (a, 0.4, "a2"), (a, 0.4, "a3"),
                                             (Event.all(space), 0.5, "all")])
        pre = presolve(cs)
        assert (pre.senses, pre.owners, pre.partners) == (["==", ">=", ">="], [1, 3], [-1, -1])


class TestImpliedRows:
    """A pair row is dropped exactly when the Born pins imply it, and the
    answers and certificates stay those of the full rows."""

    SPACE = TrajectorySpace(2, 2)
    A = SSet(0, Region.from_labels([0], 2))
    B = SSet(1, Region.from_labels([0], 2))

    @classmethod
    def pins(cls, wa, wb):
        """Born rows pinning ``P(A) = wa`` and ``P(B) = wb`` (constraints 0-3)."""
        return [LinearConstraint(sset_event(cls.SPACE, target), rhs, "born", target.text(), (s,))
                for s, w in ((cls.A, wa), (cls.B, wb))
                for target, rhs in ((s, w), (s.complement(), 1.0 - w))]

    @classmethod
    def pair(cls, complements, rhs):
        """The typicality row on ``(A, B)``, or on ``(A^c, B^c)``."""
        s1, s2 = (cls.A.complement(), cls.B.complement()) if complements else (cls.A, cls.B)
        event = sset_event(cls.SPACE, s1) & sset_event(cls.SPACE, s2)
        return LinearConstraint(event, rhs, "qtr", f"({s1.text()} & {s2.text()})", (s1, s2))

    def assert_bounds_match_scipy(self, cs):
        for s1, s2 in ((self.A, self.B), (self.A.complement(), self.B.complement())):
            event = sset_event(self.SPACE, s1) & sset_event(self.SPACE, s2)
            res = lower_upper(cs, event)
            assert (res.lower, res.upper) == pytest.approx(scipy_bounds(cs, event), abs=1e-12)

    @pytest.mark.parametrize("ulps, implied", [(0, 1), (1, 0)])
    def test_frechet_boundary(self, ulps, implied):
        floor = 0.7 + 0.6 - 1.0  # P(A & B) >= P(A) + P(B) - 1 under the pins
        bound = floor if ulps == 0 else np.nextafter(floor, 1.0)
        cs = ConstraintSet(self.SPACE, self.pins(0.7, 0.6) + [self.pair(False, bound)])
        pre = presolve(cs)
        assert (pre.implied, pre.owners) == (implied, [0, 2, 4][: 3 - implied])
        assert_presolve_keeps_rows(cs)
        self.assert_bounds_match_scipy(cs)

    @pytest.mark.parametrize("complements_first", [False, True])
    def test_parallel_tie_keeps_first(self, complements_first):
        # with both pins at 1/2 the two rows bound one quantity with no shift
        pairs = [self.pair(complements_first, 0.3), self.pair(not complements_first, 0.3)]
        cs = ConstraintSet(self.SPACE, self.pins(0.5, 0.5) + pairs)
        pre = presolve(cs)
        assert (pre.implied, pre.owners, pre.partners) == (1, [0, 2, 4], [1, 3, -1])
        assert_presolve_keeps_rows(cs)
        self.assert_bounds_match_scipy(cs)

    @pytest.mark.parametrize("complements_first", [False, True])
    def test_parallel_keeps_stronger(self, complements_first):
        # P(A^c & B^c) >= 0.1 reads P(A & B) >= 0.1 + 0.7 + 0.6 - 1 = 0.4 > 0.35
        pairs = {False: self.pair(False, 0.35), True: self.pair(True, 0.1)}
        cs = ConstraintSet(self.SPACE, self.pins(0.7, 0.6) + [
            pairs[complements_first], pairs[not complements_first]])
        pre = presolve(cs)
        assert (pre.implied, pre.owners) == (1, [0, 2, 4 if complements_first else 5])
        assert_presolve_keeps_rows(cs)
        self.assert_bounds_match_scipy(cs)

    def test_infeasible_demand_certificate_skips_dropped_row(self):
        # P(A^c & B^c) >= 0.2 is dropped: the pins turn P(A & B) >= 0.3 into
        # P(A^c & B^c) >= 0.3, and only that bound contradicts P(A^c & B) >= 0.3
        demand = sset_event(self.SPACE, self.A.complement()) & sset_event(self.SPACE, self.B)
        cs = ConstraintSet(self.SPACE, self.pins(0.5, 0.5) + [
            self.pair(False, 0.3), self.pair(True, 0.2),
            LinearConstraint(demand, 0.3, "demand", "(!(t=0,{0}) & (t=1,{0}))")])
        pre = presolve(cs)
        assert (pre.implied, pre.owners) == (1, [0, 2, 4, 6])
        cert = feasibility(cs)
        assert not cert.feasible and not scipy_feasible(cs)
        assert cert.farkas.multipliers[5] == 0.0
        assert cert.farkas.margin == pytest.approx(0.1, abs=1e-12)
        assert_farkas_verifies(cs, cert.farkas)
