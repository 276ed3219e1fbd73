import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from _seed_simplex import solve_lp as seed_solve_lp
from conftest import realize, seeded_config
from iqp import lp
from iqp.credal import sample_vertex_measures
from iqp.events import parse_event
from iqp.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    SimplexFailure,
    feasible_start,
    solve_lp,
)
from iqp.scenarios import BUILTIN_SCENARIOS


def scipy_reference(c, rows, rhs, senses, maximize=False):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, value, sense in zip(rows, rhs, senses):
        if sense == "==":
            a_eq.append(row)
            b_eq.append(value)
        elif sense == "<=":
            a_ub.append(row)
            b_ub.append(value)
        else:
            a_ub.append(-np.asarray(row))
            b_ub.append(-value)
    return linprog(
        -np.asarray(c) if maximize else c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, None)] * len(c),
        method="highs",
        options={"presolve": False},  # presolve mislabels some unbounded LPs
    )


def assert_identical(new, old):
    """Same status, bit-identical answers and equal per-phase pivot counts."""
    assert new.status == old.status
    for name in ("x", "farkas_duals"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name
    assert new.objective == old.objective
    counters = ("phase1_pivots", "phase2_pivots", "degenerate_pivots", "dropped_rows",
                "fixed_cols")
    assert [getattr(new, k) for k in counters] == [getattr(old, k) for k in counters]


def assert_matches_seed(objectives, rows, rhs, senses):
    """Every objective, minimized and maximized from one start, against the scalar oracle."""
    start = feasible_start(rows, rhs, senses)
    for c in objectives:
        for maximize in (False, True):
            old = seed_solve_lp(c, rows, rhs, senses, maximize=maximize)
            assert_identical(solve_lp(c, rows, rhs, senses, maximize=maximize, start=start), old)


class TestKnownCases:
    def test_simple_max(self):
        res = solve_lp(
            np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]), ["<="],
            maximize=True,
        )
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(1.0, abs=1e-12)

    def test_equality_and_bound(self):
        # marginal pin via the inequality pair: p0+p1 >= 0.5 and p2+p3 >= 0.5
        rows = np.array([
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
        ])
        rhs = np.array([1.0, 0.5, 0.5])
        senses = ["==", ">=", ">="]
        low = solve_lp(np.array([1.0, 0, 0, 0]), rows, rhs, senses)
        high = solve_lp(np.array([1.0, 0, 0, 0]), rows, rhs, senses, maximize=True)
        assert low.objective == pytest.approx(0.0, abs=1e-12)
        assert high.objective == pytest.approx(0.5, abs=1e-12)

    def test_infeasible_with_farkas(self):
        rows = np.array([[1, 1, 1, 1.0], [1, 1, 0, 0.0], [0, 0, 1, 1.0]])
        rhs = np.array([1.0, 0.8, 0.8])
        res = solve_lp(np.zeros(4), rows, rhs, ["==", ">=", ">="])
        assert res.status == INFEASIBLE
        y = res.farkas_duals
        assert y @ rhs == pytest.approx(0.6, abs=1e-9)
        assert np.all(y @ rows <= 1e-9)
        assert y[1] >= -1e-9 and y[2] >= -1e-9  # inequality rows: y >= 0

    def test_unbounded(self):
        res = solve_lp(np.array([-1.0]), np.array([[0.0]]), np.array([1.0]), ["<="])
        assert res.status == UNBOUNDED

    def test_negative_rhs_flip(self):
        # -x <= -2 means x >= 2
        res = solve_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]), ["<="])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_pin(self):
        rows = np.array([[1, 1, 1, 1.0], [1, 0, 0, 0.0], [0, 1, 1, 1.0]])
        rhs = np.array([1.0, 0.3, 0.7])
        low = solve_lp(np.array([1.0, 0, 0, 0]), rows, rhs, ["==", ">=", ">="])
        high = solve_lp(np.array([1.0, 0, 0, 0]), rows, rhs, ["==", ">=", ">="], maximize=True)
        assert low.objective == pytest.approx(0.3, abs=1e-12)
        assert high.objective == pytest.approx(0.3, abs=1e-12)

    def test_redundant_rows_survive(self):
        rows = np.array([[1.0, 1.0], [2.0, 2.0]])
        rhs = np.array([1.0, 2.0])
        res = solve_lp(np.array([1.0, 0.0]), rows, rhs, ["==", "=="])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_bad_sense(self):
        with pytest.raises(ValueError, match="sense"):
            solve_lp(np.zeros(1), np.array([[1.0]]), np.array([1.0]), [">"])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            solve_lp(np.zeros(2), np.array([[1.0]]), np.array([1.0]), ["<="])

    def test_pivot_cap_raises_failure(self):
        rows = np.array([[1, 1, 1, 1.0], [1, 1, 0, 0.0]])
        rhs = np.array([1.0, 0.5])
        with pytest.raises(SimplexFailure, match="pivot limit"):
            solve_lp(np.array([1.0, 0, 0, 0]), rows, rhs, ["==", ">="], pivot_cap=1)


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(5, 8))
        rhs = rng.normal(size=5)
        c = rng.normal(size=8)
        senses = ["<=", ">=", "==", "<=", ">="]
        first = solve_lp(c, rows, rhs, senses)
        second = solve_lp(c, rows, rhs, senses)
        assert first.status == second.status
        if first.status == OPTIMAL:
            assert first.x.tobytes() == second.x.tobytes()
        elif first.status == INFEASIBLE:
            assert first.farkas_duals.tobytes() == second.farkas_duals.tobytes()


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_mixed(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(80):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 7))
            rows = rng.normal(size=(m, n))
            rhs = rng.normal(size=m)
            senses = [["==", ">=", "<="][int(rng.integers(3))] for _ in range(m)]
            c = rng.normal(size=n)
            mine = solve_lp(c, rows, rhs, senses)
            assert_matches_seed([c], rows, rhs, senses)
            ref = scipy_reference(c, rows, rhs, senses)
            if ref.status == 0:
                assert mine.status == OPTIMAL
                assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
            elif ref.status == 2:
                assert mine.status == INFEASIBLE
                y = mine.farkas_duals
                assert y @ rhs > 1e-10
                assert np.all(y @ rows <= 1e-8)
            elif ref.status == 3:
                assert mine.status == UNBOUNDED

    def test_probability_polytopes(self):
        rng = np.random.default_rng(200)
        for _ in range(60):
            size = int(rng.integers(2, 17))
            n_cons = int(rng.integers(1, 6))
            rows = [np.ones(size)]
            rhs = [1.0]
            senses = ["=="]
            for _ in range(n_cons):
                mask = (rng.random(size) < 0.5).astype(float)
                rows.append(mask)
                rhs.append(float(rng.random()))
                senses.append(">=")
            c = rng.normal(size=size)
            mine = solve_lp(c, np.array(rows), np.array(rhs), senses)
            ref = scipy_reference(c, np.array(rows), np.array(rhs), senses)
            if ref.status == 0:
                assert mine.status == OPTIMAL
                assert mine.objective == pytest.approx(ref.fun, abs=1e-7)
                assert mine.x.min() >= -1e-9
            else:
                assert ref.status == 2
                assert mine.status == INFEASIBLE


class TestSeedEquivalence:
    """The vectorized, start-sharing solver makes the scalar solver's pivots."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_scenarios(self, name):
        cfg = BUILTIN_SCENARIOS[name]()
        space, cs = realize(cfg)
        rng = np.random.default_rng(7)
        objectives = [np.zeros(space.size)]
        objectives += [parse_event(e, space).bits.astype(float) for e in cfg.events]
        objectives += [rng.standard_normal(space.size) for _ in range(3)]
        assert_matches_seed(objectives, *cs.lp_rows())
        assert_matches_seed(objectives, *cs.presolved()[:3])  # '==' pins

    @pytest.mark.parametrize("m, n, kind, ruleset, chain", [
        (2, 8, "random", "born+qtr-min", True),
        (4, 4, "dft", "born+qtr", False),
    ])
    def test_seeded_n256(self, m, n, kind, ruleset, chain):
        space, cs = realize(seeded_config(m, n, kind, ruleset, chain, seed=[11, m, n]))
        assert space.size == 256
        rng = np.random.default_rng(5)
        event = (rng.random(space.size) < 0.3).astype(float)
        objectives = [np.zeros(space.size), event, rng.standard_normal(space.size)]
        assert_matches_seed(objectives, *cs.lp_rows())
        presolved = cs.presolved()[:3]
        # m=4: the four pins of each time sum to normalization, so rows drop
        assert (feasible_start(*presolved).dropped_rows > 0) == (m == 4)
        assert_matches_seed(objectives, *presolved)


class TestAntiCycling:
    """Beale's (1955) LP, which cycles under Dantzig pricing with this ratio tie rule."""

    C = np.array([-0.75, 20.0, -0.5, 6.0])
    ROWS = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    RHS = np.array([0.0, 0.0, 1.0])
    SENSES = ["<=", "<=", "<="]

    def test_pure_dantzig_cycles(self, monkeypatch):
        monkeypatch.setattr(lp, "STALL_CAP", 10**9)
        with pytest.raises(SimplexFailure, match="pivot limit"):
            solve_lp(self.C, self.ROWS, self.RHS, self.SENSES, pivot_cap=200)

    @pytest.mark.parametrize("cap", [lp.STALL_CAP, 2])
    def test_bland_fallback_terminates(self, monkeypatch, cap):
        monkeypatch.setattr(lp, "STALL_CAP", cap)
        res = solve_lp(self.C, self.ROWS, self.RHS, self.SENSES)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-1.25, abs=1e-12)
        assert res.degenerate_pivots >= cap

    def test_fallback_matches_seed(self, monkeypatch):
        """Under cap 2 both phases take the Bland branch, pivot for pivot with the oracle."""
        monkeypatch.setattr(lp, "STALL_CAP", 2)
        assert_matches_seed([self.C], self.ROWS, self.RHS, self.SENSES)
        # only '<=' rows: no phase 1, so every degenerate pivot is phase 2's
        assert solve_lp(self.C, self.ROWS, self.RHS, self.SENSES).degenerate_pivots > 2
        # mostly zero right-hand sides make phase 1 degenerate
        rng = np.random.default_rng(6)
        phase1_degenerate = 0
        for _ in range(30):
            rows = rng.integers(-2, 3, size=(6, 8)).astype(float)
            rhs = np.where(rng.random(6) < 0.6, 0.0, 1.0)
            senses = [["==", ">="][int(rng.integers(2))] for _ in range(6)]
            assert_matches_seed([rng.standard_normal(8)], rows, rhs, senses)
            phase1_degenerate += feasible_start(rows, rhs, senses).degenerate_pivots
        assert phase1_degenerate > 2 * 30


class TestStartReuse:
    ROWS = np.array([[1, 1, 1, 1.0], [1, 1, 0, 0.0], [0, 0, 1, 1.0], [1, 0, 1, 0.0]])
    RHS = np.array([1.0, 0.4, 0.3, 0.5])
    SENSES = ["==", ">=", ">=", "<="]

    def solve(self, c, **kwargs):
        return solve_lp(c, self.ROWS, self.RHS, self.SENSES, **kwargs)

    def start(self):
        return feasible_start(self.ROWS, self.RHS, self.SENSES)

    def test_started_equals_unstarted(self):
        """A solve from a passed start equals one whose phase 1 runs fresh."""
        start = self.start()
        for c in np.random.default_rng(3).normal(size=(6, 4)):
            for maximize in (False, True):
                fresh = self.solve(c, maximize=maximize)
                assert_identical(self.solve(c, maximize=maximize, start=start), fresh)

    def test_start_not_mutated(self):
        start = self.start()
        tab, basis = start.tab.tobytes(), start.basis
        c = np.array([0.3, -1.0, 0.5, 2.0])
        first = self.solve(c, start=start)
        second = self.solve(c, start=start)
        assert first.phase2_pivots > 0
        assert_identical(first, second)
        assert start.tab.tobytes() == tab and start.basis == basis

    def test_infeasible_start(self):
        rows, rhs = self.ROWS[:3], np.array([1.0, 0.8, 0.8])
        first = solve_lp(np.ones(4), rows, rhs, self.SENSES[:3])
        second = solve_lp(np.ones(4), rows, rhs, self.SENSES[:3], maximize=True)
        assert first.status == second.status == INFEASIBLE
        assert first.farkas_duals.tobytes() == second.farkas_duals.tobytes()
        first.farkas_duals[:] = 0.0
        assert second.farkas_duals @ rhs == pytest.approx(0.6, abs=1e-9)

    def test_pivot_cap_counts_phase1(self, phase1_calls):
        start = self.start()
        assert start.phase1_pivots >= 2
        with pytest.raises(SimplexFailure, match="pivot limit"):
            self.solve(np.zeros(4), pivot_cap=1, start=start)
        res = self.solve(np.zeros(4), pivot_cap=start.phase1_pivots, start=start)
        assert res.status == OPTIMAL and res.phase2_pivots == 0
        c = np.array([0.3, -1.0, 0.5, 2.0])
        needed = self.solve(c, start=start).phase2_pivots
        assert needed > 0
        with pytest.raises(SimplexFailure, match="pivot limit"):
            self.solve(c, pivot_cap=start.phase1_pivots + needed - 1, start=start)
        assert self.solve(c, pivot_cap=start.phase1_pivots + needed, start=start).status == OPTIMAL
        assert len(phase1_calls) == 1

    def test_redundant_rows_dropped_once(self, phase1_calls):
        rows, rhs = np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0])
        start = feasible_start(rows, rhs, ["==", "=="])
        assert start.dropped_rows == 1
        low = solve_lp(np.array([1.0, 0.0]), rows, rhs, ["==", "=="], start=start)
        high = solve_lp(np.array([1.0, 0.0]), rows, rhs, ["==", "=="], maximize=True,
                        start=start)
        assert (low.objective, high.objective) == (0.0, 1.0)
        assert low.dropped_rows == high.dropped_rows == 1
        assert len(phase1_calls) == 1

    def test_threads_share_one_start(self):
        _, cs = realize(BUILTIN_SCENARIOS["drifting-branch"]())
        rows, rhs, senses = cs.lp_rows()
        start = feasible_start(rows, rhs, senses)
        objectives = np.random.default_rng(4).standard_normal((32, rows.shape[1]))

        def solve(c):
            return solve_lp(c, rows, rhs, senses, start=start)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(pool.map(solve, objectives, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for c, res in zip(objectives, parallel):
            assert_identical(res, solve_lp(c, rows, rhs, senses))

    def test_vertex_samples_share_one_phase1(self, phase1_calls):
        space, cs = realize(BUILTIN_SCENARIOS["spreading-packet"]())
        measures = sample_vertex_measures(cs, 4, seed=9)
        assert phase1_calls == [cs.presolved().rows.shape] and len(measures) == 4


class TestStartMemo:
    """The shape of a start, and solves from one shared start."""

    ROWS = TestStartReuse.ROWS
    RHS = TestStartReuse.RHS
    SENSES = TestStartReuse.SENSES

    def test_artificial_columns_trimmed(self):
        # 4 variables, 3 surplus/slack and 3 artificial columns, then the rhs
        start = feasible_start(self.ROWS, self.RHS, self.SENSES)
        assert start.n_cols == 10
        assert start.tab.shape == (len(self.SENSES) + 1, 7 + 1)
        assert max(start.basis) < 7

    def test_memoized_infeasible_farkas_independent(self, phase1_calls):
        rows, rhs, senses = self.ROWS[:3], np.array([1.0, 0.8, 0.8]), self.SENSES[:3]
        start = feasible_start(rows, rhs, senses)
        first = solve_lp(np.zeros(4), rows, rhs, senses, start=start)
        second = solve_lp(np.zeros(4), rows, rhs, senses, start=start)
        assert len(phase1_calls) == 1
        assert first.farkas_duals.tobytes() == second.farkas_duals.tobytes()
        first.farkas_duals[:] = 0.0
        assert second.farkas_duals @ rhs == pytest.approx(0.6, abs=1e-9)


def assert_sound_against_highs(rows, rhs, senses, objectives):
    """Fixed columns are zero at HiGHS's maximum; optima agree with HiGHS within 1e-9.

    Each fixed column is a trajectory ``x_j`` or the surplus ``A_i.x - b_i`` of
    a ``>=`` row ``i`` (no right side is negative, so no row is flipped).  Every
    one is non-negative on the polytope, so a zero maximum of their sum fixes
    each.  Returns the fixed columns' original indices.
    """
    n_vars = rows.shape[1]
    surplus_rows = [i for i, sense in enumerate(senses) if sense != "=="]
    assert all(senses[i] == ">=" for i in surplus_rows) and (rhs >= 0).all()
    start = feasible_start(rows, rhs, senses)
    fixed = np.setdiff1d(np.arange(n_vars + len(surplus_rows)), start.cols)
    assert fixed.size == start.fixed_cols
    if fixed.size:
        c, offset = np.zeros(n_vars), 0.0
        for j in fixed.tolist():
            if j < n_vars:
                c[j] += 1.0
            else:
                c += rows[surplus_rows[j - n_vars]]
                offset += rhs[surplus_rows[j - n_vars]]
        ref = scipy_reference(c, rows, rhs, senses, maximize=True)
        assert ref.status == 0 and -ref.fun - offset <= 1e-9
    for obj in objectives:
        for maximize in (False, True):
            mine = solve_lp(obj, rows, rhs, senses, maximize=maximize, start=start)
            ref = scipy_reference(obj, rows, rhs, senses, maximize=maximize)
            assert mine.status == OPTIMAL and ref.status == 0
            assert mine.objective == pytest.approx(-ref.fun if maximize else ref.fun, abs=1e-9)
    return fixed


class TestFixedColumns:
    """Phase 1 drops the columns it proves zero, and phase 2 never prices them."""

    DFT = seeded_config(4, 4, "dft", "born+qtr", False, seed=[11, 4, 4])
    CHAIN = seeded_config(2, 8, "random", "born+qtr-min", True, seed=[11, 2, 8])

    @staticmethod
    def untrimmed(monkeypatch, rows, rhs, senses):
        """The start of a feasible set when no column counts as fixed."""
        with monkeypatch.context() as patch:
            patch.setattr(lp, "FEASIBILITY_TOL", np.inf)
            return feasible_start(rows, rhs, senses)

    def test_nothing_fixed_keeps_the_untrimmed_start(self, monkeypatch):
        _, cs = realize(self.CHAIN)
        rows, rhs, senses = cs.presolved()[:3]
        start = feasible_start(rows, rhs, senses)
        full = self.untrimmed(monkeypatch, rows, rhs, senses)
        assert start.fixed_cols == 0
        assert start.tab.tobytes() == full.tab.tobytes()
        assert start.basis == full.basis
        assert start.cols.tolist() == list(range(start.tab.shape[1] - 1))

    def test_kept_columns_keep_their_bits(self, monkeypatch):
        _, cs = realize(self.DFT)
        for rows, rhs, senses in (cs.presolved()[:3], cs.lp_rows()):
            start = feasible_start(rows, rhs, senses)
            full = self.untrimmed(monkeypatch, rows, rhs, senses)
            assert start.fixed_cols > 0 and full.fixed_cols == 0
            assert start.tab[:, :-1].tobytes() == full.tab[:, start.cols].tobytes()
            assert start.tab[:, -1].tobytes() == full.tab[:, -1].tobytes()
            assert start.cols[list(start.basis)].tolist() == list(full.basis)

    @pytest.mark.parametrize("name, fixes", [("DFT", True), ("CHAIN", False)])
    def test_start_owns_only_its_tableau(self, name, fixes):
        """A start that outlives its phase 1 keeps no larger buffer alive."""
        _, cs = realize(getattr(self, name))
        start = feasible_start(*cs.presolved()[:3])
        assert (start.fixed_cols > 0) == fixes
        owner = start.tab
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        assert owner.nbytes == start.tab.nbytes

    def test_sound_against_highs(self):
        space, cs = realize(self.DFT)
        rng = np.random.default_rng(8)
        events = [(rng.random(space.size) < rng.uniform(0.1, 0.6)).astype(float)
                  for _ in range(10)]
        presolved = assert_sound_against_highs(*cs.presolved()[:3], events)
        full = assert_sound_against_highs(*cs.lp_rows(), events)
        # both fix the trajectories that jump between packets; the full rows
        # also fix the surplus of each Born pin pair, P(A) >= w and P(A^c) >= 1 - w
        n_vars = space.size
        assert (presolved < n_vars).sum() == (full < n_vars).sum() > 0
        assert (full >= n_vars).sum() > (presolved >= n_vars).sum()


MAX_N = {2: 5, 3: 4, 4: 3}  # at most 81 trajectories


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(m=st.sampled_from(sorted(MAX_N)), data=st.data(),
       ruleset=st.sampled_from(["born", "born+qtr", "born+qtr-min"]), chain=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_degenerate_dft_vertices(m, data, ruleset, chain, seed):
    """DFT steps make many weights equal: degenerate vertices with many ties.

    The oracle must make the same pivots, the columns phase 1 fixes must be
    zero at HiGHS's maximum, and the bounds must match HiGHS within 1e-9.
    """
    n = data.draw(st.integers(2, MAX_N[m]), label="n")
    space, cs = realize(seeded_config(m, n, "dft", ruleset, chain, seed))
    rng = np.random.default_rng(seed)
    events = [(rng.random(space.size) < 0.4).astype(float) for _ in range(2)]
    for rows, rhs, senses in (cs.presolved()[:3], cs.lp_rows()):
        assert_matches_seed(events, rows, rhs, senses)
        assert_sound_against_highs(rows, rhs, senses, events)
