import ast
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from _seed_simplex import leaving_row, solve_lp_revised
from conftest import realize, seeded_config
from iqp import credal, lp
from iqp.credal import (
    lower_bound_constraints,
    lower_upper,
    merge_constraint_sets,
    presolve,
    sample_vertex_measures,
)
from iqp.events import Event, parse_event
from iqp.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    SimplexFailure,
    feasible_start,
    solve_lp,
)
from iqp.scenarios import BUILTIN_SCENARIOS, parse_config

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, VERDICTS, Rung, make_config  # noqa: E402


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
    counters = ("phase1_pivots", "phase2_pivots", "degenerate_pivots", "dropped_rows")
    assert [getattr(new, k) for k in counters] == [getattr(old, k) for k in counters]


def assert_matches_seed(objectives, rows, rhs, senses):
    """Every objective, minimized and maximized from one start, against the scalar oracle."""
    start = feasible_start(rows, rhs, senses)
    for c in objectives:
        for maximize in (False, True):
            old = solve_lp_revised(c, rows, rhs, senses, maximize=maximize)
            assert_identical(solve_lp(c, rows, rhs, senses, maximize=maximize, start=start), old)


# structural columns per row of the wide test LPs; a random chain's presolved
# set has 16 rows over 2,048 trajectories
WIDE = 64


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

    def test_pivot_cap_raises_failure(self, monkeypatch):
        rows = np.array([[1, 1, 1, 1.0], [1, 1, 0, 0.0]])
        rhs = np.array([1.0, 0.5])
        monkeypatch.setattr(lp, "_budget", lambda n_rows, n_cols: 1)
        with pytest.raises(SimplexFailure, match="pivot limit 1 exceeded"):
            solve_lp(np.array([1.0, 0, 0, 0]), rows, rhs, ["==", ">="])


def small_lp(wide):
    """A feasible 2-row LP, or the same LP padded with zero columns to
    ``WIDE`` columns per row."""
    rows = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    if wide:
        rows = np.hstack([rows, np.zeros((2, 2 * WIDE - 3))])
    c = np.zeros(rows.shape[1])
    c[:3] = [1.0, 2.0, 3.0]
    return c, rows, np.array([1.0, 0.5]), ["==", ">="]


class TestNonFiniteInput:
    """A NaN or an infinity in the rows, the right sides or the objective is
    refused with a ValueError on a narrow and a wide LP, before any pivot."""

    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    def test_finite_lp_solves(self, wide):
        c, rows, rhs, senses = small_lp(wide)
        assert feasible_start(rows, rhs, senses).inverse.shape == (2, 3)
        assert solve_lp(c, rows, rhs, senses).objective == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["rows", "rhs"])
    def test_constraints(self, where, value, wide):
        c, rows, rhs, senses = small_lp(wide)
        if where == "rows":
            rows[1, 1] = value
        else:
            rhs[1] = value
        with pytest.raises(ValueError, match="rows and rhs must be finite"):
            feasible_start(rows, rhs, senses)
        with pytest.raises(ValueError, match="rows and rhs must be finite"):
            solve_lp(c, rows, rhs, senses)

    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_objective(self, value, wide):
        c, rows, rhs, senses = small_lp(wide)
        start = feasible_start(rows, rhs, senses)
        c[1] = value
        for given in (None, start):
            with pytest.raises(ValueError, match="objective must be finite"):
                solve_lp(c, rows, rhs, senses, start=given)


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
        pre = presolve(cs)  # '==' pins, over the columns the presolve leaves live
        assert_matches_seed([c[pre.live] for c in objectives], *pre[:3])

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
        pre = presolve(cs)
        # m=4: the four pins of each time sum to normalization, so rows drop
        assert (feasible_start(*pre[:3]).dropped_rows > 0) == (m == 4)
        assert_matches_seed([c[pre.live] for c in objectives], *pre[:3])


class TestAntiCycling:
    """Beale's (1955) LP, which cycles under Dantzig pricing with this ratio tie rule."""

    C = np.array([-0.75, 20.0, -0.5, 6.0])
    ROWS = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    RHS = np.array([0.0, 0.0, 1.0])
    SENSES = ["<=", "<=", "<="]

    def test_pure_dantzig_cycles(self, monkeypatch):
        monkeypatch.setattr(lp, "STALL_CAP", 10**9)
        with pytest.raises(SimplexFailure, match="pivot limit"):
            solve_lp(self.C, self.ROWS, self.RHS, self.SENSES)

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


class _Pivoted(Exception):
    pass


class TestRatioTest:
    """Bland's leaving rule: of the rows whose ratio is at most the least plus
    PIVOT_TOL, the one of smallest basic index leaves, as in the oracle's
    ``leaving_row``."""

    @staticmethod
    def leaving(rhs, col, basis):
        """The first pivot row of ``run_phase`` with ``col`` entering, or UNBOUNDED.

        The state has one column, the unit vector of row 0 at cost -1.  With
        the multipliers set to zero and ``col`` written into B^-1's column 0,
        that column prices at -1 and enters as ``col``; ``rhs`` is written
        into x_B and ``basis`` into the basis."""
        n = len(rhs)
        inverse = np.hstack([np.eye(n), np.zeros((n, 1))])
        rows = np.zeros((n, 1))
        rows[0, 0] = 1.0
        state = lp._Simplex(rows, inverse, np.zeros(n, dtype=int), 0, 10, np.array([-1.0]))
        state.table[:n, 0], state.table[:n, n], state.table[n] = col, rhs, 0.0
        state.basis[:] = basis
        rows = []

        def pivot(row, col):
            rows.append(row)
            raise _Pivoted

        state.pivot = pivot
        try:
            return state.run_phase()
        except _Pivoted:
            return rows[0]

    @staticmethod
    def oracle(rhs, col, basis):
        """The leaving row of ``_seed_simplex``, or UNBOUNDED."""
        leaving = leaving_row(rhs, col, basis)[0]
        return leaving if leaving >= 0 else UNBOUNDED

    def test_non_transitive_tie(self):
        # 0 ties 0.6e-10 and 0.6e-10 ties 1.2e-10, but 0 does not tie 1.2e-10:
        # the window starts at the least ratio, so it holds rows 0 and 1, and
        # row 1 has the smaller basic index
        rhs, col, basis = [0.0, 0.6e-10, 1.2e-10], [1.0, 1.0, 1.0], [5, 1, 0]
        assert self.leaving(rhs, col, basis) == self.oracle(rhs, col, basis) == 1
        assert int(np.argmin(rhs)) == 0

    def test_matches_scalar_rule(self):
        """Planted ties at the edge of PIVOT_TOL, also where it is below one ulp."""
        big = 1e6
        values = [0.0, -0.1, 0.4e-10, 0.6e-10, 1e-10, 1.2e-10, 2e-10, 0.3, 0.3 + 1e-10,
                  big, np.nextafter(big, np.inf), big + 2e-10, big + 3e-10]
        cols = [1.0, 1.0, 1.0, 2.0, 0.5, 1e-10, 0.0, -1.0]
        rng = np.random.default_rng(12)
        tied = 0
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            rhs = rng.choice(values, n)
            col = rng.choice(cols, n)
            basis = rng.permutation(10)[:n].tolist()
            want = self.oracle(rhs, col, basis)
            assert self.leaving(rhs, col, basis) == want
            tied += want != UNBOUNDED and want != int(np.argmin(
                np.where(col > lp.PIVOT_TOL, np.maximum(rhs, 0.0) / np.where(col > 0, col, 1.0),
                         np.inf)))
        assert tied > 0  # some ties pick another row than the least ratio

    @pytest.mark.parametrize("rhs, col, basis, want", [
        ([np.nan, 0.5], [1.0, 1.0], [0, 1], 1),  # argmin would take the NaN
        ([0.0, np.nan, 0.5e-10], [1.0, 1.0, 1.0], [3, 0, 1], 2),  # nor joins a tie
        ([np.nan, np.nan], [1.0, 1.0], [0, 1], UNBOUNDED),
        ([np.nan, 0.3], [1.0, 0.0], [1, 0], UNBOUNDED),
        ([0.3, 0.2], [-1.0, np.nan], [0, 1], UNBOUNDED),  # a NaN column entry is ineligible
    ])
    def test_nan_never_leaves(self, rhs, col, basis, want):
        assert self.leaving(rhs, col, basis) == self.oracle(rhs, col, basis) == want


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
        arrays = (start.inverse, start.rows)
        assert not any(arr.flags.writeable for arr in arrays)
        saved, basis = [arr.tobytes() for arr in arrays], start.basis
        c = np.array([0.3, -1.0, 0.5, 2.0])
        first = self.solve(c, start=start)
        second = self.solve(c, start=start)
        assert first.phase2_pivots > 0
        assert_identical(first, second)
        assert [arr.tobytes() for arr in arrays] == saved and start.basis == basis

    def test_infeasible_start(self):
        rows, rhs = self.ROWS[:3], np.array([1.0, 0.8, 0.8])
        first = solve_lp(np.ones(4), rows, rhs, self.SENSES[:3])
        second = solve_lp(np.ones(4), rows, rhs, self.SENSES[:3], maximize=True)
        assert first.status == second.status == INFEASIBLE
        assert first.farkas_duals.tobytes() == second.farkas_duals.tobytes()
        first.farkas_duals[:] = 0.0
        assert second.farkas_duals @ rhs == pytest.approx(0.6, abs=1e-9)

    def test_pivot_cap_counts_phase1(self, phase1_calls, monkeypatch):
        """The budget of a solve from a start covers the start's phase-1 pivots too."""
        start = self.start()
        assert start.phase1_pivots >= 2
        c = np.array([0.3, -1.0, 0.5, 2.0])
        needed = self.solve(c, start=start).phase2_pivots
        assert needed > 0

        def budget(pivots):
            monkeypatch.setattr(lp, "_budget", lambda n_rows, n_cols: pivots)

        budget(start.phase1_pivots)
        res = self.solve(np.zeros(4), start=start)
        assert res.status == OPTIMAL and res.phase2_pivots == 0
        budget(start.phase1_pivots + needed - 1)
        with pytest.raises(SimplexFailure, match="pivot limit"):
            self.solve(c, start=start)
        budget(start.phase1_pivots + needed)
        assert self.solve(c, start=start).status == OPTIMAL
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
        assert phase1_calls == [presolve(cs).rows.shape] and len(measures) == 4


class TestStartMemo:
    """The shape of a start, and solves from one shared start."""

    ROWS = TestStartReuse.ROWS
    RHS = TestStartReuse.RHS
    SENSES = TestStartReuse.SENSES

    def test_artificial_columns_trimmed(self):
        # 4 variables, 3 surplus/slack and 3 artificial columns; the start
        # keeps the 4 rows over the 4 variables and the 3 slack columns, the
        # 4 x 4 inverse with x_B beside it, and no basic artificial
        start = feasible_start(self.ROWS, self.RHS, self.SENSES)
        assert start.n_cols == 10
        assert start.rows.shape == (4, 7)
        slacks = start.rows[:, 4:]
        assert np.count_nonzero(slacks) == 3
        assert (np.count_nonzero(slacks, axis=0) == 1).all()  # unit vectors, up to sign
        assert set(np.abs(slacks[slacks != 0.0]).tolist()) == {1.0}
        assert start.inverse.shape == (len(self.SENSES), len(self.SENSES) + 1)
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


def assert_agrees_with_highs(rows, rhs, senses, objectives):
    """Each objective's minimum and maximum, from one start, match HiGHS within 1e-9."""
    start = feasible_start(rows, rhs, senses)
    for obj in objectives:
        for maximize in (False, True):
            mine = solve_lp(obj, rows, rhs, senses, maximize=maximize, start=start)
            ref = scipy_reference(obj, rows, rhs, senses, maximize=maximize)
            assert mine.status == OPTIMAL and ref.status == 0
            assert mine.objective == pytest.approx(-ref.fun if maximize else ref.fun, abs=1e-9)


class TestFixedColumns:
    """Sets with columns that every feasible point holds at zero.

    The presolve's forcing rows fix the DFT set's trajectories that jump
    between packets, so ``DFT`` carries one more demand, at its event's
    maximum, whose columns are zero on the polytope but still live.  Phase 2
    prices them like any other column.
    """

    CHAIN = seeded_config(2, 8, "random", "born+qtr-min", True, seed=[11, 2, 8])

    @staticmethod
    def realize(name):
        if name == "CHAIN":
            return realize(TestFixedColumns.CHAIN)
        space, cs = realize(seeded_config(4, 4, "dft", "born+qtr", False, seed=[11, 4, 4]))
        a = Event(np.random.default_rng(5).random(space.size) < 0.3)
        tight = lower_bound_constraints(space, [(a, lower_upper(cs, a).upper, "a")])
        return space, merge_constraint_sets([cs, tight])

    @pytest.mark.parametrize("name, fixes", [("DFT", True), ("CHAIN", False)])
    def test_start_owns_only_its_inverse(self, name, fixes):
        """A start keeps every structural and slack column, and no larger
        buffer alive than its k x (k + 1) inverse and its own k x (n + s)
        rows, s the slack columns."""
        space, cs = self.realize(name)
        pre = presolve(cs)
        rows, rhs, senses = pre[:3]
        assert (pre.live.size < space.size) == fixes  # the forcing rows fixed columns
        start = feasible_start(rows, rhs, senses)
        k = len(start.basis)
        n_slacks = sum(sense != "==" for sense in senses)
        assert start.rows.shape == (k, rows.shape[1] + n_slacks)
        assert np.count_nonzero(start.rows[:, rows.shape[1]:]) == n_slacks
        assert start.inverse.shape == (k, k + 1)

        def owner(arr):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return arr

        assert owner(start.inverse).nbytes == start.inverse.nbytes
        assert owner(start.rows) is not owner(rows)
        assert owner(start.rows).nbytes == start.rows.nbytes

    def test_sound_against_highs(self):
        space, cs = self.realize("DFT")
        pre = presolve(cs)
        rng = np.random.default_rng(8)
        events = [(rng.random(space.size) < rng.uniform(0.1, 0.6)).astype(float)
                  for _ in range(10)]
        assert_agrees_with_highs(*pre[:3], [e[pre.live] for e in events])
        assert_agrees_with_highs(*cs.lp_rows(), events)

    @pytest.mark.parametrize("m, n, k", [(2, 6, 3), (3, 4, 0), (4, 3, 4), (4, 4, 5), (4, 5, 3)])
    def test_zero_columns_the_forcing_rows_leave(self, m, n, k):
        """DFT all-pairs systems whose live columns include some zero on the polytope.

        The oracle must make the same pivots, and the bounds of the config's
        events and of random objectives must match HiGHS within 1e-9.
        """
        cfg = parse_config(make_config(Rung(m, n, "dft", "born+qtr-min", "all", 1, E=3), 401, 0, k))
        space, cs = realize(cfg)
        pre = presolve(cs)
        rows, rhs, senses = pre[:3]
        n_live = rows.shape[1]
        zero = [j for j in range(n_live)
                if -scipy_reference(np.eye(n_live)[j], rows, rhs, senses, maximize=True).fun
                <= 1e-12]
        assert zero
        rng = np.random.default_rng(k)
        objectives = [parse_event(e, space).bits[pre.live].astype(float) for e in cfg.events]
        objectives += [rng.standard_normal(n_live) for _ in range(2)]
        assert_matches_seed(objectives, rows, rhs, senses)
        assert_agrees_with_highs(rows, rhs, senses, objectives)


MAX_N = {2: 5, 3: 4, 4: 3}  # at most 81 trajectories


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(m=st.sampled_from(sorted(MAX_N)), data=st.data(),
       ruleset=st.sampled_from(["born", "born+qtr", "born+qtr-min"]), chain=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_degenerate_dft_vertices(m, data, ruleset, chain, seed):
    """DFT steps make many weights equal: degenerate vertices with many ties.

    The oracle must make the same pivots, and the bounds must match HiGHS
    within 1e-9.
    """
    n = data.draw(st.integers(2, MAX_N[m]), label="n")
    space, cs = realize(seeded_config(m, n, "dft", ruleset, chain, seed))
    rng = np.random.default_rng(seed)
    events = [(rng.random(space.size) < 0.4).astype(float) for _ in range(2)]
    pre = presolve(cs)
    for (rows, rhs, senses), live in ((pre[:3], pre.live), (cs.lp_rows(), slice(None))):
        on_live = [event[live] for event in events]
        assert_matches_seed(on_live, rows, rhs, senses)
        assert_agrees_with_highs(rows, rhs, senses, on_live)


def assert_status_like_highs(objectives, rows, rhs, senses):
    """Statuses, and objectives within 1e-9, as HiGHS reports them."""
    for c in objectives:
        for maximize in (False, True):
            mine = solve_lp(c, rows, rhs, senses, maximize=maximize)
            ref = scipy_reference(c, rows, rhs, senses, maximize=maximize)
            assert mine.status == {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
            if ref.status == 0:
                assert mine.objective == pytest.approx(-ref.fun if maximize else ref.fun,
                                                       abs=1e-9)


def wide_polytope(rng, k, extra=0):
    """Normalization and k - 1 random 0/1 '>=' rows over WIDE * k + extra
    columns, each met with room by one random probability vector."""
    n = WIDE * k + extra
    p = rng.dirichlet(np.ones(n))
    rows = np.vstack([np.ones(n), (rng.random((k - 1, n)) < rng.uniform(0.2, 0.6)).astype(float)])
    rhs = np.concatenate([[1.0], rows[1:] @ p * rng.uniform(0.5, 1.0, k - 1)])
    return rows, rhs, ["=="] + [">="] * (k - 1)


def wide_objectives(rng, n):
    return [(rng.random(n) < 0.3).astype(float), rng.standard_normal(n), np.zeros(n)]


class TestRevisedForm:
    """Wide LPs, with ``WIDE`` or more columns per row, as the random chains'
    presolved sets have: the solver must make the oracle's pivots bit for
    bit and agree with HiGHS."""

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible(self, seed):
        rng = np.random.default_rng(300 + seed)
        rows, rhs, senses = wide_polytope(rng, int(rng.integers(1, 13)), int(rng.integers(0, 50)))
        objectives = wide_objectives(rng, rows.shape[1])
        assert_matches_seed(objectives, rows, rhs, senses)
        assert_status_like_highs(objectives, rows, rhs, senses)

    @pytest.mark.parametrize("seed", range(4))
    def test_infeasible(self, seed):
        """A demand past what its event's complement leaves: Farkas duals bit for bit."""
        rng = np.random.default_rng(310 + seed)
        rows, rhs, senses = wide_polytope(rng, int(rng.integers(2, 6)))
        event = rows[-1]
        rows = np.vstack([rows, 1.0 - event])
        rhs = np.append(rhs, 1.0 - rhs[-1] + 0.01)
        senses = senses + [">="]
        # a '<=' row too, flipped by its negative right side
        rows = np.vstack([rows, -np.ones(rows.shape[1])])
        rhs = np.append(rhs, -0.5)
        senses = senses + ["<="]
        rows = np.hstack([rows, np.zeros((rows.shape[0], WIDE * 2))])
        start = feasible_start(rows, rhs, senses)
        assert start.farkas_duals is not None
        objectives = wide_objectives(rng, rows.shape[1])
        assert_matches_seed(objectives, rows, rhs, senses)
        assert_status_like_highs(objectives, rows, rhs, senses)
        y = start.farkas_duals
        assert y @ rhs > 1e-10 and np.all(y @ rows <= 1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_pins_dropped(self, seed):
        """Repeated '==' rows are redundant: phase 1 drops them, wherever their
        artificial sits in the basis."""
        rng = np.random.default_rng(320 + seed)
        k = int(rng.integers(2, 5))
        rows, rhs, senses = wide_polytope(rng, k, 40)
        p = rng.dirichlet(np.ones(rows.shape[1]))
        pin = (rng.random(rows.shape[1]) < 0.5).astype(float)
        copies = int(rng.integers(1, 4))
        rows = np.vstack([pin, rows[:1], np.tile(pin, (copies, 1)), rows[1:]])
        rhs = np.concatenate([[pin @ p], rhs[:1], np.full(copies, pin @ p), rhs[1:]])
        senses = ["==", "=="] + ["=="] * copies + senses[1:]
        rows = np.hstack([rows, np.zeros((rows.shape[0], WIDE * (copies + 1)))])
        start = feasible_start(rows, rhs, senses)
        if start.farkas_duals is None:  # pin @ p rounds alike on every copy
            assert start.dropped_rows == copies
            assert start.inverse.shape == (len(senses) - copies, len(senses) - copies + 1)
        objectives = wide_objectives(rng, rows.shape[1])
        assert_matches_seed(objectives, rows, rhs, senses)
        assert_status_like_highs(objectives, rows, rhs, senses)

    @pytest.mark.parametrize("seed", [878, 1363, 1387, 1422, 1516, 1966])
    def test_dependent_rows(self, seed):
        """Rows that sum to others, in a random order: seeds where phase 1 ends
        with a redundant row's artificial basic away from its own row, so the
        drop must delete the position's row and the artificial row's column."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        base = rng.integers(0, 2, size=(k, 6)).astype(float)
        dependent = rng.integers(-1, 2, size=(int(rng.integers(1, 3)), k)).astype(float) @ base
        rows = np.vstack([base, dependent])
        rhs = rows @ (rng.integers(0, 2, 6) * rng.random(6))
        senses = [["==", ">=", "<="][int(rng.integers(3))] for _ in range(k)]
        senses += ["=="] * len(dependent)
        order = rng.permutation(len(senses))
        rows, rhs, senses = rows[order], rhs[order], [senses[i] for i in order]
        rows = np.hstack([rows, np.zeros((len(senses), WIDE * len(senses)))])
        assert feasible_start(rows, rhs, senses).dropped_rows > 0
        objectives = wide_objectives(rng, rows.shape[1])
        assert_matches_seed(objectives, rows, rhs, senses)
        assert_status_like_highs(objectives, rows, rhs, senses)

    def test_redundant_rows_dropped_once(self, phase1_calls):
        rows = np.hstack([np.array([[1.0, 1.0], [2.0, 2.0]]), np.zeros((2, 2 * WIDE))])
        rhs = np.array([1.0, 2.0])
        start = feasible_start(rows, rhs, ["==", "=="])
        assert start.dropped_rows == 1 and start.inverse.shape == (1, 2)
        c = np.zeros(rows.shape[1])
        c[0] = 1.0
        low = solve_lp(c, rows, rhs, ["==", "=="], start=start)
        high = solve_lp(c, rows, rhs, ["==", "=="], maximize=True, start=start)
        assert (low.objective, high.objective) == (0.0, 1.0)
        assert_matches_seed([c], rows, rhs, ["==", "=="])

    @pytest.mark.parametrize("cap", [lp.STALL_CAP, 2])
    def test_degenerate_fallback(self, monkeypatch, cap):
        """Mostly zero right-hand sides: under cap 2 both phases take the Bland branch."""
        monkeypatch.setattr(lp, "STALL_CAP", cap)
        rng = np.random.default_rng(6)
        degenerate = 0
        for i in range(12):
            rows = rng.integers(-2, 3, size=(4, 4 * WIDE)).astype(float)
            rhs = np.where(rng.random(4) < 0.6, 0.0, 1.0)
            senses = [["==", ">=", "<="][int(rng.integers(3))] for _ in range(4)]
            if i % 2:  # bounded by sum(x) <= 2, so that phase 2 ends optimal
                rows[0], rhs[0], senses[0] = 1.0, 2.0, "<="
            objectives = [rng.standard_normal(rows.shape[1])]
            assert_matches_seed(objectives, rows, rhs, senses)
            assert_status_like_highs(objectives, rows, rhs, senses)
            degenerate += solve_lp(objectives[0], rows, rhs, senses).degenerate_pivots
        assert degenerate > 2 * 12

    def test_beale_cycles_without_fallback(self, monkeypatch):
        """Beale's LP padded with zero columns: pure Dantzig cycles, the fallback ends it."""
        pad = np.zeros((3, 3 * WIDE))
        rows = np.hstack([TestAntiCycling.ROWS, pad])
        c = np.concatenate([TestAntiCycling.C, np.zeros(pad.shape[1])])
        monkeypatch.setattr(lp, "STALL_CAP", 10**9)
        with pytest.raises(SimplexFailure, match="pivot limit"):
            solve_lp(c, rows, TestAntiCycling.RHS, TestAntiCycling.SENSES)
        monkeypatch.setattr(lp, "STALL_CAP", 2)
        res = solve_lp(c, rows, TestAntiCycling.RHS, TestAntiCycling.SENSES)
        assert res.status == OPTIMAL and res.objective == pytest.approx(-1.25, abs=1e-12)
        assert_matches_seed([c], rows, TestAntiCycling.RHS, TestAntiCycling.SENSES)

    @pytest.mark.parametrize("rung", [2, 4])
    def test_ladder_rung(self, rung):
        """A ladder system of rung 2 (N = 1024) and of rung 4 (N = 2048)."""
        cfg = parse_config(make_config(LADDER[rung], 1, rung, 0))
        space, cs = realize(cfg)
        pre = presolve(cs)
        rows, rhs, senses = pre[:3]
        assert rows.shape[1] >= WIDE * rows.shape[0]  # a wide LP
        rng = np.random.default_rng(rung)
        objectives = [(rng.random(space.size) < 0.3).astype(float)[pre.live],
                      rng.standard_normal(rows.shape[1])]
        objectives += [parse_event(e, space).bits[pre.live].astype(float) for e in cfg.events]
        assert_matches_seed(objectives, rows, rhs, senses)
        assert_agrees_with_highs(rows, rhs, senses, objectives)

    @staticmethod
    def padded(rows, n):
        return np.hstack([rows, np.zeros((rows.shape[0], n - rows.shape[1]))])

    @staticmethod
    def assert_same_pivots(narrow, wide):
        """One solve of an LP and one of it padded with zero columns: the
        same pivots, so the same answers bit for bit, with x zero on the pad."""
        if narrow.x is not None:
            n = len(narrow.x)
            assert not wide.x[n:].any()
            wide = dataclasses.replace(wide, x=wide.x[:n])
        assert_identical(wide, narrow)

    @pytest.mark.parametrize("seed", range(3))
    def test_boundary(self, seed):
        """A narrow LP of 40 columns, and the same LP padded with zero columns
        to ``WIDE`` columns per row, which never price negative and so never
        enter: bit-identical answers and pivot counts."""
        rng = np.random.default_rng(330 + seed)
        k = 3 + seed
        rows, rhs, senses = wide_polytope(rng, k, -WIDE * k + 40)
        results = []
        for n in (rows.shape[1], WIDE * k):
            padded = self.padded(rows, n)
            start = feasible_start(padded, rhs, senses)
            objectives = [np.concatenate([c, np.zeros(n - rows.shape[1])])
                          for c in wide_objectives(np.random.default_rng(seed), rows.shape[1])]
            results.append([solve_lp(c, padded, rhs, senses, maximize=mx, start=start)
                            for c in objectives for mx in (False, True)])
        for narrow, wide in zip(*results):
            assert narrow.status == OPTIMAL
            self.assert_same_pivots(narrow, wide)

    @pytest.mark.parametrize("kind", ["infeasible", "redundant"])
    @pytest.mark.parametrize("seed", range(3))
    def test_boundary_infeasible_and_redundant(self, kind, seed):
        """An infeasible LP of 40 columns and one with a repeated '==' row,
        and each padded with zero columns to ``WIDE`` columns per row: both
        widths give the same answers bit for bit, dropped rows and Farkas
        duals included, and the duals certify the padded rows."""
        rng = np.random.default_rng(350 + seed)
        rows, rhs, senses = wide_polytope(rng, 3 + seed, -WIDE * (3 + seed) + 40)
        if kind == "infeasible":  # the event's complement past what the event leaves
            rows = np.vstack([rows, 1.0 - rows[-1]])
            rhs = np.append(rhs, 1.0 - rhs[-1] + 0.01)
        else:  # the normalization row twice
            rows = np.vstack([rows, rows[0]])
            rhs = np.append(rhs, rhs[0])
        senses = senses + [">=" if kind == "infeasible" else "=="]
        k = len(senses)
        results = []
        for n in (rows.shape[1], WIDE * k):
            padded = self.padded(rows, n)
            res = solve_lp(np.zeros(n), padded, rhs, senses)
            if kind == "infeasible":
                y = res.farkas_duals
                assert res.status == INFEASIBLE
                assert y @ rhs > 0 and np.all(y @ padded <= 1e-9)
            else:
                assert res.status == OPTIMAL and res.dropped_rows == 1
            results.append(res)
        self.assert_same_pivots(*results)

    def test_start_read_only_and_shared(self):
        rng = np.random.default_rng(340)
        rows, rhs, senses = wide_polytope(rng, 5, 7)
        start = feasible_start(rows, rhs, senses)
        arrays = (start.inverse, start.rows)
        assert not any(arr.flags.writeable for arr in arrays)
        assert rows.flags.writeable  # the caller's rows are left as they were
        saved = [arr.tobytes() for arr in arrays]
        c = rng.standard_normal(rows.shape[1])
        first = solve_lp(c, rows, rhs, senses, start=start)
        second = solve_lp(c, rows, rhs, senses, start=start)
        assert first.phase2_pivots > 0
        assert_identical(first, second)
        assert_identical(first, solve_lp(c, rows, rhs, senses))
        assert [arr.tobytes() for arr in arrays] == saved

    def test_threads_share_one_start(self):
        rng = np.random.default_rng(341)
        rows, rhs, senses = wide_polytope(rng, 6, 11)
        start = feasible_start(rows, rhs, senses)
        assert start.inverse is not None
        objectives = rng.standard_normal((16, rows.shape[1]))

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


class TestSharedPivot:
    """Checks after every pivot of whole solves: the entering column, priced
    again from the updated inverse, is the unit vector of the pivot row at
    reduced cost zero, and the multipliers stay y = c_B.B^-1."""

    @staticmethod
    def check_pivots(monkeypatch, check):
        """Wrap the solver's pivot to run ``check(state, row, col)`` after
        each one; returns the list of checked pivots."""
        pivot = lp._Simplex.pivot
        checked = []

        def wrapped(state, row, col):
            pivot(state, row, col)
            check(state, row, col)
            checked.append((row, col))

        monkeypatch.setattr(lp._Simplex, "pivot", wrapped)
        return checked

    def test_entering_column_becomes_unit(self, monkeypatch):
        def check(state, row, col):
            reduced = state.costs()[col]  # read by column(col), so first
            unit = np.zeros(len(state.basis))
            unit[row] = 1.0
            np.testing.assert_allclose(state.column(col), unit, rtol=0, atol=1e-12)
            assert abs(reduced) <= 1e-12

        checked = self.check_pivots(monkeypatch, check)
        rng = np.random.default_rng(360)
        for _ in range(60):
            k, n = int(rng.integers(1, 7)), int(rng.integers(2, 12))
            if rng.random() < 0.5:
                rows = (rng.random((k, n)) < 0.5).astype(float)
            else:
                rows = rng.normal(size=(k, n)).round(int(rng.integers(0, 4)))
            rhs = rng.normal(size=k).round(2)
            senses = [["==", ">=", "<="][int(rng.integers(3))] for _ in range(k)]
            for c in (rng.normal(size=n), rng.integers(-2, 3, n).astype(float)):
                for maximize in (False, True):
                    solve_lp(c, rows, rhs, senses, maximize=maximize)
        assert len(checked) > 400

    def test_revised_multipliers_follow_the_basis(self, monkeypatch):
        def check(state, row, col):
            k = len(state.basis)
            y = np.einsum("i,ij->j", state.cost[state.basis], state.table[:k, :k])
            np.testing.assert_allclose(state.y, y, rtol=0, atol=1e-12)

        checked = self.check_pivots(monkeypatch, check)
        rng = np.random.default_rng(361)
        for seed in range(12):
            k = 2 + seed % 5
            rows, rhs, senses = wide_polytope(rng, k, int(rng.integers(0, 40)))
            if seed % 3 == 1:  # the normalization row again, dropped after phase 1
                rows, rhs, senses = np.vstack([rows, rows[0]]), np.append(rhs, 1.0), senses + ["=="]
            elif seed % 3 == 2:  # a '<=' row, whose slack starts basic
                rows = np.vstack([rows, (rng.random(rows.shape[1]) < 0.5).astype(float)])
                rhs, senses = np.append(rhs, 0.7), senses + ["<="]
                rows = np.hstack([rows, np.zeros((len(rhs), WIDE))])
            for c in wide_objectives(rng, rows.shape[1]):
                for maximize in (False, True):
                    solve_lp(c, rows, rhs, senses, maximize=maximize)
        assert len(checked) > 200


class TestZeroRows:
    """An LP with no rows: x = 0 is its one basic solution, optimal when no
    cost is negative, and a negative cost is an unbounded ray."""

    N = 4

    def empty(self):
        return np.zeros((0, self.N)), np.zeros(0), []

    def test_start(self):
        start = feasible_start(*self.empty())
        assert (start.n_cols, start.phase1_pivots, start.degenerate_pivots,
                start.dropped_rows) == (self.N, 0, 0, 0)
        assert start.basis == () and start.farkas_duals is None
        assert start.inverse.shape == (0, 1) and start.rows.shape == (0, self.N)

    @pytest.mark.parametrize("maximize", [False, True])
    @pytest.mark.parametrize("c", [[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 3.0],
                                   [1.0, -1.0, 0.0, 2.0], [-1.0, -2.0, 0.0, -3.0]])
    def test_solve(self, c, maximize):
        c = np.array(c)
        bounded = ((-c if maximize else c) >= 0.0).all()
        for start in (None, feasible_start(*self.empty())):
            res = solve_lp(c, *self.empty(), maximize=maximize, start=start)
            counters = (res.phase1_pivots, res.phase2_pivots, res.degenerate_pivots,
                        res.dropped_rows)
            assert counters == (0, 0, 0, 0) and all(type(n) is int for n in counters)
            assert res.farkas_duals is None
            if bounded:
                assert res.status == OPTIMAL and res.objective == 0.0
                assert res.x.tobytes() == np.zeros(self.N).tobytes()
            else:
                assert res.status == UNBOUNDED and res.x is None and res.objective is None
        assert_matches_seed([c], *self.empty())


def basis_residual(rows, basis, inverse):
    """max |B^-1 B - I| with B the columns ``basis`` of ``rows``; ``inverse``
    holds B^-1 in its first k columns."""
    k = len(basis)
    b = rows[:, list(basis)]
    return np.abs(inverse[:, :k] @ b - np.eye(k)).max(initial=0.0)


class TestBasisInverse:
    """The basis inverse is never refactorized, so each pivot's rounding stays
    in it.  After every phase, and in every start after its drive-out, on the
    seeded DFT all-pairs and random-chain sets of both LP workloads up to
    N = 1,024, presolved and full: max |B^-1 B - I| <= 1e-12."""

    @pytest.mark.parametrize("rungs, r", [(LADDER, r) for r in range(4)]
                             + [(VERDICTS, r) for r in range(5)],
                             ids=[f"ladder-r{r}" for r in range(4)]
                             + [f"verdicts-r{r}" for r in range(5)])
    def test_inverse_stays_accurate(self, monkeypatch, rungs, r):
        residuals = []
        run_phase = lp._Simplex.run_phase

        def checked(state):
            status = run_phase(state)
            residuals.append(basis_residual(state.rows, state.basis.tolist(), state.table[:-1]))
            return status

        monkeypatch.setattr(lp._Simplex, "run_phase", checked)
        for seed in (1, 7, 401):
            cfg = parse_config(make_config(rungs[r], seed, r, 0))
            space, cs = realize(cfg)
            rng = np.random.default_rng(seed)
            objectives = [parse_event(e, space).bits.astype(float) for e in cfg.events]
            objectives.append(rng.standard_normal(space.size))
            pre = presolve(cs)
            for (rows, rhs, senses), live in ((pre[:3], pre.live), (cs.lp_rows(), slice(None))):
                start = feasible_start(rows, rhs, senses)
                residuals.append(basis_residual(start.rows, start.basis, start.inverse))
                for c in objectives:
                    for maximize in (False, True):
                        solve_lp(c[live], rows, rhs, senses, maximize=maximize, start=start)
        assert len(residuals) >= 3 * 2 * (1 + 1 + 2 * len(objectives))
        assert max(residuals) <= 1e-12


class TestContiguousSums:
    """Every sum of the solver is an ``np.einsum("i,ij->j", ...)``, which adds
    its terms in index order over a C-contiguous matrix; the pivots are
    reproducible only while every matrix ``_Simplex`` sums over, its rows,
    its first inverse and its table, is C-contiguous in both phases."""

    def test_every_summed_matrix_is_c_contiguous(self, monkeypatch):
        seen = []
        phase = ["phase 2"]
        init, phase1 = lp._Simplex.__init__, lp._phase1

        def recorded(state, rows, inverse, *rest):
            init(state, rows, inverse, *rest)
            seen.append((phase[0], rows.flags.c_contiguous, inverse.flags.c_contiguous,
                         state.table.flags.c_contiguous))

        def first_phase(*args):
            phase[0] = "phase 1"
            try:
                return phase1(*args)
            finally:
                phase[0] = "phase 2"

        monkeypatch.setattr(lp._Simplex, "__init__", recorded)
        monkeypatch.setattr(lp, "_phase1", first_phase)
        rng = np.random.default_rng(370)
        for seed in range(12):
            # normalization, a '<=' row flipped by its negative right side, a
            # '>=' row and, on two seeds in three, normalization again, which
            # phase 1 drops
            n = int(rng.integers(3, 9))
            p = rng.dirichlet(np.ones(n))
            pair = (rng.random((2, n)) < 0.5).astype(float)
            pair[:, 0] = 1.0
            copies = int(seed % 3 > 0)
            rows = np.vstack([np.ones(n), -pair[0], pair[1], np.ones((copies, n))])
            rhs = np.array([1.0, -0.5 * (pair[0] @ p), 0.5 * (pair[1] @ p)] + [1.0] * copies)
            senses = ["==", "<=", ">="] + ["=="] * copies
            if seed % 2:
                rows = np.asfortranarray(rows)  # the caller's layout does not matter
            start = feasible_start(rows, rhs, senses)
            assert rhs[1] < 0.0 and start.dropped_rows == copies
            for c in (rng.standard_normal(n), (rng.random(n) < 0.5).astype(float)):
                for maximize in (False, True):
                    started = solve_lp(c, rows, rhs, senses, maximize=maximize, start=start)
                    assert_identical(started, solve_lp(c, rows, rhs, senses, maximize=maximize))
        # per seed: the start's phase 1, then per objective and sense one
        # phase 2 from it and a fresh phase 1 and phase 2
        assert [entry[0] for entry in seen].count("phase 1") == 12 * (1 + 4)
        assert [entry[0] for entry in seen].count("phase 2") == 12 * 4 * 2
        assert all(all(entry[1:]) for entry in seen)


BLAS_NAMES = {"dot", "matmul", "inner", "linalg"}


def blas_calls(source):
    """Where ``source`` multiplies matrices through BLAS or LAPACK: every ``@``
    and every ``dot``, ``matmul``, ``inner`` or ``linalg`` it names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in BLAS_NAMES:
            found.append((node.lineno, node.name))
    return found


class TestNoBlas:
    """The solver and the chain verdict promise that no sum goes through BLAS
    or LAPACK, whose summation order varies by build."""

    def test_lp_source_has_no_blas_call(self):
        assert blas_calls(Path(lp.__file__).read_text()) == []

    def test_credal_source_has_no_blas_call(self):
        assert blas_calls(Path(credal.__file__).read_text()) == []

    @pytest.mark.parametrize("line", [
        "y = a @ b", "a @= b", "y = np.dot(a, b)", "y = a.dot(b)", "y = np.matmul(a, b)",
        "y = np.inner(a, b)", "y = np.linalg.solve(a, b)", "from numpy.linalg import inv",
        "from numpy import dot", "import numpy.linalg",
    ])
    def test_planted_call_found(self, line):
        source = Path(lp.__file__).read_text() + f"\n\ndef planted(np, a, b):\n    {line}\n"
        assert blas_calls(source)


def trajectory_indices(source):
    """Where ``source`` builds an index over the trajectories: every
    ``arange`` call whose arguments read the trajectory count, as a size
    (``space.size``) or a power (``1 << n``, ``m ** n``)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "arange"
            and any(isinstance(part, ast.Attribute) and part.attr == "size"
                    or isinstance(part, ast.BinOp) and isinstance(part.op, (ast.LShift, ast.Pow))
                    for arg in node.args for part in ast.walk(arg))]


class TestNoTrajectoryIndex:
    """``credal.py`` builds no index over the trajectories: it reads the
    encoding from the space's atoms (``TrajectorySpace.atom``) and the live
    columns from an event, so the space stays the encoding's one owner.  Its
    strongest rows are held as bool rows over the trajectories
    (``_Reading.unpacked``), not as index lists, and an index over rows is
    not one."""

    def test_credal_source_builds_no_index(self):
        assert trajectory_indices(Path(credal.__file__).read_text()) == []

    @pytest.mark.parametrize("line", [
        "index = np.arange(1 << n)", "live = np.arange(cs.space.size)",
        "index = arange(m ** n)",
    ])
    def test_planted_index_found(self, line):
        source = Path(credal.__file__).read_text() + f"\n\ndef planted(np, cs, m, n):\n    {line}\n"
        assert trajectory_indices(source)
