"""Independent checks of LP answers: scipy's HiGHS and direct numpy sums.

Nothing here calls the package's solver or its verifiers; the LP data come
from ``ConstraintSet.lp_rows`` (normalization row, then one '>=' row per
constraint), the same rows every query solves.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

BOUND_TOL = 1e-7  # lower/upper/objective agreement with HiGHS
ROW_TOL = 1e-9  # witness row violation and Farkas slack, as the package certifies
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class HighsClock:
    """Accumulates HiGHS solve time, the denominator of ``lp.highs_ratio``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.rung = 0
        self.by_rung: dict[int, float] = {}

    def solve(self, objective, rows, rhs, senses, maximize=False):
        """Solve ``min/max c.x`` over rows in the package's sense convention."""
        rows = np.asarray(rows, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        senses = np.asarray(senses)
        eq, ge, le = senses == "==", senses == ">=", senses == "<="
        a_ub = np.vstack([-rows[ge], rows[le]])
        b_ub = np.concatenate([-rhs[ge], rhs[le]])
        c = -np.asarray(objective, dtype=float) if maximize else np.asarray(objective, dtype=float)
        start = time.perf_counter()
        res = linprog(
            c,
            A_ub=a_ub if len(b_ub) else None,
            b_ub=b_ub if len(b_ub) else None,
            A_eq=rows[eq] if eq.any() else None,
            b_eq=rhs[eq] if eq.any() else None,
            bounds=(0, None),
            method="highs",
            options=HIGHS_OPTIONS,
        )
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        self.by_rung[self.rung] = self.by_rung.get(self.rung, 0.0) + elapsed
        if res.status == 2:
            return "infeasible", None
        if res.status != 0:
            raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
        return "optimal", float(-res.fun if maximize else res.fun)


def witness_violation(rows, rhs, probs) -> float:
    """Worst violation of the simplex and '>=' rows (row 0 is normalization)."""
    x = np.asarray(probs, dtype=float)
    worst = max(abs(float(x.sum()) - 1.0), -float(x.min(initial=0.0)))
    return max(worst, float(np.max(rhs[1:] - rows[1:] @ x, initial=0.0)))


def farkas_failure(rows, rhs, cert) -> str | None:
    """Check y >= 0 on '>=' rows, y.A <= 0 componentwise and y.b > 0 directly."""
    mult = np.asarray(cert.multipliers, dtype=float)
    if mult.min(initial=0.0) < 0.0:
        return f"negative multiplier {mult.min():.3e}"
    y = np.concatenate([[cert.normalization], mult])
    slack = float((y @ rows).max())
    margin = float(y @ rhs)
    if slack > ROW_TOL or margin < ROW_TOL:
        return f"Farkas slack {slack:.3e}, margin {margin:.3e}"
    return None


def check_feasibility(clock: HighsClock, cs, cert) -> str | None:
    rows, rhs, senses = cs.lp_rows()
    status, _ = clock.solve(np.zeros(cs.space.size), rows, rhs, senses)
    if (status == "optimal") != cert.feasible:
        return f"verdict {cert.feasible} but HiGHS says {status}"
    if cert.feasible:
        worst = witness_violation(rows, rhs, cert.witness.probs)
        return f"witness violates a row by {worst:.3e}" if worst > ROW_TOL else None
    return farkas_failure(rows, rhs, cert.farkas)


def check_bounds(clock: HighsClock, cs, event, res) -> str | None:
    rows, rhs, senses = cs.lp_rows()
    c = event.bits.astype(float)
    lo_status, lo = clock.solve(c, rows, rhs, senses)
    hi_status, hi = clock.solve(c, rows, rhs, senses, maximize=True)
    if res.status == "infeasible" or lo_status != "optimal":
        same = res.status == "infeasible" and lo_status == "infeasible"
        return None if same else f"bounds status {res.status} but HiGHS says {lo_status}"
    if abs(res.lower - lo) > BOUND_TOL or abs(res.upper - hi) > BOUND_TOL:
        return f"bounds [{res.lower!r}, {res.upper!r}] vs HiGHS [{lo!r}, {hi!r}]"
    for value, measure in ((res.lower, res.argmin), (res.upper, res.argmax)):
        if witness_violation(rows, rhs, measure.probs) > ROW_TOL:
            return "bound attained by a measure outside the polytope"
        if abs(float(c @ measure.probs) - value) > BOUND_TOL:
            return "bound differs from its measure's event probability"
    return None


def check_vertices(clock: HighsClock, cs, measures, seed: int) -> str | None:
    """Each sample must be optimal for its seeded objective and lie in the polytope."""
    rows, rhs, senses = cs.lp_rows()
    rng = np.random.default_rng(seed)
    for i, measure in enumerate(measures):
        c = rng.standard_normal(cs.space.size)
        _, opt = clock.solve(c, rows, rhs, senses)
        value = float(c @ measure.probs)
        if opt is None or abs(value - opt) > BOUND_TOL * max(1.0, abs(opt)):
            return f"vertex sample {i}: objective {value!r} vs HiGHS {opt!r}"
        if witness_violation(rows, rhs, measure.probs) > ROW_TOL:
            return f"vertex sample {i} lies outside the polytope"
    return None


def check_huber(clock: HighsClock, cs, value: float, feasible: bool) -> str | None:
    """max sum a_i rhs_i s.t. sum_i a_i 1[w in A_i] <= 1 for every trajectory w."""
    if not cs.constraints:
        return "huber check on an empty row family"
    ind = np.array([con.event.bits for con in cs.constraints], dtype=float).T
    obj = np.array([con.rhs for con in cs.constraints])
    _, opt = clock.solve(obj, ind, np.ones(cs.space.size), ["<="] * cs.space.size, maximize=True)
    if opt is None or abs(value - opt) > BOUND_TOL * max(1.0, abs(opt)):
        return f"huber value {value!r} vs HiGHS {opt!r}"
    if (value <= 1.0 + ROW_TOL) != feasible:
        return f"huber value {value!r} disagrees with feasibility verdict {feasible}"
    return None


def check_lp_call(clock: HighsClock, objective, rows, rhs, senses, maximize, result) -> str | None:
    """One recorded ``solve_lp`` call against HiGHS (status and optimal value)."""
    status, opt = clock.solve(objective, rows, rhs, senses, maximize)
    if status != result.status:
        return f"LP status {result.status} but HiGHS says {status}"
    if status == "optimal" and abs(result.objective - opt) > BOUND_TOL * max(1.0, abs(opt)):
        return f"LP value {result.objective!r} vs HiGHS {opt!r}"
    return None
