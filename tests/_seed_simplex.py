"""The scalar two-phase simplex, kept as a test oracle.

This is the loop-by-loop solver that ``iqp.lp`` replaced, with its pricing
rule (Dantzig, falling back to Bland after ``iqp.lp.STALL_CAP`` consecutive
degenerate pivots) and the counters of ``LPResult``.  Phase 2 prices every
structural and slack column.  The objective value sums ``c * x`` over the
basic structural columns in row order, as ``iqp.lp.solve_lp`` does.  Tests
require the vectorized solver to reproduce its answers bit for bit and its
pivot counts exactly.
"""

from __future__ import annotations

import numpy as np

from iqp import lp
from iqp.lp import (
    FEASIBILITY_TOL,
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LPResult,
    SimplexFailure,
)


def leaving_row(rhs, col, basis) -> tuple[int, float]:
    """Bland's leaving row (-1 for none) and its ratio ``max(rhs, 0) / col``: of rows with
    ``col > PIVOT_TOL``, the smallest basic index within ``PIVOT_TOL`` of the least non-NaN ratio."""
    ratios = {i: max(rhs[i], 0.0) / col[i] for i in range(len(rhs)) if col[i] > PIVOT_TOL}
    least = min((r for r in ratios.values() if r == r), default=np.inf)
    tied = [i for i, r in ratios.items() if r <= least + PIVOT_TOL < np.inf]
    leaving = min(tied, key=basis.__getitem__, default=-1)
    return leaving, ratios.get(leaving, np.inf)


def solve_lp(
    objective: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
    senses: list[str],
    *,
    maximize: bool = False,
    pivot_cap: int | None = None,
) -> LPResult:
    c_orig = np.asarray(objective, dtype=float)
    a = np.array(rows, dtype=float, ndmin=2)
    b = np.asarray(rhs, dtype=float).copy()
    n_rows, n_vars = a.shape
    if c_orig.shape != (n_vars,):
        raise ValueError(f"objective length {c_orig.shape} != variable count {n_vars}")
    if b.shape != (n_rows,) or len(senses) != n_rows:
        raise ValueError("rows, rhs and senses must have matching lengths")
    for sense in senses:
        if sense not in ("==", ">=", "<="):
            raise ValueError(f"unknown sense {sense!r}")

    c = -c_orig if maximize else c_orig.copy()

    # standard form: flip rows with negative rhs, then add slack/surplus and
    # artificial columns; record each row's sign and initial identity column
    sign = np.ones(n_rows)
    std_senses = list(senses)
    for i in range(n_rows):
        if b[i] < 0:
            sign[i] = -1.0
            a[i] *= -1.0
            b[i] *= -1.0
            if std_senses[i] == ">=":
                std_senses[i] = "<="
            elif std_senses[i] == "<=":
                std_senses[i] = ">="

    slack_cols: dict[int, int] = {}
    art_cols: dict[int, int] = {}
    extra: list[np.ndarray] = []
    col = n_vars
    for i, sense in enumerate(std_senses):
        if sense == "<=":
            e = np.zeros(n_rows)
            e[i] = 1.0
            extra.append(e)
            slack_cols[i] = col
            col += 1
        elif sense == ">=":
            e = np.zeros(n_rows)
            e[i] = -1.0
            extra.append(e)
            col += 1
    first_art = col
    for i, sense in enumerate(std_senses):
        if sense != "<=":
            e = np.zeros(n_rows)
            e[i] = 1.0
            extra.append(e)
            art_cols[i] = col
            col += 1
    n_cols = col

    # tableau: constraint rows, then phase-2 and phase-1 reduced-cost rows
    # (the phase-2 row is filled in after phase 1)
    tab = np.zeros((n_rows + 2, n_cols + 1))
    tab[:n_rows, :n_vars] = a
    if extra:
        tab[:n_rows, n_vars:n_cols] = np.column_stack(extra)
    tab[:n_rows, -1] = b

    basis = np.empty(n_rows, dtype=int)
    for i in range(n_rows):
        basis[i] = art_cols.get(i, slack_cols.get(i, -1))
    z1 = n_rows + 1
    for i, j in art_cols.items():
        tab[z1, j] = 1.0
    for i in art_cols:
        tab[z1] -= tab[i]

    budget = pivot_cap if pivot_cap is not None else 1000 + 50 * (n_rows + n_cols)
    pivots = 0
    degenerate = 0

    def pivot(row: int, col_: int) -> None:
        nonlocal pivots, tab
        pivots += 1
        if pivots > budget:
            raise SimplexFailure(f"pivot limit {budget} exceeded")
        tab[row] /= tab[row, col_]
        factors = tab[:, col_].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        tab[:, col_] = 0.0
        tab[row, col_] = 1.0
        basis[row] = col_

    def run_phase(cost_row: int, allowed_upto: int) -> str:
        nonlocal degenerate
        stalled = 0
        while True:
            entering = -1
            if stalled < lp.STALL_CAP:  # Dantzig: most negative, smallest index on ties
                best_cost = -PIVOT_TOL
                for j in range(allowed_upto):
                    if tab[cost_row, j] < best_cost:
                        best_cost = tab[cost_row, j]
                        entering = j
            else:
                for j in range(allowed_upto):  # Bland: smallest eligible index
                    if tab[cost_row, j] < -PIVOT_TOL:
                        entering = j
                        break
            if entering < 0:
                return OPTIMAL
            leaving, best_ratio = leaving_row(tab[:n_rows, -1], tab[:n_rows, entering], basis)
            if leaving < 0:
                return UNBOUNDED
            if best_ratio <= PIVOT_TOL:
                degenerate += 1
                stalled += 1
            else:
                stalled = 0
            pivot(leaving, entering)

    if art_cols:
        if run_phase(z1, n_cols) == UNBOUNDED:
            raise SimplexFailure("phase-1 objective reported unbounded")
        phase1_obj = -tab[z1, -1]
        if phase1_obj > FEASIBILITY_TOL:
            duals = np.zeros(n_rows)
            for i in range(n_rows):
                if i in art_cols:
                    duals[i] = 1.0 - tab[z1, art_cols[i]]
                else:
                    duals[i] = -tab[z1, slack_cols[i]]
            return LPResult(status=INFEASIBLE, farkas_duals=sign * duals,
                            phase1_pivots=pivots, degenerate_pivots=degenerate)

        # drive leftover basic artificials out (or drop redundant rows)
        drop: list[int] = []
        for i in range(n_rows):
            if basis[i] >= first_art:
                target = -1
                for j in range(first_art):
                    if abs(tab[i, j]) > PIVOT_TOL:
                        target = j
                        break
                if target >= 0:
                    pivot(i, target)
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(n_rows) if i not in drop]
            tab = np.vstack([tab[keep], tab[n_rows:]])
            basis = basis[keep]
            n_rows = len(keep)
            z1 = n_rows + 1

    # phase-2 reduced costs recomputed from the post-phase-1 rows, in the
    # order and with the skips of iqp.lp.solve_lp, so that equal costs compare
    # equal under Dantzig pricing
    cost = np.zeros(n_cols + 1)
    cost[:n_vars] = c
    for i in range(n_rows):
        j = basis[i]
        if j < n_vars and c[j] != 0.0:
            cost -= c[j] * tab[i]
    cost[basis] = 0.0
    tab[n_rows] = cost

    phase1 = pivots
    dropped = len(sign) - n_rows
    status = run_phase(n_rows, first_art)
    counters = dict(phase1_pivots=phase1, phase2_pivots=pivots - phase1,
                    degenerate_pivots=degenerate, dropped_rows=dropped)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, **counters)

    x = np.zeros(n_cols)
    value = 0.0
    for i in range(n_rows):
        x[basis[i]] = tab[i, -1]
        if basis[i] < n_vars:  # c.x over the basic structural columns, in row order
            value += c_orig[basis[i]] * tab[i, -1]
    solution = x[:n_vars]
    value = float(value)
    return LPResult(status=OPTIMAL, x=solution, objective=value, **counters)
