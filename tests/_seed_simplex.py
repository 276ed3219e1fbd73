"""The scalar two-phase simplex, kept as a test oracle.

``solve_lp_revised`` is ``iqp.lp`` loop by loop: the same revised form, the
same pricing rule (Dantzig, falling back to Bland after ``iqp.lp.STALL_CAP``
consecutive degenerate pivots), the same rank-1 step and the counters of
``LPResult``, with every sum over rows or basis positions added in index
order (``sequential``).  Phase 2 prices every structural and slack column.
The objective value sums ``c * x`` over the basic structural columns in row
order, as ``iqp.lp.solve_lp`` does.  Tests require the vectorized solver to
reproduce its answers bit for bit and its pivot counts exactly, on LPs of
every shape.  ``leaving_row`` is the oracle's leaving rule on its own.
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


def sequential(v, m) -> np.ndarray:
    """``sum_i v[i] * m[i]`` over the rows of ``m``, added in row order from 0.0."""
    total = np.zeros(m.shape[1])
    for i in range(m.shape[0]):
        total += v[i] * m[i]
    return total


def solve_lp_revised(
    objective: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
    senses: list[str],
    *,
    maximize: bool = False,
) -> LPResult:
    """The revised form of ``iqp.lp``, loop by loop, whatever the LP's shape.

    It keeps the same table as ``iqp.lp._Simplex`` (B^-1 and x_B, then the
    multipliers y and c_B.x_B), applies the same rule and the same rank-1
    step, and adds every sum over rows or basis positions in index order
    (``sequential``), so the vectorized revised form must reproduce its
    answers bit for bit and its pivot counts exactly.
    """
    c_orig = np.asarray(objective, dtype=float)
    a = np.array(rows, dtype=float, ndmin=2)
    b = np.asarray(rhs, dtype=float).copy()
    n_rows, n_vars = a.shape
    if c_orig.shape != (n_vars,):
        raise ValueError(f"objective length {c_orig.shape} != variable count {n_vars}")
    if b.shape != (n_rows,) or len(senses) != n_rows:
        raise ValueError("rows, rhs and senses must have matching lengths")
    c = -c_orig if maximize else c_orig.copy()

    # the standard form of iqp.lp; each logical column is (row, entry):
    # one slack or surplus per inequality row, then one artificial per
    # '==' or '>=' row
    sign = np.ones(n_rows)
    std_senses = list(senses)
    for i in range(n_rows):
        if b[i] < 0:
            sign[i] = -1.0
            a[i] *= -1.0
            b[i] *= -1.0
            std_senses[i] = {"==": "==", ">=": "<=", "<=": ">="}[std_senses[i]]
    slacks = [(i, 1.0 if s == "<=" else -1.0) for i, s in enumerate(std_senses) if s != "=="]
    arts = [(i, 1.0) for i, s in enumerate(std_senses) if s != "<="]
    logical = slacks + arts
    first_art = n_vars + len(slacks)
    n_cols = first_art + len(arts)
    basis = np.empty(n_rows, dtype=int)
    for t, (i, entry) in enumerate(logical):
        if t >= len(slacks) or entry > 0:  # the first basis: an identity
            basis[i] = n_vars + t

    k = n_rows
    table = np.zeros((k + 1, k + 1))
    for i in range(k):
        table[i, i] = 1.0
        table[i, k] = b[i]
    budget = 1000 + 50 * (n_rows + n_cols)
    pivots = 0
    degenerate = 0
    reduced = np.zeros(0)

    def price(cost: np.ndarray) -> np.ndarray:
        y = table[k, :k]
        p = sequential(y, a)
        d = np.empty(len(cost))
        for j in range(n_vars):
            d[j] = cost[j] - p[j]
        for t in range(len(cost) - n_vars):
            row, entry = logical[t]
            d[n_vars + t] = cost[n_vars + t] - y[row] * entry
        return d

    def column(col: int) -> np.ndarray:
        if col < n_vars:
            alpha = sequential(a[:, col], table[:, :k].T)
        else:
            row, entry = logical[col - n_vars]
            alpha = table[:, row] * entry
        alpha[k] = -reduced[col]
        return alpha

    def pivot(row: int, col: int, alpha: np.ndarray) -> None:
        nonlocal pivots, table
        pivots += 1
        if pivots > budget:
            raise SimplexFailure(f"pivot limit {budget} exceeded")
        table[row] /= alpha[row]
        factors = alpha.copy()
        factors[row] = 0.0
        table -= np.outer(factors, table[row])
        basis[row] = col

    def run_phase(cost: np.ndarray) -> str:
        nonlocal degenerate, reduced
        table[k] = sequential(cost[basis], table[:k])
        stalled = 0
        while True:
            reduced = price(cost)
            entering = -1
            if stalled < lp.STALL_CAP:  # Dantzig: most negative, smallest index on ties
                best_cost = -PIVOT_TOL
                for j in range(len(cost)):
                    if reduced[j] < best_cost:
                        best_cost = reduced[j]
                        entering = j
            else:
                for j in range(len(cost)):  # Bland: smallest eligible index
                    if reduced[j] < -PIVOT_TOL:
                        entering = j
                        break
            if entering < 0:
                return OPTIMAL
            alpha = column(entering)
            leaving, best_ratio = leaving_row(table[:k, k], alpha[:k], basis)
            if leaving < 0:
                return UNBOUNDED
            if best_ratio <= PIVOT_TOL:
                degenerate += 1
                stalled += 1
            else:
                stalled = 0
            pivot(leaving, entering, alpha)

    cost = np.zeros(n_cols)
    cost[first_art:] = 1.0
    if run_phase(cost) == UNBOUNDED:
        raise SimplexFailure("phase-1 objective reported unbounded")
    if table[k, k] > FEASIBILITY_TOL:
        return LPResult(status=INFEASIBLE, farkas_duals=sign * table[k, :k],
                        phase1_pivots=pivots, degenerate_pivots=degenerate)

    # drive leftover basic artificials out (or drop redundant rows)
    drop: list[int] = []
    for i in range(k):
        if basis[i] >= first_art:
            structural = sequential(table[i, :k], a)
            target = -1
            for j in range(first_art):
                if j < n_vars:
                    entry = structural[j]
                else:
                    row, sign_ = slacks[j - n_vars]
                    entry = table[i, row] * sign_
                if abs(entry) > PIVOT_TOL:
                    target = j
                    break
            if target >= 0:
                pivot(i, target, column(target))
            else:
                drop.append(i)
    if drop:  # delete each dropped position's row and its artificial's row's column
        gone = [logical[basis[i] - n_vars][0] for i in drop]
        kept = [i for i in range(k) if i not in drop]
        kept_rows = [r for r in range(k) if r not in gone]
        new_index = {r: t for t, r in enumerate(kept_rows)}
        table = np.vstack([table[kept][:, kept_rows + [k]], np.zeros((1, len(kept_rows) + 1))])
        basis = basis[kept]
        a = a[kept_rows]
        slacks = [(new_index[r], entry) for r, entry in slacks]
        logical = slacks
        k = len(kept)

    phase1 = pivots
    cost = np.zeros(first_art)
    cost[:n_vars] = c
    status = run_phase(cost)
    counters = dict(phase1_pivots=phase1, phase2_pivots=pivots - phase1,
                    degenerate_pivots=degenerate, dropped_rows=len(drop))
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, **counters)

    x = np.zeros(first_art)
    value = 0.0
    for i in range(k):
        x[basis[i]] = table[i, k]
        if basis[i] < n_vars:  # c.x over the basic structural columns, in row order
            value += c_orig[basis[i]] * table[i, k]
    return LPResult(status=OPTIMAL, x=x[:n_vars], objective=float(value), **counters)
