"""Dense two-phase simplex solver with Dantzig pricing and a Bland fallback.

Each pivot enters the column of most negative reduced cost (Dantzig; ties go
to the smallest column).  After ``STALL_CAP`` consecutive degenerate pivots a
phase enters the smallest column of negative reduced cost (Bland's rule)
until a pivot moves the vertex, then returns to Dantzig; staying on Bland
until the objective strictly improves is what keeps every phase finite.

Small, self-contained and deterministic: identical inputs produce identical
pivot sequences, so witnesses, infeasibility certificates and every output
written from them are reproducible byte for byte across runs and platforms.
Problems are given in row form::

    minimize (or maximize) c.x  subject to  A[i].x (sense[i]) b[i],  x >= 0

with senses '==', '>=' or '<='.  When the system is infeasible the solver
returns row multipliers ``y`` (the phase-1 duals) satisfying, up to pivot
tolerance, ``y.A <= 0`` componentwise with ``y.b > 0``; the multipliers are
sign-constrained by sense (>= rows give y >= 0, <= rows y <= 0, == rows free).

Phase 1 depends only on the constraints, so it runs once per constraint set:
``feasible_start`` returns the post-phase-1 tableau and basis, and a caller
that asks several questions about one set passes that start to every
``solve_lp`` call; without one, ``solve_lp`` runs its own phase 1.  The solver
keeps no state between calls.  The start holds only the columns that can be
non-zero.  It drops the artificials and every column whose phase-1 reduced
cost at the optimum exceeds ``FEASIBILITY_TOL``: on the feasible set the
phase-1 objective is zero and equals the reduced costs times x, so every
feasible point has such a column at zero (Dantzig, 1963, end of phase I), and
phase 2 never prices it.  Kept columns stay in order, so phase 2 makes the
pivots of the full tableau with the dropped columns barred from entering.
Pricing and the ratio test are numpy scans that pick the same entering column
and leaving row as a scalar loop with the same rule (ties in the ratio test
within ``PIVOT_TOL`` go to the smallest basic index, applied row by row in
order), so a solve makes the same pivots whether its phase 1 ran fresh or
was passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEASIBILITY_TOL = 1e-9
# Consecutive degenerate pivots after which pricing falls back to Bland's rule,
# chosen by measurement (the table is in CHANGES.md).  It stays below the
# smallest default pivot budget (1000), so a cycling LP reaches the fallback.
STALL_CAP = 500

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexFailure(RuntimeError):
    """Numerical breakdown (pivot limit exceeded); distinct from infeasibility."""


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    farkas_duals: np.ndarray | None = None
    phase1_pivots: int = 0  # including pivots that drive artificials out
    phase2_pivots: int = 0
    degenerate_pivots: int = 0  # both phases; see _Tableau.degenerate
    dropped_rows: int = 0  # redundant equality rows removed after phase 1
    fixed_cols: int = 0  # columns phase 1 proved zero, never priced in phase 2


@dataclass(frozen=True)
class FeasibleStart:
    """Outcome of phase 1 for one constraint set; read-only, so shareable.

    ``tab`` holds the constraint rows after phase 1 followed by one spare cost
    row, over the structural and slack columns that can be non-zero and the
    right-hand side.  The artificial columns are never read again, and
    ``fixed_cols`` columns that every feasible point has at zero are never
    priced, so both are trimmed.  ``cols`` holds the original index of each
    kept column, in order, and ``basis`` the position in ``tab`` of each kept
    row's basic column.  All three are ``None`` for an infeasible set, which
    carries ``farkas_duals`` instead.
    """

    n_cols: int  # phase-1 tableau columns before the right-hand side; sets the pivot budget
    phase1_pivots: int
    degenerate_pivots: int
    dropped_rows: int
    fixed_cols: int
    tab: np.ndarray | None = None
    basis: tuple[int, ...] | None = None
    cols: np.ndarray | None = None
    farkas_duals: np.ndarray | None = None


class _Tableau:
    """Pivoting state of one solve; ``buf`` is the rank-1 update's scratch."""

    def __init__(self, tab: np.ndarray, basis: list[int], pivots: int, budget: int,
                 buf: np.ndarray) -> None:
        self.tab = tab
        self.basis = basis
        self.pivots = pivots
        self.degenerate = 0  # ratio-test pivots of step length at most PIVOT_TOL
        self.budget = budget
        self.buf = buf

    def pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        if self.pivots > self.budget:
            raise SimplexFailure(f"pivot limit {self.budget} exceeded")
        tab = self.tab
        tab[row] /= tab[row, col]
        factors = tab[:, col].copy()
        factors[row] = 0.0
        # same products and differences as tab -= np.outer(factors, tab[row])
        np.multiply(factors[:, None], tab[row], out=self.buf)
        tab -= self.buf
        tab[:, col] = 0.0
        tab[row, col] = 1.0
        self.basis[row] = col

    def run_phase(self) -> str:
        """Pivot on the last row's reduced costs until none is negative.

        Dantzig pricing enters the most negative reduced cost, ties going to
        the smallest column.  After ``STALL_CAP`` consecutive degenerate
        pivots (step length at most ``PIVOT_TOL``) it enters the smallest
        negative column instead (Bland's rule) until a pivot moves the vertex,
        so that no basis repeats and the phase ends.
        """
        tab, basis = self.tab, self.basis
        n_rows = tab.shape[0] - 1
        stalled = 0
        while True:
            costs = tab[-1, :-1]
            if stalled < STALL_CAP:
                entering = int(costs.argmin())
            else:
                entering = int((costs < -PIVOT_TOL).argmax())
            if not costs[entering] < -PIVOT_TOL:
                return OPTIMAL
            col_vals = tab[:n_rows, entering]
            eligible = np.flatnonzero(col_vals > PIVOT_TOL)
            if not eligible.size:
                return UNBOUNDED
            ratios = np.maximum(tab[eligible, -1], 0.0) / col_vals[eligible]
            # the tie rule is not transitive, so apply it in row order
            best_ratio = np.inf
            leaving = -1
            for i, ratio in zip(eligible.tolist(), ratios.tolist()):
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
            if best_ratio <= PIVOT_TOL:
                self.degenerate += 1
                stalled += 1
            else:
                stalled = 0
            self.pivot(leaving, entering)


def _budget(pivot_cap: int | None, n_rows: int, n_cols: int) -> int:
    return pivot_cap if pivot_cap is not None else 1000 + 50 * (n_rows + n_cols)


def _as_rows(rows: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(rows, dtype=float))


def _phase1(a: np.ndarray, rhs: np.ndarray, senses: list[str]) -> FeasibleStart:
    b = np.asarray(rhs, dtype=float).copy()
    n_rows, n_vars = a.shape
    if b.shape != (n_rows,) or len(senses) != n_rows:
        raise ValueError("rows, rhs and senses must have matching lengths")
    for sense in senses:
        if sense not in ("==", ">=", "<="):
            raise ValueError(f"unknown sense {sense!r}")

    # standard form: flip rows with negative rhs, then add slack/surplus and
    # artificial columns; record each row's sign and initial identity column
    sign = np.where(b < 0, -1.0, 1.0)
    flip = {"==": "==", ">=": "<=", "<=": ">="}
    std_senses = [flip[s] if b[i] < 0 else s for i, s in enumerate(senses)]
    b *= sign
    slack_cols: dict[int, int] = {}
    art_cols: dict[int, int] = {}
    extra: list[tuple[int, float]] = []  # (row, entry) of each added column
    col = n_vars
    for i, sense in enumerate(std_senses):
        if sense == "<=":
            extra.append((i, 1.0))
            slack_cols[i] = col
            col += 1
        elif sense == ">=":
            extra.append((i, -1.0))
            col += 1
    first_art = col
    for i, sense in enumerate(std_senses):
        if sense != "<=":
            extra.append((i, 1.0))
            art_cols[i] = col
            col += 1
    n_cols = col

    # tableau: constraint rows, then the phase-1 reduced-cost row
    tab = np.zeros((n_rows + 1, n_cols + 1))
    tab[:n_rows, :n_vars] = a
    tab[:n_rows, :n_vars] *= sign[:, None]
    for j, (i, entry) in enumerate(extra, start=n_vars):
        tab[i, j] = entry
    tab[:n_rows, -1] = b

    basis = [art_cols.get(i, slack_cols.get(i, -1)) for i in range(n_rows)]
    z1 = n_rows
    for j in art_cols.values():
        tab[z1, j] = 1.0
    for i in art_cols:
        tab[z1] -= tab[i]

    if not art_cols:
        return FeasibleStart(n_cols=n_cols, phase1_pivots=0, degenerate_pivots=0,
                             dropped_rows=0, fixed_cols=0, tab=tab, basis=tuple(basis),
                             cols=np.arange(n_cols))

    state = _Tableau(tab, basis, 0, _budget(None, n_rows, n_cols), np.empty_like(tab))
    if state.run_phase() == UNBOUNDED:
        raise SimplexFailure("phase-1 objective reported unbounded")
    if -tab[z1, -1] > FEASIBILITY_TOL:
        duals = np.zeros(n_rows)
        for i in range(n_rows):
            if i in art_cols:
                duals[i] = 1.0 - tab[z1, art_cols[i]]
            else:
                duals[i] = -tab[z1, slack_cols[i]]
        return FeasibleStart(n_cols=n_cols, phase1_pivots=state.pivots,
                             degenerate_pivots=state.degenerate, dropped_rows=0,
                             fixed_cols=0, farkas_duals=sign * duals)

    # columns of positive phase-1 reduced cost are zero at every feasible point
    fixed = tab[z1, :first_art] > FEASIBILITY_TOL
    # drive leftover basic artificials out (or drop redundant rows)
    drop: list[int] = []
    for i in range(n_rows):
        if basis[i] >= first_art:
            nonzero = np.abs(tab[i, :first_art]) > PIVOT_TOL
            if nonzero.any():
                state.pivot(i, int(nonzero.argmax()))
            else:
                drop.append(i)
    # no artificial is basic now, so its column is never read again; a pivot
    # updates each column from itself and the pivot column only, so the kept
    # columns hold the same bits as in the untrimmed tableau
    keep = [i for i in range(n_rows + 1) if i not in drop]
    if drop:
        tab = tab[keep]
    basis = [basis[i] for i in keep[:-1]]
    fixed[basis] = False  # a drive-out pivot may enter a fixed column, at zero
    cols = np.flatnonzero(~fixed)
    start_tab = np.empty((len(keep), cols.size + 1))
    # with nothing fixed a slice copies without a full-width temporary
    start_tab[:, :-1] = tab[:, cols] if cols.size < first_art else tab[:, :first_art]
    start_tab[:, -1] = tab[:, -1]
    return FeasibleStart(n_cols=n_cols, phase1_pivots=state.pivots,
                         degenerate_pivots=state.degenerate, dropped_rows=len(drop),
                         fixed_cols=first_art - cols.size, tab=start_tab,
                         basis=tuple(np.searchsorted(cols, basis).tolist()), cols=cols)


def feasible_start(rows: np.ndarray, rhs: np.ndarray, senses: list[str]) -> FeasibleStart:
    """Phase 1 of the rows, as a start for any number of ``solve_lp`` calls.

    The start is read-only: every solve from it that must pivot works on its
    own copy, so threads may share one start.
    """
    start = _phase1(np.ascontiguousarray(_as_rows(rows)),
                    np.ascontiguousarray(rhs, dtype=float), senses)
    for arr in (start.tab, start.cols, start.farkas_duals):
        if arr is not None:
            arr.flags.writeable = False
    return start


def solve_lp(
    objective: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
    senses: list[str],
    *,
    maximize: bool = False,
    pivot_cap: int | None = None,
    start: FeasibleStart | None = None,
) -> LPResult:
    """Optimize ``objective`` over the rows, from their ``feasible_start``.

    ``start`` must be ``feasible_start`` of these rows, right-hand sides and
    senses; without it the phase 1 runs here.  The start is copied only when
    the objective needs a pivot.  The pivot cap counts the start's phase-1
    pivots as well.
    """
    c_orig = np.asarray(objective, dtype=float)
    a = _as_rows(rows)
    n_vars = a.shape[1]
    if c_orig.shape != (n_vars,):
        raise ValueError(f"objective length {c_orig.shape} != variable count {n_vars}")
    if start is None:
        start = feasible_start(a, rhs, senses)
    budget = _budget(pivot_cap, len(senses), start.n_cols)
    if start.phase1_pivots > budget:
        raise SimplexFailure(f"pivot limit {budget} exceeded")
    counters = dict(phase1_pivots=start.phase1_pivots,
                    degenerate_pivots=start.degenerate_pivots, dropped_rows=start.dropped_rows,
                    fixed_cols=start.fixed_cols)
    if start.farkas_duals is not None:
        return LPResult(status=INFEASIBLE, farkas_duals=start.farkas_duals.copy(), **counters)

    # phase-2 reduced costs c - c_B.T over the kept columns, with the basic
    # columns exactly zero
    tab, cols = start.tab, start.cols
    c = np.zeros(start.n_cols)
    c[:n_vars] = -c_orig if maximize else c_orig
    c = c[cols]
    basis = list(start.basis)
    cost = np.zeros(tab.shape[1])
    cost[:-1] = c
    for i, j in enumerate(basis):
        if c[j] != 0.0:
            cost -= c[j] * tab[i]
    cost[basis] = 0.0

    if (cost[:-1] < -PIVOT_TOL).any():
        tab = tab.copy()
        tab[-1] = cost
        state = _Tableau(tab, basis, start.phase1_pivots, budget, np.empty_like(tab))
        status = state.run_phase()
        counters["phase2_pivots"] = state.pivots - start.phase1_pivots
        counters["degenerate_pivots"] += state.degenerate
        if status == UNBOUNDED:
            return LPResult(status=UNBOUNDED, **counters)

    basic = cols[basis]
    x = np.zeros(start.n_cols)
    x[basic] = tab[:-1, -1]
    solution = x[:n_vars]
    # c.x over the basic structural columns, in row order: every other entry
    # of x is zero, and a dot product over all of them is a BLAS call that
    # may spread over threads and cost milliseconds
    structural = basic < n_vars
    value = 0.0
    for term in (c_orig[basic[structural]] * tab[:-1, -1][structural]).tolist():
        value += term
    return LPResult(status=OPTIMAL, x=solution, objective=value, **counters)
