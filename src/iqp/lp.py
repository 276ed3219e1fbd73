"""Two-phase simplex solver with Dantzig pricing and a Bland fallback.

Each pivot enters the column of most negative reduced cost (Dantzig; ties go
to the smallest column).  The leaving row is Bland's: among the rows whose
ratio lies within ``PIVOT_TOL`` of the least, the one of smallest basic index
(R. G. Bland, "New finite pivoting rules for the simplex method", Math. Oper.
Res. 2, 1977).  After ``STALL_CAP`` consecutive degenerate pivots a phase
enters the smallest column of negative reduced cost until a pivot moves the
vertex, then returns to Dantzig; that fallback is Bland's rule in both
halves, and staying on it until the objective strictly improves is what
keeps every phase finite.

Small, self-contained and deterministic: identical inputs produce identical
pivot sequences, so witnesses, infeasibility certificates and every output
written from them are reproducible byte for byte across runs and platforms.
Problems are given in row form::

    minimize (or maximize) c.x  subject to  A[i].x (sense[i]) b[i],  x >= 0

with senses '==', '>=' or '<='.  When the system is infeasible the solver
returns row multipliers ``y`` (the phase-1 duals) satisfying, up to pivot
tolerance, ``y.A <= 0`` componentwise with ``y.b > 0``; the multipliers are
sign-constrained by sense (>= rows give y >= 0, <= rows y <= 0, == rows free).

Both forms below solve one standard form (V. Chvatal, *Linear Programming*,
1983, ch. 7-8).  A row with a negative right side is flipped, sense and all.
The columns are numbered structural first, then one slack (entry 1, a '<='
row) or surplus (entry -1, a '>=' row) per inequality row in row order, then
one artificial (entry 1) per '==' or '>=' row in row order.  Phase 1 starts
from the identity basis of each '<=' row's slack and every other row's
artificial, and minimizes the sum of the artificials; its multipliers are
the Farkas duals above.  An artificial left basic at zero is pivoted out on
the first structural or slack column nonzero in its row, and a row with none
is redundant and dropped (``dropped_rows``).

The rule runs in one of two forms, and the LP's shape picks it.  An LP with
at least ``REVISED_RATIO`` structural columns per row takes the revised form
(G. B. Dantzig and W. Orchard-Hays, "The product form for the inverse in the
simplex method", 1954; Chvatal, ch. 7): it
keeps the basis, an explicit inverse of the basis matrix and the basic values
x_B, and prices ``c - y.A`` straight from the rows with ``y = c_B.B^-1``, so
a pivot reads the rows once and updates k x k numbers.  Every narrower LP
keeps the dense tableau, whose pivots update all (k + 1) x (columns + 1)
cells; with few columns per row that is the cheaper form.  Both forms make
the same pivots in exact arithmetic.  In floats they can break a near-tie
differently, so a wide LP may end on another optimal vertex of the same
value than the tableau would reach.

The forms share everything but their storage and pricing: the solver state
and the rule (``_Pivoting``), one rank-1 pivot on a table whose last row
prices and whose last column holds the basic values, phase 1 and the
phase-2 run.  Each form supplies only its reduced costs, its entering
column, a row of its tableau, its first state, its trim after dropped rows
and its phase-2 cost row.  Every entry of the input must be finite.  No sum
goes through BLAS or LAPACK, whose order varies by build: every sum over
rows or basis positions is an ``np.einsum("i,ij->j", ...)`` over a
C-contiguous matrix, which adds its terms in index order, as a scalar loop
does.

Phase 1 depends only on the constraints, so it runs once per constraint set:
``feasible_start`` returns the basis after phase 1 with its tableau or its
inverse, and a caller that asks several questions about one set passes that
start to every ``solve_lp`` call; without one, ``solve_lp`` runs its own
phase 1.  The solver keeps no state between calls.  The start drops the
artificial columns and keeps every structural and slack column, all of which
phase 2 prices, also those that every feasible point holds at zero
(``ConstraintSet.presolved`` removes the ones its forcing rows name before
the rows reach the solver).  Pricing and the ratio test are numpy passes
that pick the same entering column and leaving row as a scalar loop with the
same rule, so a solve makes the same pivots whether its phase 1 ran fresh or
was passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEASIBILITY_TOL = 1e-9
# Consecutive degenerate pivots after which pricing falls back to Bland's rule,
# chosen by measurement (the table is in CHANGES.md).  It stays below the
# smallest pivot budget (1000, ``_budget``), so a cycling LP reaches the fallback.
STALL_CAP = 500
# Structural columns per row from which an LP takes the revised form, chosen
# by measurement (the table is in CHANGES.md): on the benchmark's sets the
# revised form is 3-14% slower at 32-51 columns per row and 17-57% faster
# from 64 on.
REVISED_RATIO = 64

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
    degenerate_pivots: int = 0  # both phases; see _Pivoting.degenerate
    dropped_rows: int = 0  # redundant equality rows removed after phase 1


@dataclass(frozen=True)
class FeasibleStart:
    """Outcome of phase 1 for one constraint set; read-only, so shareable.

    Columns are numbered as the module docstring says.  ``basis`` holds the
    basic column of each kept row.  A tableau start holds in ``tab`` the
    constraint rows after phase 1 followed by one spare cost row, over the
    structural and slack columns and the right-hand side (the artificial
    columns are never read again and are trimmed).  A revised start holds
    instead ``inverse``, the basis inverse with x_B as a last column;
    ``rows``, the kept rows in standard form; and ``slacks``, each kept
    row's slack entry (0 on an '==' row), whose nonzero entries are the
    slack columns in order.  The forms' fields are ``None`` on the other
    form and on an infeasible set, which carries ``farkas_duals`` instead.
    """

    n_cols: int  # phase-1 columns; sets the pivot budget
    phase1_pivots: int
    degenerate_pivots: int
    dropped_rows: int
    tab: np.ndarray | None = None
    basis: tuple[int, ...] | None = None
    farkas_duals: np.ndarray | None = None
    inverse: np.ndarray | None = None
    rows: np.ndarray | None = None
    slacks: np.ndarray | None = None


class _Pivoting:
    """The solver state both forms share, its pivot and the rule over it.

    ``table`` holds one row per constraint row and then a pricing row (the
    reduced costs, or the multipliers of the revised form), with the basic
    values ``values`` in its last column.  ``basis`` holds each row's basic
    column, ``pivots`` counts against ``budget`` over both phases,
    ``degenerate`` counts the ratio-test pivots of step length at most
    ``PIVOT_TOL``, and ``buf`` is the rank-1 step's scratch.  A form
    supplies only its pricing: ``costs()`` returns the reduced cost of every
    priced column; ``column(j)`` sets ``alpha`` to column ``j`` as the pivot
    sees it, one entry per row of ``table``, and returns its entries over
    the constraint rows, which the ratio test reads; ``row(i)`` returns row
    ``i`` of the current tableau over every priced column, which phase 1's
    drive-out reads.  ``pivot`` steps on the ``alpha`` that ``column`` last
    set.
    """

    alpha: np.ndarray

    def __init__(self, table: np.ndarray, basis: np.ndarray, values: np.ndarray, pivots: int,
                 budget: int, buf: np.ndarray) -> None:
        self.table = table
        self.basis = basis
        self.values = values
        self.pivots = pivots
        self.degenerate = 0
        self.budget = budget
        self.buf = buf

    def costs(self) -> np.ndarray:
        raise NotImplementedError

    def column(self, col: int) -> np.ndarray:
        raise NotImplementedError

    def row(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def pivot(self, row: int, col: int) -> None:
        """The rank-1 step on ``table`` that makes ``alpha`` the unit vector
        of ``row``; with ``alpha`` finite, the tableau's entering column comes
        out exactly 1 at ``row`` (a / a) and +0.0 elsewhere (x - x * 1)."""
        self.pivots += 1
        if self.pivots > self.budget:
            raise SimplexFailure(f"pivot limit {self.budget} exceeded")
        table = self.table
        table[row] /= self.alpha[row]
        factors = self.alpha.copy()
        factors[row] = 0.0
        # same products and differences as table -= np.outer(factors, table[row])
        np.multiply(factors[:, None], table[row], out=self.buf)
        table -= self.buf
        self.basis[row] = col

    def run_phase(self) -> str:
        """Pivot on the reduced costs until none is negative.

        Dantzig pricing enters the most negative reduced cost, ties going to
        the smallest column.  The leaving row is Bland's: the smallest basic
        index among the rows whose ratio is at most the least plus
        ``PIVOT_TOL``; a NaN ratio never leaves, and with no eligible row the
        phase is unbounded.  After ``STALL_CAP`` consecutive degenerate pivots
        (step length at most ``PIVOT_TOL``) it enters the smallest negative
        column instead, which makes both halves Bland's rule, until a pivot
        moves the vertex, so that no basis repeats and the phase ends.  The
        window's rows are gathered only when the second-least ratio lies in it.
        """
        basis = self.basis
        n_rows = len(basis)
        # per row max(b, 0) / a where a > PIVOT_TOL, inf elsewhere and in a
        # last entry that is always there, so an empty basis has a minimum
        ratios = np.full(n_rows + 1, np.inf)
        rows_ratios = ratios[:n_rows]
        stalled = 0
        while True:
            costs = self.costs()
            if stalled < STALL_CAP:
                entering = int(costs.argmin())
            else:
                entering = int((costs < -PIVOT_TOL).argmax())
            if not costs[entering] < -PIVOT_TOL:
                return OPTIMAL
            col_vals = self.column(entering)
            eligible = col_vals > PIVOT_TOL
            rows_ratios.fill(np.inf)
            np.divide(self.values, col_vals, out=rows_ratios, where=eligible)
            np.maximum(rows_ratios, 0.0, out=rows_ratios)
            leaving = int(ratios.argmin())  # a NaN ratio's row, when there is one
            best_ratio = float(ratios[leaving])
            ratios[leaving] = np.inf
            runner_up = float(ratios.min())
            ratios[leaving] = best_ratio
            if not runner_up > best_ratio + PIVOT_TOL:  # a tie, an inf or a NaN least
                if best_ratio != best_ratio:  # argmin's NaN, which never leaves
                    best_ratio = float(np.nanmin(ratios))
                if best_ratio == np.inf:
                    return UNBOUNDED
                tied = np.flatnonzero(rows_ratios <= best_ratio + PIVOT_TOL)
                leaving = int(tied[basis[tied].argmin()])
                best_ratio = float(rows_ratios[leaving])
            if best_ratio <= PIVOT_TOL:
                self.degenerate += 1
                stalled += 1
            else:
                stalled = 0
            self.pivot(leaving, entering)

    def drive_out(self, first_art: int) -> list[int]:
        """After phase 1, pivot each basic artificial (a column from
        ``first_art`` on) out on the first structural or slack column that is
        nonzero in its row; return the positions of the rows with none, which
        are redundant."""
        drop = []
        # a pivot at one position changes no other position's basic column
        for i, basic in enumerate(self.basis.tolist()):
            if basic >= first_art:
                nonzero = np.abs(self.row(i)[:first_art]) > PIVOT_TOL
                if nonzero.any():
                    col = int(nonzero.argmax())
                    self.column(col)  # the pivot is on the column last returned
                    self.pivot(i, col)
                else:
                    drop.append(i)
        return drop


class _Tableau(_Pivoting):
    """Dense-tableau state of one solve: ``table`` holds the constraint rows,
    then the reduced-cost row."""

    def __init__(self, table: np.ndarray, basis: np.ndarray, pivots: int, budget: int,
                 buf: np.ndarray) -> None:
        super().__init__(table, basis, table[:-1, -1], pivots, budget, buf)

    def costs(self) -> np.ndarray:
        return self.table[-1, :-1]

    def column(self, col: int) -> np.ndarray:
        self.alpha = self.table[:, col]
        return self.alpha[:-1]

    def row(self, i: int) -> np.ndarray:
        return self.table[i, :-1]


class _Revised(_Pivoting):
    """Revised-form state of one solve.

    ``table`` is the tableau cut down to the columns of the first basis, an
    identity, and the right-hand side, with the multipliers for its cost
    row: ``table[:k, :k]`` is B^-1, ``table[:k, k]`` x_B, ``table[k, :k]``
    y = c_B.B^-1 and ``table[k, k]`` c_B.x_B.  A pivot is the tableau's
    rank-1 step on it; the cost row moves by the entering column's reduced
    cost times the pivot row, which keeps y = c_B.B^-1.  ``rows`` are the
    standard-form structural rows (C-contiguous), and each priced column
    past them is a logical column, the unit vector of row
    ``logical_rows[j]`` times ``logical_signs[j]``; ``cost`` holds every
    priced column's cost.  ``column`` sets a new ``alpha`` on each call,
    whose last entry, the cost row's factor, is minus the entering column's
    reduced cost.
    """

    def __init__(self, rows: np.ndarray, logical_rows: np.ndarray, logical_signs: np.ndarray,
                 inverse: np.ndarray, basis: np.ndarray, pivots: int, budget: int,
                 cost: np.ndarray) -> None:
        """``inverse`` is B^-1 with x_B as a last column; the cost row is
        summed from it over the basis positions in order."""
        k = len(basis)
        table = np.empty((k + 1, k + 1))
        table[:k] = inverse
        table[k] = np.einsum("i,ij->j", cost[basis], inverse)
        super().__init__(table, basis, table[:k, k], pivots, budget, np.empty_like(table))
        self.y = table[k, :k]
        self.rows = rows
        self.logical_rows = logical_rows
        self.logical_signs = logical_signs
        self.cost = cost
        self.reduced = np.empty_like(cost)
        n_vars = rows.shape[1]
        self.structural = (cost[:n_vars], self.reduced[:n_vars])  # costs, reduced costs
        self.logical = (cost[n_vars:], self.reduced[n_vars:])

    def costs(self) -> np.ndarray:
        cost, reduced = self.structural
        np.einsum("i,ij->j", self.y, self.rows, out=reduced)
        np.subtract(cost, reduced, out=reduced)
        cost, reduced = self.logical
        np.subtract(cost, self.y[self.logical_rows] * self.logical_signs, out=reduced)
        return self.reduced

    def column(self, col: int) -> np.ndarray:
        n_vars, k = self.rows.shape[1], len(self.basis)
        if col < n_vars:  # B^-1 a, summed over the rows with the table transposed
            self.alpha = np.einsum("i,ij->j", self.rows[:, col],
                                   np.ascontiguousarray(self.table[:, :k].T))
        else:
            j = col - n_vars
            self.alpha = self.table[:, self.logical_rows[j]] * self.logical_signs[j]
        self.alpha[k] = -self.reduced[col]
        return self.alpha[:k]

    def row(self, i: int) -> np.ndarray:
        """B^-1[i] times the structural rows, then times each logical column."""
        inverse_row = self.table[i, :len(self.basis)]
        return np.concatenate((np.einsum("i,ij->j", inverse_row, self.rows),
                               inverse_row[self.logical_rows] * self.logical_signs))


def _budget(n_rows: int, n_cols: int) -> int:
    """Pivots allowed to one solve, both phases together."""
    return 1000 + 50 * (n_rows + n_cols)


def _as_rows(rows: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(rows, dtype=float))


def _phase1(a: np.ndarray, rhs: np.ndarray, senses: list[str]) -> FeasibleStart:
    b = np.asarray(rhs, dtype=float).copy()
    n_rows, n_vars = a.shape
    if b.shape != (n_rows,) or len(senses) != n_rows:
        raise ValueError("rows, rhs and senses must have matching lengths")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("rows and rhs must be finite")
    # each sense's slack entry in standard form, on a row kept and on a row flipped
    entries = {"<=": (1.0, -1.0), ">=": (-1.0, 1.0), "==": (0.0, 0.0)}
    for sense in senses:
        if sense not in entries:
            raise ValueError(f"unknown sense {sense!r}")

    # the standard form, its columns numbered as the module docstring says
    slacks = np.array([entries[s][v < 0] for s, v in zip(senses, b.tolist())])
    flip = b < 0
    sign = np.where(flip, -1.0, 1.0)
    b *= sign
    rows = a * sign[:, None] if flip.any() else a
    slack_rows = slacks.nonzero()[0]
    art_rows = (slacks <= 0.0).nonzero()[0]
    first_art = n_vars + len(slack_rows)
    n_cols = first_art + len(art_rows)
    # the first basis, an identity
    first = np.empty(n_rows, dtype=int)
    first[slack_rows] = np.arange(n_vars, first_art)
    first[art_rows] = np.arange(first_art, n_cols)  # over a '>=' row's surplus
    budget = _budget(n_rows, n_cols)

    revised = n_rows > 0 and n_vars >= REVISED_RATIO * n_rows
    if revised:
        cost = np.zeros(n_cols)
        cost[first_art:] = 1.0
        state = _Revised(rows, np.concatenate((slack_rows, art_rows)),
                         np.concatenate((slacks[slack_rows], np.ones(len(art_rows)))),
                         np.hstack((np.eye(n_rows), b[:, None])), first.copy(), 0, budget, cost)
    else:  # the constraint rows, then the phase-1 reduced-cost row
        tab = np.zeros((n_rows + 1, n_cols + 1))
        tab[:n_rows, :n_vars] = rows
        tab[slack_rows, np.arange(n_vars, first_art)] = slacks[slack_rows]
        tab[art_rows, np.arange(first_art, n_cols)] = 1.0
        tab[:n_rows, -1] = b
        tab[-1, first_art:-1] = 1.0
        for i in art_rows.tolist():
            tab[-1] -= tab[i]
        state = _Tableau(tab, first.copy(), 0, budget, np.empty_like(tab))
    if state.run_phase() == UNBOUNDED:
        raise SimplexFailure("phase-1 objective reported unbounded")

    if (state.table[-1, -1] if revised else -state.table[-1, -1]) > FEASIBILITY_TOL:
        # the multipliers y; the tableau's cost row holds c - y.A, so there y
        # is 1 - z on a first-basis artificial and -z on a slack
        if revised:
            duals = state.y
        else:
            z = state.table[-1, first]
            duals = np.where(first >= first_art, 1.0 - z, -z)
        return FeasibleStart(n_cols=n_cols, phase1_pivots=state.pivots,
                             degenerate_pivots=state.degenerate, dropped_rows=0,
                             farkas_duals=sign * duals)

    drop = state.drive_out(first_art)
    kept = [i for i in range(n_rows) if i not in drop]
    counters = dict(n_cols=n_cols, phase1_pivots=state.pivots, degenerate_pivots=state.degenerate,
                    dropped_rows=len(drop), basis=tuple(state.basis[kept].tolist()))
    if not revised:
        # no artificial is basic now, so its column is never read again
        tab = state.table[kept + [n_rows]] if drop else state.table
        return FeasibleStart(tab=np.hstack((tab[:, :first_art], tab[:, -1:])), **counters)
    inverse = state.table[:n_rows].copy()
    if drop:
        # a dropped position's basic column is its artificial, the unit vector
        # of that artificial's row, so B^-1 is 0 in that row's column but at
        # the position: deleting the position's row and the row's column
        # leaves exactly the inverse of the kept basis
        gone = art_rows[state.basis[drop] - first_art].tolist()
        kept_rows = [r for r in range(n_rows) if r not in gone]
        inverse = inverse[np.ix_(kept, kept_rows + [n_rows])]
        rows, slacks = rows[kept_rows], slacks[kept_rows]
    return FeasibleStart(inverse=inverse, rows=rows.view(), slacks=slacks, **counters)


def feasible_start(rows: np.ndarray, rhs: np.ndarray, senses: list[str]) -> FeasibleStart:
    """Phase 1 of the rows, as a start for any number of ``solve_lp`` calls.

    The start is read-only: every solve from it that must pivot works on its
    own copy, so threads may share one start.  A revised start refers to
    ``rows`` through a read-only view unless a flip or a dropped row made it
    copy them.
    """
    start = _phase1(np.ascontiguousarray(_as_rows(rows)),
                    np.ascontiguousarray(rhs, dtype=float), senses)
    for arr in (start.tab, start.farkas_duals, start.inverse, start.rows, start.slacks):
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
    start: FeasibleStart | None = None,
) -> LPResult:
    """Optimize ``objective`` over the rows, from their ``feasible_start``.

    ``start`` must be ``feasible_start`` of these rows, right-hand sides and
    senses; without it the phase 1 runs here.  A tableau start is copied
    only when the objective needs a pivot.  The pivot budget (``_budget``)
    counts the start's phase-1 pivots as well.
    """
    c_orig = np.asarray(objective, dtype=float)
    a = _as_rows(rows)
    n_vars = a.shape[1]
    if c_orig.shape != (n_vars,):
        raise ValueError(f"objective length {c_orig.shape} != variable count {n_vars}")
    if not np.isfinite(c_orig).all():
        raise ValueError("objective must be finite")
    if start is None:
        start = feasible_start(a, rhs, senses)
    counters = dict(phase1_pivots=start.phase1_pivots,
                    degenerate_pivots=start.degenerate_pivots, dropped_rows=start.dropped_rows)
    if start.farkas_duals is not None:
        return LPResult(status=INFEASIBLE, farkas_duals=start.farkas_duals.copy(), **counters)
    c = -c_orig if maximize else c_orig
    budget = _budget(len(senses), start.n_cols)

    basis = np.array(start.basis, dtype=int)
    state: _Pivoting | None = None
    if start.inverse is not None:  # the revised form
        slack_rows = np.flatnonzero(start.slacks)
        cost = np.zeros(n_vars + len(slack_rows))
        cost[:n_vars] = c
        state = _Revised(start.rows, slack_rows, start.slacks[slack_rows], start.inverse,
                         basis, start.phase1_pivots, budget, cost)
    else:
        # phase-2 reduced costs c - c_B.T, with the basic columns exactly zero
        tab = start.tab
        cost = np.zeros(tab.shape[1])
        cost[:n_vars] = c
        for i, j in enumerate(start.basis):
            if j < n_vars and c[j] != 0.0:
                cost -= c[j] * tab[i]
        cost[basis] = 0.0
        values = tab[:-1, -1]
        if (cost[:-1] < -PIVOT_TOL).any():
            tab = tab.copy()
            tab[-1] = cost
            state = _Tableau(tab, basis, start.phase1_pivots, budget, np.empty_like(tab))
    if state is not None:
        status = state.run_phase()
        counters["phase2_pivots"] = state.pivots - start.phase1_pivots
        counters["degenerate_pivots"] += state.degenerate
        if status == UNBOUNDED:
            return LPResult(status=UNBOUNDED, **counters)
        values = state.values

    # c.x over the basic structural columns, in row order: every other entry
    # of x is zero, and a dot product over all of them is a BLAS call that
    # may spread over threads and cost milliseconds
    structural = basis < n_vars
    columns, values = basis[structural], values[structural]
    solution = np.zeros(n_vars)
    solution[columns] = values
    value = 0.0
    for term in (c_orig[columns] * values).tolist():
        value += term
    return LPResult(status=OPTIMAL, x=solution, objective=value, **counters)
