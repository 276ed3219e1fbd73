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

The solver works on one standard form (V. Chvatal, *Linear Programming*,
1983, ch. 7-8), written out as one C-contiguous matrix.  A row with a
negative right side is flipped, sense and all.  The columns are numbered
structural first, then one slack (entry 1, a '<=' row) or surplus (entry -1,
a '>=' row) per inequality row in row order, then one artificial (entry 1)
per '==' or '>=' row in row order; every column, whatever its kind, is read
from the matrix alike.  Phase 1 starts
from the identity basis of each '<=' row's slack and every other row's
artificial, and minimizes the sum of the artificials; its multipliers are
the Farkas duals above.  An artificial left basic at zero is pivoted out on
the first structural or slack column nonzero in its row, and a row with none
is redundant and dropped (``dropped_rows``).

Every LP, of any shape and also one with no rows, runs the rule on the
revised form (G. B. Dantzig and W. Orchard-Hays, "The product form for the
inverse in the simplex method", 1954; Chvatal, ch. 7).  The solver state
(``_Simplex``) keeps the basis, an explicit inverse of the basis matrix, the
basic values x_B and the multipliers ``y = c_B.B^-1``, and prices
``c - y.A`` straight from the matrix, so a pivot reads the matrix once and
updates (k + 1) x (k + 1) numbers with one rank-1 step.  The inverse is
never refactorized.  Every entry of the input must be finite.  No sum goes
through BLAS or LAPACK, whose order varies by build: every sum over rows or
basis positions is an ``np.einsum("i,ij->j", ...)`` over a C-contiguous
matrix, which adds its terms in index order, as a scalar loop does.

Phase 1 depends only on the constraints, so it runs once per constraint set:
``feasible_start`` returns the basis after phase 1 with its inverse, and a
caller that asks several questions about one set passes that start to every
``solve_lp`` call; without one, ``solve_lp`` runs its own phase 1.  The
solver keeps no state between calls.  The start keeps its own copy of the
kept rows over every structural and slack column, k x (n + s) floats, and
drops the artificial columns.  Phase 2 prices every column it keeps, also
those that every feasible point holds at zero (the presolve,
``credal.presolve``, removes the ones its forcing rows name before the rows
reach the solver).  Pricing and the ratio test are numpy passes
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
    degenerate_pivots: int = 0  # both phases; see _Simplex.degenerate
    dropped_rows: int = 0  # redundant equality rows removed after phase 1


@dataclass(frozen=True)
class FeasibleStart:
    """Outcome of phase 1 for one constraint set; read-only, so shareable.

    Columns are numbered as the module docstring says.  On a feasible set
    ``basis`` holds the basic column of each kept row; ``inverse`` the basis
    inverse with x_B as a last column; and ``rows`` the kept rows in
    standard form over the structural and slack columns, a C-contiguous
    array of the start's own.  The artificial columns are never read again
    and are not kept.  An infeasible set carries ``farkas_duals`` instead,
    and those three fields are ``None``.  ``point`` reads the basic
    solution off them.
    """

    n_vars: int  # structural columns
    n_cols: int  # phase-1 columns; sets the pivot budget
    phase1_pivots: int
    degenerate_pivots: int
    dropped_rows: int
    basis: tuple[int, ...] | None = None
    farkas_duals: np.ndarray | None = None
    inverse: np.ndarray | None = None
    rows: np.ndarray | None = None

    @property
    def point(self) -> np.ndarray | None:
        """The basic solution over the structural columns, x_B on the basic
        ones and 0 on the rest, the point a zero objective's ``solve_lp``
        from this start returns; ``None`` on an infeasible set."""
        if self.basis is None:
            return None
        basis = np.array(self.basis, dtype=int)
        structural = basis < self.n_vars
        x = np.zeros(self.n_vars)
        x[basis[structural]] = self.inverse[structural, -1]
        return x


class _Simplex:
    """The solver state of one solve, its pivot and the rule over it.

    ``table`` is the tableau cut down to the columns of the first basis, an
    identity, and the right-hand side, with the multipliers for its cost
    row: ``table[:k, :k]`` is B^-1, ``table[:k, k]`` the basic values
    ``values`` (x_B), ``table[k, :k]`` the multipliers ``y = c_B.B^-1`` and
    ``table[k, k]`` c_B.x_B.  ``basis`` holds each row's basic column,
    ``pivots`` counts against ``budget`` over both phases, ``degenerate``
    counts the ratio-test pivots of step length at most ``PIVOT_TOL``, and
    ``buf`` is the rank-1 step's scratch.  ``rows`` hold every priced
    column, slack and artificial columns written out (C-contiguous), and
    ``cost`` every priced column's cost.  ``costs()`` returns every priced
    column's reduced cost ``c - y.A``; ``column(j)`` sets ``alpha`` to
    B^-1 times column ``j``, with minus its reduced cost as the cost row's
    factor, and returns its entries over the constraint rows, which the
    ratio test reads; ``row(i)`` returns row ``i`` of B^-1 times every
    priced column, which phase 1's drive-out reads.  ``pivot`` steps on the
    ``alpha`` that ``column`` last set.
    """

    alpha: np.ndarray

    def __init__(self, rows: np.ndarray, inverse: np.ndarray, basis: np.ndarray, pivots: int,
                 budget: int, cost: np.ndarray) -> None:
        """``inverse`` is B^-1 with x_B as a last column; the cost row is
        summed from it over the basis positions in order."""
        k = len(basis)
        table = np.empty((k + 1, k + 1))
        table[:k] = inverse
        table[k] = np.einsum("i,ij->j", cost[basis], inverse)
        self.table = table
        self.values = table[:k, k]
        self.y = table[k, :k]
        self.basis = basis
        self.pivots = pivots
        self.degenerate = 0
        self.budget = budget
        self.buf = np.empty_like(table)
        self.rows = rows
        self.cost = cost
        self.reduced = np.empty_like(cost)

    def costs(self) -> np.ndarray:
        np.einsum("i,ij->j", self.y, self.rows, out=self.reduced)
        return np.subtract(self.cost, self.reduced, out=self.reduced)

    def column(self, col: int) -> np.ndarray:
        """B^-1 a, summed over the rows with the table transposed."""
        k = len(self.basis)
        self.alpha = np.einsum("i,ij->j", self.rows[:, col],
                               np.ascontiguousarray(self.table[:, :k].T))
        self.alpha[k] = -self.reduced[col]
        return self.alpha[:k]

    def row(self, i: int) -> np.ndarray:
        return np.einsum("i,ij->j", self.table[i, :len(self.basis)], self.rows)

    def pivot(self, row: int, col: int) -> None:
        """The rank-1 step on ``table`` that makes ``alpha`` the unit vector
        of ``row``; the cost row moves by the entering column's reduced cost
        times the pivot row, which keeps y = c_B.B^-1."""
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
        moves the vertex, so that no basis repeats and the phase ends.
        """
        basis = self.basis
        ratios = np.empty(len(basis))  # per row max(b, 0) / a where a > PIVOT_TOL, else inf
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
            ratios.fill(np.inf)
            np.divide(self.values, col_vals, out=ratios, where=col_vals > PIVOT_TOL)
            np.maximum(ratios, 0.0, out=ratios)
            least = float(np.fmin.reduce(ratios, initial=np.inf))  # skips NaN ratios
            if least == np.inf:
                return UNBOUNDED
            tied = np.flatnonzero(ratios <= least + PIVOT_TOL)
            leaving = int(tied[basis[tied].argmin()])
            if ratios[leaving] <= PIVOT_TOL:
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
    sign = np.where(b < 0, -1.0, 1.0)
    b *= sign
    slack_rows = slacks.nonzero()[0]
    art_rows = (slacks <= 0.0).nonzero()[0]
    first_art = n_vars + len(slack_rows)
    n_cols = first_art + len(art_rows)
    rows = np.zeros((n_rows, n_cols))
    np.multiply(a, sign[:, None], out=rows[:, :n_vars])
    rows[slack_rows, np.arange(n_vars, first_art)] = slacks[slack_rows]
    rows[art_rows, np.arange(first_art, n_cols)] = 1.0
    # the first basis, an identity
    first = np.empty(n_rows, dtype=int)
    first[slack_rows] = np.arange(n_vars, first_art)
    first[art_rows] = np.arange(first_art, n_cols)  # over a '>=' row's surplus
    cost = np.zeros(n_cols)
    cost[first_art:] = 1.0
    state = _Simplex(rows, np.hstack((np.eye(n_rows), b[:, None])), first, 0,
                     _budget(n_rows, n_cols), cost)
    if state.run_phase() == UNBOUNDED:
        raise SimplexFailure("phase-1 objective reported unbounded")
    if state.table[-1, -1] > FEASIBILITY_TOL:  # the multipliers y are the Farkas duals
        return FeasibleStart(n_vars=n_vars, n_cols=n_cols, phase1_pivots=state.pivots,
                             degenerate_pivots=state.degenerate, dropped_rows=0,
                             farkas_duals=sign * state.y)

    drop = state.drive_out(first_art)
    kept = [i for i in range(n_rows) if i not in drop]
    # a dropped position's basic column is its artificial, the unit vector of
    # that artificial's row, so B^-1 is 0 in that row's column but at the
    # position: deleting the position's row and the row's column leaves
    # exactly the inverse of the kept basis
    gone = art_rows[state.basis[drop] - first_art].tolist()
    kept_rows = [r for r in range(n_rows) if r not in gone]
    return FeasibleStart(n_vars=n_vars, n_cols=n_cols, phase1_pivots=state.pivots,
                         degenerate_pivots=state.degenerate, dropped_rows=len(drop),
                         basis=tuple(state.basis[kept].tolist()),
                         inverse=state.table[np.ix_(kept, kept_rows + [n_rows])],
                         rows=rows[kept_rows, :first_art])


def feasible_start(rows: np.ndarray, rhs: np.ndarray, senses: list[str]) -> FeasibleStart:
    """Phase 1 of the rows, as a start for any number of ``solve_lp`` calls.

    The start is read-only: every solve from it that must pivot works on its
    own copy.  The start keeps its own read-only copy of the kept rows in
    standard form, k x (n + s) floats for k kept rows and s slack columns,
    and no view of ``rows``.
    """
    start = _phase1(_as_rows(rows), np.ascontiguousarray(rhs, dtype=float), senses)
    for arr in (start.farkas_duals, start.inverse, start.rows):
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
    senses; without it the phase 1 runs here.  The solve pivots on its own
    copy of the start's inverse.  The pivot budget (``_budget``) counts the
    start's phase-1 pivots as well.
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
    cost = np.zeros(start.rows.shape[1])
    cost[:n_vars] = c
    state = _Simplex(start.rows, start.inverse, basis, start.phase1_pivots, budget, cost)
    status = state.run_phase()
    counters["phase2_pivots"] = state.pivots - start.phase1_pivots
    counters["degenerate_pivots"] += state.degenerate
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, **counters)

    # c.x over the basic structural columns, in row order: every other entry
    # of x is zero, and a dot product over all of them is a BLAS call that
    # may spread over threads and cost milliseconds
    structural = basis < n_vars
    columns, values = basis[structural], state.values[structural]
    solution = np.zeros(n_vars)
    solution[columns] = values
    value = 0.0
    for term in (c_orig[columns] * values).tolist():
        value += term
    return LPResult(status=OPTIMAL, x=solution, objective=value, **counters)
