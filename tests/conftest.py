"""Shared fixtures and independent oracles for the test suite.

Oracles here never call the package's LP path: bounds are cross-checked by
closed-form marginal arithmetic, brute-force polytope vertex enumeration and
scipy's independent solver.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from iqp import credal, lp
from iqp.credal import ConstraintSet, LinearConstraint, born_constraints
from iqp.events import Event, TrajectorySpace, event_probability, sset_event
from iqp.scenarios import ScenarioConfig, build_constraints, build_system
from iqp.system import (
    QuantumSystem,
    Region,
    SSet,
    dft_matrix,
    hadamard_matrix,
    identity_matrix,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


# --- reference systems -------------------------------------------------------


@pytest.fixture
def hti_system() -> QuantumSystem:
    """Hadamard then identity: the two-path splitter with free propagation."""
    return QuantumSystem(
        ["x0", "x1"], [hadamard_matrix(), identity_matrix(2)], [1.0, 0.0]
    )


@pytest.fixture
def mz_system() -> QuantumSystem:
    """Two Hadamard steps: recombining interferometer."""
    return QuantumSystem(
        ["x0", "x1"], [hadamard_matrix(), hadamard_matrix()], [1.0, 0.0]
    )


@pytest.fixture
def balanced_identity_system() -> QuantumSystem:
    """Identity step on an equal-weight state: the Frechet-gap instance."""
    return QuantumSystem(
        ["x0", "x1"], [identity_matrix(2)], [SQRT_HALF, SQRT_HALF]
    )


def sset(t: int, labels: list[int], m: int = 2) -> SSet:
    return SSet(t, Region.from_labels(labels, m))


def cardinality(event: Event) -> int:
    """The number of trajectories in ``event``."""
    return int(event.bits.sum())


def violation(con: LinearConstraint, probs: np.ndarray) -> float:
    """How far ``probs`` falls short of the row ``con``, 0 when it meets it."""
    return max(con.rhs - event_probability(probs, con.event), 0.0)


# --- closed-form oracles ------------------------------------------------------


def frechet_intersection(marginals: list[float]) -> tuple[float, float]:
    """Sharp bounds on an intersection from marginal probabilities alone."""
    lower = max(0.0, sum(marginals) - (len(marginals) - 1))
    return lower, min(marginals)


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian with phase fixing."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(rng: np.random.Generator, m: int) -> np.ndarray:
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return z / np.linalg.norm(z)


def random_system(
    rng: np.random.Generator, m: int | None = None, n: int | None = None
) -> QuantumSystem:
    m = m if m is not None else int(rng.integers(2, 4))
    n = n if n is not None else int(rng.integers(2, 4))
    steps = [random_unitary(rng, m) for _ in range(n - 1)]
    labels = [f"x{i}" for i in range(m)]
    return QuantumSystem(labels, steps, random_state(rng, m))


def random_event(rng: np.random.Generator, space: TrajectorySpace) -> Event:
    return Event(rng.random(space.size) < rng.random())


def seeded_config(m, n, kind, ruleset, chain, seed):
    """A seeded DFT or random-unitary system with region-size-1 typicality rows."""
    rng = np.random.default_rng(seed)
    psi = random_state(rng, m)
    steps = [dft_matrix(m) if kind == "dft" else random_unitary(rng, m) for _ in range(n - 1)]
    return ScenarioConfig(
        labels=tuple(f"x{i}" for i in range(m)),
        steps=tuple(steps),
        psi0=tuple(psi),
        ruleset=tuple(ruleset.split("+")),
        tau_norm=1e-9,
        time_pairs=tuple((t, t + 1) for t in range(n - 1)) if chain else None,
    )


def realize(cfg):
    system = build_system(cfg)
    space = TrajectorySpace.for_system(system)
    return space, build_constraints(cfg, system, space)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name, record=...)`` wraps ``owner.name`` for one test.

    Returns the list that gets ``record(*args)`` (by default the positional
    arguments) for every call; the wrapped callable still runs.  A class
    attribute (a method, ``__init__``) or a module global both work, since
    the wrapper replaces the attribute the caller resolves.
    """
    def install(owner, name, record=lambda *args: args):
        calls = []
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(record(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)
        return calls

    return install


@pytest.fixture
def phase1_calls(count_calls):
    """Empties the queries' one slot (``_reading``) and records the shape of
    every phase 1 run after."""
    credal._reading.cache_clear()
    return count_calls(lp, "_phase1", lambda a, *rest: a.shape)


# --- brute-force vertex enumeration -------------------------------------------


def polytope_vertices(
    cs: ConstraintSet, tol: float = 1e-9
) -> list[np.ndarray]:
    """All vertices of the credal polytope by active-set enumeration.

    Rows considered: the normalization equality (always active), every
    lower-bound constraint row and every non-negativity row.  Usable only at
    desk scale.
    """
    dim = cs.space.size
    eq_rows = [(np.ones(dim), 1.0)]
    cand_rows = [(con.event.bits.astype(float), con.rhs) for con in cs.constraints]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        cand_rows.append((e, 0.0))

    need = dim - len(eq_rows)
    vertices: list[np.ndarray] = []
    seen: set[tuple] = set()
    for combo in combinations(range(len(cand_rows)), need):
        rows = [r for r, _ in eq_rows] + [cand_rows[i][0] for i in combo]
        rhs = [b for _, b in eq_rows] + [cand_rows[i][1] for i in combo]
        mat = np.array(rows)
        if np.linalg.matrix_rank(mat, tol=1e-10) < dim:
            continue
        try:
            x = np.linalg.solve(mat, np.array(rhs))
        except np.linalg.LinAlgError:
            continue
        if x.min() < -tol or abs(x.sum() - 1.0) > tol:
            continue
        ok = True
        for row, bound in cand_rows[: len(cand_rows) - dim]:
            if row @ x < bound - tol:
                ok = False
                break
        if not ok:
            continue
        key = tuple(np.round(x, 9))
        if key not in seen:
            seen.add(key)
            vertices.append(x)
    return vertices


def vertex_bounds(cs: ConstraintSet, event: Event) -> tuple[float, float]:
    """Min/max event probability over brute-force enumerated vertices."""
    values = [float(v[event.bits].sum()) for v in polytope_vertices(cs)]
    assert values, "polytope has no vertices (infeasible?)"
    return min(values), max(values)


def scipy_bounds(cs: ConstraintSet, event: Event) -> tuple[float, float]:
    """Independent LP oracle for lower/upper event probability."""
    from scipy.optimize import linprog

    dim = cs.space.size
    a_ub = [-con.event.bits.astype(float) for con in cs.constraints]
    b_ub = [-con.rhs for con in cs.constraints]
    kw = dict(
        A_eq=np.ones((1, dim)),
        b_eq=[1.0],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=[(0, None)] * dim,
        method="highs",
    )
    c = event.bits.astype(float)
    low = linprog(c, **kw)
    high = linprog(-c, **kw)
    assert low.status == 0 and high.status == 0
    return float(low.fun), float(-high.fun)


def scipy_feasible(cs: ConstraintSet) -> bool:
    from scipy.optimize import linprog

    dim = cs.space.size
    a_ub = [-con.event.bits.astype(float) for con in cs.constraints]
    b_ub = [-con.rhs for con in cs.constraints]
    res = linprog(
        np.zeros(dim),
        A_eq=np.ones((1, dim)),
        b_eq=[1.0],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=[(0, None)] * dim,
        method="highs",
    )
    return res.status == 0


# --- random constraint-set generators -----------------------------------------


def random_feasible_cs(
    rng: np.random.Generator, system: QuantumSystem, space: TrajectorySpace
) -> ConstraintSet:
    """Born pins plus random event bounds kept below a known member measure."""
    from iqp.credal import born_product_witness, lower_bound_constraints, merge_constraint_sets
    from iqp.scenarios import singleton_family

    cs = born_constraints(system, space, singleton_family(system))
    witness = born_product_witness(system, space)
    demands = []
    for i in range(int(rng.integers(1, 4))):
        event = random_event(rng, space)
        value = witness.probability(event)
        if value <= 0.0:
            continue
        demands.append((event, float(value * rng.random()), f"demand{i}"))
    if demands:
        cs = merge_constraint_sets([cs, lower_bound_constraints(space, demands)])
    return cs


def random_lower_bound_cs(
    rng: np.random.Generator, space: TrajectorySpace
) -> ConstraintSet:
    """Lower-bound rows with random levels; infeasible roughly half the time."""
    rows = []
    n_rows = int(rng.integers(2, 7))
    for i in range(n_rows):
        event = random_event(rng, space)
        if event.is_empty:
            continue
        fraction = cardinality(event) / space.size
        rhs = float(min(1.0, fraction * rng.uniform(0.2, 2.2)))
        if rhs <= 0.0:
            continue
        rows.append(LinearConstraint(event=event, rhs=rhs, tag="demand", label=f"random{i}"))
    return ConstraintSet(space, tuple(rows))
