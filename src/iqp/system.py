"""Finite-dimensional state evolution, region projections and pullback states.

A system lives on a finite configuration space (``m`` labelled points) and a
finite time grid (``n`` indices).  Evolution is given by per-step unitary
matrices; projections onto regions are diagonal 0/1 matrices.  The central
derived object is the pullback state of a single-time region constraint,
``pullback((t, region)) = U(t)^dagger E(region) U(t) psi0``, whose squared
norm is the region's weight at time ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

UNITARITY_TOL = 1e-9
NORM_TOL = 1e-9
DEFAULT_TAU_NORM = 1e-9


def check_tau_norm(tau_norm: float) -> None:
    """Refuse a negative or NaN tolerance on equal weights."""
    if not tau_norm >= 0:  # NaN fails too
        raise ValueError("tau_norm must be >= 0")


def _indicator(mask: int, m: int) -> np.ndarray:
    return np.array([float(mask >> x & 1) for x in range(m)])


@dataclass(frozen=True)
class Region:
    """A subset of the configuration labels, stored as an integer bitmask."""

    mask: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"label count must be >= 1, got {self.m}")
        if not 0 <= self.mask < (1 << self.m):
            raise ValueError(f"bitmask {self.mask:#x} out of range for m={self.m}")

    @classmethod
    def from_labels(cls, labels: Iterable[int], m: int) -> "Region":
        mask = 0
        for x in labels:
            if not 0 <= x < m:
                raise ValueError(f"label {x} out of range 0..{m - 1}")
            mask |= 1 << x
        return cls(mask, m)

    @classmethod
    def full(cls, m: int) -> "Region":
        return cls((1 << m) - 1, m)

    @classmethod
    def empty(cls, m: int) -> "Region":
        return cls(0, m)

    def labels(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.m) if self.mask >> x & 1)

    def complement(self) -> "Region":
        return Region(self.mask ^ ((1 << self.m) - 1), self.m)

    def intersect(self, other: "Region") -> "Region":
        if other.m != self.m:
            raise ValueError("region dimension mismatch")
        return Region(self.mask & other.mask, self.m)

    def union(self, other: "Region") -> "Region":
        if other.m != self.m:
            raise ValueError("region dimension mismatch")
        return Region(self.mask | other.mask, self.m)

    def size(self) -> int:
        return bin(self.mask).count("1")

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def indicator(self) -> np.ndarray:
        """0/1 vector over the m labels (the diagonal of the projection)."""
        return _indicator(self.mask, self.m)

    def text(self) -> str:
        return "{" + ",".join(str(x) for x in self.labels()) + "}"


@dataclass(frozen=True)
class SSet:
    """A single-time region constraint: trajectories with ``state(time) in region``."""

    time: int
    region: Region

    def complement(self) -> "SSet":
        return SSet(self.time, self.region.complement())

    def text(self) -> str:
        return f"(t={self.time},{self.region.text()})"


@dataclass(frozen=True)
class SSetState:
    """Pullback state of a single-time region constraint and its weight, the
    squared norm of the amplitudes, computed here once."""

    amplitudes: np.ndarray
    weight: float = field(init=False)

    def __post_init__(self) -> None:
        weight = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not -1e-12 <= weight <= 1.0 + 1e-9:
            raise ValueError(f"weight {weight!r} outside [0, 1]")
        object.__setattr__(self, "weight", weight)

    def distance(self, other: "SSetState") -> float:
        """Squared norm of the difference of the two pullback states."""
        diff = self.amplitudes - other.amplitudes
        return float(np.vdot(diff, diff).real)


def _as_complex_matrix(value: object, m: int, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.shape != (m, m):
        raise ValueError(f"{what} must have shape ({m}, {m}), got {arr.shape}")
    return arr


class QuantumSystem:
    """Immutable system definition: labels, time grid, step unitaries, initial state.

    At construction each time ``t`` gets its cumulative propagator ``U_t``,
    its adjoint ``U_t^H`` and its propagated state ``U_t psi0``; every region's
    pullback state at ``t`` reuses the last two.  Each pullback state is
    computed on first use and kept, keyed on ``(time, region mask)``, so a
    region that many rows share costs one matrix-vector product.  Query
    methods are pure: a kept state is the one a fresh computation gives, and
    a memo entry is only ever added, whole, by one dict assignment.
    """

    def __init__(
        self,
        labels: Sequence[str],
        steps: Sequence[object],
        psi0: Sequence[complex],
    ) -> None:
        if len(labels) < 1:
            raise ValueError("need at least one configuration label")
        if len(set(labels)) != len(labels):
            raise ValueError("configuration labels must be distinct")
        self.labels = tuple(str(x) for x in labels)
        m = len(self.labels)

        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (m,):
            raise ValueError(f"initial state must have length {m}, got shape {psi.shape}")
        norm = float(np.linalg.norm(psi))
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"initial state norm {norm!r} differs from 1 beyond {NORM_TOL}")
        self.psi0 = psi
        self.psi0.setflags(write=False)

        mats = []
        eye = np.eye(m)
        for k, step in enumerate(steps):
            mat = _as_complex_matrix(step, m, f"step matrix {k}")
            defect = float(np.max(np.abs(mat @ mat.conj().T - eye)))
            if not defect <= UNITARITY_TOL:  # NaN fails too
                raise ValueError(
                    f"step matrix {k} is not unitary (max defect {defect:.3e} > {UNITARITY_TOL})"
                )
            mat.setflags(write=False)
            mats.append(mat)
        self.steps = tuple(mats)
        self.times = tuple(range(len(mats) + 1))

        # cumulative propagators: _u[t] maps time 0 to time t
        cum = [eye.astype(complex)]
        for mat in mats:
            cum.append(mat @ cum[-1])
        for u in cum:
            u.setflags(write=False)
        self._u = tuple(cum)
        # per time: U_t^H and U_t psi0, shared by every region's pullback state;
        # _adjoints[t] is laid out as u.conj().T is, so the products keep their bits
        self._adjoints = np.array(cum).conj().transpose(0, 2, 1)
        self._evolved = np.array([u @ psi for u in cum])
        self._evolved.setflags(write=False)
        self._states: dict[tuple[int, int], SSetState] = {}

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return len(self.times)

    def _check_time(self, t: int) -> None:
        if not 0 <= t < self.n:
            raise ValueError(f"time index {t} out of range 0..{self.n - 1}")

    def sset_key(self, s: SSet) -> tuple[int, int]:
        """``(time, region mask)`` of an sset of this system; a time out of
        range or a region over another label count is a ``ValueError``."""
        self._check_time(s.time)
        if s.region.m != self.m:
            raise ValueError(f"region defined over {s.region.m} labels, system has {self.m}")
        return s.time, s.region.mask

    def propagator(self, t: int) -> np.ndarray:
        """Cumulative propagator from time 0 to time t."""
        self._check_time(t)
        return self._u[t]

    def evolve(self, t: int) -> np.ndarray:
        """State at time t: the composed step unitaries applied to the initial
        state, computed once per system (read-only)."""
        self._check_time(t)
        return self._evolved[t]

    def region_state(self, t: int, mask: int) -> SSetState:
        """Pullback state ``U_t^H E U_t psi0`` of the labels in bitmask ``mask``
        at time ``t``, and its weight (the Born probability).

        Computed once per ``(t, mask)`` and kept on the system.  Each region
        takes its own matrix-vector product, never a sum of other regions'
        states, so the floats do not depend on which regions were asked for.
        """
        state = self._states.get((t, mask))
        if state is None:  # checked here, so a bad key is never kept
            self._check_time(t)
            if not 0 <= mask < 1 << self.m:
                raise ValueError(f"bitmask {mask:#x} out of range for m={self.m}")
            amplitudes = self._adjoints[t] @ (_indicator(mask, self.m) * self._evolved[t])
            amplitudes.setflags(write=False)
            state = self._states[t, mask] = SSetState(amplitudes)
        return state

    def sset_state(self, s: SSet) -> SSetState:
        """Pullback state of an sset and its weight, as ``region_state``."""
        return self.region_state(*self.sset_key(s))

    def weight(self, s: SSet) -> float:
        return self.sset_state(s).weight

    def sset_distance(self, s1: SSet, s2: SSet) -> float:
        """Squared norm of the difference of the two pullback states."""
        return self.sset_state(s1).distance(self.sset_state(s2))

    def sequential_probability(self, ssets: Sequence[SSet]) -> float:
        """Projection-then-propagation probability for a time-ordered chain.

        Not additive over disjoint regions (interference); used for
        demonstrations only, never as a measure.
        """
        if not ssets:
            raise ValueError("need at least one sset")
        for s in ssets:
            self.sset_key(s)
        times = [s.time for s in ssets]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError(f"time indices must be non-decreasing, got {times}")

        state = self.evolve(ssets[0].time)
        state = ssets[0].region.indicator() * state
        for prev, cur in zip(ssets, ssets[1:]):
            # propagator from prev.time to cur.time
            rel = self._u[cur.time] @ self._u[prev.time].conj().T
            state = cur.region.indicator() * (rel @ state)
        return float(np.vdot(state, state).real)


def hadamard_matrix() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def identity_matrix(m: int) -> np.ndarray:
    return np.eye(m, dtype=complex)


def dft_matrix(m: int) -> np.ndarray:
    """Unitary discrete Fourier transform, entries exp(-2*pi*i*j*k/m)/sqrt(m)."""
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.exp(-2j * np.pi * j * k / m) / np.sqrt(m)
