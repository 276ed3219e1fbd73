"""Finite-dimensional state evolution, region projections and pullback states.

A system lives on a finite configuration space (``m`` labelled points) and a
finite time grid (``n`` indices).  Evolution is given by per-step unitary
matrices; projections onto regions are diagonal 0/1 matrices.  The central
derived object is the pullback state of a single-time region constraint,
``pullback((t, region)) = U(t)^dagger E(region) U(t) psi0``, whose squared
norm is the region's weight at time ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

UNITARITY_TOL = 1e-9
NORM_TOL = 1e-9
DEFAULT_TAU_NORM = 1e-9


def check_tau_norm(tau_norm: float) -> None:
    """Refuse a negative or NaN tolerance on equal weights."""
    if not tau_norm >= 0:  # NaN fails too
        raise ValueError("tau_norm must be >= 0")


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

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.m) - 1

    def indicator(self) -> np.ndarray:
        """0/1 vector over the m labels (the diagonal of the projection)."""
        return np.array([float(self.mask >> x & 1) for x in range(self.m)])

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
    """Pullback state of a single-time region constraint and its weight."""

    amplitudes: np.ndarray
    weight: float

    def __post_init__(self) -> None:
        norm_sq = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if abs(norm_sq - self.weight) > 1e-12:
            raise ValueError(
                f"weight {self.weight!r} does not match squared norm {norm_sq!r}"
            )
        if not -1e-12 <= self.weight <= 1.0 + 1e-9:
            raise ValueError(f"weight {self.weight!r} outside [0, 1]")


def _as_complex_matrix(value: object, m: int, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.shape != (m, m):
        raise ValueError(f"{what} must have shape ({m}, {m}), got {arr.shape}")
    return arr


class QuantumSystem:
    """Immutable system definition: labels, time grid, step unitaries, initial state.

    Cumulative propagators are cached at construction, and each sset's pullback
    state is computed on first use and kept, keyed on ``(time, region mask)``.
    Query methods are pure and safe for concurrent readers: a memo entry is
    only ever added, whole, by one dict assignment, so two threads that miss
    the same key each compute an equal state and the later write replaces an
    equal one.
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

    def _check_sset(self, s: SSet) -> None:
        self._check_time(s.time)
        if s.region.m != self.m:
            raise ValueError(f"region defined over {s.region.m} labels, system has {self.m}")

    def propagator(self, t: int) -> np.ndarray:
        """Cumulative propagator from time 0 to time t."""
        self._check_time(t)
        return self._u[t]

    def evolve(self, t: int) -> np.ndarray:
        """State at time t: the composed step unitaries applied to the initial state."""
        self._check_time(t)
        return self._u[t] @ self.psi0

    def sset_state(self, s: SSet) -> SSetState:
        """Pullback state of an sset and its weight (the Born probability).

        Computed once per ``(time, region mask)`` and kept on the system.
        """
        self._check_sset(s)
        key = (s.time, s.region.mask)
        state = self._states.get(key)
        if state is None:
            u = self._u[s.time]
            projected = s.region.indicator() * (u @ self.psi0)
            amplitudes = u.conj().T @ projected
            weight = float(np.vdot(amplitudes, amplitudes).real)
            amplitudes.setflags(write=False)
            state = self._states[key] = SSetState(amplitudes, weight)
        return state

    def weight(self, s: SSet) -> float:
        return self.sset_state(s).weight

    def sset_distance(self, s1: SSet, s2: SSet) -> float:
        """Squared norm of the difference of the two pullback states."""
        a = self.sset_state(s1).amplitudes
        b = self.sset_state(s2).amplitudes
        diff = a - b
        return float(np.vdot(diff, diff).real)

    def sequential_probability(self, ssets: Sequence[SSet]) -> float:
        """Projection-then-propagation probability for a time-ordered chain.

        Not additive over disjoint regions (interference); used for
        demonstrations only, never as a measure.
        """
        if not ssets:
            raise ValueError("need at least one sset")
        for s in ssets:
            self._check_sset(s)
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
