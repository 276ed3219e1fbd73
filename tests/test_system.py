import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import iqp.system
from conftest import random_state, random_system, random_unitary, sset, SQRT_HALF
from iqp.events import TrajectorySpace
from iqp.scenarios import BUILTIN_SCENARIOS, ConfigError, config_to_dict, parse_config
from iqp.system import (
    QuantumSystem,
    Region,
    SSet,
    SSetState,
    dft_matrix,
    hadamard_matrix,
    identity_matrix,
)


class TestRegion:
    def test_from_labels_and_back(self):
        r = Region.from_labels([2, 0], 3)
        assert r.labels() == (0, 2)
        assert r.size() == 2
        assert r.text() == "{0,2}"

    def test_complement_and_ops(self):
        r = Region.from_labels([0], 2)
        assert r.complement().labels() == (1,)
        assert r.intersect(r.complement()).is_empty
        assert r.union(r.complement()).is_full

    def test_empty_and_full_permitted(self):
        assert Region.empty(3).is_empty
        assert Region.full(3).is_full

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="out of range"):
            Region.from_labels([2], 2)

    def test_indicator(self):
        r = Region.from_labels([1], 3)
        assert list(r.indicator()) == [0.0, 1.0, 0.0]


class TestConstruction:
    def test_rejects_non_unitary_step(self):
        with pytest.raises(ValueError, match="step matrix 0 is not unitary"):
            QuantumSystem(["a", "b"], [np.array([[1.0, 0.0], [0.0, 2.0]])], [1.0, 0.0])

    def test_rejects_nan_step(self):
        with pytest.raises(ValueError, match="step matrix 0 is not unitary"):
            QuantumSystem(["a", "b"], [np.array([[np.nan, 0.0], [0.0, 1.0]])], [1.0, 0.0])

    def test_rejects_nan_state(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumSystem(["a", "b"], [identity_matrix(2)], [np.nan, 0.0])

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumSystem(["a", "b"], [identity_matrix(2)], [1.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            QuantumSystem(["a", "b"], [identity_matrix(3)], [1.0, 0.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            QuantumSystem(["a", "a"], [identity_matrix(2)], [1.0, 0.0])

    def test_trajectory_cap(self, monkeypatch):
        # the cap bounds trajectory spaces, not systems: a system above it still
        # answers weight queries, and configs are rejected where the space is built
        data = config_to_dict(BUILTIN_SCENARIOS["beam-splitter"]())
        monkeypatch.setenv("IQP_TRAJECTORY_CAP", "7")
        system = QuantumSystem(
            ["a", "b"], [hadamard_matrix(), identity_matrix(2)], [1.0, 0.0]
        )
        assert system.weight(sset(2, [0])) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match="m\\^n = 8 exceeds cap 7"):
            TrajectorySpace.for_system(system)
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.errors == [
            "config.system: trajectory count m^n = 8 exceeds cap 7"
        ]

    def test_no_silent_renormalization(self):
        psi = [1.0 + 5e-10, 0.0]  # inside tolerance: accepted as given
        system = QuantumSystem(["a", "b"], [identity_matrix(2)], psi)
        assert system.psi0[0] == psi[0]


class TestEvolve:
    def test_hadamard_step(self):
        system = QuantumSystem(["a", "b"], [hadamard_matrix()], [1.0, 0.0])
        np.testing.assert_allclose(
            system.evolve(1), [SQRT_HALF, SQRT_HALF], atol=1e-12
        )

    def test_time_zero_identity(self, mz_system):
        np.testing.assert_array_equal(mz_system.evolve(0), mz_system.psi0)

    def test_two_hadamards_recombine(self, mz_system):
        np.testing.assert_allclose(mz_system.evolve(2), [1.0, 0.0], atol=1e-12)

    def test_out_of_range_time(self, mz_system):
        with pytest.raises(ValueError, match="time index"):
            mz_system.evolve(3)

    def test_state_is_the_propagated_initial_state_and_read_only(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            system = random_system(rng)
            for t in range(system.n):
                state = system.evolve(t)
                assert state.tobytes() == (system.propagator(t) @ system.psi0).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    state[0] = 0.0

    def test_unitarity_preserved_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            system = random_system(rng)
            for t in range(system.n):
                assert abs(np.linalg.norm(system.evolve(t)) - 1.0) <= 1e-9


class TestSSetState:
    def test_full_region_weight_one(self, mz_system):
        for t in range(3):
            assert mz_system.weight(SSet(t, Region.full(2))) == pytest.approx(1.0, abs=1e-12)

    def test_empty_region_weight_zero(self, mz_system):
        for t in range(3):
            assert mz_system.weight(SSet(t, Region.empty(2))) == pytest.approx(0.0, abs=1e-15)

    def test_hti_singleton_half(self, hti_system):
        assert hti_system.weight(sset(1, [0])) == pytest.approx(0.5, abs=1e-12)

    def test_weight_matches_forward_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            system = random_system(rng)
            t = int(rng.integers(0, system.n))
            mask = int(rng.integers(0, 1 << system.m))
            s = SSet(t, Region(mask, system.m))
            forward = s.region.indicator() * system.evolve(t)
            assert system.weight(s) == pytest.approx(
                float(np.vdot(forward, forward).real), abs=1e-12
            )

    def test_projection_decomposition(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            system = random_system(rng)
            for t in range(system.n):
                total = sum(
                    system.weight(SSet(t, Region.from_labels([x], system.m)))
                    for x in range(system.m)
                )
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_weight_consistency_validated(self):
        """The weight is no argument, so it cannot disagree with the
        amplitudes; a squared norm outside [0, 1] is refused."""
        with pytest.raises(TypeError):
            SSetState(np.array([1.0, 0.0]), 0.5)
        with pytest.raises(ValueError, match="outside"):
            SSetState(np.array([1.0, 0.5j]))
        assert SSetState(np.array([0.6, 0.8j])).weight == pytest.approx(1.0, abs=1e-15)

    def test_weight_is_squared_norm(self):
        """Every region's weight is its amplitudes' squared norm, bit for bit."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            system = random_system(rng)
            for t in range(system.n):
                for mask in range(1 << system.m):
                    state = system.region_state(t, mask)
                    norm_sq = float(np.vdot(state.amplitudes, state.amplitudes).real)
                    assert state.weight.hex() == norm_sq.hex()


class TestSSetStateMemo:
    """Each pullback state is computed once per system and kept on it."""

    @staticmethod
    def every_sset(system):
        return [SSet(t, Region(mask, system.m))
                for t in range(system.n) for mask in range(1 << system.m)]

    def test_each_key_computed_once(self, count_calls):
        computed = count_calls(iqp.system, "SSetState")
        system = random_system(np.random.default_rng(21), m=3, n=3)
        ssets = self.every_sset(system)
        first = [system.sset_state(s) for s in ssets]
        for s1 in ssets:
            for s2 in ssets[::5]:
                system.sset_distance(s1, s2)
                system.weight(s2)
        # equal but distinct ssets hit the same entries
        again = [system.sset_state(SSet(s.time, Region(s.region.mask, s.region.m)))
                 for s in ssets]
        assert len(computed) == len(ssets) == 3 * 8
        assert all(a is b for a, b in zip(first, again))

    def test_cached_key_still_checked(self, hti_system):
        hti_system.sset_state(sset(0, [0]))  # key (0, 0b1)
        with pytest.raises(ValueError, match="region defined over 3 labels"):
            hti_system.sset_state(SSet(0, Region(0b1, 3)))
        for t in (-1, 3):
            with pytest.raises(ValueError, match=f"time index {t} out of range"):
                hti_system.sset_state(SSet(t, Region(0b1, 2)))

    def test_systems_do_not_share(self, count_calls):
        computed = count_calls(iqp.system, "SSetState")
        splitter = QuantumSystem(["a", "b"], [hadamard_matrix()], [1.0, 0.0])
        twin = QuantumSystem(["a", "b"], [hadamard_matrix()], [1.0, 0.0])
        still = QuantumSystem(["a", "b"], [identity_matrix(2)], [1.0, 0.0])
        s = sset(1, [0])
        assert splitter.weight(s) == pytest.approx(0.5, abs=1e-12)
        assert twin.sset_state(s) is not splitter.sset_state(s)
        assert still.weight(s) == 1.0
        assert len(computed) == 3

    def test_concurrent_readers_bit_identical(self):
        rng = np.random.default_rng(23)
        steps = [random_unitary(rng, 4) for _ in range(3)]
        psi = random_state(rng, 4)

        def fresh():
            return QuantumSystem(["a", "b", "c", "d"], steps, psi)

        def read(system, ssets):
            return {s: (st.amplitudes.tobytes(), st.weight.hex())
                    for s in ssets for st in [system.sset_state(s)]}

        shared = fresh()
        ssets = self.every_sset(shared)
        expected = read(fresh(), ssets)
        orders = [ssets, ssets[::-1], ssets[1::2] + ssets[::2], ssets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                seen = list(pool.map(lambda order: read(shared, order), orders, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(got == expected for got in seen)

    def test_kept_states_read_only(self, hti_system):
        state = hti_system.sset_state(sset(1, [0]))
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 0.0
        assert hti_system.sset_state(sset(1, [0])) is state


class TestSSetDistance:
    def test_identical_zero(self, hti_system):
        assert hti_system.sset_distance(sset(1, [0]), sset(1, [0])) == 0.0

    def test_hti_zero_distance_branch(self, hti_system):
        assert hti_system.sset_distance(sset(1, [0]), sset(2, [0])) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_mz_half(self, mz_system):
        assert mz_system.sset_distance(sset(1, [0]), sset(2, [0])) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            system = random_system(rng)
            s1 = SSet(int(rng.integers(system.n)), Region(int(rng.integers(1 << system.m)), system.m))
            s2 = SSet(int(rng.integers(system.n)), Region(int(rng.integers(1 << system.m)), system.m))
            assert system.sset_distance(s1, s2) == pytest.approx(
                system.sset_distance(s2, s1), abs=1e-15
            )

    def test_parallelogram_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            system = random_system(rng)
            s1 = SSet(int(rng.integers(system.n)), Region(int(rng.integers(1 << system.m)), system.m))
            s2 = SSet(int(rng.integers(system.n)), Region(int(rng.integers(1 << system.m)), system.m))
            a = system.sset_state(s1)
            b = system.sset_state(s2)
            via_inner = a.weight + b.weight - 2.0 * float(
                np.vdot(a.amplitudes, b.amplitudes).real
            )
            assert system.sset_distance(s1, s2) == pytest.approx(via_inner, abs=1e-12)


class TestSequentialProbability:
    def test_mach_zehnder_arms(self, mz_system):
        upper = mz_system.sequential_probability([sset(1, [0]), sset(2, [0])])
        lower = mz_system.sequential_probability([sset(1, [1]), sset(2, [0])])
        union = mz_system.sequential_probability([sset(1, [0, 1]), sset(2, [0])])
        assert upper == pytest.approx(0.25, abs=1e-12)
        assert lower == pytest.approx(0.25, abs=1e-12)
        assert union == pytest.approx(1.0, abs=1e-12)

    def test_non_additivity_witness(self, mz_system):
        upper = mz_system.sequential_probability([sset(1, [0]), sset(2, [0])])
        lower = mz_system.sequential_probability([sset(1, [1]), sset(2, [0])])
        union = mz_system.sequential_probability([sset(1, [0, 1]), sset(2, [0])])
        assert abs(union - upper - lower) >= 0.49

    def test_single_sset_equals_weight(self, hti_system):
        s = sset(1, [0])
        assert hti_system.sequential_probability([s]) == pytest.approx(
            hti_system.weight(s), abs=1e-15
        )

    def test_non_monotone_times_rejected(self, mz_system):
        with pytest.raises(ValueError, match="non-decreasing"):
            mz_system.sequential_probability([sset(2, [0]), sset(1, [0])])

    def test_repeated_time_allowed(self, mz_system):
        value = mz_system.sequential_probability([sset(1, [0]), sset(1, [0, 1])])
        assert value == pytest.approx(0.5, abs=1e-12)


def test_dft_matrices_unitary():
    for m in (2, 3, 5):
        mat = dft_matrix(m)
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(m), atol=1e-12)
    np.testing.assert_allclose(dft_matrix(2), hadamard_matrix(), atol=1e-12)
