import math

import numpy as np
import pytest

from conftest import SQRT_HALF, scipy_bounds, sset
from iqp.credal import (
    CERTIFICATE_TOL,
    born_constraints,
    born_product_witness,
    feasibility,
    lower_upper,
    merge_constraint_sets,
    qtr_constraints,
    sample_vertex_measures,
    verify_witness,
)
from iqp.events import Event, TrajectorySpace, parse_event, sset_event
from iqp.scenarios import (
    ScenarioConfig,
    build_constraints,
    build_drifting_branch,
    build_spreading_packet,
    build_system,
    enumerate_pairs,
    singleton_family,
)
from iqp.system import QuantumSystem, Region, SSet, identity_matrix
from iqp.typicality import (
    Branch,
    branch_stats,
    cross_time_bound,
    make_branch,
    mutual_typicality,
    qtr_predicate,
    typicality_report,
    verify_w11,
)


@pytest.fixture
def hti(hti_system):
    return hti_system, TrajectorySpace.for_system(hti_system)


def beam_splitter_cs(system, space):
    return merge_constraint_sets([
        born_constraints(system, space, singleton_family(system)),
        qtr_constraints(system, space, enumerate_pairs(system, 1)),
    ])


class TestMutualTypicality:
    def test_identical_events_ratio_one(self, hti):
        system, space = hti
        p = born_product_witness(system, space).probs
        a = sset_event(space, sset(1, [0]))
        fires, ratio = mutual_typicality(p, a, a, eps=1e-9)
        assert fires and ratio == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_events_ratio_zero(self, hti):
        system, space = hti
        p = born_product_witness(system, space).probs
        a = sset_event(space, sset(1, [0]))
        fires, ratio = mutual_typicality(p, a, ~a, eps=0.5)
        assert not fires and ratio == 0.0

    def test_null_events_rejected(self, hti):
        system, space = hti
        p = born_product_witness(system, space).probs
        empty = Event.none(space)
        with pytest.raises(ValueError, match="zero probability"):
            mutual_typicality(p, empty, empty, eps=0.1)

    def test_beam_splitter_witness_branch_ratio(self, hti):
        system, space = hti
        cs = beam_splitter_cs(system, space)
        from iqp.credal import feasibility

        witness = feasibility(cs).witness
        a = sset_event(space, sset(1, [0]))
        b = sset_event(space, sset(2, [0]))
        _, ratio = mutual_typicality(witness.probs, a, b, eps=1e-9)
        assert ratio >= 1.0 - 1e-9


class TestQtrPredicate:
    def test_identical_ssets_fire(self, hti):
        system, _ = hti
        assert qtr_predicate(system, sset(1, [0]), sset(1, [0]), eps=1e-12)

    def test_mach_zehnder_does_not_fire(self, mz_system):
        # weights differ (1/2 vs 1) and relative distance is 1
        assert not qtr_predicate(mz_system, sset(1, [0]), sset(2, [0]), eps=0.1)

    def test_beam_splitter_fires_tiny_eps(self, hti):
        system, _ = hti
        assert qtr_predicate(system, sset(1, [0]), sset(2, [0]), eps=1e-9)

    def test_zero_weight_base_rejected(self, hti):
        system, _ = hti
        with pytest.raises(ValueError, match="zero weight"):
            qtr_predicate(system, sset(0, [1]), sset(1, [0]), eps=0.1)


class TestTypicalityReport:
    def test_fires_iff_relative_distance_small(self, hti):
        system, space = hti
        p = born_product_witness(system, space).probs
        rep = typicality_report(system, space, p, sset(1, [0]), sset(2, [0]), eps=1e-6)
        assert rep.qtr_fires == (rep.relative_distance <= rep.epsilon)
        assert rep.qtr_fires
        assert rep.weight == pytest.approx(0.5, abs=1e-12)
        assert rep.distance == pytest.approx(0.0, abs=1e-12)

    def test_product_witness_fails_branch_prediction(self, hti):
        # the independent coupling ignores branches: ratio 1/2 < 1 - eps
        system, space = hti
        p = born_product_witness(system, space).probs
        rep = typicality_report(system, space, p, sset(1, [0]), sset(2, [0]), eps=1e-6)
        assert rep.measured_ratio == pytest.approx(0.5, abs=1e-9)
        assert not rep.passes

    def test_lp_witness_passes(self, hti):
        system, space = hti
        cs = beam_splitter_cs(system, space)
        from iqp.credal import feasibility

        probs = feasibility(cs).witness.probs
        rep = typicality_report(system, space, probs, sset(1, [0]), sset(2, [0]), eps=1e-6)
        assert rep.passes

    def test_non_firing_pair_passes_vacuously(self, mz_system):
        space = TrajectorySpace.for_system(mz_system)
        p = born_product_witness(mz_system, space).probs
        rep = typicality_report(
            mz_system, space, p, sset(1, [0]), sset(2, [0]), eps=0.1
        )
        assert not rep.qtr_fires
        assert rep.passes


class TestCrossTimeBound:
    def test_self_companion_interval(self, hti):
        system, _ = hti
        s1, s2 = sset(1, [0]), sset(2, [0])
        lo, hi = cross_time_bound(system, s1, s2, s2)
        w = system.weight(s2)
        d = system.sset_distance(s1, s2)
        assert lo == pytest.approx(w - d, abs=1e-12)
        assert hi == pytest.approx(w + d, abs=1e-12)

    def test_zero_distance_pins_exactly(self, hti):
        system, _ = hti
        lo, hi = cross_time_bound(system, sset(1, [0]), sset(2, [0]), sset(2, [0]))
        assert lo == pytest.approx(hi, abs=1e-12)
        assert lo == pytest.approx(0.5, abs=1e-12)

    def test_time_mismatch_rejected(self, hti):
        system, _ = hti
        with pytest.raises(ValueError, match="times differ"):
            cross_time_bound(system, sset(1, [0]), sset(2, [0]), sset(1, [0]))

    def test_weight_mismatch_rejected(self, hti):
        system, _ = hti
        with pytest.raises(ValueError, match="weights differ"):
            cross_time_bound(system, sset(0, [0]), sset(2, [0]), sset(2, [0]))

    def test_lp_bounds_inside_interval(self, hti):
        system, space = hti
        cs = beam_splitter_cs(system, space)
        s1, s2 = sset(1, [0]), sset(2, [0])
        e1 = sset_event(space, s1)
        for mask in range(4):  # every companion region at the later time
            s2p = SSet(2, Region(mask, 2))
            lo, hi = cross_time_bound(system, s1, s2, s2p)
            res = lower_upper(cs, e1 & sset_event(space, s2p))
            assert res.lower >= lo - 1e-8
            assert res.upper <= hi + 1e-8
            for measure in sample_vertex_measures(cs, 5, seed=3):
                value = measure.probability(e1 & sset_event(space, s2p))
                assert lo - 1e-8 <= value <= hi + 1e-8


class TestBranch:
    def test_make_branch_epsilon(self, hti):
        system, _ = hti
        branch = make_branch(system, [sset(1, [0]), sset(2, [0])])
        assert branch.base == sset(1, [0])
        assert branch.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_unequal_weights_rejected(self, hti):
        system, _ = hti
        with pytest.raises(ValueError, match="differs from base"):
            make_branch(system, [sset(0, [0]), sset(1, [0])])

    def test_zero_weight_base_rejected(self, hti):
        system, _ = hti
        with pytest.raises(ValueError, match="zero weight"):
            make_branch(system, [sset(0, [1]), sset(1, [0])])

    def test_empty_rejected(self, hti):
        system, _ = hti
        with pytest.raises(ValueError, match="at least one"):
            make_branch(system, [])


class TestBranchStats:
    def test_point_mass_follows_branch(self):
        system = QuantumSystem(
            ["x0", "x1"], [identity_matrix(2), identity_matrix(2)], [1.0, 0.0]
        )
        space = TrajectorySpace.for_system(system)
        witness = born_product_witness(system, space)  # point mass on (0,0,0)
        branch = make_branch(system, [sset(0, [0]), sset(1, [0]), sset(2, [0])])
        # Y = 1 stays out of the tail P(Y <= 1 - delta) however small delta is
        for delta in (1e-3, 4e-10, 1e-10, 1e-300):
            stats = branch_stats(space, witness.probs, branch, delta)
            assert stats.expectation == pytest.approx(1.0, abs=1e-12)
            assert stats.tail == 0.0
            assert stats.n_times == 3

    def test_delta_on_the_grid_keeps_y_in_the_tail(self):
        """A point mass with Y = 1 - j/k is in the tail at delta = j/k, not above it."""
        for k in range(2, 11):
            system = QuantumSystem(["x0", "x1"], [identity_matrix(2)] * (k - 1), [1.0, 0.0])
            space = TrajectorySpace.for_system(system)
            witness = born_product_witness(system, space)  # point mass on (0,...,0)
            for j in range(1, k):
                # the point mass's trajectory is in the branch at the first k - j times
                ssets = tuple(sset(t, [0] if t < k - j else [1]) for t in range(k))
                branch = Branch(ssets=ssets, base=sset(0, [0]), epsilon=0.0)
                on_grid = branch_stats(space, witness.probs, branch, j / k)
                assert on_grid.expectation == pytest.approx(1.0 - j / k, abs=1e-12)
                assert on_grid.tail == 1.0
                assert branch_stats(space, witness.probs, branch, j / k + 1e-6).tail == 0.0

    def test_full_space_base_equals_unconditioned(self, hti):
        system, space = hti
        witness = born_product_witness(system, space)
        branch = Branch(
            ssets=(SSet(1, Region.full(2)), sset(2, [0])),
            base=SSet(1, Region.full(2)),
            epsilon=1.0,
        )
        stats = branch_stats(space, witness.probs, branch, delta=0.25)
        counts = (
            sset_event(space, SSet(1, Region.full(2))).bits.astype(float)
            + sset_event(space, sset(2, [0])).bits
        )
        unconditioned = float((witness.probs * counts).sum()) / 2.0
        assert stats.expectation == pytest.approx(unconditioned, abs=1e-12)

    def test_null_base_rejected(self, hti):
        system, space = hti
        witness = born_product_witness(system, space)
        branch = Branch(ssets=(sset(0, [1]),), base=sset(0, [1]), epsilon=0.0)
        with pytest.raises(ValueError, match="zero probability"):
            branch_stats(space, witness.probs, branch, delta=0.1)

    def test_y_range_and_markov_soundness(self, hti):
        system, space = hti
        cs = beam_splitter_cs(system, space)
        branch = make_branch(system, [sset(1, [0]), sset(2, [0])])
        for measure in sample_vertex_measures(cs, 10, seed=7):
            for delta in (1e-3, 0.25, 0.75):
                stats = branch_stats(space, measure.probs, branch, delta)
                assert 0.0 <= stats.expectation <= 1.0 + 1e-12
                assert 0.0 <= stats.tail <= 1.0 + 1e-12
                # the step used to derive the tail bound, on computed numbers
                assert stats.expectation <= 1.0 - stats.tail * delta + 1e-12


class TestVerifyW11:
    def test_zero_epsilon_branch(self, hti):
        system, space = hti
        cs = beam_splitter_cs(system, space)
        branch = make_branch(system, [sset(1, [0]), sset(2, [0])])
        report = verify_w11(system, space, cs, branch, delta=1e-3, samples=20, seed=42)
        assert report.passes is True
        assert report.worst_expectation >= 1.0 - 1e-9
        assert report.worst_tail <= 1e-9
        assert not report.product_witness_included  # coupling breaks branch rows

    def test_drifting_branch_nonzero_epsilon(self):
        cfg = build_drifting_branch()
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        cs = build_constraints(cfg, system, space)
        decl = cfg.branches[0]
        ssets = [SSet(t, Region.from_labels(list(labels), 2)) for t, labels in decl.ssets]
        branch = make_branch(system, ssets, cfg.tau_norm)
        assert 0.0 < branch.epsilon < 1e-5
        report = verify_w11(system, space, cs, branch, cfg.delta, cfg.samples, cfg.seed)
        assert report.passes is True
        assert report.worst_expectation >= report.expectation_bound - 1e-8
        assert report.worst_tail <= report.tail_bound + 1e-8

    def test_vacuous_branch_flagged(self):
        cfg = build_spreading_packet()
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        cs = build_constraints(cfg, system, space)
        # same weights but relative distance 1: the bounds say nothing
        branch = make_branch(system, [sset(0, [0]), sset(1, [0])], cfg.tau_norm)
        assert branch.epsilon == pytest.approx(1.0, abs=1e-9)
        report = verify_w11(system, space, cs, branch, delta=1e-3, samples=5, seed=1)
        assert report.expectation_vacuous and report.tail_vacuous
        assert report.passes is None

    def test_microscopic_epsilon_tail_bound_arithmetic(self, hti):
        system, space = hti
        cs = beam_splitter_cs(system, space)
        branch = Branch(
            ssets=(sset(1, [0]), sset(2, [0])), base=sset(1, [0]), epsilon=1e-6
        )
        report = verify_w11(system, space, cs, branch, delta=1e-3, samples=3, seed=2)
        assert report.tail_bound == pytest.approx(1e-3, abs=1e-12)
        assert report.expectation_bound == pytest.approx(1.0 - 1e-6, abs=1e-15)

    def test_product_witness_included_for_born_only(self, hti):
        system, space = hti
        cs = born_constraints(system, space, singleton_family(system))
        branch = make_branch(system, [sset(1, [0]), sset(2, [0])])
        report = verify_w11(system, space, cs, branch, delta=0.5, samples=3, seed=4)
        assert report.product_witness_included
        assert report.n_samples == 4

    def test_typicality_chain_on_witnesses(self, hti):
        # firing pairs force the mutual-typicality ratio on every witness
        system, space = hti
        cs = beam_splitter_cs(system, space)
        pairs = [(sset(1, [0]), sset(2, [0])), (sset(1, [1]), sset(2, [1]))]
        for measure in sample_vertex_measures(cs, 10, seed=13):
            for s1, s2 in pairs:
                rel = system.sset_distance(s1, s2) / system.weight(s1)
                _, ratio = mutual_typicality(
                    measure.probs,
                    sset_event(space, s1),
                    sset_event(space, s2),
                    eps=1e-9,
                )
                assert ratio >= 1.0 - rel - 1e-8

    def test_invalid_delta(self, hti):
        system, space = hti
        cs = beam_splitter_cs(system, space)
        branch = make_branch(system, [sset(1, [0]), sset(2, [0])])
        with pytest.raises(ValueError, match="delta"):
            verify_w11(system, space, cs, branch, delta=0.0, samples=2, seed=1)

    def test_nan_delta(self, hti):
        """A NaN delta once passed with a NaN tail bound."""
        system, space = hti
        cs = beam_splitter_cs(system, space)
        branch = make_branch(system, [sset(1, [0]), sset(2, [0])])
        with pytest.raises(ValueError, match="delta"):
            verify_w11(system, space, cs, branch, delta=math.nan, samples=2, seed=1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples(self, hti, samples):
        """Without the product witness, which this set excludes, no sample
        once ended in ``min() arg is an empty sequence``."""
        system, space = hti
        cs = beam_splitter_cs(system, space)
        branch = make_branch(system, [sset(1, [0]), sset(2, [0])])
        with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
            verify_w11(system, space, cs, branch, delta=1e-3, samples=samples, seed=1)


class TestEdgeClasses:
    """Weight gaps exactly at ``tau_norm``, and a drift too slow to see per step."""

    @staticmethod
    def rotation(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, 1j * s], [1j * s, c]])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("below, kept", [(False, True), (True, False)])
    def test_weight_gap_at_tau_norm(self, reverse, below, kept):
        # weights 1 and cos(0.3)^2: a gap that no short decimal spells
        system = QuantumSystem(["x0", "x1"], [self.rotation(0.3)], [1.0, 0.0])
        space = TrajectorySpace.for_system(system)
        s1, s2 = (sset(1, [0]), sset(0, [0])) if reverse else (sset(0, [0]), sset(1, [0]))
        w1 = system.weight(s1)
        gap = abs(w1 - system.weight(s2))
        tau = np.nextafter(gap, 0.0) if below else gap
        assert 0.0 < tau <= gap

        cs = qtr_constraints(system, space, [(s1, s2)], tau_norm=tau)
        assert (cs.emitted, cs.filtered) == ((1, 0) if kept else (0, 1))
        # the rule fires at eps = the relative distance; under the uniform
        # measure the ratio is 1/2, so the pair passes only when it is filtered
        uniform = np.full(space.size, 1.0 / space.size)
        rel = system.sset_distance(s1, s2) / w1
        rep = typicality_report(system, space, uniform, s1, s2, rel, tau_norm=tau)
        assert rep.qtr_fires and rep.measured_ratio == pytest.approx(0.5, abs=1e-12)
        assert rep.passes == (not kept)
        if kept:
            assert make_branch(system, [s1, s2], tau).epsilon == pytest.approx(rel, abs=1e-15)
        else:
            with pytest.raises(ValueError, match="differs from base beyond"):
                make_branch(system, [s1, s2], tau)

    def test_slow_drift_chain(self):
        # an eigenvector of every step: weights stay 1/2 while the pullbacks
        # drift by about 2e-8 per step, so each typicality row sits 2e-8 below its pin
        n = 6
        cfg = ScenarioConfig(
            labels=("inside", "outside"),
            steps=(self.rotation(1e-4),) * (n - 1),
            psi0=(SQRT_HALF + 0j, SQRT_HALF + 0j),
            ruleset=("born", "qtr"),
            time_pairs=tuple((t, t + 1) for t in range(n - 1)),
        )
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        cs = build_constraints(cfg, system, space)
        assert cs.filtered == 0 and any(con.tag == "qtr" for con in cs.constraints)

        witness = feasibility(cs).witness
        assert verify_witness(cs, witness.probs) <= CERTIFICATE_TOL
        for expr in (f"(t=0,{{0}}) & (t={n - 1},{{0}})", "(t=1,{1}) | (t=3,{0})",
                     "(t=2,{0}) & (t=4,{1})"):
            event = parse_event(expr, space)
            bounds = lower_upper(cs, event)
            low, high = scipy_bounds(cs, event)
            assert bounds.lower == pytest.approx(low, abs=1e-9)
            assert bounds.upper == pytest.approx(high, abs=1e-9)

        branch = make_branch(system, [sset(t, [0]) for t in range(n)], cfg.tau_norm)
        assert 0.0 < branch.epsilon < 1e-6
        report = verify_w11(system, space, cs, branch, cfg.delta, cfg.samples, cfg.seed)
        assert not (report.expectation_vacuous or report.tail_vacuous)
        assert report.passes is True


S1, S2 = sset(0, [0]), sset(1, [0])  # weights 1 and 1/2 on the splitter

TAU_NORM_CALLS = {
    "make_branch": lambda system, space, tau: make_branch(system, [S1, S2], tau),
    "qtr_predicate": lambda system, space, tau: qtr_predicate(system, S1, S2, 1.0, tau),
    "typicality_report": lambda system, space, tau: typicality_report(
        system, space, born_product_witness(system, space).probs, S1, S2, 1.0, tau),
    "cross_time_bound": lambda system, space, tau: cross_time_bound(system, S1, S2, S2, tau),
}

EPS_CALLS = {
    "qtr_predicate": lambda system, space, eps: qtr_predicate(system, S1, S2, eps),
    "typicality_report": lambda system, space, eps: typicality_report(
        system, space, born_product_witness(system, space).probs, S1, S2, eps),
    "mutual_typicality": lambda system, space, eps: mutual_typicality(
        born_product_witness(system, space).probs, sset_event(space, S1),
        sset_event(space, S2), eps),
}


class TestBadTolerances:
    """A NaN or negative ``tau_norm`` or ``eps`` is refused where it is
    taken.  A NaN ``tau_norm`` once made the pair of weights 1 and 1/2 equal
    (a branch with epsilon 0.5, a firing rule, an interval from
    ``cross_time_bound``), and a negative one made every pair unequal without
    a word; a NaN or negative ``eps`` kept the rule from firing, so a
    report passed vacuously."""

    @pytest.mark.parametrize("value", [math.nan, -1.0], ids=["nan", "negative"])
    @pytest.mark.parametrize("name", sorted(TAU_NORM_CALLS))
    def test_tau_norm(self, hti, name, value):
        with pytest.raises(ValueError, match="tau_norm must be >= 0"):
            TAU_NORM_CALLS[name](*hti, value)

    @pytest.mark.parametrize("value", [math.nan, -1.0], ids=["nan", "negative"])
    @pytest.mark.parametrize("name", sorted(EPS_CALLS))
    def test_eps(self, hti, name, value):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            EPS_CALLS[name](*hti, value)

    def test_valid_values_pass_the_checks(self, hti):
        """The same calls at tau_norm 0 and eps 0 reach the functions' own answers."""
        with pytest.raises(ValueError, match="differs from base beyond"):
            TAU_NORM_CALLS["make_branch"](*hti, 0.0)
        with pytest.raises(ValueError, match="weights differ beyond tolerance"):
            TAU_NORM_CALLS["cross_time_bound"](*hti, 0.0)
        assert TAU_NORM_CALLS["qtr_predicate"](*hti, 0.0) is False
        assert TAU_NORM_CALLS["typicality_report"](*hti, 0.0).passes
        assert EPS_CALLS["qtr_predicate"](*hti, 0.0) is False
        assert EPS_CALLS["mutual_typicality"](*hti, 0.0)[0] is False
