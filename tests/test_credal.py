import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SQRT_HALF,
    frechet_intersection,
    random_event,
    random_feasible_cs,
    random_lower_bound_cs,
    random_system,
    realize,
    scipy_bounds,
    scipy_feasible,
    seeded_config,
    sset,
    vertex_bounds,
)
from iqp import lp
from iqp.credal import (
    ConstraintSet,
    FarkasCertificate,
    FeasibilityCertificate,
    LinearConstraint,
    TrajectoryMeasure,
    born_constraints,
    born_product_witness,
    constraints_csv,
    farkas_csv,
    feasibility,
    format_number,
    huber_check,
    lower_bound_constraints,
    lower_upper,
    measure_csv,
    merge_constraint_sets,
    qtr_constraints,
    qtr_variant_constraints,
    sample_vertex_measures,
    verify_farkas,
    verify_witness,
)
from iqp.credal import VACUOUS_RHS
from iqp.events import (
    And,
    Atom,
    Event,
    Not,
    TrajectorySpace,
    parse_event,
    parse_expr,
    sset_event,
)
from iqp.scenarios import (
    BUILTIN_SCENARIOS,
    build_constraints,
    build_system,
    enumerate_pairs,
    parse_config,
    singleton_family,
)
from iqp.system import QuantumSystem, Region, SSet, identity_matrix
from iqp.typicality import qtr_predicate

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, VERDICTS, make_config  # noqa: E402


@pytest.fixture
def hti(hti_system):
    return hti_system, TrajectorySpace.for_system(hti_system)


@pytest.fixture
def balanced(balanced_identity_system):
    return balanced_identity_system, TrajectorySpace.for_system(balanced_identity_system)


def adversarial_cs(space: TrajectorySpace) -> ConstraintSet:
    a = parse_event("(t=1,{0})", space)
    return lower_bound_constraints(
        space, [(a, 0.8, "(t=1,{0})"), (~a, 0.8, "!(t=1,{0})")]
    )


def undominated_rows(cs: ConstraintSet) -> list[tuple[np.ndarray, float]]:
    """The (event bits, bound) rows the Huber LP keeps, by set inclusion: the
    largest bound per event, then only events that hold no other kept event
    with at least their bound."""
    best: dict[bytes, tuple[np.ndarray, float]] = {}
    for con in cs.constraints:
        key = con.event.bits.tobytes()
        if key not in best or con.rhs > best[key][1]:
            best[key] = (con.event.bits, con.rhs)
    rows = list(best.values())
    return [(a, rhs) for i, (a, rhs) in enumerate(rows)
            if not any(j != i and not (b & ~a).any() and other >= rhs
                       for j, (b, other) in enumerate(rows))]


def per_constraint_violation(cs: ConstraintSet, probs: np.ndarray) -> float:
    """``verify_witness`` summing every constraint's row, one by one."""
    vec = np.asarray(probs, dtype=float)
    worst = max(abs(float(vec.sum()) - 1.0), max(0.0, -float(vec.min(initial=0.0))))
    for con in cs.constraints:
        worst = max(worst, con.satisfied_by(vec))
    return worst


class TestTrajectoryMeasure:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            TrajectoryMeasure(np.array([1.5, -0.5]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums to"):
            TrajectoryMeasure(np.array([0.4, 0.4]))

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0]])
    def test_rejects_nan_and_inf(self, probs):
        with pytest.raises(ValueError, match="NaN|sums to"):
            TrajectoryMeasure(np.array(probs))

    def test_tiny_lp_noise_tolerated(self):
        m = TrajectoryMeasure(np.array([1.0 + 4e-10, -4e-10]))
        assert m.probs[1] == -4e-10  # raw values kept, no clamping


class TestBornConstraints:
    def test_full_space_family_vacuous(self, hti):
        system, space = hti
        cs = born_constraints(system, space, [SSet(1, Region.full(2))])
        # P(full) >= 1 emitted; complement has rhs 0 and is skipped
        assert cs.emitted == 1 and cs.skipped == 1
        bounds = lower_upper(cs, parse_event("(t=1,{0})", space))
        assert bounds.lower == pytest.approx(0.0, abs=1e-9)
        assert bounds.upper == pytest.approx(1.0, abs=1e-9)

    def test_singletons_pin_marginals(self, hti):
        system, space = hti
        family = [sset(1, [0]), sset(1, [1])]
        cs = born_constraints(system, space, family)
        for s in family:
            bounds = lower_upper(cs, sset_event(space, s))
            assert bounds.lower == pytest.approx(0.5, abs=1e-9)
            assert bounds.upper == pytest.approx(0.5, abs=1e-9)

    def test_singletons_match_scipy_oracle(self, hti):
        system, space = hti
        cs = born_constraints(system, space, singleton_family(system))
        rng = np.random.default_rng(37)
        for _ in range(10):
            a = random_event(rng, space)
            lo_ref, hi_ref = scipy_bounds(cs, a)
            res = lower_upper(cs, a)
            assert res.lower == pytest.approx(lo_ref, abs=1e-8)
            assert res.upper == pytest.approx(hi_ref, abs=1e-8)

    def test_degenerate_single_time(self):
        system = QuantumSystem(["x0", "x1"], [], [1.0, 0.0])
        space = TrajectorySpace.for_system(system)
        cs = born_constraints(system, space, [sset(0, [0])])
        bounds = lower_upper(cs, sset_event(space, sset(0, [0])))
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(1.0, abs=1e-12)

    def test_empty_family_rejected(self, hti):
        system, space = hti
        with pytest.raises(ValueError, match="non-empty"):
            born_constraints(system, space, [])


class TestQtrConstraints:
    def test_zero_distance_pair_rhs_is_weight(self, hti):
        system, space = hti
        cs = qtr_constraints(system, space, [(sset(1, [0]), sset(2, [0]))])
        assert cs.emitted == 1
        assert cs.constraints[0].rhs == pytest.approx(0.5, abs=1e-12)
        assert cs.constraints[0].tag == "qtr"

    def test_distance_dominated_pair_skipped(self, mz_system):
        space = TrajectorySpace.for_system(mz_system)
        # weights 1/2 each but distance 1 >= weight: vacuous
        cs = qtr_constraints(mz_system, space, [(sset(1, [0]), sset(1, [1]))])
        assert cs.emitted == 0
        cs = qtr_constraints(
            mz_system, space, [(sset(1, [0]), SSet(2, Region.from_labels([0], 2)))]
        )
        assert cs.emitted == 0 and cs.filtered == 1  # unequal weights

    def test_same_time_pairs_excluded(self, hti):
        system, space = hti
        cs = qtr_constraints(system, space, [(sset(1, [0]), sset(1, [0]))])
        assert cs.emitted == 0 and cs.filtered == 1

    def test_tau_norm_gate(self, hti):
        system, space = hti
        pair = [(sset(0, [0, 1]), sset(1, [0]))]  # weights 1 vs 1/2
        assert qtr_constraints(system, space, pair, tau_norm=1e-9).filtered == 1
        assert qtr_constraints(system, space, pair, tau_norm=0.6).emitted == 1

    def test_negative_tau_rejected(self, hti):
        system, space = hti
        with pytest.raises(ValueError, match="tau_norm"):
            qtr_constraints(system, space, [], tau_norm=-1.0)


class TestQtrVariants:
    def test_min_equals_qtr_on_equal_weights(self, hti):
        system, space = hti
        pairs = [(sset(1, [0]), sset(2, [0]))]
        base = qtr_constraints(system, space, pairs)
        relaxed = qtr_variant_constraints(system, space, pairs, "min")
        assert relaxed.constraints[0].rhs == pytest.approx(
            base.constraints[0].rhs, abs=1e-15
        )

    def test_min_drops_weight_filter(self, hti):
        system, space = hti
        pairs = [(sset(0, [0, 1]), sset(1, [0]))]  # weights 1 vs 1/2
        cs = qtr_variant_constraints(system, space, pairs, "min")
        # min(1, 1/2) - dist: pullbacks are (1,0) vs (1/2,1/2), dist = 1/2
        assert cs.emitted == 0 and cs.skipped == 1  # rhs = 0 exactly: vacuous

    def test_eps_zero_keeps_only_zero_distance(self, hti):
        system, space = hti
        pairs = enumerate_pairs(system, 1)
        cs = qtr_variant_constraints(system, space, pairs, "eps", 0.0)
        assert cs.emitted == 2  # the two co-moving arm pairs
        for con in cs.constraints:
            s1, s2 = con.origin
            assert system.sset_distance(s1, s2) <= 1e-15

    def test_alpha_one_matches_qtr(self, hti):
        system, space = hti
        pairs = enumerate_pairs(system, 1)
        base = qtr_constraints(system, space, pairs)
        scaled = qtr_variant_constraints(system, space, pairs, "alpha", 1.0)
        assert [c.rhs for c in scaled.constraints] == pytest.approx(
            [c.rhs for c in base.constraints]
        )

    def test_alpha_two_tightens_nothing_here(self, hti):
        system, space = hti
        pairs = [(sset(1, [0]), sset(2, [0]))]
        scaled = qtr_variant_constraints(system, space, pairs, "alpha", 2.0)
        assert scaled.constraints[0].rhs == pytest.approx(0.5)  # zero distance

    def test_eps_gate_agrees_with_predicate_at_boundary(self):
        """With eps set to a pair's own relative distance the rule fires, so
        the qtr-eps gate must keep the pair (emit or skip it, never filter)."""
        filtered = []
        for seed in range(6):
            system = random_system(np.random.default_rng(seed), m=3, n=4)
            space = TrajectorySpace.for_system(system)
            for s1, s2 in enumerate_pairs(system, 2):
                eps = system.sset_distance(s1, s2) / system.weight(s1)
                assert qtr_predicate(system, s1, s2, eps, tau_norm=10.0)
                cs = qtr_variant_constraints(system, space, [(s1, s2)], "eps", eps,
                                             tau_norm=10.0)
                if cs.filtered:
                    filtered.append((seed, s1.text(), s2.text()))
        assert filtered == []

    def test_invalid_parameters(self, hti):
        system, space = hti
        with pytest.raises(ValueError, match="threshold"):
            qtr_variant_constraints(system, space, [], "eps")
        with pytest.raises(ValueError, match="scale"):
            qtr_variant_constraints(system, space, [], "alpha", 0.0)
        with pytest.raises(ValueError, match="variant"):
            qtr_variant_constraints(system, space, [], "frobnicate")
        with pytest.raises(ValueError, match="parameter"):
            qtr_variant_constraints(system, space, [], "min", 0.5)


class TestMerge:
    def test_rows_in_order_counters_summed(self, hti):
        system, space = hti
        parts = [
            born_constraints(system, space, [SSet(1, Region.full(2))]),
            qtr_constraints(system, space, enumerate_pairs(system, 1)),
        ]
        cs = merge_constraint_sets(parts)
        assert cs.constraints == parts[0].constraints + parts[1].constraints
        assert cs.emitted == len(cs) == parts[0].emitted + parts[1].emitted
        assert cs.skipped == parts[0].skipped + parts[1].skipped
        assert cs.filtered == parts[0].filtered + parts[1].filtered
        with pytest.raises(ValueError, match="different spaces"):
            merge_constraint_sets([cs, adversarial_cs(TrajectorySpace(2, 2))])


ABOVE_VACUOUS = float(np.nextafter(VACUOUS_RHS, 1.0))


class TestVacuousRule:
    """Every generator skips and counts rows with rhs <= VACUOUS_RHS, and only those."""

    @pytest.mark.parametrize("rhs, kept", [(VACUOUS_RHS, False), (ABOVE_VACUOUS, True)])
    def test_born_rows(self, hti, monkeypatch, rhs, kept):
        system, space = hti
        monkeypatch.setattr(system, "weight", lambda s: rhs)
        cs = born_constraints(system, space, [sset(1, [0])])
        # the complement row, 1 - rhs, is always kept
        assert (cs.emitted, cs.skipped) == (1 + kept, 1 - kept)
        assert [c.rhs for c in cs.constraints] == [rhs, 1.0 - rhs][1 - kept:]

    @pytest.mark.parametrize("rhs, kept", [(VACUOUS_RHS, False), (ABOVE_VACUOUS, True)])
    def test_pair_rows(self, hti, monkeypatch, rhs, kept):
        system, space = hti
        monkeypatch.setattr(system, "weight", lambda s: rhs)
        monkeypatch.setattr(system, "sset_distance", lambda s1, s2: 0.0)
        cs = qtr_constraints(system, space, [(sset(1, [0]), sset(2, [0]))])
        assert (cs.emitted, cs.skipped, cs.filtered) == (kept, 1 - kept, 0)
        assert [c.rhs for c in cs.constraints] == [rhs] * kept

    @pytest.mark.parametrize("rhs, kept", [(VACUOUS_RHS, False), (ABOVE_VACUOUS, True)])
    def test_demand_rows(self, hti, rhs, kept):
        _, space = hti
        cs = lower_bound_constraints(space, [(Event.all(space), rhs, "all")])
        assert (cs.emitted, cs.skipped) == (kept, 1 - kept)
        assert [(c.rhs, c.tag, c.label) for c in cs.constraints] == [(rhs, "demand", "all")] * kept


class TestNonFiniteRows:
    """A NaN or +inf right side is an error; -inf is vacuous."""

    @pytest.mark.parametrize("rhs", [math.nan, math.inf])
    def test_demand_rejected(self, hti, rhs):
        _, space = hti
        with pytest.raises(ValueError, match=r"right side .* is NaN or \+inf"):
            lower_bound_constraints(space, [(Event.all(space), rhs, "all")])

    def test_minus_inf_is_vacuous(self, hti):
        _, space = hti
        cs = lower_bound_constraints(space, [(Event.all(space), -math.inf, "all")])
        assert (cs.emitted, cs.skipped) == (0, 1)

    def test_infinite_alpha_rejected(self, hti):
        system, space = hti
        # a zero-distance pair gives w1 - inf * 0 = NaN
        with pytest.raises(ValueError, match="NaN or"):
            qtr_variant_constraints(system, space, enumerate_pairs(system, 1), "alpha", math.inf)

    @pytest.mark.parametrize("tau_norm", [math.nan, -1.0])
    @pytest.mark.parametrize("generate", [
        lambda system, space, pairs, tau: qtr_constraints(system, space, pairs, tau),
        lambda system, space, pairs, tau: qtr_variant_constraints(
            system, space, pairs, "alpha", 1.0, tau_norm=tau),
        lambda system, space, pairs, tau: qtr_variant_constraints(
            system, space, pairs, "eps", 0.5, tau_norm=tau),
    ], ids=["qtr", "qtr-alpha", "qtr-eps"])
    def test_bad_tau_norm_rejected_by_every_generator(self, generate, tau_norm):
        """A NaN tau_norm once let every pair through a variant, and a negative
        one filtered every pair: both generators reject them."""
        cfg = BUILTIN_SCENARIOS["drifting-branch"]()
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        pairs = enumerate_pairs(system, cfg.max_region_size, cfg.time_pairs)
        assert len(pairs) == 12
        with pytest.raises(ValueError, match="tau_norm"):
            generate(system, space, pairs, tau_norm)

    def test_nan_parameters_rejected(self, hti):
        system, space = hti
        with pytest.raises(ValueError, match="tau_norm"):
            qtr_constraints(system, space, [], tau_norm=math.nan)
        with pytest.raises(ValueError, match="threshold"):
            qtr_variant_constraints(system, space, [], "eps", math.nan)
        with pytest.raises(ValueError, match="scale"):
            qtr_variant_constraints(system, space, [], "alpha", math.nan)


class TestFeasibility:
    def test_born_only_always_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            system = random_system(rng)
            space = TrajectorySpace.for_system(system)
            cs = born_constraints(system, space, singleton_family(system))
            cert = feasibility(cs)
            assert cert.feasible
            assert verify_witness(cs, cert.witness.probs) <= 1e-9

    def test_beam_splitter_born_qtr(self, hti):
        system, space = hti
        cs = merge_constraint_sets([
            born_constraints(system, space, singleton_family(system)),
            qtr_constraints(system, space, enumerate_pairs(system, 1)),
        ])
        cert = feasibility(cs)
        assert cert.feasible
        # independent summation re-check
        probs = cert.witness.probs
        for con in cs.constraints:
            assert float(probs[con.event.bits].sum()) >= con.rhs - 1e-9

    def test_adversarial_farkas(self, balanced):
        _, space = balanced
        cert = feasibility(adversarial_cs(space))
        assert not cert.feasible
        assert cert.farkas.margin >= 0.6 - 1e-9
        slack, margin = verify_farkas(adversarial_cs(space), cert.farkas)
        assert slack <= 1e-9
        assert margin == pytest.approx(cert.farkas.margin, abs=1e-12)

    def test_farkas_multipliers_nonnegative(self, balanced):
        _, space = balanced
        cert = feasibility(adversarial_cs(space))
        assert np.all(cert.farkas.multipliers >= 0.0)

    @staticmethod
    def farkas_reporting(space, monkeypatch, tail):
        """Feasibility of the adversarial rows plus one row per entry of ``tail``,
        with the solver reporting ``tail`` as the duals of those rows.

        The extra events are distinct and no two are complements, so each
        keeps its own '>=' row, in order, at the end of the presolved rows.
        """
        a, b = parse_event("(t=1,{0})", space), parse_event("(t=0,{0})", space)
        extra = [(event, 0.1, f"extra{i}")
                 for i, event in enumerate([Event.all(space), a | b, ~a | b][:len(tail)])]
        cs = merge_constraint_sets([adversarial_cs(space), lower_bound_constraints(space, extra)])
        solve = lp.solve_lp

        def perturbed(*args, **kwargs):
            result = solve(*args, **kwargs)
            duals = result.farkas_duals.copy()
            duals[-len(tail):] = tail
            return dataclasses.replace(result, farkas_duals=duals)

        monkeypatch.setattr(lp, "solve_lp", perturbed)
        return feasibility(cs)

    def test_clamp_keeps_negative_zero(self, balanced, monkeypatch):
        cert = self.farkas_reporting(balanced[1], monkeypatch, [-0.0, -5e-9, 0.0])
        assert [float(m).hex() for m in cert.farkas.multipliers[2:]] == [
            "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]

    def test_first_negative_multiplier_reported(self, balanced, monkeypatch):
        with pytest.raises(lp.SimplexFailure,
                           match=r"negative multiplier -2\.000e-07 on inequality row 3"):
            self.farkas_reporting(balanced[1], monkeypatch, [-5e-9, -2e-7, -3e-7])

    @pytest.mark.parametrize("third, bound, duals, normalization, multipliers, margin", [
        # P(A) = 0.3 from the pair, yet P(A & B) >= 0.5: a negative dual on the pin
        ("a&b", 0.5, [0.0, -1.0, 1.0], -1.0, [0.0, 1.0, 1.0], 0.2),
        # P(A) >= 0.3 and P(!A & B) >= 0.8: a positive dual on the pin
        ("!a&b", 0.8, [-1.0, 1.0, 1.0], -1.0, [1.0, 0.0, 1.0], 0.1),
    ])
    def test_pin_duals_lift(self, balanced, monkeypatch, third, bound, duals,
                            normalization, multipliers, margin):
        """A dual ``y >= 0`` on an '==' row goes to its owner; ``y < 0`` is ``-y``
        on the complement's constraint plus ``y`` on normalization."""
        _, space = balanced
        a, b = parse_event("(t=1,{0})", space), parse_event("(t=0,{0})", space)
        event = a & b if third == "a&b" else ~a & b
        cs = lower_bound_constraints(space, [(a, 0.3, "a"), (~a, 0.7, "!a"),
                                             (event, bound, third)])
        pre = cs.presolved()
        assert (pre.senses, pre.owners, pre.partners) == (["==", "==", ">="], [0, 2], [1, -1])
        solved = feasibility(cs).farkas
        assert solved.margin == pytest.approx(margin, abs=1e-9)
        assert np.all(solved.multipliers >= 0.0)

        solve = lp.solve_lp

        def reporting(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), farkas_duals=np.array(duals))

        monkeypatch.setattr(lp, "solve_lp", reporting)
        lifted = feasibility(cs).farkas
        assert lifted.normalization == normalization
        assert lifted.multipliers.tolist() == multipliers
        assert lifted.margin == pytest.approx(margin, abs=1e-12)

    def test_certificate_exactly_one_branch(self):
        with pytest.raises(ValueError, match="exactly one"):
            FeasibilityCertificate()
        with pytest.raises(ValueError, match="exactly one"):
            FeasibilityCertificate(
                witness=TrajectoryMeasure(np.array([1.0])),
                farkas=FarkasCertificate(np.zeros(0), -1.0, 1.0),
            )


class TestLowerUpper:
    def test_frechet_instance_with_vertex_oracle(self, balanced):
        system, space = balanced
        cs = born_constraints(system, space, singleton_family(system))
        a = parse_event("(t=0,{0}) & (t=1,{0})", space)
        res = lower_upper(cs, a)
        assert res.lower == pytest.approx(0.0, abs=1e-9)
        assert res.upper == pytest.approx(0.5, abs=1e-9)
        lo_ref, hi_ref = vertex_bounds(cs, a)
        assert res.lower == pytest.approx(lo_ref, abs=1e-8)
        assert res.upper == pytest.approx(hi_ref, abs=1e-8)
        lo_cf, hi_cf = frechet_intersection([0.5, 0.5])
        assert (res.lower, res.upper) == pytest.approx((lo_cf, hi_cf), abs=1e-9)

    def test_witnesses_attain_bounds(self, balanced):
        system, space = balanced
        cs = born_constraints(system, space, singleton_family(system))
        a = parse_event("(t=0,{0}) & (t=1,{0})", space)
        res = lower_upper(cs, a)
        assert res.argmin.probability(a) == pytest.approx(res.lower, abs=1e-9)
        assert res.argmax.probability(a) == pytest.approx(res.upper, abs=1e-9)

    def test_full_space_is_one(self, hti):
        system, space = hti
        cs = born_constraints(system, space, singleton_family(system))
        res = lower_upper(cs, Event.all(space))
        assert res.lower == pytest.approx(1.0, abs=1e-12)
        assert res.upper == pytest.approx(1.0, abs=1e-12)

    def test_sset_pinned_to_weight(self, hti):
        system, space = hti
        cs = born_constraints(system, space, singleton_family(system))
        for s in singleton_family(system):
            res = lower_upper(cs, sset_event(space, s))
            assert res.lower == pytest.approx(system.weight(s), abs=1e-8)
            assert res.upper == pytest.approx(system.weight(s), abs=1e-8)

    def test_infeasible_status(self, balanced):
        _, space = balanced
        res = lower_upper(adversarial_cs(space), parse_event("(t=1,{0})", space))
        assert res.status == "infeasible"
        assert res.lower is None and res.argmin is None


class TestProductWitness:
    def test_uniform_for_balanced_identity(self, balanced):
        system, space = balanced
        witness = born_product_witness(system, space)
        np.testing.assert_allclose(witness.probs, np.full(4, 0.25), atol=1e-12)

    def test_hti_product_structure(self, hti):
        system, space = hti
        witness = born_product_witness(system, space)
        for idx in range(space.size):
            traj = space.trajectory_of(idx)
            expected = 1.0 if traj[0] == 0 else 0.0
            for t in (1, 2):
                expected *= 0.5
            assert witness.probs[idx] == pytest.approx(expected, abs=1e-12)

    def test_point_mass_for_basis_state(self):
        system = QuantumSystem(
            ["x0", "x1"], [identity_matrix(2), identity_matrix(2)], [0.0, 1.0]
        )
        space = TrajectorySpace.for_system(system)
        witness = born_product_witness(system, space)
        assert witness.probs[space.index_of((1, 1, 1))] == pytest.approx(1.0, abs=1e-12)

    def test_satisfies_born_rows_exactly(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            system = random_system(rng)
            space = TrajectorySpace.for_system(system)
            cs = born_constraints(system, space, singleton_family(system))
            witness = born_product_witness(system, space)
            assert verify_witness(cs, witness.probs) <= 1e-12


class TestHuberCheck:
    def test_zero_bounds_give_zero(self, balanced):
        _, space = balanced
        cs = ConstraintSet(space=space)
        assert huber_check(cs) == 0.0

    def test_born_singletons_boundary(self, balanced):
        system, space = balanced
        cs = born_constraints(system, space, [sset(1, [0]), sset(1, [1])])
        # hand: a1, a2 <= 1 independently, objective (a1+a2)/2 -> optimum 1
        assert huber_check(cs) == pytest.approx(1.0, abs=1e-9)

    def test_adversarial_exceeds_one(self, balanced):
        _, space = balanced
        assert huber_check(adversarial_cs(space)) == pytest.approx(1.6, abs=1e-9)

    def test_empty_event_with_positive_bound_malformed(self, balanced):
        _, space = balanced
        cs = ConstraintSet(space, (LinearConstraint(Event.none(space), 0.1, "demand", "empty"),))
        with pytest.raises(ValueError, match="malformed"):
            huber_check(cs)

    @staticmethod
    def primal_highs(cs):
        """The tall form: max sum_i a_i rhs_i s.t. sum_i a_i 1_i(w) <= 1 for every w."""
        from scipy.optimize import linprog

        ind = np.array([con.event.bits for con in cs.constraints], dtype=float)
        res = linprog(-np.array([con.rhs for con in cs.constraints]), A_ub=ind.T,
                      b_ub=np.ones(cs.space.size), bounds=[(0, None)] * len(cs),
                      method="highs")
        assert res.status == 0
        return -float(res.fun)

    @pytest.mark.parametrize("m, n, kind, ruleset, chain", [
        (2, 6, "random", "born+qtr-min", True),
        (3, 4, "dft", "born+qtr", False),
        (4, 4, "dft", "born+qtr", False),
        (4, 4, "random", "born+qtr-min", False),
    ])
    def test_dual_matches_primal_highs(self, m, n, kind, ruleset, chain):
        space, cs = realize(seeded_config(m, n, kind, ruleset, chain, seed=[17, m, n]))
        rng = np.random.default_rng([19, m, n])
        # the seeded set, then the same set with a demand just above an upper bound
        sets = [cs]
        while len(sets) < 2:
            a = Event(rng.random(space.size) < 0.4)
            upper = lower_upper(cs, a).upper
            if upper < 0.95:
                sets.append(merge_constraint_sets(
                    [cs, lower_bound_constraints(space, [(a, upper + 0.01, "a")])]))
        verdicts = []
        for case in sets:
            value = huber_check(case)
            assert value == pytest.approx(self.primal_highs(case), abs=1e-9)
            verdicts.append(feasibility(case).feasible)
            assert (value <= 1.0 + 1e-9) == verdicts[-1]
        assert verdicts == [True, False]


def verdicts_huber_sets(systems: int = 3):
    """Sets of the benchmark's verdicts rungs that run the Huber check."""
    out = []
    for r, rung in enumerate(VERDICTS):
        if rung.huber:
            for k in range(0, 2 * systems, 2):  # even systems are the feasible ones
                out.append(realize(parse_config(make_config(rung, 7, r, k)))[1])
    return out


@st.composite
def planted_sets(draw):
    """Random rows with planted duplicate events and events nested in others."""
    space = TrajectorySpace(2, draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for i in range(draw(st.integers(1, 6))):
        event = Event(rng.random(space.size) < rng.uniform(0.2, 0.9))
        if event.is_empty:
            continue
        base = float(event.cardinality / space.size * rng.uniform(0.1, 1.5))
        rows.append(LinearConstraint(event, base, "demand", f"r{i}"))
        for j in range(draw(st.integers(0, 3))):
            plant = draw(st.sampled_from(["duplicate", "subset", "superset"]))
            bits = event.bits.copy()
            if plant == "subset":
                bits &= rng.random(space.size) < 0.7
            elif plant == "superset":
                bits |= rng.random(space.size) < 0.3
            if bits.any():  # a bound below, at or above the event's own
                rhs = base * rng.choice([0.5, 1.0, 1.2])
                rows.append(LinearConstraint(Event(bits), float(rhs), "demand", f"r{i}.{j}"))
    return ConstraintSet(space, tuple(rows))


class TestHuberReducedRows:
    """The Huber LP keeps one row per event and drops the rows a smaller event
    implies; its optimum stays the one over every row of ``lp_rows``."""

    @staticmethod
    def assert_same_optimum(cs):
        """The optimum against the full rows and HiGHS, and the rows its LP gets."""
        calls = []
        original = lp.solve_lp

        def recorded(objective, rows, rhs, senses, **kwargs):
            calls.append((rows, rhs))
            return original(objective, rows, rhs, senses, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "solve_lp", recorded)
            value = huber_check(cs)
        (rows, rhs), = calls
        rows_all, rhs_all, senses_all = cs.lp_rows()
        full = lp.solve_lp(np.ones(cs.space.size), rows_all[1:], rhs_all[1:], senses_all[1:])
        assert value == pytest.approx(full.objective, abs=1e-9)
        assert value == pytest.approx(TestHuberCheck.primal_highs(cs), abs=1e-9)
        expected = undominated_rows(cs)
        assert sorted((a.astype(float).tobytes(), b) for a, b in expected) == sorted(
            (row.tobytes(), b) for row, b in zip(rows, rhs.tolist()))
        # every row, dropped or not, holds a kept row with at least its bound
        for con in cs.constraints:
            assert any(not (a & ~con.event.bits).any() and b >= con.rhs for a, b in expected)
        return len(rows)

    def test_verdicts_rungs(self):
        for cs in verdicts_huber_sets():
            assert self.assert_same_optimum(cs) < len(cs)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins(self, name):
        self.assert_same_optimum(realize(BUILTIN_SCENARIOS[name]())[1])

    def test_adversarial(self, balanced):
        cs = adversarial_cs(balanced[1])
        self.assert_same_optimum(cs)
        assert huber_check(cs) == pytest.approx(1.6, abs=1e-9)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(planted_sets())
    def test_planted_duplicates_and_nested_events(self, cs):
        if cs.constraints:
            self.assert_same_optimum(cs)


class TestVerifyWitnessStrongestRows:
    """Summing the strongest row per event gives the per-constraint maximum bit for bit."""

    @staticmethod
    def measures(cs, rng):
        cert = feasibility(cs)
        assert cert.feasible
        out = [cert.witness.probs]
        for _ in range(2):
            bounds = lower_upper(cs, Event(rng.random(cs.space.size) < 0.4))
            out += [bounds.argmin.probs, bounds.argmax.probs]
        for base in list(out):
            for scale in (1e-12, 1e-9, 1e-3, 0.1):
                out.append(base + scale * rng.standard_normal(base.size))
        return out

    @pytest.mark.parametrize("workload", ["ladder", "verdicts"])
    def test_benchmark_sets(self, workload):
        rungs = LADDER if workload == "ladder" else VERDICTS
        rng = np.random.default_rng(3)
        checked = 0
        for r, rung in enumerate(rungs[:2]):
            for k in range(0, 4, 2):
                _, cs = realize(parse_config(make_config(rung, 7, r, k)))
                for probs in self.measures(cs, rng):
                    assert verify_witness(cs, probs).hex() == per_constraint_violation(
                        cs, probs).hex()
                    checked += 1
        assert checked > 0


class TestImprecisionAxioms:
    def test_conjugacy_superadd_subadd_monotone(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            system = random_system(rng, m=2, n=2)
            space = TrajectorySpace.for_system(system)
            cs = random_feasible_cs(rng, system, space)
            a = random_event(rng, space)
            b_bits = ~a.bits & (rng.random(space.size) < 0.5)
            b = Event(b_bits)

            res_a = lower_upper(cs, a)
            res_not_a = lower_upper(cs, ~a)
            res_b = lower_upper(cs, b)
            res_ab = lower_upper(cs, a | b)

            # bounds ordering and range
            assert res_a.lower >= -1e-9
            assert res_a.lower <= res_a.upper + 1e-9
            assert res_a.upper <= 1.0 + 1e-9
            # conjugacy
            assert res_a.lower + res_not_a.upper == pytest.approx(1.0, abs=1e-8)
            assert res_a.upper + res_not_a.lower == pytest.approx(1.0, abs=1e-8)
            # super/subadditivity on the disjoint pair
            assert res_ab.lower >= res_a.lower + res_b.lower - 1e-8
            assert res_ab.upper <= res_a.upper + res_b.upper + 1e-8
            # monotonicity: a subset of a|b
            assert res_a.lower <= res_ab.lower + 1e-8
            assert res_a.upper <= res_ab.upper + 1e-8

    def test_boundary_events(self, hti):
        system, space = hti
        cs = born_constraints(system, space, singleton_family(system))
        empty = lower_upper(cs, Event.none(space))
        full = lower_upper(cs, Event.all(space))
        assert empty.lower == pytest.approx(0.0, abs=1e-12)
        assert empty.upper == pytest.approx(0.0, abs=1e-12)
        assert full.lower == pytest.approx(1.0, abs=1e-12)
        assert full.upper == pytest.approx(1.0, abs=1e-12)


class TestWitnessProperties:
    def test_sandwich_chain_on_witnesses(self, hti):
        system, space = hti
        pairs = enumerate_pairs(system, 2)
        qtr = qtr_constraints(system, space, pairs)
        cs = merge_constraint_sets([
            born_constraints(system, space, singleton_family(system)), qtr
        ])
        for measure in sample_vertex_measures(cs, 8, seed=5):
            for con in qtr.constraints:
                s1, s2 = con.origin
                e1 = sset_event(space, s1)
                e2 = sset_event(space, s2)
                p_inter = measure.probability(e1 & e2)
                p_s1 = measure.probability(e1)
                p_union = measure.probability(e1 | e2)
                w1 = system.weight(s1)
                dist = system.sset_distance(s1, s2)
                assert con.rhs <= p_inter + 1e-9
                assert p_inter <= p_s1 + 1e-12
                assert p_s1 <= p_union + 1e-12
                assert p_union <= w1 + dist + 1e-9  # conjugate upper bound

    def test_same_time_rows_hold_on_born_witnesses(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            system = random_system(rng, m=2, n=2)
            space = TrajectorySpace.for_system(system)
            cs = born_constraints(system, space, singleton_family(system))
            measures = sample_vertex_measures(cs, 4, seed=11)
            for t in range(system.n):
                for m1 in range(1, 4):
                    for m2 in range(1, 4):
                        s1 = SSet(t, Region(m1, 2))
                        s2 = SSet(t, Region(m2, 2))
                        w1, w2 = system.weight(s1), system.weight(s2)
                        if abs(w1 - w2) > 1e-9:
                            continue
                        rhs = w1 - system.sset_distance(s1, s2)
                        inter = sset_event(space, s1) & sset_event(space, s2)
                        for measure in measures:
                            assert measure.probability(inter) >= rhs - 1e-8

    def test_huber_agreement(self):
        rng = np.random.default_rng(59)
        seen = {True: 0, False: 0}
        for _ in range(25):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            space = TrajectorySpace(m, n)
            cs = random_lower_bound_cs(rng, space)
            feasible = feasibility(cs).feasible
            seen[feasible] += 1
            assert (huber_check(cs) <= 1.0 + 1e-9) == feasible
            assert feasible == scipy_feasible(cs)
        assert min(seen.values()) >= 3  # both outcomes exercised


class TestVertexSampling:
    def test_reproducible(self, hti):
        system, space = hti
        cs = born_constraints(system, space, singleton_family(system))
        first = sample_vertex_measures(cs, 5, seed=9)
        second = sample_vertex_measures(cs, 5, seed=9)
        for a, b in zip(first, second):
            assert a.probs.tobytes() == b.probs.tobytes()

    def test_infeasible_raises(self, balanced):
        _, space = balanced
        with pytest.raises(ValueError, match="infeasible"):
            sample_vertex_measures(adversarial_cs(space), 2, seed=1)

    @pytest.mark.parametrize("count, seed, message", [
        (-3, 1, "count must be >= 0, got -3"),  # once returned [] without a word
        (2, -1, "seed must be >= 0, got -1"),  # once numpy's "expected non-negative integer"
    ])
    def test_negative_count_or_seed(self, hti, count, seed, message):
        system, space = hti
        cs = born_constraints(system, space, singleton_family(system))
        with pytest.raises(ValueError, match=message):
            sample_vertex_measures(cs, count, seed)

    def test_zero_count(self, hti):
        system, space = hti
        assert sample_vertex_measures(born_constraints(system, space, singleton_family(system)),
                                      0, seed=0) == []


class TestPhase1Memo:
    """Queries on one constraint set start from the phase 1 in ``credal``'s slot."""

    @pytest.fixture
    def n256(self):
        space, cs = realize(seeded_config(4, 4, "dft", "born+qtr", False, seed=[11, 4, 4]))
        rng = np.random.default_rng(5)
        return cs, [Event(rng.random(space.size) < 0.3) for _ in range(4)]

    @staticmethod
    def fingerprint(res):
        return (res.lower, res.upper, res.argmin.probs.tobytes(), res.argmax.probs.tobytes())

    def test_queries_share_one_phase1(self, n256, phase1_calls):
        cs, events = n256
        assert feasibility(cs).feasible
        lower_upper(cs, events[0])
        lower_upper(cs, events[1])
        assert len(sample_vertex_measures(cs, 3, seed=2)) == 3
        assert phase1_calls == [cs.presolved().rows.shape]

    def test_huber_check_leaves_bounds_bit_identical(self, n256, phase1_calls):
        cs, events = n256
        alone = self.fingerprint(lower_upper(cs, events[0]))
        assert feasibility(cs).feasible
        assert huber_check(cs) == pytest.approx(1.0, abs=1e-9)
        assert self.fingerprint(lower_upper(cs, events[0])) == alone
        # the Huber LP (one row per undominated event) runs its own phase 1
        # and leaves the set's start in the slot
        assert phase1_calls == [cs.presolved().rows.shape,
                                (len(undominated_rows(cs)), cs.space.size)]

    def test_changed_set_runs_phase1_again(self, n256, phase1_calls):
        cs, events = n256
        a = events[0]
        before = lower_upper(cs, a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cs.constraints = ()
        # a change is a new set, which runs its own phase 1
        for expected_calls, rhs in ((2, (before.lower + before.upper) / 2), (3, before.upper)):
            changed = merge_constraint_sets([cs, lower_bound_constraints(
                cs.space, [(a, rhs, "a")])])
            res = lower_upper(changed, a)
            assert len(phase1_calls) == expected_calls
            assert (res.lower, res.upper) == pytest.approx(scipy_bounds(changed, a), abs=1e-7)
        assert res.lower == pytest.approx(before.upper, abs=1e-9)

    def test_equal_rebuilt_set_runs_own_phase1(self, n256, phase1_calls):
        cs, events = n256
        rebuilt = merge_constraint_sets([cs])
        assert rebuilt.constraints == cs.constraints and rebuilt is not cs
        first, second = lower_upper(cs, events[0]), lower_upper(rebuilt, events[0])
        assert self.fingerprint(first) == self.fingerprint(second)
        assert phase1_calls == [cs.presolved().rows.shape] * 2

    def test_memoized_infeasible_farkas_independent(self, balanced, phase1_calls):
        _, space = balanced
        cs = adversarial_cs(space)
        first, second = feasibility(cs), feasibility(cs)
        assert lower_upper(cs, parse_event("(t=1,{0})", space)).status == "infeasible"
        assert len(phase1_calls) == 1
        assert first.farkas.multipliers.tobytes() == second.farkas.multipliers.tobytes()
        first.farkas.multipliers[:] = 0.0
        assert verify_farkas(cs, second.farkas)[1] == pytest.approx(second.farkas.margin)
        assert second.farkas.margin > 0.5

    def test_threads_share_the_memo(self, n256, phase1_calls):
        cs, events = n256
        _, other = realize(BUILTIN_SCENARIOS["drifting-branch"]())
        other_event = Event.all(other.space)
        # one set alone, then two sets taking turns in the one-entry slot
        jobs = [(cs, a) for a in events] + [(cs, events[0]), (other, other_event)] * 3

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(pool.map(lambda job: lower_upper(*job), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for job, res in zip(jobs, parallel):
            assert self.fingerprint(res) == self.fingerprint(lower_upper(*job))


class TestCsvExport:
    def test_constraints_csv_shape(self, hti):
        system, space = hti
        cs = born_constraints(system, space, [sset(1, [0])])
        text = constraints_csv(cs)
        lines = text.strip().split("\n")
        assert lines[0] == "tag,relation,rhs,expression"
        assert lines[1] == 'born,>=,0.500000000,"(t=1,{0})"'
        assert lines[2] == 'born,>=,0.500000000,"(t=1,{1})"'

    def test_measure_csv_format(self):
        text = measure_csv(TrajectoryMeasure(np.array([0.25, 0.75])))
        assert text == (
            "trajectory_index,probability\n0,0.250000000\n1,0.750000000\n"
        )

    def test_farkas_csv_contains_margin(self, balanced):
        _, space = balanced
        cs = adversarial_cs(space)
        cert = feasibility(cs)
        text = farkas_csv(cert.farkas, cs)
        assert "margin" in text
        assert "0.600000000" in text

    def test_format_number_no_negative_zero(self):
        assert format_number(-0.0) == "0.000000000"


def reference_rows(cfg):
    """``build_constraints`` of ``cfg`` recomputed with no memo at all.

    Every use of a pullback state or an atom event computes it afresh, from the
    propagator and the trajectory digits; returns ``(rows, skipped, filtered)``
    with one ``(bits, rhs, tag, label, origin)`` tuple per emitted row.
    """
    system = build_system(cfg)
    space = TrajectorySpace(cfg.m, cfg.n)

    def pullback(s):
        u = system.propagator(s.time)
        return u.conj().T @ (s.region.indicator() * (u @ system.psi0))

    def weight(s):
        a = pullback(s)
        return float(np.vdot(a, a).real)

    def distance(s1, s2):
        diff = pullback(s1) - pullback(s2)
        return float(np.vdot(diff, diff).real)

    def atom(s):
        member = np.array([bool(s.region.mask >> x & 1) for x in range(cfg.m)])
        return member[space.digits(s.time)]

    def evaluate(expr):
        if isinstance(expr, Atom):
            return atom(SSet(expr.time, Region.from_labels(expr.labels, cfg.m)))
        if isinstance(expr, Not):
            return ~evaluate(expr.child)
        if isinstance(expr, And):
            return evaluate(expr.left) & evaluate(expr.right)
        return evaluate(expr.left) | evaluate(expr.right)

    rows, skipped, filtered = [], 0, 0

    def emit(bits, rhs, tag, label, origin):
        nonlocal skipped
        if rhs <= VACUOUS_RHS:
            skipped += 1
        else:
            rows.append((bits, rhs, tag, label, origin))

    pairs = enumerate_pairs(system, cfg.max_region_size, cfg.time_pairs)
    for token in cfg.ruleset:
        if token == "born":
            for s in singleton_family(system):
                w = weight(s)
                for target, rhs in ((s, w), (s.complement(), 1.0 - w)):
                    emit(atom(target), rhs, token, target.text(), (s,))
            continue
        for s1, s2 in pairs:
            w1, w2 = weight(s1), weight(s2)
            if s1.time == s2.time or (token != "qtr-min" and abs(w1 - w2) > cfg.tau_norm):
                filtered += 1
                continue
            dist = distance(s1, s2)
            if token == "qtr-eps" and (w1 <= 0.0 or dist > cfg.epsilon * w1):
                filtered += 1
                continue
            if token == "qtr-min":
                rhs = min(w1, w2) - dist
            elif token == "qtr-alpha":
                rhs = w1 - cfg.alpha * dist
            else:
                rhs = w1 - dist
            emit(atom(s1) & atom(s2), rhs, token, f"({s1.text()} & {s2.text()})", (s1, s2))
    for expr, bound in cfg.extra_lower_bounds:
        emit(evaluate(parse_expr(expr, space)), bound, "demand", expr, ())
    return rows, skipped, filtered


RULESETS = ("born", "born+qtr", "born+qtr-min", "born+qtr-eps", "born+qtr-alpha",
            "qtr+qtr-min+qtr-eps+qtr-alpha")


def seeded_family(i):
    """Config ``i`` of 24: every ruleset at m = 2, 3 and 4, region sizes 1..m."""
    m = 2 + i % 3
    cfg = seeded_config(m, {2: 6, 3: 4, 4: 3}[m], "dft" if i // 6 % 2 else "random",
                        RULESETS[i // 3 % len(RULESETS)], i // 2 % 2 == 0, seed=[29, i])
    return dataclasses.replace(cfg, max_region_size=1 + i // 3 % m,
                               tau_norm=(1e-9, 0.1, 1.0)[i // 4 % 3],
                               epsilon=0.3, alpha=(2.0, 0.5)[i % 2])


class TestGenerationEquivalence:
    """Memoized states and atoms give the rows a memo-free generator gives, bit for bit."""

    CONFIGS = [builder() for builder in BUILTIN_SCENARIOS.values()] + [
        seeded_family(i) for i in range(24)
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=list(BUILTIN_SCENARIOS) + [
        f"seeded-{i}" for i in range(24)])
    def test_rows_bit_equal(self, cfg):
        rows, skipped, filtered = reference_rows(cfg)
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        # the second build finds every state and atom in the memos of the first
        for _ in range(2):
            cs = build_constraints(cfg, system, space)
            assert (cs.skipped, cs.filtered) == (skipped, filtered)
            assert [(c.event.bits.tobytes(), c.rhs.hex(), c.tag, c.label, c.origin)
                    for c in cs.constraints] == [
                (bits.tobytes(), float(rhs).hex(), tag, label, origin)
                for bits, rhs, tag, label, origin in rows]

    def test_family_spans_rules_pairs_and_region_sizes(self):
        seeded = self.CONFIGS[len(BUILTIN_SCENARIOS):]
        assert {t for cfg in seeded for t in cfg.ruleset} == {
            "born", "qtr", "qtr-min", "qtr-eps", "qtr-alpha"}
        assert {cfg.time_pairs is None for cfg in seeded} == {True, False}
        assert {(cfg.m, cfg.max_region_size) for cfg in seeded} == {
            (m, k) for m in (2, 3, 4) for k in range(1, m + 1)}


class TestVerifyFarkasSkipsZeros:
    """``verify_farkas`` sums only the constraints with a nonzero multiplier,
    and returns the bits that summing every constraint gives."""

    @staticmethod
    def every_constraint(cs: ConstraintSet, cert: FarkasCertificate) -> tuple[float, float]:
        combo = np.full(cs.space.size, cert.normalization)
        total = cert.normalization
        for mult, con in zip(cert.multipliers, cs.constraints):
            combo += mult * con.event.bits
            total += mult * con.rhs
        return float(combo.max()), float(total)

    def test_verdicts_certificates(self):
        """The 38 infeasible sets of one ``verdicts`` pass at seed 7."""
        certified = 0
        for r, rung in enumerate(VERDICTS):
            for k in range(1, rung.systems, 2):  # odd systems are the infeasible ones
                cs = realize(parse_config(make_config(rung, 7, r, k, infeasible=True)))[1]
                cert = feasibility(cs).farkas
                assert np.count_nonzero(cert.multipliers) < len(cert.multipliers)
                want = self.every_constraint(cs, cert)
                assert [v.hex() for v in verify_farkas(cs, cert)] == [v.hex() for v in want]
                certified += 1
        assert certified == 38

    @pytest.mark.parametrize("normalization", [-0.0, 0.0, -1.0])
    def test_signed_zero(self, balanced, normalization):
        """A -0.0 normalization stays -0.0 only while no +0.0 term is added."""
        _, space = balanced
        cs = adversarial_cs(space)
        for mult in ([0.0, 0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, 0.5]):
            cert = FarkasCertificate(np.array(mult), normalization, 0.0)
            want = self.every_constraint(cs, cert)
            assert [v.hex() for v in verify_farkas(cs, cert)] == [v.hex() for v in want]
