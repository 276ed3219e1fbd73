"""Forced-support sets decided without phase 1, and the one witness per set.

On the DFT rungs the presolve's forcing rows leave m² live trajectories,
each fixed by its labels at two consecutive times, so the set is the
coupling polytope of two Born marginals and their product is a member.
``feasibility`` returns that product with no phase 1; a support that does
not factor, or a product that fails its check, keeps the phase-1 point.
``feasibility`` and ``huber_check`` read one verified witness per set.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from conftest import realize

from iqp import credal, lp
from iqp.credal import (
    CERTIFICATE_TOL,
    ConstraintSet,
    feasibility,
    huber_check,
    lower_bound_constraints,
    verify_witness,
)
from iqp.events import Event, TrajectorySpace
from iqp.scenarios import BUILTIN_SCENARIOS

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, VERDICTS, LPWorkload  # noqa: E402

WORKLOADS = {"ladder-queries": LADDER, "verdicts": VERDICTS}


def dft_sets(name: str, seed: int, infeasible: bool) -> list[ConstraintSet]:
    """The DFT sets of one LP workload at one seed, feasible or not as asked."""
    rungs = WORKLOADS[name]
    workload = LPWorkload(name, rungs, seed)
    return [p.cs for p in workload.setup(workload.configs())
            if rungs[p.rung].kind == "dft" and p.infeasible == infeasible]


def born_product(cs: ConstraintSet) -> np.ndarray:
    """The product of the labels' largest bounds at times 0 and 1 on the
    presolve's live trajectories, read with ``np.unravel_index``."""
    space = cs.space
    m = space.m
    mu = np.zeros((2, m))
    for con in cs.constraints:
        for t in range(2):
            for a in range(m):
                if con.event == space.atom(t, 1 << a):
                    mu[t, a] = max(mu[t, a], con.rhs)
    live = credal.presolve(cs).live
    labels = np.unravel_index(live, (m,) * space.n)
    probs = np.zeros(space.size)
    probs[live] = mu[0][labels[0]] * mu[1][labels[1]]
    return probs


def per_constraint_violation(cs: ConstraintSet, probs: np.ndarray) -> float:
    """The largest violation of any row, summed constraint by constraint."""
    worst = max(abs(float(probs.sum()) - 1.0), max(0.0, -float(probs.min())))
    for con in cs.constraints:
        worst = max(worst, con.rhs - float(probs[con.event.bits].sum()))
    return worst


def phase1_point(cs: ConstraintSet) -> np.ndarray:
    """The zero objective's solution over the presolved rows, as
    ``feasibility`` computed its witness before the forced-support path,
    padded to every trajectory."""
    pre = credal.presolve(cs)
    result = lp.solve_lp(np.zeros(pre.live.size), pre.rows, pre.rhs, pre.senses)
    assert result.status == lp.OPTIMAL
    probs = np.zeros(cs.space.size)
    probs[pre.live] = result.x
    return probs


class TestFeasibleDFTSets:
    @pytest.mark.parametrize("seed", [1, 7, 401])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_product_without_phase1(self, name, seed, count_calls):
        sets = dft_sets(name, seed, infeasible=False)
        assert len(sets) == (10 if name == "ladder-queries" else 12)
        credal._reading.cache_clear()
        starts = count_calls(lp, "feasible_start")
        for cs in sets:
            cert = feasibility(cs)
            assert cert.path == "support"
            assert cert.witness.probs.tobytes() == born_product(cs).tobytes()
            assert verify_witness(cs, cert.witness.probs) <= CERTIFICATE_TOL
            assert per_constraint_violation(cs, cert.witness.probs) <= CERTIFICATE_TOL
        assert starts == []

    def test_support_is_m_squared_and_factors_at_times_0_and_1(self):
        for cs in dft_sets("verdicts", 7, infeasible=False):
            m, n = cs.space.m, cs.space.n
            live = credal.presolve(cs).live
            labels = np.unravel_index(live, (m,) * n)
            assert live.size == m * m
            assert len(set(zip(labels[0].tolist(), labels[1].tolist()))) == m * m


class TestInfeasibleDFTSets:
    # sha256 of each certificate's multiplier bytes and the repr of its
    # (normalization, margin), over the infeasible DFT verdicts sets in
    # workload order, as the presolve's deduction gave them before the
    # forced-support path
    DIGESTS = {1: "1a1117c770a96fe2", 7: "153dd2c98edc991b", 401: "4b2ffea9debd18e2"}

    @pytest.mark.parametrize("seed", [1, 7, 401])
    def test_presolve_certificate_unchanged(self, seed, count_calls):
        sets = dft_sets("verdicts", seed, infeasible=True)
        assert len(sets) == 12
        credal._reading.cache_clear()
        starts = count_calls(lp, "feasible_start")
        h = hashlib.sha256()
        for cs in sets:
            cert = feasibility(cs)
            assert not cert.feasible and cert.path == "presolve"
            h.update(cert.farkas.multipliers.tobytes())
            h.update(repr((cert.farkas.normalization, cert.farkas.margin)).encode())
        assert starts == []
        assert h.hexdigest()[:16] == self.DIGESTS[seed]


def forced(space: TrajectorySpace, trajectories: list[tuple[int, ...]]) -> ConstraintSet:
    """A set whose one row ``P(E) >= 1`` forces every trajectory outside
    ``E``, the given trajectories, to zero."""
    bits = np.zeros(space.size, dtype=bool)
    bits[[space.index_of(w) for w in trajectories]] = True
    return lower_bound_constraints(space, [(Event(bits), 1.0, "E")])


class TestSupportThatDoesNotFactor:
    CASES = {
        # m² live trajectories, no consecutive pair of times one-to-one on them
        "no pair": (TrajectorySpace(2, 3), [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]),
        # more live trajectories than m²
        "too many": (TrajectorySpace(2, 3), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
                                             (1, 1, 1)]),
        # one-to-one at times 0 and 1, but no row pins a marginal, so the
        # product is zero and fails its check
        "product fails": (TrajectorySpace(2, 2), [(0, 0), (1, 1)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_keeps_the_phase1_point(self, case):
        space, trajectories = self.CASES[case]
        cs = forced(space, trajectories)
        assert credal.presolve(cs).forcings
        cert = feasibility(cs)
        assert cert.path == "lp"
        assert cert.witness.probs.tobytes() == phase1_point(cs).tobytes()

    def test_phase1_point_is_the_zero_objective_solution(self):
        cs = realize(BUILTIN_SCENARIOS["drifting-branch"]())[1]
        pre = credal.presolve(cs)
        start = lp.feasible_start(pre.rows, pre.rhs, pre.senses)
        result = lp.solve_lp(np.zeros(pre.live.size), pre.rows, pre.rhs, pre.senses, start=start)
        assert start.point.tobytes() == result.x.tobytes()
        assert feasibility(cs).witness.probs.tobytes() == phase1_point(cs).tobytes()


class TestOneWitnessPerSet:
    @staticmethod
    def sets():
        return {
            "support": dft_sets("verdicts", 7, infeasible=False)[0],
            "chain": realize(BUILTIN_SCENARIOS["beam-splitter"]())[1],
            "lp": realize(BUILTIN_SCENARIOS["drifting-branch"]())[1],
        }

    @pytest.mark.parametrize("path", ["support", "chain", "lp"])
    def test_feasibility_then_huber_check_verify_once(self, path, count_calls):
        cs = self.sets()[path]
        credal._reading.cache_clear()
        checks = count_calls(credal, "verify_witness")
        cert = feasibility(cs)
        value = huber_check(cs)
        assert cert.path == path
        assert abs(value - credal._huber_lp(cs)) <= 1e-12
        assert len(checks) == 1


def test_queries_leave_numpy_ma_unloaded():
    """``numpy.ma`` costs 1.6 MB in a bare process; ``np.unique`` and some
    other numpy routines import it.  The queries on a forced DFT set and on a
    chain set import none of them."""
    script = textwrap.dedent("""
        import sys
        from perfbench.workloads import LADDER, LPWorkload
        from iqp import credal, typicality
        from iqp.scenarios import BUILTIN_SCENARIOS, build_constraints, build_system
        from iqp.events import TrajectorySpace, parse_event
        from iqp.system import Region, SSet

        workload = LPWorkload("ladder-queries", LADDER, 7)
        (dft,) = workload.setup([doc for doc in workload.configs() if doc[0] == 1][:1])
        cfg = BUILTIN_SCENARIOS["beam-splitter"]()
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        cs = build_constraints(cfg, system, space)
        ssets = [SSet(t, Region.from_labels(labels, system.m))
                 for t, labels in cfg.branches[0].ssets]
        branch = typicality.make_branch(system, ssets, cfg.tau_norm)
        chain = (system, space, cs, [parse_event(e, space) for e in cfg.events], branch, cfg)
        for system, space, cs, events, branch, cfg in (
                (dft.system, dft.space, dft.cs, [e for _, e in dft.events], dft.branch,
                 dft.cfg), chain):
            print(credal.feasibility(cs).path)
            for event in events:
                credal.lower_upper(cs, event)
            credal.huber_check(cs)
            typicality.verify_w11(system, space, cs, branch, cfg.delta, cfg.samples, cfg.seed)
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["support", "chain", "False"]
