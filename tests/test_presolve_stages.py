"""The presolve in three stages, each built when a query first reads it.

The pins stage (``credal._pinned``) finds a demand whose bound passes a Born
pin by ``FARKAS_MARGIN``; that deduction is the certificate, so a refuted set
builds neither the support stage (``_supported``) nor the LP rows
(``_presolve``, through ``ConstraintSet._rows``).  A forced-support set
reads the support stage and builds no LP row either.  ``Presolved.empty``
names a demand's deduction before any other row's.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import scipy_feasible

from iqp import credal
from iqp.credal import (
    FARKAS_MARGIN,
    ConstraintSet,
    LinearConstraint,
    feasibility,
    presolve,
    verify_farkas,
)
from iqp.events import TrajectorySpace, sset_event
from iqp.system import Region, SSet

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import VERDICTS, LPWorkload  # noqa: E402


def verdicts(seed: int) -> tuple[LPWorkload, list]:
    workload = LPWorkload("verdicts", VERDICTS, seed)
    return workload, workload.setup(workload.configs())


@pytest.fixture
def stage_calls(count_calls):
    """The support stages, LP-row stages and ``ConstraintSet._rows`` calls
    from here on, in a fresh reading slot."""
    credal._reading.cache_clear()
    return (count_calls(credal, "_supported"), count_calls(credal, "_presolve"),
            count_calls(ConstraintSet, "_rows"))


def deduction_certificate(cs: ConstraintSet, terms) -> credal.FarkasCertificate:
    """The certificate of a deduction over the full presolve, as ``feasibility``
    built it from ``Presolved.empty`` before the pins stage."""
    y = np.zeros(len(cs) + 1)
    for i, coef in terms:
        y[i] += coef
    cert, problem = credal._checked(cs, *credal._multipliers(presolve(cs), y))
    assert problem is None
    return cert


@pytest.mark.parametrize("seed", [1, 7, 401])
def test_refuted_sets_build_no_support_and_no_rows(seed, stage_calls):
    _, prepared = verdicts(seed)
    sets = [p.cs for p in prepared if p.infeasible]
    assert len(sets) == 38
    certs = [feasibility(cs) for cs in sets]
    assert stage_calls == ([], [], [])
    for cs, cert in zip(sets, certs):
        assert cert.path == "presolve"
        expected = deduction_certificate(cs, presolve(cs).empty)
        assert cert.farkas.multipliers.tobytes() == expected.multipliers.tobytes()
        assert repr((cert.farkas.normalization, cert.farkas.margin)) == repr(
            (expected.normalization, expected.margin))


@pytest.mark.parametrize("seed", [1, 7, 401])
def test_forced_support_sets_build_no_rows(seed, stage_calls):
    _, prepared = verdicts(seed)
    sets = [p.cs for p in prepared if not p.infeasible and VERDICTS[p.rung].kind == "dft"]
    assert len(sets) == 12
    assert [feasibility(cs).path for cs in sets] == ["support"] * 12
    _, presolves, rows = stage_calls
    assert (presolves, rows) == ([], [])


def test_verdicts_pass_builds_no_lp_rows(stage_calls):
    workload, prepared = verdicts(7)
    ops = workload.run_pass(prepared)
    assert [op.error for op in ops] == [None] * len(ops)
    _, presolves, rows = stage_calls
    assert (presolves, rows) == ([], [])


class TestDemandBeforePairRow:
    """A pair row and a demand both pass a pin by more than the margin: the
    demand's deduction, the later row, is the one the presolve keeps."""

    SPACE = TrajectorySpace(2, 2)
    A = SSet(0, Region.from_labels([0], 2))
    B = SSet(1, Region.from_labels([0], 2))

    def rows(self):
        a, b = sset_event(self.SPACE, self.A), sset_event(self.SPACE, self.B)
        return ConstraintSet(self.SPACE, [
            LinearConstraint(a, 0.6, "born", "a", (self.A,)),
            LinearConstraint(~a, 0.4, "born", "!a", (self.A.complement(),)),
            LinearConstraint(b, 0.3, "born", "b", (self.B,)),
            LinearConstraint(~b, 0.7, "born", "!b", (self.B.complement(),)),
            # past the pin of B by 0.1, short of the pin of A
            LinearConstraint(a & b, 0.4, "qtr", "a & b", (self.A, self.B)),
            # inside A and past its pin by 0.2
            LinearConstraint(a & ~b, 0.8, "demand", "a & !b"),
        ])

    def test_demand_deduction_is_kept(self, phase1_calls):
        cs = self.rows()
        pair, demand = ((4, 1.0), (2, -1.0)), ((5, 1.0), (0, -1.0))
        assert presolve(cs).empty == demand
        cert = feasibility(cs)
        assert phase1_calls == [] and cert.path == "presolve"
        # 1_{A & B^c} + 1_{A^c} - 1 <= 0, with right side 0.8 + 0.4 - 1
        assert cert.farkas.multipliers.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
        assert cert.farkas.normalization == -1.0
        slack, margin = verify_farkas(cs, cert.farkas)
        assert slack <= 0.0 and margin >= FARKAS_MARGIN
        # the pair row's deduction is a certificate too
        other = deduction_certificate(cs, pair)
        assert other.multipliers.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 0.0]
        assert other.margin >= FARKAS_MARGIN
        assert not scipy_feasible(cs)
