"""A pin repeated on the live columns is given to the LP once.

Once forcing rows fix columns, two '==' pins can be the same row on the
columns left live; ``credal._collapse`` keeps the first and drops a later
one whose right side is within ``VACUOUS_RHS`` of it, normalization
included.  ``Presolved.collapsed`` still lists only '>=' rows, the dropped
pins are listed in ``Presolved.repeated``, and a lifted Farkas certificate
rewrites a dropped pin's negative multiplier over the pins stage, which
holds every pin.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import scipy_feasible

from iqp import credal
from iqp.credal import VACUOUS_RHS, ConstraintSet, LinearConstraint, feasibility, presolve
from iqp.events import TrajectorySpace, sset_event
from iqp.system import Region, SSet

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, LPWorkload  # noqa: E402


@pytest.mark.parametrize("seed", [1, 7, 401])
def test_ladder_dft_rungs_give_each_pin_once(seed):
    """The phase-1 LP of a DFT rung has 7 rows at m=3 n=6 and 9 at m=4 n=5,
    and no two of its '==' rows are equal."""
    workload = LPWorkload("ladder-queries", LADDER, seed)
    prepared = [p for p in workload.setup(workload.configs()) if LADDER[p.rung].kind == "dft"]
    assert len(prepared) == 10
    for p in prepared:
        pre = presolve(p.cs)
        assert len(pre.senses) == {3: 7, 4: 9}[p.space.m]
        pins = [row.tobytes() for row, sense in zip(pre.rows, pre.senses) if sense == "=="]
        assert len(set(pins)) == len(pins)
        assert all(p.cs.constraints[i].origin and j < 0 for i, j in zip(pre.owners, pre.partners)
                   if i in pre.collapsed)


def keep(rows, rhs, partners):
    return credal._collapse(np.array(rows, dtype=float), rhs, partners)


class TestCollapse:
    def test_repeat_within_dust_is_dropped(self):
        rows = [[1, 1], [1, 0], [1, 0], [1, 0]]
        assert keep(rows, [1.0, 0.5, 0.5 + VACUOUS_RHS / 2, 0.5 - VACUOUS_RHS],
                    [4, 5, 6]) == [True, False, False]

    def test_repeat_past_dust_stays(self):
        """An over-pinned row stays, so the LP stays infeasible."""
        rows = [[1, 1], [1, 0], [1, 0]]
        assert keep(rows, [1.0, 0.5, 0.5 + 1e-6], [3, 4]) == [True, True]

    def test_pin_equal_to_normalization_is_dropped(self):
        rows = [[1, 1], [1, 1], [1, 1]]
        assert keep(rows, [1.0, 1.0 - VACUOUS_RHS / 2, 0.9], [3, -1]) == [False, False]

    def test_dropped_pin_still_caps_inequalities(self):
        """A '>=' row is collapsed by the largest bound of an equal '==' row,
        as before pins were dropped."""
        rows = [[1, 1], [1, 0], [1, 0], [1, 0]]
        top = 0.5 + VACUOUS_RHS / 2
        assert keep(rows, [1.0, 0.5, top, top], [4, 5, -1]) == [True, False, False]


def three_pins(demand_rhs):
    """Three times pinned at 1/2, zero-drift rows on (t0, t1) and (t1, t2),
    and a demand on ``(t=0,{0}) & (t=2,{1})``: the live columns are (0, 0, 0)
    and (1, 1, 1), where the three pins are one row."""
    space = TrajectorySpace(2, 3)
    s = [SSet(t, Region.from_labels([0], 2)) for t in range(3)]
    atoms = [sset_event(space, x) for x in s]
    rows = []
    for x in s:
        rows += [LinearConstraint(sset_event(space, t), 0.5, "born", t.text(), (x,))
                 for t in (x, x.complement())]
    for x, y in ((0, 1), (1, 2)):
        rows.append(LinearConstraint(atoms[x] & atoms[y], 0.5, "qtr", f"pair{x}{y}",
                                     (s[x], s[y])))
    rows.append(LinearConstraint(atoms[0] & ~atoms[2], demand_rhs, "demand", "demand"))
    return ConstraintSet(space, rows)


def test_repeated_pins_reach_the_lp_once():
    cs = three_pins(0.1)
    pre = presolve(cs)
    assert pre.live.tolist() == [0, 7]
    assert pre.senses == ["==", "==", ">="] and pre.owners == [0, 8]
    # the pair rows equal the pins there too, and are collapsed as before
    assert pre.collapsed == [6, 7] and pre.repeated == [2, 4]
    assert len(credal._reading(cs).pinned.owners) == 6


def test_dropped_pins_lift_over_the_pins_stage():
    """The lifted certificate puts each dropped pin's negative multiplier on
    its complement's row, which only the pins stage lists."""
    cs = three_pins(0.1)
    cert = feasibility(cs)
    assert not cert.feasible and not scipy_feasible(cs)
    pre = presolve(cs)
    dropped = pre.repeated
    assert dropped == [2, 4]
    mult = cert.farkas.multipliers
    assert (mult >= 0.0).all() and mult[dropped].tolist() == [0.0, 0.0]
    # the (t1, t2) row's deduction subtracts the t=1 pin, a dropped row, which
    # goes to its complement's row 3 and to normalization
    assert mult.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert cert.farkas.normalization == -2.0
