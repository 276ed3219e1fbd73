"""The presolve's support stage against the event-built one it replaced.

``credal._supported`` reads each pair row's atoms by ``(time, mask)``,
builds a pin's deduction inline and joins the fixed trajectories as one
integer word.  ``_seed_support.supported`` builds the same stage from
events; on every set of both LP workloads at three seeds, on the built-in
scenarios and on every set that ``tests/test_forcing.py`` builds, the two
records agree field by field.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from _seed_support import assert_same, supported

from iqp import credal
from iqp.events import TrajectorySpace
from iqp.scenarios import BUILTIN_SCENARIOS, build_constraints, build_system

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, VERDICTS, LPWorkload  # noqa: E402

WORKLOADS = {"ladder-queries": LADDER, "verdicts": VERDICTS}


def assert_stage_matches(cs) -> credal._Support:
    pinned = credal._pinned(cs, credal._Reading(cs).paired)
    support = credal._supported(cs, pinned)
    assert_same(support, supported(cs, pinned))
    return support


@pytest.mark.parametrize("seed", [1, 7, 401])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_sets(name, seed):
    workload = LPWorkload(name, WORKLOADS[name], seed)
    prepared = workload.setup(workload.configs())
    assert len(prepared) == {"ladder-queries": 34, "verdicts": 76}[name]
    supports = [assert_stage_matches(p.cs) for p in prepared]
    # the DFT sets exercise the forcing rows, the random chain sets none
    forced = [bool(s.forcings) for s in supports]
    dft = [WORKLOADS[name][p.rung].kind == "dft" for p in prepared]
    assert forced == dft


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_sets(name):
    cfg = BUILTIN_SCENARIOS[name]()
    system = build_system(cfg)
    assert_stage_matches(build_constraints(cfg, system, TrajectorySpace.for_system(system)))


def test_forcing_sets():
    """Every support stage that ``tests/test_forcing.py`` builds, compared by
    ``_seed_support`` loaded as a plugin in a fresh session."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "_seed_support",
         str(ROOT / "tests" / "test_forcing.py")],
        capture_output=True, text=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    compared = int(proc.stdout.rsplit("support stages compared: ", 1)[1].split()[0])
    assert compared >= 50
