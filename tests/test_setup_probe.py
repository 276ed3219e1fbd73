"""The benchmark's set-up probe runs on every workload and cleans up after itself.

``perfbench/run.py --setup-probe`` is what the benchmark's ``setup_s`` times:
one fresh process imports the package, generates the workload's configs,
parses them and builds their constraint sets, then prints its elapsed
seconds.  A probe that fails, prints something else last or leaves its work
directory behind would only show when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"


@pytest.mark.parametrize("workload", ["ladder-queries", "verdicts", "cli-scenarios"])
def test_setup_probe(workload):
    before = set(OUT.glob("probe-*"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip().splitlines()[-1]) > 0.0
    assert set(OUT.glob("probe-*")) <= before
