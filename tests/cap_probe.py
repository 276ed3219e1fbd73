"""Memory and time of the three cap sets, N = 65,536 trajectories each.

    python tests/cap_probe.py

builds each set from ``make_config(Rung(...), 401, 7, 0)`` in a fresh
process: the random chain (m=2 n=16, ``born+qtr-min``), the random all-pairs
set (m=2 n=16, ``born+qtr-min``) and the DFT all-pairs set (m=4 n=8,
``born+qtr``), each with two cross-time events.  Per set it prints the
resident set size after the build, the peak resident set size after
``feasibility`` and both events' bounds, the seconds of the build (config
validation, system, atoms and rows), of ``feasibility`` and of the bounds,
and every bound.  Last it prints the shape of the presolved LP, its rows
(normalization included) by its live columns, built after the peak is read
when no query built it.  A fresh process per set keeps one set's peak out of
the next one's.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

CAP_SETS = {
    "random chain m=2 n=16": (2, 16, "random", "born+qtr-min", "chain"),
    "random all pairs m=2 n=16": (2, 16, "random", "born+qtr-min", "all"),
    "dft all pairs m=4 n=8": (4, 8, "dft", "born+qtr", "all"),
}


def _rss_mb() -> float:
    """The resident set size now, from ``/proc/self/status``."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


def probe(name: str) -> None:
    """Build one cap set, run its queries and print what they took."""
    from perfbench.workloads import Rung, make_config

    from iqp import credal, events, scenarios

    m, n, kind, ruleset, pairs = CAP_SETS[name]
    doc = make_config(Rung(m, n, kind, ruleset, pairs, 1, E=2), 401, 7, 0)
    start = time.perf_counter()
    cfg = scenarios.parse_config(doc)
    system = scenarios.build_system(cfg)
    space = events.TrajectorySpace.for_system(system)
    cs = scenarios.build_constraints(cfg, system, space)
    build_s = time.perf_counter() - start
    built = _rss_mb()
    start = time.perf_counter()
    verdict = credal.feasibility(cs)
    feasibility_s = time.perf_counter() - start
    start = time.perf_counter()
    bounds = [credal.lower_upper(cs, events.parse_event(e, space)) for e in cfg.events]
    bounds_s = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows, live = credal.presolve(cs).rows.shape
    print(f"{name}: {len(cs)} rows, feasible {verdict.feasible}")
    print(f"  build {build_s:.3f} s, rss after build {built:.1f} MB, peak rss {peak:.1f} MB")
    print(f"  feasibility {feasibility_s:.3f} s, bounds {bounds_s:.3f} s")
    print(f"  presolved LP {rows} rows x {live} live columns")
    for text, b in zip(cfg.events, bounds):
        print(f"  {text}: {b.status} [{b.lower!r}, {b.upper!r}] ({b.path})")


def main() -> int:
    for name in CAP_SETS:
        proc = subprocess.run([sys.executable, __file__, name], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:  # one set, in the fresh process main() starts
        probe(sys.argv[1])
    else:
        sys.exit(main())
