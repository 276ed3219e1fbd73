"""Bounds on binary pinned chain sets come from a forward pass, not the LP.

``credal.lower_upper`` answers an event on two times over a feasible pinned
chain set on two labels by ``credal._chain_bounds``: the forward pass over
the window between the event's times, and one attaining measure per bound.
Every other set or event takes the LP path unchanged, which the fallback
cases compare byte for byte; an event on one time is among them, and the LP
returns its pinned marginal.  The horizon tests pin what ROADMAP item 11
says of appending times: a chain set's bounds on earlier events do not move,
and an all-pairs set's intervals never widen.
"""

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import realize, scipy_bounds, seeded_config, sset
from iqp import credal, lp
from iqp.credal import (
    CERTIFICATE_TOL,
    ConstraintSet,
    LinearConstraint,
    born_constraints,
    lower_upper,
    verify_witness,
)
from iqp.events import Event, TrajectorySpace, parse_event, sset_event
from iqp.scenarios import singleton_family
from iqp.system import QuantumSystem, hadamard_matrix, identity_matrix

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, VERDICTS, LPWorkload  # noqa: E402

# the five rule tokens, each with a tau_norm, alpha or epsilon that keeps rows live
RULESETS = {
    "born+qtr-min": {},
    "born+qtr": {"tau_norm": 0.2},
    "born+qtr-alpha": {"alpha": 0.7, "tau_norm": 0.2},
    "born+qtr-eps": {"epsilon": 0.3, "tau_norm": 0.2},
    "born+qtr+qtr-min": {"tau_norm": 0.2},
}
# the cells (label at t1, label at t2) of each two-time event shape: single
# cells, the diagonal, the anti-diagonal and unions of three cells
CELLS = [[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)], [(0, 0), (1, 1)], [(0, 1), (1, 0)],
         *(list(rest) for rest in itertools.combinations([(0, 0), (0, 1), (1, 0), (1, 1)], 3))]
TOL = 1e-12


def cell_event(space: TrajectorySpace, t1: int, t2: int, cells) -> Event:
    bits = np.zeros(space.size, dtype=bool)
    for x, y in cells:
        bits |= space.atom(t1, 1 << x).bits & space.atom(t2, 1 << y).bits
    return Event(bits)


def shaped_events(space: TrajectorySpace,
                  rng: np.random.Generator) -> tuple[list[Event], list[Event]]:
    """Every two-time shape on a seeded pair of times, and both atoms of a
    seeded time."""
    t1, t2 = sorted(rng.choice(space.n, 2, replace=False).tolist())
    t = int(rng.integers(space.n))
    return ([cell_event(space, t1, t2, cells) for cells in CELLS],
            [space.atom(t, 1 << a) for a in range(2)])


def check_attained(cs: ConstraintSet, event: Event, res, highs: bool) -> None:
    """Each bound of ``res`` attained by a measure that passes
    ``verify_witness``, and, when ``highs``, HiGHS's bounds within 1e-7."""
    for value, measure in ((res.lower, res.argmin), (res.upper, res.argmax)):
        assert verify_witness(cs, measure.probs) <= CERTIFICATE_TOL
        assert abs(measure.probability(event) - value) <= TOL
    if highs:
        lower, upper = scipy_bounds(cs, event)
        assert abs(res.lower - lower) <= 1e-7 and abs(res.upper - upper) <= 1e-7


def check_pinned_by_the_lp(cs: ConstraintSet, event: Event, highs: bool = False) -> None:
    """An atom of one time takes the LP, whose bounds are both its pin
    within ``TOL``."""
    res = lower_upper(cs, event)
    assert (res.status, res.path) == ("both-solved", "lp")
    (t,) = credal._dependent_times(event, cs.space)
    pin = credal._chain_couplings(cs).mu[t, int(event.bits[0] == 0)]
    assert abs(res.lower - pin) <= TOL and abs(res.upper - pin) <= TOL
    check_attained(cs, event, res, highs)


def check_chain_bounds(cs: ConstraintSet, event: Event, highs: bool = False) -> None:
    """The forward pass answers, within ``TOL`` of the LP path's min and max."""
    res = lower_upper(cs, event)
    assert (res.status, res.path) == ("both-solved", "chain")
    objective = event.bits.astype(float)
    low = credal._solve(cs, objective)
    high = credal._solve(cs, objective, maximize=True)
    assert abs(res.lower - low.objective) <= TOL
    assert abs(res.upper - high.objective) <= TOL
    check_attained(cs, event, res, highs)


def halves_differ(bits: np.ndarray, n: int) -> list[int] | None:
    """The scope test by its definition: the times whose two label halves
    differ, ``None`` past two."""
    times = [t for t in range(n)
             if (bits.reshape(1 << t, 2, -1)[:, 0] != bits.reshape(1 << t, 2, -1)[:, 1]).any()]
    return times if len(times) <= 2 else None


@pytest.mark.parametrize("n", range(1, 11))
def test_dependent_times_are_the_differing_halves(n):
    rng = np.random.default_rng([n, 37])
    space = TrajectorySpace(2, n)
    index = np.arange(1 << n)
    for _ in range(60):
        bits = np.full(1 << n, bool(rng.integers(2)))
        for t in rng.choice(n, min(int(rng.integers(4)), n), replace=False).tolist():
            label = (index >> (n - 1 - t)) & 1 == rng.integers(2)
            bits = bits & label if rng.random() < 0.5 else bits | label
        for event in (bits, rng.random(1 << n) < 0.5):
            assert credal._dependent_times(Event(event), space) == halves_differ(event, n)


# --- the forward pass against the LP ------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 401])
@pytest.mark.parametrize("name, rungs, count", [("ladder-queries", LADDER, 24),
                                                ("verdicts", VERDICTS, 26)])
def test_workload_chain_sets_match_the_lp(name, rungs, count, seed):
    workload = LPWorkload(name, rungs, seed)
    rng = np.random.default_rng(seed)
    chains = 0
    for p in workload.setup(workload.configs()):
        if credal._chain_couplings(p.cs) is None:
            continue
        chains += 1
        shaped, atoms = shaped_events(p.space, rng)
        for event in [e for _, e in p.events] + shaped:
            check_chain_bounds(p.cs, event)
        for event in atoms:
            check_pinned_by_the_lp(p.cs, event)
    assert chains == count


@pytest.mark.parametrize("ruleset", sorted(RULESETS))
@pytest.mark.parametrize("n", range(2, 9))
def test_seeded_binary_chain_sets_match_the_lp_and_highs(ruleset, n):
    """The first feasible chain set of ten seeds (an infeasible one takes the LP)."""
    for seed in range(10):
        cfg = dataclasses.replace(seeded_config(2, n, "random", ruleset, True, [n, seed]),
                                  **RULESETS[ruleset])
        space, cs = realize(cfg)
        if credal._chain_couplings(cs) is not None:
            break
    else:
        pytest.fail("no feasible chain set")
    shaped, atoms = shaped_events(space, np.random.default_rng([n, 31]))
    for event in shaped:
        check_chain_bounds(cs, event, highs=True)
    for event in atoms:
        check_pinned_by_the_lp(cs, event, highs=True)


def test_every_pair_of_times_on_a_chain_with_live_rows():
    """A chain whose pair rows bind: every shape on every pair of times."""
    space, cs = realize(seeded_config(2, 5, "random", "born+qtr-min", True, [5, 2]))
    assert sum(len(con.origin) == 2 for con in cs.constraints) > 0
    for t1, t2 in itertools.combinations(range(space.n), 2):
        for cells in CELLS:
            check_chain_bounds(cs, cell_event(space, t1, t2, cells))


def test_one_time_event_is_pinned():
    """Every atom of every time, through the LP."""
    space, cs = realize(seeded_config(2, 4, "random", "born+qtr-min", True, [4, 1]))
    for t in range(space.n):
        for a in range(2):
            check_pinned_by_the_lp(cs, space.atom(t, 1 << a))


def test_one_time_event_runs_the_lp_and_no_forward_pass(count_calls):
    space, cs = realize(seeded_config(2, 6, "random", "born+qtr-min", True, [6, 3]))
    assert credal._chain_couplings(cs) is not None
    passes = count_calls(credal, "_forward_pass")
    measures = count_calls(credal, "_window_measures")
    solves = count_calls(lp, "solve_lp")
    res = lower_upper(cs, parse_event("(t=2,{1})", space))
    assert res.path == "lp"
    assert (passes, measures, len(solves)) == ([], [], 2)


def test_chain_bounds_run_no_presolve_and_no_phase1(count_calls):
    cfg = seeded_config(2, 6, "random", "born+qtr-min", True, [6, 3])
    space, cs = realize(cfg)
    credal._reading.cache_clear()
    presolves = count_calls(credal, "presolve")
    presolved = count_calls(credal, "_presolve")
    pinned = count_calls(credal, "_pinned")
    starts = count_calls(lp, "feasible_start")
    solves = count_calls(lp, "solve_lp")
    res = lower_upper(cs, parse_event("(t=1,{0}) & (t=4,{1})", space))
    assert res.path == "chain"
    assert (presolves, presolved, pinned, starts, solves) == ([], [], [], [], [])


# --- fallbacks -------------------------------------------------------------------


def three_label_chain():
    space, cs = realize(seeded_config(3, 4, "random", "born+qtr-min", True, [3, 4]))
    assert credal._chain_couplings(cs) is not None
    return cs, parse_event("(t=0,{0}) & (t=2,{1,2})", space)


def three_time_event():
    space, cs = realize(seeded_config(2, 5, "random", "born+qtr-min", True, [5, 7]))
    return cs, parse_event("(t=0,{0}) & (t=2,{1}) & (t=4,{0})", space)


def infeasible_chain():
    """Hadamard then identity, with pair rows asking 0.6 of a label pinned to 1/2."""
    system = QuantumSystem(["x0", "x1"], [hadamard_matrix(), identity_matrix(2)], [1.0, 0.0])
    space = TrajectorySpace.for_system(system)
    rows = born_constraints(system, space, singleton_family(system)).constraints
    for label, rhs in ((0, 0.4), (1, 0.2)):
        s1, s2 = sset(1, [0]), sset(2, [label])
        rows += (LinearConstraint(sset_event(space, s1) & sset_event(space, s2), rhs, "qtr",
                                  "pair", (s1, s2)),)
    cs = ConstraintSet(space, rows)
    assert credal._pinned_chain(cs) is not None
    return cs, parse_event("(t=0,{0}) & (t=2,{0})", space)


def all_pairs_set():
    space, cs = realize(seeded_config(2, 5, "random", "born+qtr-min", False, [5, 11]))
    return cs, parse_event("(t=1,{0}) & (t=3,{1})", space)


FALLBACKS = {
    "three labels": (three_label_chain, "both-solved"),
    "event on three times": (three_time_event, "both-solved"),
    "infeasible chain set": (infeasible_chain, "infeasible"),
    "all pairs": (all_pairs_set, "both-solved"),
}


def result_bytes(res):
    return (res.status, res.path, res.lower, res.upper,
            *(None if m is None else m.probs.tobytes() for m in (res.argmin, res.argmax)))


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_is_the_lp_path(case, monkeypatch):
    build, status = FALLBACKS[case]
    cs, event = build()
    assert credal._chain_bounds(cs, event) is None
    res = lower_upper(cs, event)
    assert (res.status, res.path) == (status, "lp")

    # the LP path alone, from a fresh presolve and phase 1, gives the same bytes
    monkeypatch.setattr(credal, "_chain_bounds", lambda _cs, _a: None)
    credal._reading.cache_clear()
    assert result_bytes(lower_upper(cs, event)) == result_bytes(res)


@pytest.mark.parametrize("name, stub", [("verify_witness", lambda _cs, _probs: 1.0),
                                        ("_forward_pass", lambda *_args: None)])
def test_failed_check_or_empty_coupling_interval_takes_the_lp_path(name, stub, monkeypatch):
    """A measure that fails its check, or a coupling interval empty in floats."""
    space, cs = realize(seeded_config(2, 4, "random", "born+qtr-min", True, [4, 9]))
    event = parse_event("(t=0,{1}) & (t=3,{1})", space)
    chained = lower_upper(cs, event)
    monkeypatch.setattr(credal, name, stub)
    res = lower_upper(cs, event)
    assert (chained.path, res.path) == ("chain", "lp")
    assert abs(res.lower - chained.lower) <= TOL and abs(res.upper - chained.upper) <= TOL


# --- horizon (ROADMAP item 11, step 1) ---------------------------------------------


def truncated(cfg, n: int):
    """``cfg`` on its first ``n`` times: the earlier steps, and the chain's
    earlier pairs when it has one."""
    pairs = None if cfg.time_pairs is None else cfg.time_pairs[:n - 1]
    return dataclasses.replace(cfg, steps=cfg.steps[:n - 1], time_pairs=pairs)


def horizon_bounds(cfg, n: int, exprs: list[str]) -> list[tuple[float, float, str]]:
    space, cs = realize(truncated(cfg, n))
    out = []
    for expr in exprs:
        res = lower_upper(cs, parse_event(expr, space))
        out.append((res.lower, res.upper, res.path))
    return out


def earlier_events(rng: np.random.Generator, n: int, count: int) -> list[str]:
    """``count`` seeded single-cell and one-time events on the first ``n`` times."""
    exprs = []
    for _ in range(count):
        t1, t2 = sorted(rng.choice(n, 2, replace=False).tolist())
        x, y = rng.integers(2, size=2).tolist()
        exprs.append(f"(t={t1},{{{x}}}) & (t={t2},{{{y}}})")
    exprs.append(f"(t={int(rng.integers(n))},{{0}})")
    return exprs


@pytest.mark.parametrize("seed", range(4))
def test_appending_steps_to_a_chain_moves_no_bound(seed):
    cfg = seeded_config(2, 8, "random", "born+qtr-min", True, [seed, 8])
    rng = np.random.default_rng([seed, 13])
    for n in (3, 5):
        exprs = earlier_events(rng, n, 6)
        short = horizon_bounds(cfg, n, exprs)
        for longer in (n + 1, 8):
            for expr, (lo, hi, path), (lo2, hi2, path2) in zip(
                    exprs, short, horizon_bounds(cfg, longer, exprs)):
                # a two-time event through the forward pass, a one-time event through the LP
                assert path == path2 == ("chain" if "&" in expr else "lp")
                assert abs(lo - lo2) <= 1e-9 and abs(hi - hi2) <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_appending_steps_to_all_pairs_never_widens(seed):
    cfg = seeded_config(2, 7, "random", "born+qtr-min", False, [seed, 7])
    rng = np.random.default_rng([seed, 17])
    exprs = earlier_events(rng, 4, 6)
    previous = horizon_bounds(cfg, 4, exprs)
    for n in (5, 7):
        current = horizon_bounds(cfg, n, exprs)
        for (lo, hi, _), (lo2, hi2, path) in zip(previous, current):
            assert path == "lp"
            assert lo2 >= lo - 1e-9 and hi2 <= hi + 1e-9
        previous = current
