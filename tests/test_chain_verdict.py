"""Pinned chain sets get their verdict from consecutive-pair couplings.

``credal.feasibility`` decides a set whose rows are Born pins and pair rows
on consecutive times without the presolve or phase 1: the couplings of
``credal._chain_couplings`` glue into a Markov-chain witness, which
``markov_chain`` below recomputes from its formula.  Every other
set, and a chain set with a negative coupling residual, takes the LP path
unchanged, which the fallback cases compare byte for byte.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import realize, scipy_feasible, seeded_config, sset, violation
from iqp import credal
from iqp.credal import (
    CERTIFICATE_TOL,
    ConstraintSet,
    LinearConstraint,
    born_constraints,
    feasibility,
    lower_bound_constraints,
    merge_constraint_sets,
    presolve,
    qtr_constraints,
    verify_witness,
)
from iqp.events import TrajectorySpace, parse_event, sset_event
from iqp.scenarios import BUILTIN_SCENARIOS, singleton_family
from iqp.system import QuantumSystem, hadamard_matrix, identity_matrix

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, VERDICTS, LPWorkload  # noqa: E402

# every pair ruleset, with a tau_norm wide enough that the equal-weight rules
# keep some rows, and alpha and epsilon that keep them live
RULESETS = {
    "born": {},
    "born+qtr": {"tau_norm": 0.2},
    "born+qtr-min": {},
    "born+qtr-eps": {"epsilon": 2.0, "tau_norm": 0.2},
    "born+qtr-alpha": {"alpha": 0.3, "tau_norm": 0.2},
}
SHAPES = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)]


@pytest.fixture
def lp_calls(count_calls, phase1_calls):
    """The presolves and phase 1s run from here on, by the shapes they saw;
    ``phase1_calls`` empties the one slot they are kept in."""
    presolves = count_calls(credal, "_pinned", lambda cs, kept: len(cs))
    return lambda: (list(presolves), list(phase1_calls))


def markov_chain(mu: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """``P(w) = pi[0][w0, w1] * prod over t >= 1 of pi[t][wt, wt+1] / mu[t][wt]``
    (0 where ``mu[t][wt] = 0``) over every trajectory, time 0 the most
    significant digit: the chain of the couplings, by its formula."""
    if not len(couplings):
        return mu[0].copy()
    probs = couplings[0]
    for t in range(1, len(couplings)):
        starts = mu[t][:, None]
        step = np.divide(couplings[t], starts, out=np.zeros_like(couplings[t]),
                         where=starts > 0.0)
        probs = probs[..., None] * step
    return probs.reshape(-1)


def pair_marginals(probs: np.ndarray, m: int, n: int) -> list[np.ndarray]:
    """The measure's marginal on times (t, t + 1), for each t."""
    table = probs.reshape([m] * n)
    return [table.sum(axis=tuple(s for s in range(n) if s not in (t, t + 1)))
            for t in range(n - 1)]


@pytest.mark.parametrize("ruleset", sorted(RULESETS))
@pytest.mark.parametrize("kind", ["random", "dft"])
@pytest.mark.parametrize("m,n", SHAPES)
def test_seeded_chain_sets(m, n, kind, ruleset, lp_calls):
    live_pairs = 0
    for seed in range(3):
        cfg = dataclasses.replace(seeded_config(m, n, kind, ruleset, True, [seed, m, n]),
                                  **RULESETS[ruleset])
        space, cs = realize(cfg)
        live_pairs += sum(len(con.origin) == 2 for con in cs.constraints)
        before = lp_calls()
        cert = feasibility(cs)
        assert cert.feasible == scipy_feasible(cs)
        if not cert.feasible:  # a negative residual: the LP proves it
            assert credal._pinned_chain(cs) is not None
            assert credal._chain_couplings(cs) is None
            continue
        # every feasible chain set of this family is decided without the LP
        assert lp_calls() == before
        chain = credal._chain_couplings(cs)
        mu, couplings = chain.mu, chain.couplings
        assert chain.bounds.tobytes() == credal._pinned_chain(cs)[1].tobytes()
        probs = cert.witness.probs
        np.testing.assert_allclose(probs, markov_chain(mu, couplings), rtol=0.0, atol=1e-15)
        assert verify_witness(cs, probs) <= CERTIFICATE_TOL
        for t, (marginal, coupling) in enumerate(zip(pair_marginals(probs, m, n), couplings)):
            np.testing.assert_allclose(marginal, coupling, rtol=0.0, atol=1e-12)
            assert (coupling >= 0.0).all()
            np.testing.assert_allclose(coupling.sum(axis=1), mu[t], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(coupling.sum(axis=0), mu[t + 1], rtol=0.0, atol=1e-12)
    if ruleset != "born" and kind == "random":  # DFT steps seldom leave one live
        assert live_pairs > 0


def test_one_time_witness_is_the_born_marginal(lp_calls):
    system = QuantumSystem(["x0", "x1", "x2"], [], [0.6, 0.8j, 0.0])
    space = TrajectorySpace.for_system(system)
    cs = born_constraints(system, space, singleton_family(system))
    cert = feasibility(cs)
    assert cert.witness.probs.tolist() == [system.weight(sset(0, [a], 3)) for a in range(3)]
    assert lp_calls() == ([], [])


def test_one_label_set_takes_the_chain_path(lp_calls):
    """Over one label every atom is the universal event, so the reading keeps
    one strongest row for all of the set's Born and pair rows; the scan reads
    a row on the full label set as the universal event's bound at every
    time, so the set stays pinned."""
    system = QuantumSystem(["x0"], [identity_matrix(1)] * 2, [1.0])
    space = TrajectorySpace.for_system(system)
    family = singleton_family(system)
    pairs = [(s, u) for s, u in zip(family, family[1:])]
    cs = merge_constraint_sets([born_constraints(system, space, family),
                                qtr_constraints(system, space, pairs)])
    assert [len(con.origin) for con in cs.constraints] == [1, 1, 1, 2, 2]
    assert credal._pinned_chain(cs) is not None
    cert = feasibility(cs)
    assert cert.witness.probs.tolist() == [1.0]
    assert lp_calls() == ([], [])


# --- fallbacks ------------------------------------------------------------------------


@pytest.fixture
def hti():
    """Hadamard then identity: the two-path splitter, P(t, a) = 1/2 at t = 1, 2."""
    system = QuantumSystem(["x0", "x1"], [hadamard_matrix(), identity_matrix(2)], [1.0, 0.0])
    return system, TrajectorySpace.for_system(system)


def chain_pair_row(space, s1, s2, rhs):
    return LinearConstraint(sset_event(space, s1) & sset_event(space, s2), rhs, "qtr",
                            f"({s1.text()} & {s2.text()})", (s1, s2))


def hti_chain(system, space, *extra):
    """Born pins and one consecutive pair row, plus ``extra`` rows."""
    born = born_constraints(system, space, singleton_family(system))
    pair = chain_pair_row(space, sset(1, [0]), sset(2, [0]), 0.4)
    return ConstraintSet(space, born.constraints + (pair,) + tuple(extra))


def demand_set(system, space):
    demand = lower_bound_constraints(space, [(parse_event("(t=0,{0}) & (t=2,{1})", space),
                                              0.3, "demand")])
    return merge_constraint_sets([hti_chain(system, space), demand])


def non_consecutive_set(system, space):
    return hti_chain(system, space, chain_pair_row(space, sset(0, [0]), sset(2, [1]), 0.2))


def pair_row_alone_set(_system, space):
    return ConstraintSet(space, (chain_pair_row(space, sset(1, [0]), sset(2, [0]), 0.4),))


def lowered(system, space, pick):
    """``hti_chain`` with ``pick`` of its rows on the event of (t=1,{1}) (the
    complement row of (t=1,{0}) first, then the Born row of (t=1,{1}))
    lowered by 1e-6."""
    rows = list(hti_chain(system, space).constraints)
    for k in pick([k for k, con in enumerate(rows) if con.origin == (sset(1, [1]),)]):
        rows[k] = dataclasses.replace(rows[k], rhs=rows[k].rhs - 1e-6)
    return ConstraintSet(space, rows)


def band_set(system, space):
    """Both rows on the event of (t=1,{1}) lowered by 1e-6: 1/2 - 1e-6 <=
    P(t=1,{1}) <= 1/2, a band that pins neither label."""
    return lowered(system, space, lambda both: both)


def lowered_complement_set(system, space):
    """The complement row of (t=1,{0}) lowered by 1e-6: the Born row of
    (t=1,{1}) still bounds that event at 1/2, so both labels stay pinned."""
    return lowered(system, space, lambda both: both[:1])


def negative_residual_set(system, space):
    """P((t=1,{0}) & (t=2,{0})) >= 0.4 and P((t=1,{0}) & (t=2,{1})) >= 0.2 ask
    0.6 of the label pinned to 1/2."""
    return hti_chain(system, space, chain_pair_row(space, sset(1, [0]), sset(2, [1]), 0.2))


def misread_row_set(system, space):
    """A row whose origin does not name its event: it is the strongest row on
    the pair row's event, and its origin names the atom of (t=1,{0}), the
    key of that atom's Born row, so the scan refuses the set."""
    event = sset_event(space, sset(1, [0])) & sset_event(space, sset(2, [0]))
    return hti_chain(system, space, LinearConstraint(event, 0.45, "born", "odd", (sset(1, [0]),)))


def region_size_two_set(_system, _space):
    cfg = dataclasses.replace(seeded_config(3, 3, "random", "born+qtr-min", True, [0, 3, 3]),
                              max_region_size=2)
    return realize(cfg)[1]


def no_born_ruleset_set(_system, _space):
    return realize(seeded_config(2, 4, "random", "qtr-min", True, [0, 2, 4]))[1]


def drifting_branch_set(_system, _space):
    return realize(BUILTIN_SCENARIOS["drifting-branch"]())[1]


FALLBACKS = {
    "demand row": (demand_set, True, False),
    "live non-consecutive row": (non_consecutive_set, True, False),
    "live (t=0, t=2) rows of drifting-branch": (drifting_branch_set, True, False),
    "max_region_size 2": (region_size_two_set, True, False),
    "ruleset without born": (no_born_ruleset_set, True, False),
    "pair row alone": (pair_row_alone_set, True, False),
    "pin band": (band_set, True, False),
    "negative residual": (negative_residual_set, False, True),
    "row misread as an atom": (misread_row_set, True, False),
}


def answer_bytes(cert):
    if cert.feasible:
        return True, cert.witness.probs.tobytes()
    farkas = cert.farkas
    return False, farkas.multipliers.tobytes(), farkas.normalization, farkas.margin


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_is_the_lp_path(case, hti, lp_calls, monkeypatch):
    build, feasible, pinned = FALLBACKS[case]
    cs = build(*hti)
    assert (credal._pinned_chain(cs) is not None) == pinned
    if pinned:
        chain = credal._chain_couplings(cs)
        assert chain is None or verify_witness(
            cs, credal._window_measures(chain.mu, chain.kernels, 0, [], ())) > CERTIFICATE_TOL
    cert = feasibility(cs)
    calls = lp_calls()
    assert cert.feasible == scipy_feasible(cs) == feasible
    assert calls[0] == [len(cs)]  # one presolve

    # the LP path alone, in a fresh slot, gives the same bytes and the same calls
    monkeypatch.setattr(credal, "_chain_couplings", lambda _cs: None)
    credal._reading.cache_clear()
    assert answer_bytes(feasibility(cs)) == answer_bytes(cert)
    again = lp_calls()
    assert (again[0][len(calls[0]):], again[1][len(calls[1]):]) == calls


def test_dominated_demand_takes_the_chain_path(hti, lp_calls):
    """A demand weaker than the pair row on its event is not the strongest row
    there, so the chain scan never reads it: the set takes the chain path,
    and the witness meets the demand as it meets the pair row."""
    system, space = hti
    demand = lower_bound_constraints(
        space, [(parse_event("(t=1,{0}) & (t=2,{0})", space), 0.3, "demand")])
    cs = merge_constraint_sets([hti_chain(system, space), demand])
    cert = feasibility(cs)
    assert cert.feasible and lp_calls() == ([], [])
    assert [violation(con, cert.witness.probs) for con in cs.constraints] == [0.0] * len(cs)
    assert scipy_feasible(cs)


class Unbuilt:
    """Stands for numpy while a scan runs: any array it would build fails."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the scan passed")


@pytest.mark.parametrize("build", [demand_set, non_consecutive_set, pair_row_alone_set, band_set,
                                   region_size_two_set, no_born_ruleset_set, drifting_branch_set])
def test_rejecting_scan_builds_no_array(build, hti, monkeypatch):
    cs = build(*hti)
    monkeypatch.setattr(credal, "np", Unbuilt())
    assert credal._pinned_chain(cs) is None


def test_pair_in_reverse_time_order_bounds_the_same_cell(hti):
    """A pair (t+1, t) bounds the same cell as (t, t+1)."""
    system, space = hti
    born = born_constraints(system, space, singleton_family(system))
    forward = chain_pair_row(space, sset(1, [0]), sset(2, [1]), 0.3)
    backward = chain_pair_row(space, sset(2, [1]), sset(1, [0]), 0.3)
    one = credal._pinned_chain(ConstraintSet(space, born.constraints + (forward,)))
    other = credal._pinned_chain(ConstraintSet(space, born.constraints + (backward,)))
    assert one[1].tobytes() == other[1].tobytes()
    assert one[1][1].tolist() == [[0.0, 0.3], [0.0, 0.0]]


@pytest.mark.parametrize("build, pinned", [(lowered_complement_set, True), (band_set, False)])
def test_scan_pins_what_the_presolve_pins(build, pinned, hti, lp_calls):
    """Two rows on one event pin it at the larger bound, in the scan as in the presolve."""
    system, space = hti
    cs = build(system, space)
    cert = feasibility(cs)
    assert cert.feasible
    assert (lp_calls() == ([], [])) == pinned  # the chain path, or the LP's
    pre = presolve(cs)
    pins = {cs.constraints[k].event.bits.tobytes(): cs.constraints[k].rhs
            for i, j in zip(pre.owners, pre.partners) if j >= 0 for k in (i, j)}
    atoms = [space.atom(1, 1 << a).bits.tobytes() for a in range(2)]
    chain = credal._pinned_chain(cs)
    assert (chain is not None) == pinned == all(atom in pins for atom in atoms)
    if pinned:
        assert chain[0][1].tolist() == [pins[atom] for atom in atoms]


# the sets of each pass, by index, that take the chain path, the same at every
# seed: the feasible chain sets, which are Born pins and consecutive pair rows
CHAIN_SETS = {
    "ladder-queries": [*range(12), *range(18, 25), *range(29, 34)],
    "verdicts": [*range(0, 24, 2), *range(40, 56, 2), *range(64, 76, 2)],
}


def scanned_as_strongest(cs) -> bool:
    """Whether ``cs`` is a pinned chain set; if so, its ``mu[t, a]`` must be
    bit for bit the bound of the strongest row on the atom of ``(t, {a})`` in
    the set's reading, 0.0 without one."""
    chain = credal._pinned_chain(cs)
    if chain is None:
        return False
    kept = credal._reading(cs).strongest
    space = cs.space
    want = np.zeros((space.n, space.m))
    for t in range(space.n):
        for a in range(space.m):
            i = kept.get(space.atom(t, 1 << a).key)
            if i is not None:
                want[t, a] = cs.constraints[i].rhs
    assert chain[0].tobytes() == want.tobytes()
    return True


@pytest.mark.parametrize("seed", [1, 7, 401])
@pytest.mark.parametrize("name", sorted(CHAIN_SETS))
def test_workload_scan_pins_are_the_strongest_rows(name, seed):
    workload = LPWorkload(name, LADDER if name == "ladder-queries" else VERDICTS, seed)
    sets = [p.cs for p in workload.setup(workload.configs())]
    assert [i for i, cs in enumerate(sets) if scanned_as_strongest(cs)] == CHAIN_SETS[name]


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scan_pins_are_the_strongest_rows(name):
    cs = realize(BUILTIN_SCENARIOS[name]())[1]
    assert scanned_as_strongest(cs) == (name in ("beam-splitter", "spreading-packet"))
