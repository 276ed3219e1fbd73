"""Property tests of the credal queries, checked against the solver itself.

Lower and upper probability are conjugate, ``lower(A) = 1 - upper(!A)``, and
adding a demand to a set can only shrink it, so every interval narrows or the
set becomes empty.  Systems are seeded random unitaries (QR of a complex
Gaussian); the hypothesis profile is derandomized, so every run draws the
same bounded set of examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import realize, seeded_config
from iqp.credal import lower_bound_constraints, lower_upper, merge_constraint_sets
from iqp.events import Event

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=40)
TOL = 1e-9
MAX_N = {2: 6, 3: 4, 4: 3}  # at most 81 trajectories


@st.composite
def sets(draw):
    """A seeded credal set and a generator seeded alongside it."""
    m = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, MAX_N[m]))
    ruleset = draw(st.sampled_from(["born", "born+qtr", "born+qtr-min"]))
    chain = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    _, cs = realize(seeded_config(m, n, "random", ruleset, chain, seed))
    return cs, np.random.default_rng(seed)


def random_event(rng, size) -> Event:
    return Event(rng.random(size) < rng.uniform(0.2, 0.8))


@PROFILE
@given(sets())
def test_lower_is_one_minus_upper_of_complement(case):
    cs, rng = case
    a = random_event(rng, cs.space.size)
    bounds, complement = lower_upper(cs, a), lower_upper(cs, ~a)
    assert bounds.status == complement.status
    if bounds.status == "both-solved":
        assert bounds.lower == pytest.approx(1.0 - complement.upper, abs=TOL)
        assert bounds.upper == pytest.approx(1.0 - complement.lower, abs=TOL)


@PROFILE
@given(sets())
def test_one_more_demand_only_narrows(case):
    cs, rng = case
    a, demand = random_event(rng, cs.space.size), random_event(rng, cs.space.size)
    before, reach = lower_upper(cs, a), lower_upper(cs, demand)
    if before.status == "infeasible":
        return
    # levels from vacuous to 0.2 past the largest attainable value
    rhs = rng.uniform(reach.lower, reach.upper + 0.2)
    narrowed = merge_constraint_sets(
        [cs, lower_bound_constraints(cs.space, [(demand, rhs, "demand")])])
    after = lower_upper(narrowed, a)
    if rhs > reach.upper + TOL:
        assert after.status == "infeasible"
    elif rhs < reach.upper - TOL:
        assert after.status == "both-solved"
    if after.status == "both-solved":
        assert after.lower >= before.lower - TOL
        assert after.upper <= before.upper + TOL
