"""Property tests of the config boundary.

``parse_config`` either returns a config or raises ``ConfigError``, whatever
JSON-like value it is given; every config it accepts dumps as strict JSON
(no NaN or infinity) and parses back to the same canonical form.  Inputs are
arbitrary JSON-like values, mixed with the built-in documents and their blocks
so that some reach the round trip, and single-path mutations of the built-in
configs.  The profile is derandomized, so every run draws the same examples.
"""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from iqp.scenarios import (
    BUILTIN_SCENARIOS,
    SCHEMA_VERSION,
    ConfigError,
    config_json,
    config_to_dict,
    parse_config,
)

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# values Python's json reads but strict JSON cannot hold, and other near misses
NEAR_MISSES = [
    math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, None, 0, -1, 0.5,
    1e-300, [], {}, [[1.0, 0.0]], [[[1.0, 0.0]]], "", "identity", "(t=0,{0})",
]
SCALARS = st.one_of(
    st.sampled_from(NEAR_MISSES), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=12),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)

BASES = {name: config_to_dict(builder()) for name, builder in BUILTIN_SCENARIOS.items()}


def _paths(node, prefix=()):
    """Every key and index path into ``node`` (its root excluded)."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


SITES = [(name, path) for name, doc in BASES.items() for path in _paths(doc)]


def _replaced(site, value):
    name, path = site
    doc = copy.deepcopy(BASES[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


MUTANTS = st.builds(_replaced, st.sampled_from(SITES), VALUES)


def check_boundary(data) -> bool:
    """Parse ``data``; if accepted, its strict JSON must parse back unchanged.

    Any exception other than ``ConfigError`` propagates and fails the test.
    Returns whether the config was accepted.
    """
    try:
        cfg = parse_config(data)
    except ConfigError:
        return False
    text = json.dumps(config_to_dict(cfg), allow_nan=False)
    assert config_json(parse_config(json.loads(text))) == config_json(cfg)
    return True


def arbitrary_or_builtin(values):
    """An arbitrary value, or a copy of one of ``values`` taken from the
    built-in documents, so that some draws are valid and reach the round trip."""
    return st.one_of(VALUES, st.sampled_from(values).map(copy.deepcopy))


def accepted_draws(strategy) -> int:
    """``check_boundary`` over the profile's derandomized batch of ``strategy``;
    returns how many draws ``parse_config`` accepted."""
    accepted = []

    @PROFILE
    @given(strategy)
    def check(data):
        accepted.append(check_boundary(data))

    check()
    return sum(accepted)


def test_arbitrary_value():
    assert accepted_draws(arbitrary_or_builtin(list(BASES.values()))) > 0


def test_arbitrary_blocks():
    blocks = {key: arbitrary_or_builtin([doc[key] for doc in BASES.values()])
              for key in ("system", "rules", "queries")}
    assert accepted_draws(st.fixed_dictionaries({
        "schema": st.one_of(st.just(SCHEMA_VERSION), VALUES), **blocks})) > 0


@PROFILE
@given(MUTANTS)
def test_mutated_builtin(data):
    check_boundary(data)


def test_every_site_every_near_miss():
    """Each near miss at each path of each built-in, exhaustively: some are
    accepted (so the round trip is exercised), and no NaN is."""
    accepted = {
        (site, repr(value)): check_boundary(_replaced(site, value))
        for site in SITES
        for value in NEAR_MISSES
    }
    assert any(accepted.values()) and not all(accepted.values())
    assert not any(ok for (_, value), ok in accepted.items() if value == "nan")
