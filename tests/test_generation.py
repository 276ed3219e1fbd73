"""Generation per ``(time, region mask)`` against the per-sset generators.

``_seed_generation`` keeps the generators that read every row off ``SSet``
objects and compute each pullback state afresh.  The generators of
``iqp.credal`` must give the same rows bit for bit: event bits, right sides
as the same floats, tags, labels and origins, and the same skipped and
filtered counts.  The cases span seeded random and DFT systems at m = 2-4
and n = 2-5, every ruleset token, every region-size cap from 1 to m, default,
explicit and reversed time pairs, and the five built-in scenarios.  Every
generated row's origin names its event: the intersection of its ssets' atoms.
"""

import dataclasses
import itertools

import _seed_generation as seed
import numpy as np
import pytest
from _seed_generation import rows_of
from conftest import seeded_config

from iqp.credal import born_constraints, qtr_constraints, qtr_variant_constraints
from iqp.events import TrajectorySpace
from iqp.scenarios import BUILTIN_SCENARIOS, build_constraints, build_system
from iqp.system import Region, SSet

TOKENS = ("born", "qtr", "qtr-min", "qtr-eps", "qtr-alpha")
RULESETS = ("born", "qtr", "qtr-min", "qtr-eps", "qtr-alpha", "born+qtr+qtr-min",
            "born+qtr-eps+qtr-alpha")
TIME_PAIRS = ("default", "explicit", "reversed")


def time_pairs(mode: str, n: int, rng: np.random.Generator):
    """``None``, a seeded sample of distinct time pairs, or the chain run backwards."""
    if mode == "default":
        return None
    if mode == "reversed":
        return tuple((t + 1, t) for t in reversed(range(n - 1)))
    every = list(itertools.permutations(range(n), 2))
    picked = rng.choice(len(every), size=min(3, len(every)), replace=False)
    return tuple(every[i] for i in picked)


def case(i: int):
    """Config ``i`` of 27: each (m, region-size cap) pair under each time-pair mode."""
    m, cap = [(m, cap) for m in (2, 3, 4) for cap in range(1, m + 1)][i // 3]
    n = 2 + i % 4
    rng = np.random.default_rng([53, i])
    cfg = seeded_config(m, n, "dft" if i % 2 else "random", RULESETS[i % len(RULESETS)],
                        False, seed=[53, i])
    return dataclasses.replace(cfg, max_region_size=cap,
                               time_pairs=time_pairs(TIME_PAIRS[i % 3], n, rng),
                               tau_norm=(1e-9, 0.1, 1.0)[i // 2 % 3],
                               epsilon=(0.3, 1.0)[i % 2], alpha=(2.0, 0.5)[i // 3 % 2])


SEEDED = [case(i) for i in range(27)]


def test_cases_span_the_grid():
    assert {(cfg.m, cfg.max_region_size) for cfg in SEEDED} == {
        (m, cap) for m in (2, 3, 4) for cap in range(1, m + 1)}
    assert {cfg.n for cfg in SEEDED} == {2, 3, 4, 5}
    assert {t for cfg in SEEDED for t in cfg.ruleset} == set(TOKENS)
    modes = {"default" if cfg.time_pairs is None
             else "reversed" if all(t1 > t2 for t1, t2 in cfg.time_pairs) else "explicit"
             for cfg in SEEDED}
    assert modes == set(TIME_PAIRS)


@pytest.mark.parametrize("cfg", SEEDED + [build() for build in BUILTIN_SCENARIOS.values()],
                         ids=[f"seeded-{i}" for i in range(len(SEEDED))] + list(BUILTIN_SCENARIOS))
def test_build_constraints(cfg):
    want = rows_of(seed.build_constraints(cfg))
    system = build_system(cfg)
    assert rows_of(build_constraints(cfg, system, TrajectorySpace.for_system(system))) == want


def mixed_family(system, rng):
    """Every region, the empty and the full one too, at seeded times, shuffled,
    with repeats."""
    family = [SSet(int(rng.integers(system.n)), Region(mask, system.m))
              for mask in range(1 << system.m)]
    family += family[: len(family) // 2]
    return [family[k] for k in rng.permutation(len(family))]


@pytest.mark.parametrize("i", range(6))
def test_public_generators_on_mixed_families(i):
    """Same-time pairs, repeated ssets and pairs in any order and orientation."""
    cfg = SEEDED[4 * i + 2]
    system = build_system(cfg)
    space = TrajectorySpace.for_system(system)
    rng = np.random.default_rng([59, i])
    family = mixed_family(system, rng)
    assert rows_of(born_constraints(system, space, family)) == rows_of(
        seed.born_constraints(system, space, family))
    pairs = [(family[a], family[b])
             for a, b in rng.integers(len(family), size=(3 * len(family), 2))]
    assert any(s1.time == s2.time for s1, s2 in pairs)
    tau = cfg.tau_norm
    assert rows_of(qtr_constraints(system, space, pairs, tau)) == rows_of(
        seed.qtr_variant_constraints(system, space, pairs, "qtr", None, tau))
    for variant, value in (("min", None), ("eps", 0.5), ("alpha", 1.5)):
        got = qtr_variant_constraints(system, space, pairs, variant, value, tau)
        want = seed.qtr_variant_constraints(system, space, pairs, f"qtr-{variant}", value, tau)
        assert rows_of(got) == rows_of(want)


ORIGIN_CASES = [
    dataclasses.replace(seeded_config(m, 3, "random", "+".join(TOKENS), chain, seed=[61, m, cap]),
                        max_region_size=cap, tau_norm=1.0, epsilon=1.0, alpha=0.5,
                        extra_lower_bounds=(("(t=0,{0}) | (t=2,{1})", 0.2),))
    for m in (2, 3, 4) for cap in range(1, m + 1) for chain in (True, False)]


ORIGIN_IDS = [f"m{cfg.m}-cap{cfg.max_region_size}-{'chain' if cfg.time_pairs else 'all-pairs'}"
              for cfg in ORIGIN_CASES]


@pytest.mark.parametrize("cfg", ORIGIN_CASES + [build() for build in BUILTIN_SCENARIOS.values()],
                         ids=ORIGIN_IDS + list(BUILTIN_SCENARIOS))
def test_origins_name_their_events(cfg):
    """Every generated row's event is the intersection of its origin ssets'
    atoms, and a demand's origin is empty."""
    system = build_system(cfg)
    space = TrajectorySpace.for_system(system)
    cs = build_constraints(cfg, system, space)
    for con in cs.constraints:
        assert (con.tag == "demand") == (not con.origin)
        if con.origin:
            want = np.logical_and.reduce([seed.atom(space, s).bits for s in con.origin])
            assert con.event.bits.tobytes() == want.tobytes(), con.label


def test_origin_cases_emit_every_tag():
    tags = set()
    for cfg in ORIGIN_CASES:
        system = build_system(cfg)
        cs = build_constraints(cfg, system, TrajectorySpace.for_system(system))
        tags |= {con.tag for con in cs.constraints}
    assert tags == {"born", "demand", *TOKENS[1:]}
