"""Events one bit per trajectory: the packed format and what it costs.

An ``Event`` holds ``np.packbits`` bytes, trajectory 0 the most significant
bit and the padding bits past the last trajectory zero, plus its length.
The checks here run on N = 9 (m=3, n=2), which leaves 7 padding bits, and
on the benchmark's seeded ladder events.
"""

import copy
import math
import pickle
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import cardinality
from iqp import events, scenarios
from iqp.events import Event, TrajectorySpace, membership_rows

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, LPWorkload, Rung, make_config  # noqa: E402

SPACE = TrajectorySpace(3, 2)


def nine_events() -> list[Event]:
    """Every atom of the 3 x 2 space, the empty and the full event, and
    seeded random sets."""
    rng = np.random.default_rng(9)
    atoms = [SPACE.atom(t, mask) for t in range(2) for mask in range(8)]
    return atoms + [Event.none(SPACE), Event.all(SPACE)] + [
        Event(rng.random(9) < 0.5) for _ in range(20)]


@pytest.mark.parametrize("a", nine_events(), ids=repr)
def test_laws_hold_with_padding(a):
    assert len(a.key) == 2 and len(a) == 9
    assert ~~a == a
    assert a | ~a == Event.all(SPACE)
    assert (a & ~a).is_empty
    assert (~a).key[-1] & 0x7F == 0  # the padding stays zero under complement
    assert (~a).key == a.complement_key
    assert cardinality(~a) == 9 - cardinality(a)


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 2048])
def test_complement_key_is_the_complement_of_the_bits(size):
    """Each byte flipped and the padding bits cleared, at every padding width."""
    rng = np.random.default_rng(size)
    for bits in (np.zeros(size, bool), np.ones(size, bool), rng.random(size) < 0.5):
        assert Event(bits).complement_key == Event(~bits).key


def test_operators_match_the_bits():
    found = nine_events()
    for a in found:
        for b in found[::3]:
            assert (a & b).bits.tolist() == (a.bits & b.bits).tolist()
            assert (a | b).bits.tolist() == (a.bits | b.bits).tolist()
            assert (a - b).bits.tolist() == (a.bits & ~b.bits).tolist()
            assert (a <= b) == (not (a.bits & ~b.bits).any())


def test_atom_equals_the_same_set_from_bools():
    atom = SPACE.atom(1, 0b101)  # labels 0 and 2 at time 1
    built = Event(np.array([True, False, True] * 3))
    assert atom is not built
    assert atom == built and hash(atom) == hash(built)
    assert atom.key == built.key == bytes([0b10110110, 0b10000000])
    assert len({atom, built}) == 1


def test_bits_read_only_and_round_trip():
    for a in nine_events():
        bits = a.bits
        assert bits.dtype == bool and bits.shape == (9,)
        assert not bits.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bits[0] = not bits[0]
        assert Event(bits) == a
        assert Event(bits.tolist()).key == a.key


def test_event_is_immutable():
    a = SPACE.atom(0, 1)
    with pytest.raises(AttributeError, match="immutable"):
        a.key = b"\xff\x80"
    assert a.key == bytes([0b11100000, 0])


def test_copies_and_pickles_equal():
    a = SPACE.atom(1, 0b011)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a) and len(twin) == 9


@pytest.mark.parametrize("membership", [np.zeros((3, 3), dtype=bool), True, [[True]]])
def test_membership_not_a_vector_is_refused(membership):
    with pytest.raises(ValueError, match="membership must be a vector"):
        Event(membership)


def test_membership_rows_unpack_in_one_call():
    found = nine_events()
    rows = membership_rows(found, 9)
    assert rows.dtype == bool
    assert rows.tolist() == [a.bits.tolist() for a in found]
    assert membership_rows([], 9).shape == (0, 9)


@pytest.mark.parametrize("seed", [1, 7, 401])
def test_trajectory_word_is_the_packed_bits(seed):
    """An event's key read big-endian, the word ``credal._dependent_times``
    reads, is the integer the bool vector's ``np.packbits`` gives, on every
    ladder query event."""
    work = LPWorkload("ladder-queries", LADDER, seed)
    found = [event for p in work.setup(work.configs()) for _, event in p.events]
    assert found
    for event in found:
        word = int.from_bytes(np.packbits(event.bits).tobytes(), "big")
        assert int.from_bytes(event.key, "big") == word


def test_row_events_hold_one_bit_per_trajectory():
    """``build_constraints`` on a seeded chain set at N = 2,048: every row
    event holds ``ceil(N / 8)`` bytes of bits, and all that ``events.py``
    allocates and keeps during the build (the kept atoms, the pair rows'
    intersections and their objects) is under twice that per distinct
    event, where one byte per trajectory would be N = 8 * ceil(N / 8)."""
    cfg = scenarios.parse_config(make_config(Rung(2, 11, "random", "born+qtr-min", "chain", 1),
                                             7, 4, 0))
    system = scenarios.build_system(cfg)
    only = [tracemalloc.Filter(True, events.__file__)]
    tracemalloc.start()
    try:
        space = TrajectorySpace.for_system(system)
        before = tracemalloc.take_snapshot().filter_traces(only)
        cs = scenarios.build_constraints(cfg, system, space)
        after = tracemalloc.take_snapshot().filter_traces(only)
    finally:
        tracemalloc.stop()
    packed = math.ceil(space.size / 8)
    assert space.size == 2048 and len(cs) > 40
    alive = {id(con.event) for con in cs.constraints} | {id(a) for a in space._atoms.values()}
    held = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert packed * len(alive) < held < 2 * packed * len(alive)
    assert {len(con.event.key) for con in cs.constraints} == {packed}

