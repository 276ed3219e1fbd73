import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cardinality, random_event, realize, sset
from iqp.cli import main
from iqp.events import (
    CAP_ENV_VAR,
    MAX_EXPR_DEPTH,
    And,
    Atom,
    Event,
    Not,
    Or,
    ParseError,
    TrajectorySpace,
    evaluate_expr,
    event_probability,
    parse_event,
    parse_expr,
    sset_event,
)
from iqp.scenarios import BUILTIN_SCENARIOS
from iqp.system import Region, SSet


@pytest.fixture
def space22() -> TrajectorySpace:
    return TrajectorySpace(2, 2)


class TestTrajectorySpace:
    def test_size_and_encoding(self, space22):
        assert space22.size == 4
        # time 0 is the most significant digit
        assert space22.index_of((0, 1)) == 1
        assert space22.index_of((1, 0)) == 2
        assert space22.trajectory_of(3) == (1, 1)

    def test_index_roundtrip(self):
        space = TrajectorySpace(3, 3)
        for i in range(space.size):
            assert space.index_of(space.trajectory_of(i)) == i

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("IQP_TRAJECTORY_CAP", "100")
        with pytest.raises(ValueError, match="3\\^5 is 243|m\\^n = 243"):
            TrajectorySpace(3, 5)

    def test_cap_env_override_allows(self, monkeypatch):
        monkeypatch.setenv("IQP_TRAJECTORY_CAP", "300")
        assert TrajectorySpace(3, 5).size == 243


class TestSSetEvent:
    def test_first_time_region(self, space22):
        event = sset_event(space22, sset(0, [0]))
        assert list(event.indices()) == [0, 1]

    def test_full_region_all_ones(self, space22):
        event = sset_event(space22, SSet(1, Region.full(2)))
        assert cardinality(event) == 4

    def test_empty_region_all_zeros(self, space22):
        event = sset_event(space22, SSet(1, Region.empty(2)))
        assert cardinality(event) == 0

    def test_cardinality_law(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            space = TrajectorySpace(m, n)
            t = int(rng.integers(n))
            region = Region(int(rng.integers(1 << m)), m)
            event = sset_event(space, SSet(t, region))
            assert cardinality(event) == region.size() * m ** (n - 1)

    def test_dimension_mismatch(self, space22):
        with pytest.raises(ValueError, match="labels"):
            sset_event(space22, SSet(0, Region.full(3)))


class TestAtomCache:
    """Each atom event is built once per space and kept on it."""

    def test_each_key_built_once(self, count_calls):
        built = count_calls(TrajectorySpace, "atom_word")
        space = TrajectorySpace(3, 3)
        ssets = [SSet(t, Region(mask, 3)) for t in range(3) for mask in range(8)]
        first = [sset_event(space, s) for s in ssets]
        again = [sset_event(space, SSet(s.time, Region(s.region.mask, 3))) for s in ssets]
        parse_event("(t=0,{0}) | !(t=2,{1,2})", space)
        assert len(built) == len(ssets)
        assert all(a is b for a, b in zip(first, again))

    def test_cached_key_still_checked(self, space22):
        sset_event(space22, sset(0, [0]))  # key (0, 0b1)
        with pytest.raises(ValueError, match="region defined over 3 labels"):
            sset_event(space22, SSet(0, Region(0b1, 3)))
        for t in (-1, 2):
            with pytest.raises(ValueError, match=f"time index {t} out of range"):
                sset_event(space22, SSet(t, Region(0b1, 2)))

    def test_spaces_do_not_share(self, space22, count_calls):
        built = count_calls(TrajectorySpace, "atom_word")
        twin = TrajectorySpace(2, 2)
        longer = TrajectorySpace(2, 3)
        s = sset(0, [0])
        assert twin == space22
        assert sset_event(twin, s) is not sset_event(space22, s)
        assert sset_event(twin, s) == sset_event(space22, s)
        assert list(sset_event(longer, s).indices()) == [0, 1, 2, 3]
        assert len(built) == 3

    def test_kept_events_read_only(self, space22):
        event = sset_event(space22, sset(1, [0]))
        before = event.bits.tobytes()
        assert not event.bits.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            event.bits[0] = False
        combined = (~event | event) & sset_event(space22, sset(0, [1]))
        assert cardinality(combined) == 2
        assert sset_event(space22, sset(1, [0])).bits.tobytes() == before


def atom_bits(space: TrajectorySpace, t: int, mask: int) -> np.ndarray:
    """The oracle: membership of every trajectory in ``{w : w(t) in mask}``
    as a bool array, the region's 0/1 label pattern with each entry repeated
    for its block of ``m**(n-1-t)`` trajectories, the run repeated ``m**t``
    times."""
    member = np.array([bool(mask >> x & 1) for x in range(space.m)])
    run = member.repeat(space.m ** (space.n - 1 - t))
    return run.reshape(1, -1).repeat(space.m**t, axis=0).flatten()


class TestAtomWord:
    """Atoms are built from integer words and equal the bool construction."""

    def test_every_small_atom(self):
        checked = 0
        for m in range(1, 9):
            for n in range(1, 13):
                if m**n > 4096:
                    break
                space = TrajectorySpace(m, n)
                for t in range(n):
                    for mask in range(1 << m):
                        atom, oracle = space.atom(t, mask), Event(atom_bits(space, t, mask))
                        assert (atom.key, len(atom)) == (oracle.key, len(oracle)), (m, n, t, mask)
                        checked += 1
        assert checked == 5988

    @pytest.mark.parametrize("m, n", [(2, 16), (4, 8), (10, 5)])
    def test_large_atoms(self, m, n, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        space = TrajectorySpace(m, n)
        for t in (0, n // 2, n - 1):
            for mask in (1, 2**m - 2):
                atom, oracle = space.atom(t, mask), Event(atom_bits(space, t, mask))
                assert (atom.key, len(atom)) == (oracle.key, len(oracle)), (t, mask)

    def test_no_array_per_trajectory(self, monkeypatch):
        """At N = 100,000 an atom's build peaks under one byte per
        trajectory: its key is N / 8 bytes, a bool array would be N."""
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        space = TrajectorySpace(10, 5)
        for t, mask in ((0, 1), (2, 0b1010101010), (4, 2**10 - 2)):
            tracemalloc.start()
            try:
                space.atom(t, mask)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < space.size, (t, mask, peak)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 2), (2, 3), (5, 3)])
    def test_none_and_all(self, m, n):
        space = TrajectorySpace(m, n)
        assert Event.none(space).key == Event(np.zeros(space.size, dtype=bool)).key
        assert Event.all(space).key == Event(np.ones(space.size, dtype=bool)).key
        assert len(Event.none(space)) == len(Event.all(space)) == space.size

    def test_bad_keys_refused(self, space22):
        with pytest.raises(ValueError, match="time index 2 out of range"):
            space22.atom_word(2, 1)
        with pytest.raises(ValueError, match="bitmask 0x4 out of range"):
            space22.atom_word(0, 4)


class TestCombine:
    def test_idempotent_and(self, space22):
        a = sset_event(space22, sset(0, [0]))
        assert a & a == a

    def test_complement_law(self, space22):
        a = sset_event(space22, sset(0, [0]))
        assert a | ~a == Event.all(space22)

    def test_intersection_single_trajectory(self, space22):
        a = sset_event(space22, sset(0, [0]))
        b = sset_event(space22, sset(1, [0]))
        assert list((a & b).indices()) == [0]

    def test_length_mismatch(self, space22):
        a = sset_event(space22, sset(0, [0]))
        b = Event(np.zeros(8, dtype=bool))
        with pytest.raises(ValueError, match="length mismatch"):
            a & b

    def test_de_morgan_randomized(self, space22):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_event(rng, space22)
            b = random_event(rng, space22)
            assert ~(a | b) == (~a) & (~b)
            assert ~(a & b) == (~a) | (~b)


class TestParser:
    def test_atom(self, space22):
        assert list(parse_event("(t=0,{0})", space22).indices()) == [0, 1]

    def test_contradiction_empty(self, space22):
        assert parse_event("(t=0,{0}) & !(t=0,{0})", space22).is_empty

    def test_exhaustive_union_full(self, space22):
        event = parse_event("(t=0,{0}) | (t=0,{1})", space22)
        assert event == Event.all(space22)

    def test_precedence_and_over_or(self, space22):
        # a & b | c parses as (a & b) | c
        left = parse_event("(t=0,{0}) & (t=1,{0}) | (t=0,{1})", space22)
        explicit = parse_event("((t=0,{0}) & (t=1,{0})) | (t=0,{1})", space22)
        assert left == explicit

    def test_not_binds_to_term(self, space22):
        event = parse_event("!(t=0,{0}) & (t=1,{0})", space22)
        explicit = parse_event("(!(t=0,{0})) & (t=1,{0})", space22)
        assert event == explicit

    def test_whitespace_insignificant(self, space22):
        a = parse_event("( t = 0 , { 0 , 1 } ) & ( t = 1 , { 0 } )", space22)
        b = parse_event("(t=0,{0,1})&(t=1,{0})", space22)
        assert a == b

    def test_syntax_error_reports_position(self, space22):
        with pytest.raises(ParseError) as err:
            parse_event("(t=0,{0}) &", space22)
        assert err.value.position == 11

    def test_time_out_of_range(self, space22):
        with pytest.raises(ParseError, match="time index 5 out of range"):
            parse_event("(t=5,{0})", space22)

    def test_label_out_of_range(self, space22):
        with pytest.raises(ParseError, match="label 7 out of range"):
            parse_event("(t=0,{7})", space22)

    def test_trailing_garbage(self, space22):
        with pytest.raises(ParseError, match="trailing"):
            parse_event("(t=0,{0}) (t=1,{0})", space22)

    def test_implicit_conjunction_disallowed(self, space22):
        with pytest.raises(ParseError):
            parse_event("(t=0,{0})(t=1,{0})", space22)


ATOM = "(t=0,{0})"


def nested(shape: str, depth: int) -> str:
    """An expression whose tree height (or, for a group, nesting) is ``depth``."""
    if shape == "not":
        return "!" * (depth - 1) + ATOM
    if shape == "group":
        return "(" * depth + ATOM + ")" * depth
    return f" {shape} ".join([ATOM] * depth)


def in_deeper_stack(frames: int, fn):
    return fn() if frames == 0 else in_deeper_stack(frames - 1, fn)


class TestDepthBound:
    """Parsing stops at MAX_EXPR_DEPTH, so no input recurses past the interpreter's limit."""

    @pytest.mark.parametrize("shape", ["not", "group", "&", "|"])
    def test_at_bound_evaluates(self, space22, shape):
        src = nested(shape, MAX_EXPR_DEPTH)
        odd_nots = shape == "not" and MAX_EXPR_DEPTH % 2 == 0
        expected = ~parse_event(ATOM, space22) if odd_nots else parse_event(ATOM, space22)
        # with room to spare below the caller's own frames
        assert in_deeper_stack(100, lambda: parse_event(src, space22)) == expected
        assert parse_expr(src, space22).text()

    @pytest.mark.parametrize("shape", ["not", "group", "&", "|"])
    def test_over_bound_rejected(self, space22, shape):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_EXPR_DEPTH} levels"):
            parse_event(nested(shape, MAX_EXPR_DEPTH + 1), space22)

    @pytest.mark.parametrize("src", [
        "!" * 5000 + ATOM,
        " & ".join([ATOM] * 3000),
        "(" * 2000 + ATOM + ")" * 2000,
    ], ids=["5000-nots", "3000-atom-chain", "2000-groups"])
    def test_deep_inputs_give_parse_error(self, space22, src):
        with pytest.raises(ParseError) as err:
            parse_event(src, space22)
        assert 0 <= err.value.position < len(src)


def random_ast(rng: np.random.Generator, space: TrajectorySpace, depth: int = 0):
    kind = int(rng.integers(0, 4)) if depth < 3 else 0
    if kind == 0:
        t = int(rng.integers(space.n))
        count = int(rng.integers(1, space.m + 1))
        labels = tuple(sorted(rng.choice(space.m, size=count, replace=False).tolist()))
        return Atom(t, labels)
    if kind == 1:
        return Not(random_ast(rng, space, depth + 1))
    left = random_ast(rng, space, depth + 1)
    right = random_ast(rng, space, depth + 1)
    return And(left, right) if kind == 2 else Or(left, right)


class TestRoundTrip:
    def test_parse_print_roundtrip(self):
        rng = np.random.default_rng(23)
        space = TrajectorySpace(3, 2)
        for _ in range(100):
            tree = random_ast(rng, space)
            reparsed = parse_expr(tree.text(), space)
            assert evaluate_expr(reparsed, space) == evaluate_expr(tree, space)


class TestEventProbability:
    def test_uniform_symmetry(self, space22):
        uniform = np.full(4, 0.25)
        a = sset_event(space22, sset(0, [0]))
        assert event_probability(uniform, a) == pytest.approx(0.5, abs=1e-15)

    def test_full_event_normalization(self, space22):
        rng = np.random.default_rng(29)
        p = rng.random(4)
        p /= p.sum()
        assert event_probability(p, Event.all(space22)) == pytest.approx(1.0, abs=1e-12)

    def test_additive_on_disjoint(self, space22):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = rng.random(4)
            p /= p.sum()
            a = random_event(rng, space22)
            b = Event(~a.bits & (rng.random(4) < 0.5))
            assert event_probability(p, a | b) == pytest.approx(
                event_probability(p, a) + event_probability(p, b), abs=1e-12
            )

    def test_dimension_mismatch(self, space22):
        a = sset_event(space22, sset(0, [0]))
        with pytest.raises(ValueError, match="length"):
            event_probability(np.ones(8) / 8.0, a)


# grammar pieces and near misses: Unicode digits int() rejects ('²') or reads
# ('٣'), digit strings past the interpreter's integer limit, Unicode spaces, NUL
NEAR_INTS = ["0", "1", "7", "-1", "", "²", "٣", "9" * 4400]
PIECES = ["(", ")", "t", "=", ",", "{", "}", "!", "&", "|", " ", "\u00a0", "\x00", "(t=0,{0})"]
INTS = st.one_of(st.sampled_from(NEAR_INTS), st.integers(0, 10**6).map(str), st.text(max_size=2))
ATOMS = st.builds("(t={},{{{}}})".format, INTS, st.lists(INTS, min_size=1, max_size=3).map(",".join))
EXPRS = st.recursive(ATOMS, lambda inner: st.one_of(
    inner.map("!{}".format),
    inner.map("({})".format),
    st.tuples(inner, st.sampled_from([" & ", "|", "&&", " ", ""]), inner).map("".join),
), max_leaves=4)
SOURCES = st.one_of(
    EXPRS,
    st.text(max_size=30),
    st.lists(st.sampled_from(PIECES + NEAR_INTS), max_size=16).map("".join),
)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def parsed_or_error(src: str, space: TrajectorySpace) -> Event | ParseError:
    try:
        return parse_event(src, space)
    except ParseError as exc:
        return exc


class TestParseFuzz:
    """Every input parses to an event or raises ParseError; never anything else."""

    @FUZZ
    @given(SOURCES)
    def test_parses_or_raises_parse_error(self, src):
        space = TrajectorySpace(2, 2)
        result = parsed_or_error(src, space)
        if isinstance(result, Event):
            assert len(result) == space.size
            assert parse_event(parse_expr(src, space).text(), space) == result
        else:
            assert 0 <= result.position <= len(src)

    @settings(FUZZ, max_examples=60)
    @given(SOURCES)
    def test_cli_ends_in_exit_one_with_a_message(self, beam_splitter_file, src):
        config, outdir = beam_splitter_file
        space, _ = realize(BUILTIN_SCENARIOS["beam-splitter"]())
        expected = parsed_or_error(src, space)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["bounds", "--config", config, f"--event={src}", "--outdir", outdir])
        if isinstance(expected, Event):
            assert code == 0
        else:
            assert code == 1
            assert err.getvalue() == f"error [events]: {expected}\n"


@pytest.fixture(scope="module")
def beam_splitter_file(tmp_path_factory):
    """The beam-splitter config as a file, and an output directory."""
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "beam-splitter.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["scenario", "beam-splitter", "--out", str(path)]) == 0
    return str(path), str(root / "out")
