"""Finite trajectory spaces, events as bitsets and the event-expression language.

Trajectories over ``m`` labels and ``n`` times are indexed in mixed radix with
time 0 as the most significant digit::

    index = sum over t of label(t) * m**(n - 1 - t)

This encoding is normative: constraint exports, certificates and the CLI all
number trajectories this way.

An event holds one bit per trajectory, packed as ``np.packbits`` packs its
membership vector, so a row over N trajectories costs ``ceil(N / 8)`` bytes.
Set operations, equality and hashing read the packed bytes (``Event.key``),
which also key events wherever rows are grouped by event.  Code that needs
the membership vectors of many events unpacks them in one call
(``membership_rows``); ``Event.bits`` unpacks one.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .system import QuantumSystem, Region, SSet

DEFAULT_TRAJECTORY_CAP = 100_000
CAP_ENV_VAR = "IQP_TRAJECTORY_CAP"


def resolve_trajectory_cap() -> int:
    """The IQP_TRAJECTORY_CAP env var if set, else the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"{CAP_ENV_VAR}={raw!r} is not an integer") from exc
    return DEFAULT_TRAJECTORY_CAP


@dataclass(frozen=True)
class TrajectorySpace:
    """The set of all label sequences over the time grid.

    Each atom event ``{w : w(t) in R}`` is built once, by ``atom``, and kept
    on the space, keyed on ``(time, region mask)``; equal spaces compare equal
    but never share atoms.
    """

    m: int
    n: int
    _atoms: dict[tuple[int, int], Event] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        cap = resolve_trajectory_cap()
        if self.m**self.n > cap:
            raise ValueError(
                f"trajectory count m^n = {self.m ** self.n} exceeds cap {cap}"
            )

    @classmethod
    def for_system(cls, system: QuantumSystem) -> "TrajectorySpace":
        return cls(system.m, system.n)

    @property
    def size(self) -> int:
        return self.m**self.n

    def digits(self, t: int) -> np.ndarray:
        """Label at time t for every trajectory index, vectorized."""
        if not 0 <= t < self.n:
            raise ValueError(f"time index {t} out of range 0..{self.n - 1}")
        return (np.arange(self.size) // self.m ** (self.n - 1 - t)) % self.m

    def atom_word(self, t: int, mask: int) -> int:
        """The packed key of ``{w : w(t) in mask}`` as a big-endian integer
        (``Event.key``), built afresh from integers, with no N-long array.

        With time 0 the most significant digit, the label at time ``t`` runs
        through ``0..m-1`` in blocks of ``m**(n-1-t)`` trajectories, and that
        run repeats for each of the ``m**t`` labellings of the earlier times:
        one period holds a block of ones per label in the mask, and the word
        doubles (``word |= word << length``) until it covers all N
        trajectories.  Its low N bits, whole periods since the period divides
        N, are then shifted past the padding.  Doubling costs time linear in
        N; a repunit product's long division would be quadratic.
        """
        if not 0 <= t < self.n:
            raise ValueError(f"time index {t} out of range 0..{self.n - 1}")
        if not 0 <= mask < 1 << self.m:
            raise ValueError(f"bitmask {mask:#x} out of range for m={self.m}")
        size, block = self.size, self.m ** (self.n - 1 - t)
        ones = (1 << block) - 1
        word = 0
        for x in range(self.m):
            word = word << block | (ones if mask >> x & 1 else 0)
        length = self.m * block
        while length < size:
            word |= word << length
            length *= 2
        return (word << -size % 8) & _every(size)

    def atom(self, t: int, mask: int) -> Event:
        """The atom event of the labels in bitmask ``mask`` at time ``t``.

        Built once per ``(t, mask)`` and kept; an event is immutable, so
        every caller can hold the same one.
        """
        event = self._atoms.get((t, mask))
        if event is None:  # atom_word checks the key, so a bad one is never kept
            event = self._atoms[t, mask] = Event.of_word(self.atom_word(t, mask), self.size)
        return event

    def index_of(self, trajectory: tuple[int, ...]) -> int:
        if len(trajectory) != self.n:
            raise ValueError(f"trajectory must have {self.n} entries")
        idx = 0
        for x in trajectory:
            if not 0 <= x < self.m:
                raise ValueError(f"label {x} out of range 0..{self.m - 1}")
            idx = idx * self.m + x
        return idx

    def trajectory_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"trajectory index {index} out of range")
        out = []
        for t in range(self.n):
            out.append((index // self.m ** (self.n - 1 - t)) % self.m)
        return tuple(out)


class Event:
    """A set of trajectories, one bit per trajectory.

    The membership vector is held packed, as ``np.packbits`` lays it out:
    trajectory 0 is the most significant bit of the first byte, and the
    padding bits past the last trajectory are zero.  Those bytes, ``key``,
    are what the set operations (``&``, ``|``, ``-``, ``~`` and the subset
    test ``<=``), ``==`` and ``hash`` read, and they name the event wherever
    events are keyed (``credal._strongest``); ``bits`` unpacks them,
    read-only, on each access.  An event is immutable.
    """

    __slots__ = ("key", "_size")

    def __init__(self, bits: np.ndarray | Sequence[bool]) -> None:
        member = np.asarray(bits, dtype=bool)
        if member.ndim != 1:
            raise ValueError(f"membership must be a vector, got shape {member.shape}")
        object.__setattr__(self, "key", np.packbits(member).tobytes())
        object.__setattr__(self, "_size", member.size)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: an event is immutable")

    def __reduce__(self) -> tuple[type, tuple[np.ndarray]]:
        # copy and pickle rebuild the event from its bits, not by assignment
        return Event, (self.bits,)

    def __repr__(self) -> str:
        return f"Event(size={self._size}, key={self.key.hex()})"

    def __len__(self) -> int:
        return self._size

    @property
    def bits(self) -> np.ndarray:
        """The membership vector, one read-only bool per trajectory."""
        bits = np.unpackbits(np.frombuffer(self.key, np.uint8), count=self._size).view(bool)
        bits.setflags(write=False)
        return bits

    @classmethod
    def of_word(cls, word: int, size: int) -> "Event":
        """The event over ``size`` trajectories whose key, read as a
        big-endian integer, is ``word`` (its padding bits zero)."""
        event = object.__new__(cls)
        object.__setattr__(event, "key", word.to_bytes(-(-size // 8), "big"))
        object.__setattr__(event, "_size", size)
        return event

    def _of_word(self, word: int) -> "Event":
        """``Event.of_word(word, len(self))``, inlined for the set operations."""
        event = object.__new__(Event)
        object.__setattr__(event, "key", word.to_bytes(len(self.key), "big"))
        object.__setattr__(event, "_size", self._size)
        return event

    def _words(self, other: "Event") -> tuple[int, int]:
        """Both keys as integers, once the two events share a space."""
        if other._size != self._size:
            raise ValueError(f"event length mismatch: {self._size} vs {other._size}")
        return int.from_bytes(self.key, "big"), int.from_bytes(other.key, "big")

    def __and__(self, other: "Event") -> "Event":
        a, b = self._words(other)
        return self._of_word(a & b)

    def __or__(self, other: "Event") -> "Event":
        a, b = self._words(other)
        return self._of_word(a | b)

    def __sub__(self, other: "Event") -> "Event":
        """The trajectories of this event outside ``other``."""
        a, b = self._words(other)
        return self._of_word(a & ~b)

    def __le__(self, other: "Event") -> bool:
        """Whether every trajectory of this event lies in ``other``."""
        a, b = self._words(other)
        return not a & ~b

    def __invert__(self) -> "Event":
        return self._of_word(int.from_bytes(self.key, "big") ^ _every(self._size))

    @property
    def complement_key(self) -> bytes:
        """The key of ``~self``, without building that event: every byte
        flipped by one table lookup, then the last byte's padding bits
        cleared."""
        flipped = self.key.translate(_FLIP)
        pad = -self._size % 8
        return flipped[:-1] + bytes((flipped[-1] & (0xFF << pad),)) if pad else flipped

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._size == other._size and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def is_empty(self) -> bool:
        return not int.from_bytes(self.key, "big")

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    @classmethod
    def none(cls, space: TrajectorySpace) -> "Event":
        return cls.of_word(0, space.size)

    @classmethod
    def all(cls, space: TrajectorySpace) -> "Event":
        return cls.of_word(_every(space.size), space.size)


_FLIP = bytes(range(255, -1, -1))  # byte -> its complement


@functools.cache
def _every(size: int) -> int:
    """The packed word of all ``size`` trajectories: ``size`` ones, then the
    zero padding."""
    return ((1 << size) - 1) << (-size % 8)


def membership_rows(events: Sequence[Event], size: int) -> np.ndarray:
    """The bits of each event over ``size`` trajectories, one row per event,
    unpacked in one call."""
    packed = np.frombuffer(b"".join(a.key for a in events), np.uint8)
    return np.unpackbits(packed.reshape(len(events), -(-size // 8)), axis=1, count=size).view(bool)


def sset_event(space: TrajectorySpace, s: SSet) -> Event:
    """Trajectories whose label at ``s.time`` lies in ``s.region``: the
    space's kept atom ``space.atom(s.time, s.region.mask)``."""
    if s.region.m != space.m:
        raise ValueError(f"region defined over {s.region.m} labels, space has {space.m}")
    return space.atom(s.time, s.region.mask)


def event_probability(probs: np.ndarray, a: Event) -> float:
    """Total measure of the event under an explicit probability vector."""
    vec = np.asarray(probs, dtype=float)
    if vec.shape != (len(a),):
        raise ValueError(f"measure has length {vec.shape}, event has {len(a)}")
    return float(vec[a.bits].sum())


# --- event-expression mini-language -------------------------------------
#
# expr  := orexpr
# orexpr := andexpr ('|' andexpr)*
# andexpr := term ('&' term)*
# term  := '!' term | '(' expr ')' | atom
# atom  := '(' 't=' INT ',' '{' INT (',' INT)* '}' ')'
#
# '&' binds tighter than '|'; whitespace is insignificant.  Evaluation and
# text() recurse once per level of the syntax tree; the parser recurses once
# per '!' and three frames per group.  The parser bounds both the tree height
# and that nesting by MAX_EXPR_DEPTH, well inside Python's default recursion
# limit of 1000 frames.

MAX_EXPR_DEPTH = 200


class ParseError(ValueError):
    """Syntax or range error in an event expression, with source position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Atom:
    time: int
    labels: tuple[int, ...]

    def text(self) -> str:
        return f"(t={self.time},{{{','.join(str(x) for x in self.labels)}}})"


@dataclass(frozen=True)
class Not:
    child: "EventExpr"

    def text(self) -> str:
        return f"!{self.child.text()}" if isinstance(self.child, Atom) else f"!({self.child.text()})"


@dataclass(frozen=True)
class And:
    left: "EventExpr"
    right: "EventExpr"

    def text(self) -> str:
        return f"({self.left.text()} & {self.right.text()})"


@dataclass(frozen=True)
class Or:
    left: "EventExpr"
    right: "EventExpr"

    def text(self) -> str:
        return f"({self.left.text()} | {self.right.text()})"


EventExpr = Atom | Not | And | Or


def evaluate_expr(expr: EventExpr, space: TrajectorySpace) -> Event:
    if isinstance(expr, Atom):
        region = Region.from_labels(expr.labels, space.m)
        return sset_event(space, SSet(expr.time, region))
    if isinstance(expr, Not):
        return ~evaluate_expr(expr.child, space)
    if isinstance(expr, And):
        return evaluate_expr(expr.left, space) & evaluate_expr(expr.right, space)
    if isinstance(expr, Or):
        return evaluate_expr(expr.left, space) | evaluate_expr(expr.right, space)
    raise TypeError(f"not an event expression: {expr!r}")


class _Parser:
    """Recursive descent; each rule returns its node and the node's height."""

    def __init__(self, src: str, space: TrajectorySpace) -> None:
        self.src = src
        self.space = space
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            got = self._peek() or "end of input"
            raise ParseError(f"expected {ch!r}, found {got!r}", self.pos)
        self.pos += 1

    def _int(self) -> tuple[int, int]:
        self._skip_ws()
        start = self.pos
        # isdecimal, not isdigit: int() rejects digits such as superscripts
        while self.pos < len(self.src) and self.src[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            got = self.src[start] if start < len(self.src) else "end of input"
            raise ParseError(f"expected integer, found {got!r}", start)
        try:
            return int(self.src[start : self.pos]), start
        except ValueError:  # past the interpreter's limit on integer digits
            raise ParseError(f"integer of {self.pos - start} digits is too long", start) from None

    def _bounded(self, depth: int, position: int) -> int:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels", position)
        return depth

    def parse(self) -> EventExpr:
        expr, _ = self._orexpr(0)
        self._skip_ws()
        if self.pos != len(self.src):
            raise ParseError(f"unexpected trailing input {self.src[self.pos]!r}", self.pos)
        return expr

    # ``nesting`` counts the enclosing '!' and groups, checked before recursing
    def _orexpr(self, nesting: int) -> tuple[EventExpr, int]:
        node, height = self._andexpr(nesting)
        while self._peek() == "|":
            position = self.pos
            self.pos += 1
            right, right_height = self._andexpr(nesting)
            node = Or(node, right)
            height = self._bounded(max(height, right_height) + 1, position)
        return node, height

    def _andexpr(self, nesting: int) -> tuple[EventExpr, int]:
        node, height = self._term(nesting)
        while self._peek() == "&":
            position = self.pos
            self.pos += 1
            right, right_height = self._term(nesting)
            node = And(node, right)
            height = self._bounded(max(height, right_height) + 1, position)
        return node, height

    def _term(self, nesting: int) -> tuple[EventExpr, int]:
        ch = self._peek()
        if ch == "!":
            position = self.pos
            self.pos += 1
            child, height = self._term(self._bounded(nesting + 1, position))
            return Not(child), self._bounded(height + 1, position)
        if ch == "(":
            # lookahead: '(' 't' '=' starts an atom, anything else a grouped expr
            save = self.pos
            self.pos += 1
            if self._peek() == "t":
                self.pos = save
                return self._atom(), 1
            node, height = self._orexpr(self._bounded(nesting + 1, save))
            self._expect(")")
            return node, height
        got = ch or "end of input"
        raise ParseError(f"expected '!', '(' or atom, found {got!r}", self.pos)

    def _atom(self) -> EventExpr:
        self._expect("(")
        self._skip_ws()
        if not self.src.startswith("t", self.pos):
            raise ParseError("expected 't' in atom", self.pos)
        self.pos += 1
        self._expect("=")
        t, t_pos = self._int()
        if not 0 <= t < self.space.n:
            raise ParseError(
                f"time index {t} out of range 0..{self.space.n - 1}", t_pos
            )
        self._expect(",")
        self._expect("{")
        labels = []
        while True:
            x, x_pos = self._int()
            if not 0 <= x < self.space.m:
                raise ParseError(
                    f"label {x} out of range 0..{self.space.m - 1}", x_pos
                )
            labels.append(x)
            if self._peek() == ",":
                self.pos += 1
                continue
            break
        self._expect("}")
        self._expect(")")
        return Atom(t, tuple(sorted(set(labels))))


def parse_expr(src: str, space: TrajectorySpace) -> EventExpr:
    """Parse an event expression into its syntax tree."""
    return _Parser(src, space).parse()


def parse_event(src: str, space: TrajectorySpace) -> Event:
    """Parse an event expression and evaluate it to an ``Event``."""
    return evaluate_expr(parse_expr(src, space), space)
