"""The presolve's support stage as it was built from events, kept as a test oracle.

``supported`` is ``credal._supported`` before its loop read each pair row's
atoms by ``(time, mask)``, built a pin's deduction inline and joined the
fixed trajectories as one integer word: it reads each pin through
``sset_event``, calls ``credal._refutes`` on every deduction and unions the
fixed sets as events.  ``assert_same`` requires the two records to agree
field by field.

Loaded as a pytest plugin (``-p _seed_support``, with ``tests`` on the
path), it compares every support stage the session builds with
``supported`` and prints how many it compared when the session ends.
"""

from __future__ import annotations

import pytest

from iqp import credal
from iqp.events import Event, sset_event
from iqp.system import SSet

COMPARED = pytest.StashKey[int]()  # support stages the plugin compared


def supported(cs: credal.ConstraintSet, pinned: credal._Pinned) -> credal._Support:
    """The support stage of ``cs`` from its pins stage, built on events."""
    bounds, owners, partners, pins = pinned.bounds, pinned.owners, pinned.partners, pinned.pins

    def pin(s: SSet) -> tuple[credal._Pin, Event] | None:
        """The pin of ``s`` and its atom event, ``None`` when unpinned."""
        return pins.get(sset_event(cs.space, s).key)

    implied: set[int] = set()
    fixes: list[credal.Forcing] = []
    empty: credal.Terms = ()

    def fix(terms: credal.Terms, rest: Event) -> None:
        """The deduction ``terms`` fixes ``rest``, unless it proves the set
        empty instead."""
        nonlocal empty
        if not credal._refutes(terms, bounds):
            fixes.append(credal.Forcing(terms, rest))
        elif not empty:
            empty = terms

    # each kept, pinned pair row not yet matched: its ssets, as (time, region
    # mask) pairs, which are cheaper to build than SSets -> (constraint, shift)
    unmatched: dict[frozenset[tuple[int, int]], tuple[int, float]] = {}
    full = (1 << cs.space.m) - 1
    for i, j in zip(owners, partners):
        con = cs.constraints[i]
        if not con.origin:  # a demand
            for terms, rest in credal._demand_deductions(con, i, j, bounds, pins):
                fix(terms, rest)
            continue
        if bounds[i] >= 1.0:  # a certain event
            fix(credal._deduction(i, credal._CERTAIN), ~con.event)
        if j >= 0 or len(con.origin) == 1:
            continue
        supersets = [pin(s) for s in con.origin]  # the pair's two ssets, when pinned
        # a row reaching a pin fixes the rest of the pinned event (zero drift)
        for sup in supersets:
            if sup is not None and bounds[i] >= sup[0].reach:
                fix(credal._deduction(i, sup[0].upper), sup[1] - con.event)
        if supersets[0] is None or supersets[1] is None:
            continue
        pin1, pin2 = supersets[0][0], supersets[1][0]
        shift = pin1.weight + pin2.weight - 1.0  # P(S1 & S2) - P(S1^c & S2^c) under the pins
        if bounds[i] <= shift:  # rule 1
            implied.add(i)
            continue
        key = [(s.time, s.region.mask) for s in con.origin]
        first = unmatched.pop(frozenset((t, mask ^ full) for t, mask in key), None)
        if first is None:
            unmatched[frozenset(key)] = (i, shift)
        else:  # rule 2, in the first row's orientation
            f, f_shift = first
            implied.add(i if bounds[f] >= bounds[i] + f_shift else f)
    forcings = tuple(fix for fix in fixes
                     if fix.terms[0][0] not in implied and not fix.rest.is_empty)
    fixed = Event.none(cs.space)
    for forcing in forcings:
        fixed |= forcing.rest
    return credal._Support([i for i in owners if i not in implied],
                           [j for i, j in zip(owners, partners) if i not in implied],
                           len(implied), forcings, (~fixed).indices(), pinned.refuted or empty)


def assert_same(new: credal._Support, old: credal._Support) -> None:
    """The two records name the same rows, forcings, live columns and
    deduction: forcings by their terms and their fixed trajectories' bits."""
    assert new.owners == old.owners and new.partners == old.partners
    assert new.implied == old.implied
    assert [(f.terms, f.rest.key, len(f.rest)) for f in new.forcings] == [
        (f.terms, f.rest.key, len(f.rest)) for f in old.forcings]
    assert new.live.dtype == old.live.dtype and new.live.tolist() == old.live.tolist()
    assert new.empty == old.empty


def pytest_configure(config: pytest.Config) -> None:
    """Check every support stage the session builds against ``supported``."""
    built = credal._supported
    config.stash[COMPARED] = 0

    def checked(cs: credal.ConstraintSet, pinned: credal._Pinned) -> credal._Support:
        support = built(cs, pinned)
        assert_same(support, supported(cs, pinned))
        config.stash[COMPARED] += 1
        return support

    credal._supported = checked


def pytest_unconfigure(config: pytest.Config) -> None:
    print(f"support stages compared: {config.stash[COMPARED]}")
