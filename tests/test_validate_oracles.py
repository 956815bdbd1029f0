"""Differential tests: validate_game against its first antichain check.

The oracle below is the earlier ``validate_game``, kept verbatim apart
from its name: one holders bitset per player over the sorted family,
ANDed for every coalition.  ``simplegames.validate_game`` now checks the
antichain on 2**n-bit sets and must give the same game, or raise the same
exception with the same message and, for a nested pair, the same
``(inner, outer)`` coalitions.
"""

import random
from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reduce_to_maximal
from simplegames import MAX_PLAYERS, Coalition, SimpleGame, validate_game
from simplegames.errors import (
    AntichainViolation,
    EmptyFamily,
    FullCoalitionLosing,
    GameError,
    PlayerOutOfRange,
)

# -------------------------------------------------------------------- oracle


def _validate_game(n: int, coalitions: Iterable[Coalition]) -> SimpleGame:
    """Check and canonicalize a family of maximal losing coalitions.

    Exact duplicates are dropped silently; the result lists coalitions in
    ascending mask order.

    Raises:
        PlayerOutOfRange: a coalition mentions a player outside 1..n.
        FullCoalitionLosing: the grand coalition was declared losing.
        EmptyFamily: no coalition given (the empty coalition must lose,
            so every game has at least one maximal losing coalition).
        AntichainViolation: one coalition contains another.
    """
    if type(n) is not int or not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
    full = (1 << n) - 1
    masks = sorted({c.mask for c in coalitions})
    for m in masks:
        if m & ~full:
            raise PlayerOutOfRange(
                f"coalition {Coalition(m)} does not fit into {n} players"
            )
    if full in masks:
        raise FullCoalitionLosing(
            f"the grand coalition of all {n} players must win"
        )
    if not masks:
        raise EmptyFamily("a game needs at least one losing coalition")
    # holders[i] has bit j set when masks[j] holds player i + 1.  ANDing the
    # holders of a mask's players leaves the masks that contain it; without
    # its own bit, its strict supersets.  Masks are ascending, so the error
    # names the smallest contained mask and, by the lowest bit left, the
    # smallest mask containing it.
    holders = [
        int("".join("1" if m >> i & 1 else "0" for m in reversed(masks)), 2)
        for i in range(n)
    ]
    everyone = (1 << len(masks)) - 1
    for j, small in enumerate(masks):
        above = everyone
        for i in range(n):
            if small >> i & 1:
                above &= holders[i]
        above ^= 1 << j
        if above:
            large = masks[(above & -above).bit_length() - 1]
            raise AntichainViolation(Coalition(small), Coalition(large))
    return SimpleGame(n, tuple(Coalition(m) for m in masks))


# ------------------------------------------------------------------- helpers


def outcome(check, n, masks):
    """The game, or the exception's type, message and nested pair."""
    try:
        return check(n, [Coalition(m) for m in masks])
    except (GameError, ValueError) as exc:
        pair = (exc.inner, exc.outer) if isinstance(exc, AntichainViolation) else None
        return type(exc), str(exc), pair


def assert_agrees(n, masks):
    expected = outcome(_validate_game, n, masks)
    assert outcome(validate_game, n, masks) == expected
    return expected


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_family_of_a_small_cube(n):
    # Below n = 3 a holders byte spills above 2**n; no family may notice.
    cube = range(1 << n)
    for size in range(len(cube) + 1):
        for masks in combinations(cube, size):
            assert_agrees(n, masks)


@st.composite
def families(draw):
    """Masks of 1..12 players, often an antichain, sometimes out of range."""
    n = draw(st.integers(1, 12))
    top = (1 << n + 1) - 1 if draw(st.integers(0, 9)) == 0 else (1 << n) - 1
    masks = draw(st.lists(st.integers(0, top), max_size=3 * n))
    if draw(st.booleans()):
        masks = reduce_to_maximal(set(masks))
    return n, masks


@settings(max_examples=400, deadline=None)
@given(families())
def test_random_families_agree(family):
    assert_agrees(*family)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.data())
def test_nested_pairs_agree(n, data):
    # One planted pair inside an antichain: the reported pair must match.
    below_full = st.integers(0, (1 << n) - 2)
    drawn = data.draw(st.lists(below_full, min_size=1, max_size=2 * n))
    masks = reduce_to_maximal(set(drawn))
    outer = data.draw(st.sampled_from(masks))
    inner = data.draw(st.integers(0, outer)) & outer
    expected = assert_agrees(n, masks + [inner])
    if inner != outer:
        assert expected[0] is AntichainViolation


@pytest.mark.parametrize("seed", range(4))
def test_nested_pairs_at_the_cap(seed):
    rng = random.Random(seed)
    n = MAX_PLAYERS
    masks = [rng.randrange(1 << n) for _ in range(30)]
    outer = rng.choice(masks)
    inner = outer & rng.randrange(1 << n)
    masks += [inner, outer & ~(outer & -outer)]
    _, _, pair = assert_agrees(n, masks)
    assert pair[0].issubset(pair[1]) and pair[0] != pair[1]


def test_pairs_of_players_at_the_cap():
    family = [sum(1 << p for p in c) for c in combinations(range(MAX_PLAYERS), 2)]
    assert isinstance(assert_agrees(MAX_PLAYERS, family), SimpleGame)
    outer = Coalition.of(1, 4, MAX_PLAYERS)
    _, _, pair = assert_agrees(MAX_PLAYERS, family + [outer.mask])
    assert pair == (Coalition.of(1, 4), outer)
