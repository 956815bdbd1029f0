"""Differential tests: the covers and the game check against the originals.

The oracles below are earlier versions of ``greedy_cover``,
``validate_game``, ``hamming_code`` and ``full_cover``, kept verbatim apart
from their names and from the library's private checks, spelled out here:
a rescan of every candidate ball in each greedy round, a lazy greedy that
re-counts only the popped top of a heap, a greedy that keeps every
candidate's count and a heap of packed, possibly stale ``(-count, mask)``
keys, a check of every pair of coalitions for containment, a syndrome
computed mask by mask over the whole cube, and a table of base lengths with
a final sort.
``simplegames`` must reproduce them exactly: the same centers in the same
order, the same canonical game, or the same error naming the same
coalitions.
"""

import dataclasses
import heapq
from collections import Counter
from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_layer, reduce_to_maximal, secded_family, secded_games
from simplegames import (
    Coalition,
    Code,
    SimpleGame,
    full_cover,
    greedy_cover,
    hamming_code,
    validate_game,
)
from simplegames.codes import HAMMING_MAX_M, HAMMING_MIN_M
from simplegames.core import MAX_PLAYERS
from simplegames.errors import (
    AntichainViolation,
    EmptyFamily,
    FullCoalitionLosing,
    GameError,
    MOutOfRange,
    PlayerOutOfRange,
)


# -------------------------------------------------------------------- oracles


def _ball(mask: int, n: int) -> list[int]:
    """The mask itself plus all single-bit flips."""
    return [mask] + [mask ^ (1 << i) for i in range(n)]


def oracle_greedy_cover(n: int, targets: Iterable[Coalition]) -> Code:
    """Cover every target within distance 1 using greedy set cover.

    Candidate centers are exactly the coalitions within distance 1 of some
    target; any ball that covers a target has its center there, so nothing
    is lost by skipping the rest of the cube.  Each round picks the
    candidate covering the most uncovered targets, ties broken by smallest
    mask.  Centers are returned in selection order.
    """
    if n < 1 or n > MAX_PLAYERS:
        raise ValueError(f"length must be in 1..{MAX_PLAYERS}, got {n}")
    target_masks = sorted({t.mask for t in targets})
    if not target_masks:
        raise ValueError("need at least one target to cover")
    for t in target_masks:
        if t >> n:
            raise PlayerOutOfRange(f"target {Coalition(t)} does not fit into {n} players")
    candidates = sorted({c for t in target_masks for c in _ball(t, n)})
    uncovered = set(target_masks)
    chosen: list[int] = []
    while uncovered:
        best = None
        best_count = 0
        for c in candidates:
            count = sum(1 for t in _ball(c, n) if t in uncovered)
            if count > best_count:
                best, best_count = c, count
        assert best is not None  # every target covers itself
        chosen.append(best)
        uncovered.difference_update(_ball(best, n))
    return Code(n, tuple(Coalition(c) for c in chosen))


def _oracle_check_length(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"length must be in 1..{MAX_PLAYERS}, got {n}")


def oracle_lazy_greedy_cover(n: int, targets: Iterable[Coalition]) -> Code:
    """Cover every target within distance 1 using greedy set cover.

    Candidate centers are exactly the coalitions within distance 1 of some
    target; any ball that covers a target has its center there, so nothing
    is lost by skipping the rest of the cube.  Each round picks the
    candidate covering the most uncovered targets, ties broken by smallest
    mask.  Centers are returned in selection order.

    The rounds are lazy (Minoux's accelerated greedy): a heap holds every
    candidate under ``(-count, mask)`` with a count that may be stale, and
    only the popped top is re-counted.  If its fresh count still equals its
    key it is taken; otherwise it goes back under the fresh count, or is
    dropped at 0.  Counts only fall as targets get covered, so every other
    key bounds its candidate's fresh count from above: nobody covers more
    than the winner, and a candidate covering as many sits behind it in the
    heap only with a larger mask.  That is the same pick as a full rescan.
    """
    _oracle_check_length(n)
    target_masks = sorted({t.mask for t in targets})
    if not target_masks:
        raise ValueError("need at least one target to cover")
    for t in target_masks:
        if t >> n:
            raise PlayerOutOfRange(f"target {Coalition(t)} does not fit into {n} players")
    uncovered = set(target_masks)

    def count(c: int) -> int:
        return len(uncovered.intersection(_ball(c, n)))

    heap = [(-count(c), c) for c in {c for t in target_masks for c in _ball(t, n)}]
    heapq.heapify(heap)
    chosen: list[int] = []
    while uncovered:
        key, c = heapq.heappop(heap)  # never empty: an uncovered target counts itself
        fresh = count(c)
        if fresh == -key:
            chosen.append(c)
            uncovered.difference_update(_ball(c, n))
        elif fresh:
            heapq.heappush(heap, (-fresh, c))
    return Code(n, tuple(Coalition(c) for c in chosen))


def oracle_packed_heap_greedy_cover(n: int, targets: Iterable[Coalition]) -> Code:
    """Cover every target within distance 1 using greedy set cover.

    Candidate centers are exactly the coalitions within distance 1 of some
    target; any ball that covers a target has its center there, so nothing
    is lost by skipping the rest of the cube.  Each round picks the
    candidate covering the most uncovered targets, ties broken by smallest
    mask.  Centers are returned in selection order.

    Each candidate keeps the number of uncovered targets in its ball: the
    counts are made once, and each target a chosen center newly covers
    takes one off every candidate in its own ball, k * (n + 1) decrements
    for k targets in all.  A heap holds the candidates under
    ``(-count, mask)`` with keys that may be stale: the popped top is taken
    when its key still equals its count, and otherwise goes back under its
    count, or is dropped at 0.  Counts only fall, so every other key bounds
    its candidate's count from above: nobody covers more than the winner,
    and one covering as many sits behind it only with a larger mask.  That
    is the pick of a full rescan.
    """
    _oracle_check_length(n)
    target_masks = sorted({t.mask for t in targets})
    if not target_masks:
        raise ValueError("need at least one target to cover")
    for t in target_masks:
        if t >> n:
            raise PlayerOutOfRange(f"target {Coalition(t)} does not fit into {n} players")
    ball = [0] + [1 << i for i in range(n)]  # the flips from a mask to its ball
    # a plain dict: its subscripts are faster than a Counter's
    count = dict(Counter(t ^ f for t in target_masks for f in ball))
    # (-count, mask) packed into the one int -count * 2**n + mask, which
    # orders the same and compares faster than a tuple
    low = (1 << n) - 1
    heap = [-k << n | c for c, k in count.items()]
    heapq.heapify(heap)
    uncovered = set(target_masks)
    chosen: list[int] = []
    while uncovered:
        key = heapq.heappop(heap)  # never empty: an uncovered target counts itself
        c = key & low
        fresh = count[c]
        if fresh == -(key >> n):
            chosen.append(c)
            for t in [c ^ f for f in ball if c ^ f in uncovered]:
                uncovered.remove(t)
                for f in ball:
                    count[t ^ f] -= 1
        elif fresh:
            heapq.heappush(heap, -fresh << n | c)
    return Code(n, tuple(Coalition(c) for c in chosen))


def oracle_validate_game(n: int, coalitions: Iterable[Coalition]) -> SimpleGame:
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
    if n < 1 or n > MAX_PLAYERS:
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
    # A submask is numerically <= its supermask, so after sorting only
    # earlier-contains-later needs checking.
    for i, small in enumerate(masks):
        for large in masks[i + 1 :]:
            if small & ~large == 0:
                raise AntichainViolation(Coalition(small), Coalition(large))
    return SimpleGame(n, tuple(Coalition(m) for m in masks))


def _oracle_position_xor(mask: int) -> int:
    """XOR of the 1-based positions of the set bits."""
    out = 0
    pos = 1
    while mask:
        if mask & 1:
            out ^= pos
        mask >>= 1
        pos += 1
    return out


def oracle_hamming_code(m: int) -> Code:
    """The perfect radius-1 code of length n = 2**m - 1.

    A coalition is a codeword exactly when the XOR of its member numbers
    is zero; flipping bit j changes that syndrome by j, so the 2**(n-m)
    codewords' radius-1 balls tile the whole cube.
    """
    if not HAMMING_MIN_M <= m <= HAMMING_MAX_M:
        raise MOutOfRange(
            f"supported range is {HAMMING_MIN_M} <= m <= {HAMMING_MAX_M}, got {m}"
        )
    n = (1 << m) - 1
    centers = tuple(
        Coalition(mask) for mask in range(1 << n) if _oracle_position_xor(mask) == 0
    )
    return Code(n, centers)


# Perfect base codes for the padded full-cube cover, by length.  Length 1
# is the degenerate case: the single center {} covers both coalitions.
_ORACLE_BASE_LENGTHS = (15, 7, 3, 1)


def oracle_full_cover(n: int) -> Code:
    """A radius-1 cover of the whole n-cube.

    Uses the longest perfect code of length n' <= n, padded with every
    possible suffix on the remaining n - n' players.  The result has
    2**(n - n') * 2**(n' - m) centers and is the exact minimum when
    n is itself 2**m - 1.
    """
    if n < 1 or n > MAX_PLAYERS:
        raise ValueError(f"length must be in 1..{MAX_PLAYERS}, got {n}")
    base_n = next(b for b in _ORACLE_BASE_LENGTHS if b <= n)
    if base_n == 1:
        base = [0]
    else:
        base = [c.mask for c in oracle_hamming_code(base_n.bit_length()).centers]
    centers = sorted(
        b | (suffix << base_n) for suffix in range(1 << (n - base_n)) for b in base
    )
    return Code(n, tuple(Coalition(m) for m in centers))


def outcome(fn, *args):
    """The result of a call, or the type, args and attributes of its error."""
    try:
        return fn(*args)
    except (ValueError, GameError) as exc:
        return (type(exc), exc.args, vars(exc))


def coalitions(masks) -> list[Coalition]:
    return [Coalition(m) for m in masks]


def layer(n: int, k: int) -> list[Coalition]:
    """All coalitions of k out of n players."""
    return [Coalition(sum(1 << i for i in c)) for c in combinations(range(n), k)]


# -------------------------------------------------------------- greedy cover


GREEDY_ORACLES = [
    oracle_greedy_cover,
    oracle_lazy_greedy_cover,
    oracle_packed_heap_greedy_cover,
]
# The full rescan is too slow on larger families.
FAST_GREEDY_ORACLES = GREEDY_ORACLES[1:]


@st.composite
def cover_targets(draw) -> tuple[int, list[int]]:
    """A length and a target list, duplicates included, in any order.

    Targets are arbitrary masks, masks from a few radius-1 balls (dense
    neighbourhoods, so many candidates tie on their count), coalitions of
    one or two sizes (symmetric, so ties hold round after round), the
    whole cube, or a single coalition.
    """
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["random", "balls", "layers", "cube", "single"]))
    if kind == "random":
        targets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4 * n))
    elif kind == "balls":
        seeds = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
        near = sorted({b for s in seeds for b in _ball(s, n)})
        targets = draw(st.lists(st.sampled_from(near), min_size=1, max_size=3 * n))
    elif kind == "layers":
        sizes = draw(st.sets(st.integers(0, n), min_size=1, max_size=2))
        sized = [m for m in range(1 << n) if m.bit_count() in sizes]
        targets = draw(st.lists(st.sampled_from(sized), min_size=1, max_size=6 * n))
    elif kind == "cube":
        # Larger cubes are the fixed cases below: the oracle is slow there.
        n = min(n, 6)
        targets = list(range(1 << n))
    else:
        targets = [draw(st.integers(0, (1 << n) - 1))]
    targets += draw(st.lists(st.sampled_from(targets), max_size=3))
    return n, draw(st.permutations(targets))


def assert_coalition_tuple(centers) -> None:
    # Codes hold int masks; centers must still read as Coalitions.
    assert type(centers) is tuple and all(type(c) is Coalition for c in centers)


def assert_greedy_matches_oracles(
    n: int, targets: list[Coalition], oracles=GREEDY_ORACLES
) -> None:
    centers = greedy_cover(n, targets).centers
    assert_coalition_tuple(centers)
    for oracle in oracles:
        assert centers == oracle(n, targets).centers, oracle.__name__


@settings(max_examples=300, deadline=None)
@given(cover_targets())
def test_greedy_cover_matches_oracle(case):
    n, targets = case
    assert_greedy_matches_oracles(n, coalitions(targets))


@settings(max_examples=40, deadline=None)
@given(secded_games())
def test_greedy_cover_of_secded_family_matches_oracle(game):
    assert_greedy_matches_oracles(game.n, list(game.maximal_losing))


@pytest.mark.parametrize("n", range(1, 11))
def test_greedy_cover_of_whole_cube_matches_oracle(n):
    assert_greedy_matches_oracles(n, coalitions(range(1 << n)))


# At n = MAX_PLAYERS one target gives 25 masks a count of 1, so the scan
# for the top count runs over all 2**24 masks at each count from 25 down.
@pytest.mark.parametrize("n", [*range(1, 11), MAX_PLAYERS])
def test_greedy_cover_of_single_target_matches_oracle(n):
    for mask in (0, (1 << n) - 1, 0b1010101010 & ((1 << n) - 1)):
        assert_greedy_matches_oracles(n, [Coalition(mask)])


@pytest.mark.parametrize("n", [10, 12])
def test_greedy_cover_of_middle_layer_matches_oracle(n):
    assert_greedy_matches_oracles(n, layer(n, n // 2))


@pytest.mark.parametrize("n", range(11, 15))
def test_greedy_cover_of_larger_cube_matches_lazy_oracle(n):
    assert_greedy_matches_oracles(n, coalitions(range(1 << n)), FAST_GREEDY_ORACLES)


@pytest.mark.parametrize("n, w", [(14, 7), (15, 5), (16, 8), (MAX_PLAYERS, 12)])
def test_greedy_cover_of_large_layers_matches_lazy_oracle(n, w):
    if n < MAX_PLAYERS:
        for targets in (layer(n, w), secded_family(n, w)):
            assert_greedy_matches_oracles(n, targets, FAST_GREEDY_ORACLES)
    else:  # 40 of the layer's 2.7 million coalitions: few enough for the rescan
        assert_greedy_matches_oracles(n, coalitions(random_layer(n, w, 40, seed=24)))


@pytest.mark.parametrize(
    "n, masks",
    [(0, [0]), (MAX_PLAYERS + 1, [0]), (3, []), (3, [0b1000]), (3, [1, 0b10000])],
    ids=["n-zero", "n-too-large", "no-targets", "target-too-wide", "one-too-wide"],
)
def test_greedy_cover_errors_match_oracle(n, masks):
    got = outcome(greedy_cover, n, coalitions(masks))
    for oracle in GREEDY_ORACLES:
        assert got == outcome(oracle, n, coalitions(masks)), oracle.__name__


# ---------------------------------------------------------- full-cube cover


@pytest.mark.parametrize("m", range(HAMMING_MIN_M, HAMMING_MAX_M + 1))
def test_hamming_code_matches_oracle(m):
    code = hamming_code(m)
    assert code.n == (1 << m) - 1
    assert code.centers == oracle_hamming_code(m).centers


@pytest.mark.parametrize("n", range(1, 21))
def test_full_cover_matches_oracle(n):
    code = full_cover(n)
    assert code.n == n
    assert_coalition_tuple(code.centers)
    assert code.centers == oracle_full_cover(n).centers


@pytest.mark.parametrize("n", range(1, 21))
def test_full_cover_lists_its_centers_only_when_read(n):
    oracle = oracle_full_cover(n)
    code = full_cover(n)
    assert len(code) == len(oracle)
    for name, value in [("n", n), ("_masks", ()), ("centers", ())]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(code, name, value)
    assert "_masks" not in vars(code)  # counted, not listed
    # Each reader lists the centers of a fresh cover by itself.
    assert full_cover(n)._masks == oracle._masks
    assert full_cover(n).centers == oracle.centers
    assert full_cover(n) == oracle and oracle == full_cover(n)
    assert hash(full_cover(n)) == hash(oracle)
    assert full_cover(n) != Code(n, oracle.centers[::-1]) or n == 1


@pytest.mark.parametrize(
    "fn, arg",
    [
        (hamming_code, 1),
        (hamming_code, HAMMING_MAX_M + 1),
        (full_cover, 0),
        (full_cover, MAX_PLAYERS + 1),
    ],
)
def test_full_cube_errors_match_oracle(fn, arg):
    oracle = {hamming_code: oracle_hamming_code, full_cover: oracle_full_cover}[fn]
    assert outcome(fn, arg) == outcome(oracle, arg)


# ------------------------------------------------------------- game checking


@st.composite
def families(draw) -> tuple[int, list[int]]:
    """A player count and a coalition list that may or may not be a valid game.

    Draws arbitrary masks (often nested, the grand coalition and, rarely,
    masks wider than n included), antichains reduced from them, and
    antichains with a few nested coalitions added, in any order.
    """
    n = draw(st.integers(1, 10))
    top = (1 << n) - 1
    masks = draw(st.lists(st.integers(0, top), max_size=4 * n))
    kind = draw(st.sampled_from(["random", "antichain", "nested"]))
    if kind != "random":
        masks = reduce_to_maximal(set(masks) - {top}) or [0]
    if kind == "nested":
        for m in draw(st.lists(st.sampled_from(masks), min_size=1, max_size=3)):
            masks.append(m & draw(st.integers(0, top)))
    if draw(st.integers(0, 9)) == 0:
        masks.append(draw(st.integers(top + 1, (1 << (n + 2)) - 1)))
    masks += draw(st.lists(st.sampled_from(masks), max_size=2)) if masks else []
    return n, draw(st.permutations(masks))


@settings(max_examples=500, deadline=None)
@given(families())
def test_validate_game_matches_oracle(case):
    n, masks = case
    expected = outcome(oracle_validate_game, n, coalitions(masks))
    assert outcome(validate_game, n, coalitions(masks)) == expected


@pytest.mark.parametrize(
    "n, masks",
    [
        # {1,2} < {1,2,3} is reported, not the later {3} < {1,3}.
        (4, [0b0011, 0b0100, 0b0101, 0b0111]),
        # {1} sits in {1,2}, {1,3} and {1,2,3}; the smallest container wins.
        (4, [0b0111, 0b0101, 0b0011, 0b0001, 0b0010]),
        # The empty coalition is inside everything.
        (3, [0b110, 0b011, 0, 0b101]),
        # Duplicates of a nested pair.
        (3, [0b011, 0b001, 0b011, 0b001]),
        # The grand coalition is reported before any containment.
        (3, [0b001, 0b011, 0b111]),
        # A player beyond n is reported before the grand coalition.
        (3, [0b111, 0b1000]),
        (3, []),
        (0, [0]),
        (MAX_PLAYERS + 1, [0]),
    ],
)
def test_validate_game_fixed_cases_match_oracle(n, masks):
    expected = outcome(oracle_validate_game, n, coalitions(masks))
    assert outcome(validate_game, n, coalitions(masks)) == expected


def test_validate_game_on_two_middle_layers_matches_oracle():
    # Every 6-set of 10 players holds six 5-sets: thousands of violations.
    family = layer(10, 6) + layer(10, 5)
    expected = outcome(oracle_validate_game, 10, family)
    assert expected[0] is AntichainViolation
    assert outcome(validate_game, 10, family) == expected


def test_validate_game_on_middle_layer_matches_oracle():
    family = layer(12, 6)
    assert validate_game(12, family) == oracle_validate_game(12, family)
