"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import random
from functools import reduce
from itertools import combinations
from operator import xor
from pathlib import Path

from hypothesis import strategies as st

from simplegames import Coalition, SimpleGame, validate_game


def seven_player_example() -> SimpleGame:
    """n=7 game whose maximal losing coalitions are {1,2,3} and {3,4,5,6}."""
    return validate_game(7, [Coalition.of(1, 2, 3), Coalition.of(3, 4, 5, 6)])


def four_player_example() -> SimpleGame:
    """n=4 game that wins iff it contains both of {1,2} or both of {3,4}."""
    return validate_game(
        4,
        [Coalition.of(1, 3), Coalition.of(1, 4), Coalition.of(2, 3), Coalition.of(2, 4)],
    )


def reduce_to_maximal(masks: set[int]) -> list[int]:
    """Drop every mask strictly contained in another; the rest is an antichain."""
    return sorted(
        m for m in masks if not any(m != o and m & ~o == 0 for o in masks)
    )


def random_antichain_game(n: int, rng: random.Random) -> SimpleGame:
    """Sample a valid game by reducing random coalitions to their maximal ones.

    The grand coalition is excluded from sampling, so the reduced family is
    always a valid collection of maximal losing coalitions.
    """
    k = rng.randint(1, 2 * n)
    masks = {rng.randrange((1 << n) - 1) for _ in range(k)}
    maximal = reduce_to_maximal(masks)
    return validate_game(n, [Coalition(m) for m in maximal])


@st.composite
def antichain_games(draw, min_n=2, max_n=8) -> SimpleGame:
    """Hypothesis strategy: a valid game reduced from random coalitions."""
    n = draw(st.integers(min_n, max_n))
    masks = draw(st.sets(st.integers(0, (1 << n) - 2), min_size=1, max_size=2 * n))
    return validate_game(n, [Coalition(m) for m in reduce_to_maximal(masks)])


def secded_family(n: int, w: int) -> list[Coalition]:
    """The w-player coalitions of n players whose player numbers XOR to 0."""
    return [
        Coalition.from_players(c)
        for c in combinations(range(1, n + 1), w)
        if reduce(xor, c, 0) == 0
    ]


@st.composite
def secded_games(draw, max_n=12) -> SimpleGame:
    """Hypothesis strategy: a constant-weight SECDED family (Olsen et al.).

    Two coalitions of one size differ in an even number of players, and
    trading one player for another changes the XOR, so the coalitions are
    at least distance 4 apart: none pair up and none share a center.
    """
    n = draw(st.integers(4, max_n))
    w = draw(st.sampled_from([w for w in range(3, n) if secded_family(n, w)]))
    return validate_game(n, secded_family(n, w))


def random_layer(n: int, w: int, size: int, seed: int) -> list[int]:
    """``size`` distinct seeded coalitions of w out of n players, as masks.

    Coalitions of one size form an antichain, so any such family is a game.
    """
    rng = random.Random(seed)
    family: set[int] = set()
    while len(family) < size:
        family.add(sum(1 << i for i in rng.sample(range(n), w)))
    return sorted(family)


def write_hostile_verify_files(directory: Path) -> tuple[Path, Path]:
    """An n=24 game file and a decomposition file that does not match it.

    The decomposition has five parts with seeded random weights below 2**40,
    each with half its total as quota: nothing like the tiered parts the
    tool writes, and with about 2**24 distinct subset sums per part.
    """
    rng = random.Random(24)
    parts = []
    for _ in range(5):
        weights = [rng.randrange(1 << 40) for _ in range(24)]
        parts.append({"quota": sum(weights) // 2, "weights": weights})
    halves = [list(range(1, 13)), list(range(13, 25))]
    game, dec = directory / "hostile_game.json", directory / "hostile_dec.json"
    game.write_text(json.dumps({"n": 24, "maximal_losing": halves}))
    dec.write_text(
        json.dumps({"n": 24, "method": "covering", "part_count": 5, "parts": parts})
    )
    return game, dec
