"""Differential tests: derive_maximal_losing against its first scan.

The oracle below is the earlier ``derive_maximal_losing``, kept verbatim
apart from its name: one list of the 2**n answers, then a walk over every
mask's one-player extensions.  ``simplegames.derive_maximal_losing`` now
runs the losing masks through the bitset down-closure and must call the
win/lose function on the same coalitions in the same order, return the
same tuple, or raise NonMonotoneOracle with the same
``(winner, losing_superset)`` pair.
"""

import random
from typing import Callable

import pytest

from helpers import random_antichain_game
from simplegames import (
    MAX_PLAYERS,
    Coalition,
    WeightedGame,
    derive_maximal_losing,
    is_winning,
    weighted_is_winning,
)
from simplegames.errors import CapExceeded, NonMonotoneOracle

# -------------------------------------------------------------------- oracle


def _derive_maximal_losing(
    n: int, winning_oracle: Callable[[Coalition], bool]
) -> tuple[Coalition, ...]:
    """Enumerate the maximal losing coalitions of a monotone win/lose oracle.

    The oracle is evaluated on all 2**n coalitions and checked for
    monotonicity along the way.  Returns the losing coalitions whose every
    one-player extension wins, in ascending mask order; the result is empty
    exactly when the oracle accepts everything (such an oracle describes no
    valid game, and :func:`validate_game` rejects the empty family).

    Raises:
        CapExceeded: n exceeds MAX_PLAYERS.
        NonMonotoneOracle: some winning coalition has a losing superset.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"player count must be a positive int, got {n}")
    if n > MAX_PLAYERS:
        raise CapExceeded(f"exhaustive scan needs n <= {MAX_PLAYERS}, got {n}")
    size = 1 << n
    wins = [winning_oracle(Coalition(m)) for m in range(size)]
    maximal: list[Coalition] = []
    for m in range(size):
        extensions = [m | (1 << i) for i in range(n) if not m >> i & 1]
        if wins[m]:
            for e in extensions:
                if not wins[e]:
                    raise NonMonotoneOracle(Coalition(m), Coalition(e))
        elif all(wins[e] for e in extensions):
            maximal.append(Coalition(m))
    return tuple(maximal)


# ------------------------------------------------------------------- helpers

SIZES = range(1, 11)


def outcome(derive, n, win):
    """What derive makes of the oracle, and the coalitions it asked about."""
    asked = []

    def oracle(s):
        asked.append(s)
        return win(s)

    try:
        result = derive(n, oracle)
    except NonMonotoneOracle as exc:
        result = ("non-monotone", exc.winner, exc.losing_superset, str(exc))
    return result, asked


def assert_agrees(n, win):
    expected = outcome(_derive_maximal_losing, n, win)
    assert outcome(derive_maximal_losing, n, win) == expected
    return expected[0]


def random_weighted_game(n, rng):
    """Weights in 0..3, so some players are dummies; any quota up to the total + 1."""
    weights = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
    return WeightedGame(rng.randint(0, sum(weights) + 1), weights)


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("n", SIZES)
def test_random_antichain_games_agree(n):
    rng = random.Random(300 + n)
    for _ in range(12):
        game = random_antichain_game(n, rng)
        result = assert_agrees(n, lambda s: is_winning(game, s))
        assert result == game.maximal_losing


@pytest.mark.parametrize("n", SIZES)
def test_weighted_games_with_zero_weights_agree(n):
    rng = random.Random(400 + n)
    for _ in range(12):
        wg = random_weighted_game(n, rng)
        result = assert_agrees(n, lambda s: weighted_is_winning(wg, s))
        assert "non-monotone" not in result


@pytest.mark.parametrize("n", SIZES)
def test_random_truth_tables_agree(n):
    rng = random.Random(500 + n)
    for _ in range(12):
        p = rng.random()
        table = [rng.random() < p for _ in range(1 << n)]
        assert_agrees(n, lambda s: table[s.mask])


@pytest.mark.parametrize("n", SIZES[1:])
def test_monotone_tables_with_a_few_flips_agree(n):
    # A game's table with one to three answers flipped: the violations sit
    # anywhere in the cube, not mostly near the empty coalition.
    rng = random.Random(600 + n)
    seen_non_monotone = 0
    for _ in range(12):
        game = random_antichain_game(n, rng)
        table = [is_winning(game, Coalition(m)) for m in range(1 << n)]
        for m in rng.sample(range(1 << n), min(1 << n, rng.randint(1, 3))):
            table[m] = not table[m]
        result = assert_agrees(n, lambda s: table[s.mask])
        seen_non_monotone += result[0] == "non-monotone"
    assert seen_non_monotone > 0


@pytest.mark.parametrize(
    "answer",
    [
        lambda win, s: s.mask + 1 if win else 0,
        lambda win, s: [s] if win else [],
        lambda win, s: "wins" if win else "",
        lambda win, s: object() if win else None,
    ],
    ids=["int", "list", "str", "object"],
)
@pytest.mark.parametrize("n", [1, 4, 7, 10])
def test_truthy_answers_agree(answer, n):
    rng = random.Random(700 + n)
    game = random_antichain_game(n, rng)
    table = [is_winning(game, Coalition(m)) for m in range(1 << n)]
    assert assert_agrees(n, lambda s: answer(table[s.mask], s)) == game.maximal_losing
    table[rng.randrange(1 << n)] ^= True
    assert_agrees(n, lambda s: answer(table[s.mask], s))


@pytest.mark.parametrize("n", range(12, 17))
def test_late_witnesses_agree(n):
    # Violations near the grand coalition: the first (winner, extension)
    # pair lies far into the cube, past half of it when only the grand
    # coalition loses.
    full = (1 << n) - 1
    flipped = full ^ 1 << (n // 2)  # a majority winner that loses
    assert assert_agrees(n, lambda s: s.mask != full)[0] == "non-monotone"
    assert assert_agrees(n, lambda s: len(s) > n // 2 and s.mask != flipped)[0] == "non-monotone"
