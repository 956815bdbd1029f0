"""Differential tests: the verify truth tables against the plain numpy builders.

The oracles below are the original implementations, one fancy-indexed
zeta pass per player and one full 2**n sum array per weighted part.  The
kernels in ``simplegames.verify`` must reproduce them bit for bit.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplegames import verify
from simplegames.core import (
    MAX_WEIGHT,
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
)


# -------------------------------------------------------------------- oracles


def oracle_simple_game_table(game: SimpleGame) -> np.ndarray:
    """Winning truth table over all 2**n coalitions, indexed by mask."""
    size = 1 << game.n
    losing = np.zeros(size, dtype=bool)
    losing[[t.mask for t in game.maximal_losing]] = True
    idx = np.arange(size)
    for i in range(game.n):
        bit = 1 << i
        below = idx[(idx & bit) == 0]
        # after all passes: losing[m] iff m is a submask of a marked mask
        losing[below] |= losing[below | bit]
    return ~losing


def oracle_weighted_game_table(wg: WeightedGame) -> np.ndarray:
    """Winning truth table of a weighted game, indexed by mask."""
    sums = np.zeros(1, dtype=np.int64)
    for w in wg.weights:
        sums = np.concatenate([sums, sums + w])
    return sums >= wg.quota


def oracle_decomposition_table(dec: Decomposition) -> np.ndarray:
    table = np.ones(1 << dec.n, dtype=bool)
    for part in dec.parts:
        table &= oracle_weighted_game_table(part)
    return table


# ----------------------------------------------------------------- strategies


def chunk_parts(n: int) -> int:
    """Parts per chunk of the threshold kernel at n players."""
    return max(1, verify.CHUNK_CELLS >> (n + 1) // 2)


# Mostly small values, so that quotas land inside the range of the sums,
# plus zeros and values up to the bound the file loader accepts.
values = st.one_of(st.integers(0, 4), st.just(0), st.integers(0, MAX_WEIGHT))


@st.composite
def parts_of(draw, n: int, count: int) -> tuple[WeightedGame, ...]:
    weights = st.lists(values, min_size=n, max_size=n).map(tuple)
    return tuple(WeightedGame(draw(values), draw(weights)) for _ in range(count))


@st.composite
def families(draw) -> SimpleGame:
    """Any family of masks, antichain or not; the table only needs subsets."""
    n = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return SimpleGame(n, tuple(Coalition(m) for m in masks))


# ---------------------------------------------------------------- differences


@settings(max_examples=80, deadline=None)
@given(families())
def test_simple_game_table_matches_oracle(game):
    assert np.array_equal(
        verify.simple_game_table(game), oracle_simple_game_table(game)
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: parts_of(n, 1)))
def test_weighted_game_table_matches_oracle(parts):
    (wg,) = parts
    assert np.array_equal(
        verify.weighted_game_table(wg), oracle_weighted_game_table(wg)
    )


@st.composite
def chunked_decompositions(draw):
    """A decomposition and a chunk size, with part counts around the chunk.

    The chunk is shrunk to 1..3 parts so that every boundary case stays
    cheap for the oracle.
    """
    n = draw(st.integers(1, 12))
    per_chunk = draw(st.integers(1, 3))
    count = draw(
        st.sampled_from([per_chunk - 1, per_chunk, per_chunk + 1, 3 * per_chunk + 1])
    )
    parts = draw(parts_of(n, max(1, count)))
    return per_chunk << (n + 1) // 2, Decomposition(n, parts)


@settings(max_examples=120, deadline=None)
@given(chunked_decompositions())
def test_decomposition_table_matches_oracle_across_chunks(case):
    cells, dec = case
    with mock.patch.object(verify, "CHUNK_CELLS", cells):
        got = verify.decomposition_table(dec)
    assert np.array_equal(got, oracle_decomposition_table(dec))


def random_parts(n: int, count: int, rng: random.Random) -> tuple[WeightedGame, ...]:
    """Parts that each reject the light subsets of their own random coalition.

    Every part removes a different region of the cube, so a part dropped or
    misread in any chunk changes the intersection.
    """
    parts = []
    for _ in range(count):
        inside = rng.getrandbits(n)
        weights = tuple(0 if inside >> i & 1 else rng.randint(1, 3) for i in range(n))
        parts.append(WeightedGame(rng.randint(0, 3), weights))
    return tuple(parts)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_decomposition_table_at_the_real_chunk_size(offset):
    # Quota-0 parts win everywhere; the real parts sit on both sides of the
    # chunk boundary and at the end, so each one shows in the table.
    n = 12
    per_chunk = chunk_parts(n)
    count = per_chunk + offset
    rng = random.Random(1200 + offset)
    parts = [WeightedGame(0, (1,) * n)] * count
    for i in {0, per_chunk - 1, per_chunk, count - 1} & set(range(count)):
        (parts[i],) = random_parts(n, 1, rng)
    dec = Decomposition(n, tuple(parts))
    assert np.array_equal(
        verify.decomposition_table(dec), oracle_decomposition_table(dec)
    )


@pytest.mark.parametrize("n", [17, 19])
def test_wide_tables_match_oracle(n):
    rng = random.Random(1700 + n)
    family = {sum(1 << i for i in rng.sample(range(n), n // 2)) for _ in range(40)}
    game = SimpleGame(n, tuple(Coalition(m) for m in sorted(family)))
    assert np.array_equal(
        verify.simple_game_table(game), oracle_simple_game_table(game)
    )
    dec = Decomposition(n, random_parts(n, 40, rng))
    assert np.array_equal(
        verify.decomposition_table(dec), oracle_decomposition_table(dec)
    )
