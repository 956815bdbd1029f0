"""Differential tests: the verify truth tables against the plain numpy builders.

The oracles below are earlier implementations: one fancy-indexed zeta pass
per player and one full 2**n sum array per weighted part, and the chunked
meet-in-the-middle tables that verify used before its losing sets became
2**n-bit integers.  The tables of ``simplegames.verify`` and the part
kernels of ``simplegames._losing`` under them must reproduce them bit for bit, and ``verify_decomposition`` must report the same
smallest mismatch.  Past 8 * n parts verify closes the parts' maximal
losing masks instead; the per-part memo kernel is the oracle there.
That closure's holder masks must equal the byte patterns they replaced,
and the closure itself every submask of the masks, counted one by one.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplegames import _losing, _masks, verify
from simplegames.core import (
    MAX_PLAYERS,
    MAX_WEIGHT,
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
)
from simplegames.errors import CapExceeded


# ------------------------------------------- the part kernels on WeightedGame


def part_losing(part: WeightedGame) -> int:
    return _losing._part_losing(part.quota, part.weights)


def maximal_losing(part: WeightedGame, budget: int) -> list[int] | None:
    return _losing._maximal_losing(part.quota, part.weights, budget)


def parts_losing(n: int, parts: tuple[WeightedGame, ...]) -> int:
    return _losing._parts_losing(n, [(p.quota, p.weights) for p in parts])


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


# Half-sum cells (parts times 2**ceil(n/2)) the threshold tables hold at once;
# larger chunks save little time and raise peak memory.
CHUNK_CELLS = 1 << 14


def numpy_simple_game_table(game: SimpleGame) -> np.ndarray:
    """Winning truth table over all 2**n coalitions, indexed by mask."""
    if game.n > MAX_PLAYERS:
        raise CapExceeded(f"truth tables need n <= {MAX_PLAYERS}, got {game.n}")
    losing = np.zeros(1 << game.n, dtype=bool)
    losing[[t.mask for t in game.maximal_losing]] = True
    for i in range(game.n):
        # pairs[:, 0] holds the masks without player i + 1, pairs[:, 1] the
        # same masks with it; after all passes losing[m] iff m is a submask
        # of a marked mask
        pairs = losing.reshape(-1, 2, 1 << i)
        pairs[:, 0] |= pairs[:, 1]
    return ~losing


def numpy_subset_sums(weights: np.ndarray) -> np.ndarray:
    """Row r, column m: the sum of weights[r, i] over the bits i of m."""
    rows, count = weights.shape
    sums = np.zeros((rows, 1 << count), dtype=np.int64)
    for i in range(count):
        bit = 1 << i
        np.add(sums[:, :bit], weights[:, i : i + 1], out=sums[:, bit : 2 * bit])
    return sums


def numpy_threshold_table(n: int, parts: tuple[WeightedGame, ...]) -> np.ndarray:
    """Truth table of the intersection of weighted games, indexed by mask.

    Meet in the middle: a mask is a column (its low h bits) and a row (the
    rest), and it wins a part iff lo[column] >= quota - hi[row], with lo and
    hi the subset sums of the part's low and high weights.  Each row of the
    table is then one vectorised comparison per chunk of parts, for
    parts * 2**n comparisons in all and about 2**n bytes of table plus
    a few arrays of at most CHUNK_CELLS cells.
    """
    if n > MAX_PLAYERS:
        raise CapExceeded(f"truth tables need n <= {MAX_PLAYERS}, got {n}")
    h = (n + 1) // 2
    table = np.ones((1 << (n - h), 1 << h), dtype=bool)
    step = max(1, CHUNK_CELLS >> h)
    for start in range(0, len(parts), step):
        chunk = parts[start : start + step]
        weights = np.array([p.weights for p in chunk], dtype=np.int64)
        quotas = np.array([[p.quota] for p in chunk], dtype=np.int64)
        lo = numpy_subset_sums(weights[:, :h])
        need = quotas - numpy_subset_sums(weights[:, h:])
        for r, row in enumerate(table):
            row &= (lo >= need[:, r : r + 1]).all(axis=0)
    return table.reshape(-1)


def game_of(n: int, table: np.ndarray) -> SimpleGame:
    """The family of maximal losing masks of a monotone winning table."""
    losing = ~table
    maximal = losing.copy()
    idx = np.arange(1 << n)
    for i in range(n):
        without = idx[(idx >> i & 1) == 0]
        maximal[without] &= ~losing[without | 1 << i]
    return SimpleGame(n, tuple(Coalition(int(m)) for m in np.nonzero(maximal)[0]))


def first_mismatch(game_table: np.ndarray, dec_table: np.ndarray):
    mismatches = np.nonzero(game_table != dec_table)[0]
    return Coalition(int(mismatches[0])) if mismatches.size else None


# ----------------------------------------------------------------- strategies


# Mostly small values, so that quotas land inside the range of the sums,
# plus zeros and values up to the bound the file loader accepts.
values = st.one_of(st.integers(0, 4), st.just(0), st.integers(0, MAX_WEIGHT))


@st.composite
def parts_of(draw, n: int, count: int) -> tuple[WeightedGame, ...]:
    weights = st.lists(values, min_size=n, max_size=n).map(tuple)
    return tuple(WeightedGame(draw(values), draw(weights)) for _ in range(count))


@st.composite
def heavy_parts_of(draw, n: int, count: int) -> tuple[WeightedGame, ...]:
    """Parts whose player i weighs at least 2**i on the low half of the players.

    Those are the levels where the kernel moves a quota up to the next
    subset sum.  Each quota is the weight of a random coalition, give or
    take one, so that it often equals a subset sum on the way down.
    """
    parts = []
    for _ in range(count):
        weights = tuple(
            draw(st.integers(1 << i, (1 << i) + 3) | st.integers(1 << i, MAX_WEIGHT >> 6))
            if 2 * i <= n
            else draw(values)
            for i in range(1, n + 1)
        )
        mask = draw(st.integers(0, (1 << n) - 1))
        quota = sum(w for i, w in enumerate(weights) if mask >> i & 1)
        quota += draw(st.sampled_from([-1, 0, 0, 1]))
        parts.append(WeightedGame(min(max(quota, 0), MAX_WEIGHT), weights))
    return tuple(parts)


@st.composite
def families(draw) -> SimpleGame:
    """Any family of masks, antichain or not; the table only needs subsets."""
    n = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return SimpleGame(n, tuple(Coalition(m) for m in masks))


@st.composite
def games_and_decompositions(draw) -> tuple[SimpleGame, Decomposition]:
    """A decomposition, and either its own game or a family of any masks."""
    n = draw(st.integers(1, 12))
    count = draw(st.integers(1, 4))
    parts = draw(heavy_parts_of(n, count) | parts_of(n, count))
    dec = Decomposition(n, parts)
    if draw(st.booleans()):
        return game_of(n, oracle_decomposition_table(dec)), dec
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return SimpleGame(n, tuple(Coalition(m) for m in masks)), dec


# ---------------------------------------------------------------- differences


@settings(max_examples=80, deadline=None)
@given(families())
def test_simple_game_table_matches_oracle(game):
    table = verify.simple_game_table(game)
    assert table.dtype == bool and table.shape == (1 << game.n,)
    assert np.array_equal(table, oracle_simple_game_table(game))
    assert np.array_equal(table, numpy_simple_game_table(game))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: parts_of(n, 1) | heavy_parts_of(n, 1)))
def test_weighted_game_table_matches_oracle(parts):
    (wg,) = parts
    table = verify.weighted_game_table(wg)
    assert table.dtype == bool and table.shape == (1 << wg.n,)
    assert np.array_equal(table, oracle_weighted_game_table(wg))
    closed = _masks._subsets(wg.n, maximal_losing(wg, 1 << 62))[0]
    assert closed == part_losing(wg)


@settings(max_examples=150, deadline=None)
@given(games_and_decompositions())
def test_decomposition_table_and_report_match_oracles(case):
    game, dec = case
    expected = numpy_threshold_table(dec.n, dec.parts)
    assert np.array_equal(expected, oracle_decomposition_table(dec))
    assert np.array_equal(verify.decomposition_table(dec), expected)
    report = verify.verify_decomposition(game, dec)
    mismatch = first_mismatch(numpy_simple_game_table(game), expected)
    assert report.first_mismatch == mismatch
    assert report.equivalent == (mismatch is None)
    assert report.coalitions_checked == 1 << dec.n


# --------------------------------------------------------------------- edges


def small_parts(n: int):
    """Every part on n players with weights 0..2 and every quota up to total + 1."""
    weights = [()]
    for _ in range(n):
        weights = [w + (v,) for w in weights for v in range(3)]
    return [WeightedGame(q, w) for w in weights for q in range(sum(w) + 2)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tables_shorter_than_a_byte(n):
    # 2**n bits fit in one byte: the tables must hold exactly 2**n cells.
    for family in range(1 << (1 << n)):
        masks = [m for m in range(1 << n) if family >> m & 1]
        game = SimpleGame(n, tuple(Coalition(m) for m in masks))
        table = verify.simple_game_table(game)
        assert table.shape == (1 << n,)
        assert np.array_equal(table, oracle_simple_game_table(game))
    for part in small_parts(n):
        table = verify.weighted_game_table(part)
        assert table.shape == (1 << n,)
        assert np.array_equal(table, oracle_weighted_game_table(part))
        dec = Decomposition(n, (part,))
        game = game_of(n, table)
        assert verify.verify_decomposition(game, dec).equivalent


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
def test_quota_zero_above_the_total_and_zero_weights(n):
    rng = random.Random(500 + n)
    weights = tuple(rng.choice([0, 1, 5, MAX_WEIGHT >> 5]) for _ in range(n))
    total = sum(weights)
    everything = np.ones(1 << n, dtype=bool)
    cases = [
        (WeightedGame(0, weights), everything),
        (WeightedGame(0, (0,) * n), everything),
        (WeightedGame(total + 1, weights), ~everything),
        (WeightedGame(1, (0,) * n), ~everything),
        (WeightedGame(total, weights), oracle_weighted_game_table(WeightedGame(total, weights))),
    ]
    for part, expected in cases:
        assert np.array_equal(verify.weighted_game_table(part), expected), part
    # The game loses only on the empty coalition and the part everywhere, so
    # the smallest mismatch is {1}.
    game = SimpleGame(n, (Coalition(0),))
    report = verify.verify_decomposition(game, Decomposition(n, (WeightedGame(total + 1, weights),)))
    assert report.first_mismatch == Coalition(1)


@pytest.mark.parametrize("n", [6, 8])
def test_every_quota_at_the_last_snapped_level(n):
    # Players 1..n/2 weigh at least 2**i and sum to at least 2**(n/2), so the
    # kernel moves quotas to subset sums down to level i = n/2 (2i = n) and
    # no further.  Two subsets of the low players share the sum 16.
    low = (3, 4, 9, 16, 33)[: n // 2]
    high = tuple(random.Random(n).randint(0, 6) for _ in range(n - n // 2))
    weights = low + high
    for quota in range(sum(weights) + 2):
        part = WeightedGame(quota, weights)
        table = verify.weighted_game_table(part)
        assert np.array_equal(table, oracle_weighted_game_table(part)), quota
        dec = Decomposition(n, (part,))
        assert verify.verify_decomposition(game_of(n, table), dec).equivalent


def random_parts(n: int, count: int, rng: random.Random) -> tuple[WeightedGame, ...]:
    """Parts that each reject the light subsets of their own random coalition.

    Every part removes a different region of the cube, so a part dropped or
    misread changes the intersection.
    """
    parts = []
    for _ in range(count):
        inside = rng.getrandbits(n)
        weights = tuple(0 if inside >> i & 1 else rng.randint(1, 3) for i in range(n))
        parts.append(WeightedGame(rng.randint(0, 3), weights))
    return tuple(parts)


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


# ------------------------------------------------ maximal losing enumeration


def enumerated_cases():
    """Parts with zero weights, quotas 0, at, above and below the total, and wide weights."""
    rng = random.Random(1800)
    for n in range(1, 11):
        for shape in range(60):
            if shape % 3 == 0:
                weights = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n))
            elif shape % 3 == 1:
                weights = tuple(rng.randint(0, 1 << 20) for _ in range(n))
            else:
                weights = tuple(rng.randint(0, 10) for _ in range(n))
            total = sum(weights)
            for quota in {0, 1, total, total + 1, rng.randint(0, total + 2)}:
                yield WeightedGame(quota, weights)


@pytest.mark.parametrize("budget", [1, 3, 8, None])
def test_maximal_losing_masks_close_to_the_memo_kernel(budget):
    for part in enumerated_cases():
        n = part.n
        losing = part_losing(part)
        everything = maximal_losing(part, 1 << 62)
        found = maximal_losing(part, budget or 1 << 62)
        if found is None:
            # over budget is a refusal, never a shorter list
            assert budget is not None
            continue
        assert sorted(found) == sorted(everything), part
        assert len(set(found)) == len(found)
        for m in found:
            assert losing >> m & 1, (part, m)
            for i in range(n):
                if not m >> i & 1:
                    assert not losing >> (m | 1 << i) & 1, (part, m, i)
        assert _masks._subsets(n, found)[0] == losing, part


def test_maximal_losing_of_edge_quotas():
    weights = (0, 3, 5, 0, 9)
    assert maximal_losing(WeightedGame(0, weights), 1) == []
    # nothing reaches a quota above the total: the grand coalition loses
    assert maximal_losing(WeightedGame(18, weights), 1) == [0b11111]
    # the players of weight 0 in every one, player 5 (weight 9 >= 8) in none
    assert sorted(maximal_losing(WeightedGame(8, weights), 99)) == [0b01011, 0b01101]
    assert maximal_losing(WeightedGame(9, weights), 99) == [0b01111]
    # a taylor-zwicker part needs no search; two players of weight 1 under
    # quota 2 take four search nodes
    assert maximal_losing(WeightedGame(1, (0, 1, 0)), 0) == [0b101]
    assert sorted(maximal_losing(WeightedGame(2, (1, 1)), 4)) == [0b01, 0b10]
    assert maximal_losing(WeightedGame(2, (1, 1)), 3) is None


@pytest.fixture
def closure_calls(monkeypatch):
    """The player counts of the closures _parts_losing builds."""
    subsets = _losing._subsets
    calls = []

    def counted(n, masks):
        calls.append(n)
        return subsets(n, masks)

    monkeypatch.setattr(_losing, "_subsets", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_parts_losing_on_both_sides_of_the_crossover(n, closure_calls):
    rng = random.Random(1900 + n)
    weights = tuple(rng.randrange(1 << 40) for _ in range(n))
    majority = WeightedGame((n + 1) // 2, (1,) * n)
    parts = random_parts(n, 8 * n - 2, rng) + (
        WeightedGame(0, (1,) * n),
        WeightedGame(sum(weights) // 2, weights),
        majority,
    )
    for count in (8 * n, 8 * n + 1):
        chosen = parts[-count:]
        expected = 0
        for part in chosen:
            expected |= part_losing(part)
        assert parts_losing(n, chosen) == expected
    assert closure_calls == [n]
    # at n=12 the C(12, 5) maximal losing masks of the majority are over
    # budget, and its set comes from the memo kernel
    assert (maximal_losing(majority, 32 * n) is None) == (n == 12)
    many = (majority,) * (8 * n + 1)
    assert parts_losing(n, many) == part_losing(majority)


def dropped_copies(dec: Decomposition, rng: random.Random):
    """The decomposition minus each of a few seeded parts, then minus a seeded half."""
    for index in rng.sample(range(len(dec.parts)), 4):
        yield Decomposition(dec.n, dec.parts[:index] + dec.parts[index + 1 :])
    kept = sorted(rng.sample(range(len(dec.parts)), len(dec.parts) // 2))
    yield Decomposition(dec.n, tuple(dec.parts[i] for i in kept))


@pytest.mark.parametrize("n", [13, 14])
def test_many_part_dropped_copies_report_the_same_mismatch(n, closure_calls):
    from simplegames import decompose_covering, decompose_pairing, taylor_zwicker

    rng = random.Random(2000 + n)
    family = {sum(1 << i for i in rng.sample(range(n), n // 2)) for _ in range(500)}
    game = SimpleGame(n, tuple(Coalition(m) for m in sorted(family)))
    game_table = numpy_simple_game_table(game)
    for build in (taylor_zwicker, decompose_covering, decompose_pairing):
        dec = build(game)
        assert len(dec.parts) > 8 * n
        assert verify.verify_decomposition(game, dec).equivalent
        for copy in dropped_copies(dec, rng):
            expected = first_mismatch(game_table, numpy_threshold_table(n, copy.parts))
            assert expected is not None
            report = verify.verify_decomposition(game, copy)
            assert report.first_mismatch == expected
            assert not report.equivalent
    assert set(closure_calls) == {n}


# ------------------------------------------------- the 2**n-bit down-closure


def oracle_holders(n: int, i: int) -> int:
    """Bits of the masks that hold player i + 1, built from byte patterns.

    Below 8 masks (n < 3) the byte also sets bits above 2**n.
    """
    size = (1 << n) + 7 >> 3
    if i < 3:
        return int.from_bytes(bytes((0xAA, 0xCC, 0xF0)[i : i + 1]) * size, "little")
    run = 1 << i - 3
    return int.from_bytes((bytes(run) + b"\xff" * run) * (size // (2 * run)), "little")


@pytest.mark.parametrize("n", [*range(1, 17), 20, 24])
def test_holders_match_the_byte_patterns(n):
    # every player up to n=16; above, the three byte-pattern players and
    # the first and last of the runs
    players = range(n) if n <= 16 else {0, 1, 2, 3, n - 1}
    cube = (1 << (1 << n)) - 1
    masks = list(_masks._holders(n))
    assert [i for i, _ in masks] == list(range(n - 1, -1, -1))
    for i, bits in masks:
        assert bits <= cube, (n, i)
        if i in players:
            assert bits == oracle_holders(n, i) & cube, (n, i)


def oracle_subsets(masks: list[int]) -> tuple[int, int, int]:
    """Every submask of every mask, the members strictly inside another, the members."""
    closed = family = inside = 0
    for m in masks:
        family |= 1 << m
        sub = m
        while True:
            closed |= 1 << sub
            if not sub:
                break
            sub = sub - 1 & m
        if any(m & o == m != o for o in masks):
            inside |= 1 << m
    return closed, inside, family


@st.composite
def mask_lists(draw) -> tuple[int, list[int]]:
    """A player count and any masks: none, the empty mask, the full one, repeats."""
    n = draw(st.integers(1, 12))
    mask = st.integers(0, (1 << n) - 1) | st.sampled_from([0, (1 << n) - 1])
    masks = draw(st.lists(mask, max_size=30))
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=10))
    return n, masks


@settings(max_examples=150, deadline=None)
@given(mask_lists())
def test_subsets_match_the_brute_force_closure(case):
    n, masks = case
    assert _masks._subsets(n, masks) == oracle_subsets(masks)
