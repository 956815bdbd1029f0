import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import four_player_example, random_antichain_game, seven_player_example
from simplegames import (
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
    derive_maximal_losing,
    full_coalition,
    hamming_distance,
    is_winning,
    validate_game,
    weighted_is_winning,
)
from simplegames.core import MAX_WEIGHT
from simplegames.errors import (
    AntichainViolation,
    CapExceeded,
    EmptyFamily,
    FullCoalitionLosing,
    NonMonotoneOracle,
    PlayerOutOfRange,
)

coalitions = st.builds(Coalition, st.integers(min_value=0, max_value=(1 << 16) - 1))


# ---------------------------------------------------------------- Coalition


def test_coalition_players_round_trip():
    c = Coalition.of(1, 3, 7)
    assert c.mask == 0b1000101
    assert c.players == (1, 3, 7)
    assert len(c) == 3
    assert 3 in c and 2 not in c
    assert Coalition.from_players(c.players) == c


def test_coalition_is_slotted_and_frozen():
    # Slots keep the per-coalition memory down: a family of hundreds of
    # thousands of coalitions, or the centers of a full-cube code once read.
    c = Coalition.of(1, 3)
    assert not hasattr(c, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.mask = 1
    assert c == Coalition(0b101) and hash(c) == hash(Coalition(0b101))
    assert c != Coalition.of(1)
    assert sorted([Coalition(6), c, Coalition(0)]) == [Coalition(0), c, Coalition(6)]
    assert Coalition.of(1) < Coalition.of(2) < Coalition.of(1, 2)


def test_coalition_rejects_bad_players():
    with pytest.raises(PlayerOutOfRange):
        Coalition.of(0)
    with pytest.raises(PlayerOutOfRange):
        Coalition.of(-2)
    with pytest.raises(ValueError):
        Coalition(-1)


@pytest.mark.parametrize("value", [1.5, True, "3", None], ids=repr)
def test_coalition_accepts_only_integers(value):
    # A float mask would only fail later, in str() or validate_game.
    with pytest.raises(ValueError):
        Coalition(value)
    with pytest.raises(PlayerOutOfRange):
        Coalition.from_players([value])
    with pytest.raises(PlayerOutOfRange):
        Coalition.of(2, value)


@pytest.mark.parametrize("n", [3.0, True, "3"], ids=repr)
def test_player_counts_must_be_integers(n):
    with pytest.raises(ValueError):
        validate_game(n, [Coalition.of(1)])
    with pytest.raises(ValueError):
        derive_maximal_losing(n, lambda s: len(s) >= 1)


def test_coalition_set_operations():
    a = Coalition.of(1, 2, 3)
    b = Coalition.of(2, 4)
    assert (a | b) == Coalition.of(1, 2, 3, 4)
    assert (a & b) == Coalition.of(2)
    assert (a - b) == Coalition.of(1, 3)
    assert Coalition.of(2).issubset(a)
    assert not a.issubset(b)


def test_coalition_ordering_is_by_mask():
    cs = [Coalition.of(4), Coalition.of(1, 2, 3), Coalition.of(1)]
    assert sorted(cs) == [Coalition.of(1), Coalition.of(1, 2, 3), Coalition.of(4)]


def test_full_coalition():
    assert full_coalition(4) == Coalition.of(1, 2, 3, 4)


# ------------------------------------------------------------- validate_game


def test_validate_accepts_seven_player_example():
    game = seven_player_example()
    assert game.n == 7
    assert game.maximal_losing == (Coalition.of(1, 2, 3), Coalition.of(3, 4, 5, 6))


def test_validate_accepts_four_player_example():
    game = four_player_example()
    assert len(game.maximal_losing) == 4


def test_validate_rejects_nested_coalitions():
    with pytest.raises(AntichainViolation) as exc:
        validate_game(3, [Coalition.of(1), Coalition.of(1, 2)])
    assert exc.value.inner == Coalition.of(1)
    assert exc.value.outer == Coalition.of(1, 2)


def test_validate_rejects_grand_coalition():
    with pytest.raises(FullCoalitionLosing):
        validate_game(3, [Coalition.of(1, 2, 3)])


def test_validate_rejects_empty_family():
    with pytest.raises(EmptyFamily):
        validate_game(3, [])


def test_validate_rejects_out_of_range_player():
    with pytest.raises(PlayerOutOfRange):
        validate_game(3, [Coalition.of(4)])


def test_validate_deduplicates():
    game = validate_game(3, [Coalition.of(1), Coalition.of(1), Coalition.of(2)])
    assert game.maximal_losing == (Coalition.of(1), Coalition.of(2))


def test_validate_returns_the_given_coalitions():
    # Coalition is frozen, so the game holds the caller's objects, not copies.
    given = [Coalition.of(3), Coalition.of(1, 2)]
    game = validate_game(3, given)
    assert game.maximal_losing[0] is given[1]
    assert game.maximal_losing[1] is given[0]
    twice = validate_game(3, [Coalition.of(1), *given[:1], Coalition.of(1)])
    assert len(twice.maximal_losing) == 2
    assert twice.maximal_losing[1] is given[0]


def test_simple_game_fields_are_its_player_count_and_family():
    fields = [(f.name, f.type) for f in dataclasses.fields(SimpleGame)]
    assert fields == [("n", "int"), ("maximal_losing", "tuple[Coalition, ...]")]


@pytest.mark.parametrize(
    "n, family",
    [(3, [Coalition.of(1, 2)]), (7, [Coalition.of(1, 2, 3), Coalition.of(3, 4, 5, 6)])],
)
def test_validated_game_converts_like_one_built_directly(n, family):
    # The losing set validate_game builds is a cache, not data of the game.
    checked = validate_game(n, family)
    direct = SimpleGame(n, tuple(family))
    assert dataclasses.asdict(checked) == dataclasses.asdict(direct)
    assert dataclasses.astuple(checked) == dataclasses.astuple(direct)
    assert dataclasses.astuple(checked) == (n, tuple((c.mask,) for c in family))


def test_validate_accepts_empty_coalition_as_member():
    game = validate_game(2, [Coalition.of()])
    assert not is_winning(game, Coalition.of())
    assert is_winning(game, Coalition.of(1))


# ------------------------------------------------------------ win predicates


def test_is_winning_on_seven_player_example():
    game = seven_player_example()
    assert not is_winning(game, Coalition.of(1, 2))
    assert is_winning(game, Coalition.of(1, 4))
    assert is_winning(game, full_coalition(7))
    assert not is_winning(game, Coalition.of())


def test_weighted_is_winning():
    wg = WeightedGame(2, (1, 1, 2, 0))
    assert weighted_is_winning(wg, Coalition.of(3))
    assert not weighted_is_winning(wg, Coalition.of(1))
    assert not weighted_is_winning(wg, Coalition.of())
    assert weighted_is_winning(wg, Coalition.of(1, 2))


def test_predicates_reject_oversized_coalitions():
    game = seven_player_example()
    with pytest.raises(PlayerOutOfRange):
        is_winning(game, Coalition.of(8))
    with pytest.raises(PlayerOutOfRange):
        weighted_is_winning(WeightedGame(1, (1, 1)), Coalition.of(3))


def test_weighted_game_str():
    assert str(WeightedGame(2, (1, 1, 2, 0))) == "[2;1,1,2,0]"


@pytest.mark.parametrize("n", [25, 30, True, 2.0], ids=repr)
def test_decomposition_player_counts_are_ints_within_the_cap(n):
    # Each part has int(n) players, so only the count itself is wrong.
    with pytest.raises(ValueError):
        Decomposition(n, (WeightedGame(1, (1,) * int(n)),))


def test_weighted_game_rejects_negative_values():
    with pytest.raises(ValueError):
        WeightedGame(-1, (1, 1))
    with pytest.raises(ValueError):
        WeightedGame(1, (1, -1))


@pytest.mark.parametrize(
    "value",
    [1.5, True, 2**70, MAX_WEIGHT + 1, "a"],
    ids=["float", "bool", "beyond-int64", "above-bound", "string"],
)
def test_weighted_game_accepts_only_integers_up_to_the_bound(value):
    # Only ints up to the loader's bound: no bools, floats or larger values.
    with pytest.raises(ValueError):
        WeightedGame(value, (1, 1))
    with pytest.raises(ValueError):
        WeightedGame(2, (value, 1))
    assert WeightedGame(MAX_WEIGHT, (MAX_WEIGHT, 0)).quota == MAX_WEIGHT


# ---------------------------------------------------------- hamming_distance


def test_hamming_distance_examples():
    assert hamming_distance(Coalition.of(2, 4), Coalition.of(4)) == 1
    assert hamming_distance(Coalition.of(1, 2), Coalition.of(1, 2)) == 0
    assert hamming_distance(Coalition.of(1, 2, 3, 4), Coalition.of(2, 3, 5)) == 3


@given(coalitions, coalitions, coalitions)
def test_hamming_distance_is_a_metric(x, y, z):
    assert hamming_distance(x, y) == hamming_distance(y, x)
    assert (hamming_distance(x, y) == 0) == (x == y)
    assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


# ----------------------------------------------------- derive_maximal_losing


def test_derive_round_trips_seven_player_example():
    game = seven_player_example()
    derived = derive_maximal_losing(7, lambda s: is_winning(game, s))
    assert derived == game.maximal_losing


def test_derive_on_anything_nonempty_wins():
    derived = derive_maximal_losing(3, lambda s: len(s) >= 1)
    assert derived == (Coalition.of(),)
    # The resulting family is itself a valid game description.
    validate_game(3, derived)


def test_derive_on_weighted_game():
    wg = WeightedGame(2, (1, 1, 2, 0))
    derived = derive_maximal_losing(4, lambda s: weighted_is_winning(wg, s))
    assert derived == (Coalition.of(1, 4), Coalition.of(2, 4))


def test_derive_when_everything_wins():
    derived = derive_maximal_losing(3, lambda s: True)
    assert derived == ()
    with pytest.raises(EmptyFamily):
        validate_game(3, derived)


def test_derive_rejects_non_monotone_oracle():
    with pytest.raises(NonMonotoneOracle):
        derive_maximal_losing(3, lambda s: len(s) == 1)


def test_derive_rejects_oversized_n():
    with pytest.raises(CapExceeded):
        derive_maximal_losing(25, lambda s: True)


# ------------------------------------------------------ game-wide properties


@pytest.mark.parametrize("n", [4, 6, 9, 12])
def test_monotonicity_exhaustive_on_random_games(n):
    rng = random.Random(100 + n)
    for _ in range(15):
        game = random_antichain_game(n, rng)
        wins = [is_winning(game, Coalition(m)) for m in range(1 << n)]
        assert wins[-1] and not wins[0]
        for m in range(1 << n):
            for i in range(n):
                if not m >> i & 1:
                    # adding one player never turns a winner into a loser
                    assert not (wins[m] and not wins[m | 1 << i])


@pytest.mark.parametrize("n", [4, 6, 9, 12])
def test_derive_round_trips_random_games(n):
    rng = random.Random(200 + n)
    for _ in range(15):
        game = random_antichain_game(n, rng)
        derived = derive_maximal_losing(n, lambda s: is_winning(game, s))
        assert derived == game.maximal_losing


@given(
    st.integers(min_value=0, max_value=20),
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=8),
    st.data(),
)
def test_weighted_games_are_monotone(quota, weights, data):
    wg = WeightedGame(quota, tuple(weights))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << wg.n) - 1))
    s = Coalition(mask)
    for i in range(wg.n):
        if not mask >> i & 1:
            bigger = Coalition(mask | 1 << i)
            assert weighted_is_winning(wg, bigger) or not weighted_is_winning(wg, s)
