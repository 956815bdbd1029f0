import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import four_player_example, random_antichain_game, seven_player_example
from simplegames import (
    MAX_PLAYERS,
    Coalition,
    Decomposition,
    SimpleGame,
    TradeCertificate,
    WeightedGame,
    check_trade_certificate,
    decompose_covering,
    decompose_pairing,
    find_trade_certificate,
    is_winning,
    simple_game_table,
    taylor_zwicker,
    validate_game,
    verify_decomposition,
    weighted_game_table,
    weighted_is_winning,
)
from simplegames.errors import (
    CapExceeded,
    DimensionMismatch,
    PlayerOutOfRange,
    UnbalancedTrade,
)

WEIGHTED_2_1120 = WeightedGame(2, (1, 1, 2, 0))


# --------------------------------------------------------------- truth tables


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_simple_game_table_agrees_with_predicate(n):
    rng = random.Random(600 + n)
    for _ in range(10):
        game = random_antichain_game(n, rng)
        table = simple_game_table(game)
        for m in range(1 << n):
            assert table[m] == is_winning(game, Coalition(m))


@settings(max_examples=60)
@given(
    st.integers(0, 12),
    st.lists(st.integers(0, 6), min_size=1, max_size=8),
)
def test_weighted_game_table_agrees_with_predicate(quota, weights):
    wg = WeightedGame(quota, tuple(weights))
    table = weighted_game_table(wg)
    for m in range(1 << wg.n):
        assert table[m] == weighted_is_winning(wg, Coalition(m))


def test_simple_game_table_endpoints():
    game = seven_player_example()
    table = simple_game_table(game)
    assert not table[0] and table[(1 << 7) - 1]
    assert table.shape == (128,)


def test_tables_refuse_more_than_max_players_before_allocating():
    n = MAX_PLAYERS + 1
    # Built directly, so validate_game's own cap does not apply.
    with pytest.raises(CapExceeded):
        simple_game_table(SimpleGame(n, (Coalition(0),)))
    with pytest.raises(CapExceeded):
        weighted_game_table(WeightedGame(1, (1,) * n))


@pytest.mark.parametrize("n, mask", [(2, 0b101), (4, 1 << 9)])
def test_tables_refuse_coalitions_beyond_n(n, mask):
    # Built directly, so validate_game's range check does not apply.  A
    # mask below the next whole byte must not slip into the table either.
    game = SimpleGame(n, (Coalition(mask),))
    with pytest.raises(PlayerOutOfRange):
        simple_game_table(game)
    with pytest.raises(PlayerOutOfRange):
        verify_decomposition(game, Decomposition(n, (WeightedGame(0, (1,) * n),)))


# ------------------------------------------------------- verify_decomposition


def test_verify_four_player_covering_output():
    game = four_player_example()
    dec = Decomposition(4, (WEIGHTED_2_1120, WeightedGame(2, (1, 1, 0, 2))))
    report = verify_decomposition(game, dec)
    assert report.equivalent
    assert report.first_mismatch is None
    assert report.coalitions_checked == 16


def test_verify_seven_player_taylor_zwicker():
    game = seven_player_example()
    report = verify_decomposition(game, taylor_zwicker(game))
    assert report.equivalent
    assert report.coalitions_checked == 128


def test_verify_reports_smallest_mismatch():
    game = four_player_example()
    report = verify_decomposition(game, Decomposition(4, (WEIGHTED_2_1120,)))
    assert not report.equivalent
    # {3} wins the single part (weight 2) but loses the game.
    assert report.first_mismatch == Coalition.of(3)


def test_verify_judges_a_replaced_game_by_its_own_family():
    other = validate_game(4, [Coalition.of(1, 2), Coalition.of(3, 4)])
    game = replace(four_player_example(), maximal_losing=other.maximal_losing)
    assert game == other == SimpleGame(4, other.maximal_losing)
    assert repr(game) == repr(other) and hash(game) == hash(other)
    assert verify_decomposition(game, taylor_zwicker(other)).equivalent
    assert not verify_decomposition(game, taylor_zwicker(four_player_example())).equivalent


def test_verify_rejects_player_count_mismatch():
    game = four_player_example()
    with pytest.raises(DimensionMismatch):
        verify_decomposition(game, Decomposition(5, (WeightedGame(1, (1,) * 5),)))


@pytest.mark.parametrize("n", [4, 8, 12])
def test_verify_accepts_all_methods_on_random_games(n):
    rng = random.Random(700 + n)
    for _ in range(20):
        game = random_antichain_game(n, rng)
        assert verify_decomposition(game, taylor_zwicker(game)).equivalent
        assert verify_decomposition(game, decompose_covering(game)).equivalent
        assert verify_decomposition(game, decompose_pairing(game)).equivalent


# ---------------------------------------------------------- trade certificates


def example_certificate():
    return TradeCertificate(
        losing_pair=(Coalition.of(1, 2), Coalition.of(4, 5)),
        winning_pair=(Coalition.of(1, 4), Coalition.of(2, 5)),
    )


def test_check_certificate_on_seven_player_example():
    assert check_trade_certificate(seven_player_example(), example_certificate())


def test_check_certificate_accepts_predicate_oracle():
    game = seven_player_example()
    assert check_trade_certificate(lambda s: is_winning(game, s), example_certificate())


def test_check_certificate_rejects_unbalanced():
    cert = TradeCertificate(
        losing_pair=(Coalition.of(1, 2), Coalition.of(4, 5)),
        winning_pair=(Coalition.of(1, 4), Coalition.of(2, 6)),
    )
    with pytest.raises(UnbalancedTrade):
        check_trade_certificate(seven_player_example(), cert)


def test_no_certificate_validates_against_weighted_game():
    # Balanced trades preserve total weight, so one of the "winning"
    # coalitions always stays below the quota.
    rng = random.Random(42)
    n = 6
    for _ in range(200):
        wg = WeightedGame(rng.randint(1, 10), tuple(rng.randint(0, 4) for _ in range(n)))
        l1 = rng.randrange(1 << n)
        l2 = rng.randrange(1 << n)
        shared, diff = l1 & l2, l1 ^ l2
        sub = rng.randrange(1 << n) & diff
        cert = TradeCertificate(
            losing_pair=(Coalition(l1), Coalition(l2)),
            winning_pair=(Coalition(shared | sub), Coalition(shared | (diff ^ sub))),
        )
        assert not check_trade_certificate(wg, cert)


def test_find_certificate_on_seven_player_example():
    game = seven_player_example()
    cert = find_trade_certificate(game)
    assert cert is not None
    assert check_trade_certificate(game, cert)


def test_find_certificate_on_four_player_example():
    game = four_player_example()
    cert = find_trade_certificate(game)
    assert cert is not None
    assert check_trade_certificate(game, cert)
    # Deterministic search order makes the result a golden value.
    assert cert == TradeCertificate(
        losing_pair=(Coalition.of(1, 3), Coalition.of(2, 4)),
        winning_pair=(Coalition.of(1, 2), Coalition.of(3, 4)),
    )


def test_check_certificate_on_a_decomposition():
    game = four_player_example()
    cert = find_trade_certificate(game)
    dec = decompose_covering(game)
    assert check_trade_certificate(dec, cert)
    swapped = TradeCertificate(losing_pair=cert.winning_pair, winning_pair=cert.losing_pair)
    assert not check_trade_certificate(dec, swapped)


def test_find_certificate_absent_for_weighted_game():
    game = validate_game(4, [Coalition.of(1, 4), Coalition.of(2, 4)])
    assert verify_decomposition(game, Decomposition(4, (WEIGHTED_2_1120,))).equivalent
    assert find_trade_certificate(game) is None


def test_find_certificate_respects_cap():
    game = validate_game(11, [Coalition.of(1)])
    with pytest.raises(CapExceeded):
        find_trade_certificate(game)
    assert find_trade_certificate(game, cap=11) is None


@pytest.mark.parametrize("n", [4, 6])
def test_found_certificates_always_validate(n):
    rng = random.Random(800 + n)
    for _ in range(30):
        game = random_antichain_game(n, rng)
        cert = find_trade_certificate(game)
        if cert is not None:
            assert check_trade_certificate(game, cert)


def test_certificate_blocks_single_weighted_representations():
    # Spot check: random single weighted games never reproduce a game
    # holding a valid certificate.
    game = four_player_example()
    cert = find_trade_certificate(game)
    assert cert is not None
    rng = random.Random(9)
    for _ in range(100):
        wg = WeightedGame(rng.randint(1, 8), tuple(rng.randint(0, 4) for _ in range(4)))
        report = verify_decomposition(game, Decomposition(4, (wg,)))
        assert not report.equivalent
