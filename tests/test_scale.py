"""Golden run at the size the tool is built for: the middle layer C(16, 8).

The 12 870 coalitions of 8 out of 16 players pass the antichain check, the
greedy cover needs 1 430 centers (the count of the first, full-rescan
greedy), and the covering decomposition has one part per center and is
equivalent to the game on all 2**16 coalitions.
"""

from itertools import combinations

from simplegames import (
    Coalition,
    decompose_covering,
    greedy_cover,
    validate_game,
    verify_decomposition,
)


def test_middle_layer_16_golden():
    family = [Coalition(sum(1 << i for i in c)) for c in combinations(range(16), 8)]
    game = validate_game(16, family)
    assert len(game.maximal_losing) == 12_870
    code = greedy_cover(16, game.maximal_losing)
    assert len(code) == 1_430
    dec = decompose_covering(game, code)
    assert len(dec.parts) == 1_430
    report = verify_decomposition(game, dec)
    assert report.equivalent
    assert report.coalitions_checked == 1 << 16
