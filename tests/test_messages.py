"""The exact text of the player-count, part and player-range errors.

Each entry point that takes a player count (or code length) is given 0, 25,
True and 1.5; the part constructors are given no players, no parts and a
part of the wrong size; each entry point that takes coalitions is given one
holding a player beyond n.  The message is compared byte for byte:
``str(exc)`` for library calls, the ``error:`` line on stderr for files
read by the command line.
"""

import json

import pytest

from simplegames import (
    Code,
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
    find_trade_certificate,
    full_cover,
    greedy_cover,
    is_winning,
    simple_game_table,
    validate_game,
    verify_decomposition,
    weighted_is_winning,
)
from simplegames.cli import EXIT_INPUT, main
from simplegames.errors import CapExceeded, PlayerOutOfRange

BAD_COUNTS = [0, 25, True, 1.5]

# ------------------------------------------------------------- player counts

COUNT_ENTRY_POINTS = {
    "validate_game": (lambda n: validate_game(n, [Coalition.of(1)]), "player count"),
    "Decomposition": (
        lambda n: Decomposition(n, (WeightedGame(1, (1,)),)),
        "player count",
    ),
    "full_cover": (full_cover, "length"),
    "greedy_cover": (lambda n: greedy_cover(n, [Coalition.of(1)]), "length"),
    "Code": (lambda n: Code(n, [Coalition.of(1)]), "length"),
}


@pytest.mark.parametrize("n", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_library_player_count_messages(entry, n):
    call, what = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(n)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{what} must be in 1..24, got {n}"


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def cli_files(tmp_path, n, bad):
    """A valid game, code and decomposition on two players, one with count n."""
    game = {"n": 2, "maximal_losing": [[1], [2]]}
    code = {"n": 2, "centers": [[]]}
    dec = {
        "n": 2,
        "method": "taylor-zwicker",
        "part_count": 1,
        "parts": [{"quota": 2, "weights": [1, 1]}],
    }
    files = {"game": game, "code": code, "decomposition": dec}
    files[bad] = {**files[bad], "n": n}
    return {kind: write(tmp_path / f"{kind}.json", obj) for kind, obj in files.items()}


def run_cli(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == EXIT_INPUT and captured.out == ""
    return captured.err


@pytest.mark.parametrize("n", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("bad", ["game", "code", "decomposition"])
def test_file_player_count_messages(bad, n, tmp_path, capsys):
    paths = cli_files(tmp_path, n, bad)
    if bad == "code":
        out = str(tmp_path / "out.json")
        argv = ["decompose", paths["game"], "--method", "covering"]
        argv += ["--cover", paths["code"], "--output", out]
    else:
        argv = ["verify", paths["game"], paths["decomposition"]]
    field = f"{paths[bad]}: field 'n'"
    if type(n) is int:
        expected = f"error: {field} must be in 1..24, got {n}\n"
    else:
        expected = f"error: {field} must be an integer\n"
    assert run_cli(argv, capsys) == expected


# -------------------------------------------------------- part constructors

PART_SITES = {
    "WeightedGame-no-players": (
        lambda: WeightedGame(1, ()),
        "a weighted game needs at least one player",
    ),
    "Decomposition-no-parts": (
        lambda: Decomposition(2, ()),
        "a decomposition needs at least one part",
    ),
    "Decomposition-part-size": (
        lambda: Decomposition(3, (WeightedGame(1, (1, 1)),)),
        "part [1;1,1] has 2 players, expected 3",
    ),
}


@pytest.mark.parametrize("site", PART_SITES)
def test_part_constructor_messages(site):
    call, expected = PART_SITES[site]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == expected


# -------------------------------------------------------------- player range


def three_player_parts():
    return Decomposition(3, (WeightedGame(1, (1, 1, 1)),))


FIT_SITES = {
    # validate_game and greedy_cover name the smallest mask out of range,
    # Code the first center in the given order.
    "validate_game": (
        lambda: validate_game(
            3, [Coalition.of(1), Coalition.of(2, 5), Coalition.of(4)]
        ),
        "coalition {4} does not fit into 3 players",
    ),
    "Code": (
        lambda: Code(3, [Coalition.of(1), Coalition.of(5), Coalition.of(4)]),
        "center {5} does not fit into 3 players",
    ),
    "greedy_cover": (
        lambda: greedy_cover(3, [Coalition.of(2, 5), Coalition.of(1), Coalition.of(4)]),
        "target {4} does not fit into 3 players",
    ),
    # a game built without validate_game reaches verify unchecked
    "verify_decomposition": (
        lambda: verify_decomposition(
            SimpleGame(3, (Coalition.of(1), Coalition.of(2, 6), Coalition.of(4))),
            three_player_parts(),
        ),
        "{2, 6} does not fit into 3 players",
    ),
    "is_winning": (
        lambda: is_winning(validate_game(3, [Coalition.of(1, 2)]), Coalition.of(1, 4)),
        "{1, 4} does not fit into 3 players",
    ),
    "weighted_is_winning": (
        lambda: weighted_is_winning(WeightedGame(1, (1, 1, 1)), Coalition.of(24)),
        "{24} does not fit into 3 players",
    ),
}


@pytest.mark.parametrize("site", FIT_SITES)
def test_player_range_messages(site):
    call, expected = FIT_SITES[site]
    with pytest.raises(PlayerOutOfRange) as info:
        call()
    assert str(info.value) == expected


# -------------------------------------------------------- truth-table cap


@pytest.mark.parametrize(
    "call",
    [simple_game_table, lambda game: find_trade_certificate(game, cap=25)],
    ids=["simple_game_table", "find_trade_certificate"],
)
def test_truth_table_cap_message(call):
    # Built directly, so validate_game's player-count check does not apply.
    game = SimpleGame(25, (Coalition.of(1),))
    with pytest.raises(CapExceeded) as info:
        call(game)
    assert str(info.value) == "truth tables need n <= 24, got 25"
