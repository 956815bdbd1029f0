"""Differential tests: the ``verify`` command against the library.

The command reads its two files into masks and (quota, weights) pairs and
runs the kernels under the library on them.  The oracle is the command as
the library spells it: ``load_game``, ``load_decomposition``,
``verify_decomposition`` and ``is_winning``.  Both must give the same exit
code, stdout and stderr on valid games with correct, part-dropped,
part-added and weight-mutated decompositions, on game files that are no
game, and on one malformed file per ``error:`` line of the loaders.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import reduce_to_maximal
from simplegames import (
    Coalition,
    decompose_covering,
    decompose_pairing,
    is_winning,
    taylor_zwicker,
    validate_game,
    verify_decomposition,
)
from simplegames.cli import (
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    load_decomposition,
    load_game,
    main,
)
from simplegames.core import MAX_WEIGHT
from simplegames.errors import GameError


def oracle_verify(game_path: Path, dec_path: Path) -> tuple[int, str, str]:
    try:
        game = load_game(str(game_path))
        dec = load_decomposition(str(dec_path))
        report = verify_decomposition(game, dec)
    except (GameError, ValueError, OSError) as exc:
        return EXIT_INPUT, "", f"error: {exc}\n"
    if report.equivalent:
        return EXIT_OK, f"EQUIVALENT ({report.coalitions_checked} coalitions checked)\n", ""
    c = report.first_mismatch
    game_side = "winning" if is_winning(game, c) else "losing"
    dec_side = "losing" if game_side == "winning" else "winning"
    return EXIT_MISMATCH, f"MISMATCH at {c}: game={game_side}, decomposition={dec_side}\n", ""


def run_verify(game_path: Path, dec_path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(game_path), str(dec_path)])
    return code, out.getvalue(), err.getvalue()


def players(mask: int) -> list[int]:
    return list(Coalition(mask).players)


def dec_object(n: int, parts: list[tuple[int, list[int]]]) -> dict:
    return {
        "n": n,
        "method": "covering",
        "part_count": len(parts),
        "parts": [{"quota": q, "weights": w} for q, w in parts],
    }


# ----------------------------------------------------------------- strategies


values = st.one_of(st.integers(0, 4), st.integers(0, MAX_WEIGHT))
BUILDERS = (taylor_zwicker, decompose_covering, decompose_pairing)


@st.composite
def cases(draw) -> tuple[dict, dict]:
    """A game file and a decomposition file, both as JSON objects."""
    n = draw(st.integers(1, 12))
    raw = draw(st.lists(st.integers(0, (1 << n) - 2), min_size=1, max_size=2 * n))
    game = validate_game(n, [Coalition(m) for m in reduce_to_maximal(set(raw))])
    dec = draw(st.sampled_from(BUILDERS))(game)
    parts = [(p.quota, list(p.weights)) for p in dec.parts]
    change = draw(st.sampled_from(["none", "drop", "add", "mutate"]))
    if change == "drop":
        del parts[draw(st.integers(0, len(parts) - 1))]
    elif change == "add":
        weights = draw(st.lists(values, min_size=n, max_size=n))
        parts.insert(draw(st.integers(0, len(parts))), (draw(values), weights))
    elif change == "mutate":
        quota, weights = parts.pop(draw(st.integers(0, len(parts) - 1)))
        slot = draw(st.integers(0, n))
        if slot == n:
            quota = draw(values)
        else:
            weights[slot] = draw(values)
        parts.append((quota, weights))
    # Now and then the game file lists the raw coalitions instead: in any
    # order, repeated, nested or with the grand coalition, so no game.
    if draw(st.booleans()):
        masks = [c.mask for c in game.maximal_losing]
    else:
        masks = raw + draw(st.lists(st.sampled_from([0, (1 << n) - 1]), max_size=1))
    game_obj = {"n": n, "maximal_losing": [players(m) for m in masks]}
    return game_obj, dec_object(n, parts)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cases())
def test_verify_command_matches_the_library(tmp_path, case):
    game_obj, dec_obj = case
    game, dec = tmp_path / "game.json", tmp_path / "dec.json"
    game.write_text(json.dumps(game_obj))
    dec.write_text(json.dumps(dec_obj))
    assert run_verify(game, dec) == oracle_verify(game, dec)


# ----------------------------------------------------- one file per error line


GAME = {"n": 4, "maximal_losing": [[1, 3], [1, 4], [2, 3], [2, 4]]}
DEC = dec_object(4, [(2, [1, 1, 0, 2]), (2, [1, 1, 2, 0])])  # the pairing split of GAME

# Each case replaces the game file or the decomposition file: with JSON text,
# with raw bytes, or with nothing (a missing file).
MALFORMED = {
    "game-not-json": ("game", "{"),
    "game-not-utf8": ("game", b"\xff\xfe"),
    "game-too-deep": ("game", "[" * 100_000),
    "game-not-object": ("game", []),
    "game-missing": ("game", None),
    "game-n-not-int": ("game", {**GAME, "n": "4"}),
    "game-n-out-of-range": ("game", {**GAME, "n": 25}),
    "game-family-not-list": ("game", {**GAME, "maximal_losing": {"1": 3}}),
    "game-player-out-of-range": ("game", {**GAME, "maximal_losing": [[1, 5]]}),
    "game-player-not-int": ("game", {**GAME, "maximal_losing": [[True]]}),
    "game-grand-coalition": ("game", {**GAME, "maximal_losing": [[1, 2, 3, 4]]}),
    "game-empty-family": ("game", {**GAME, "maximal_losing": []}),
    "game-not-antichain": ("game", {**GAME, "maximal_losing": [[2, 4], [1, 2, 4]]}),
    "dec-not-json": ("dec", "[1,"),
    "dec-not-object": ("dec", "null"),
    "dec-missing": ("dec", None),
    "dec-n-not-int": ("dec", {**DEC, "n": 4.0}),
    "dec-n-out-of-range": ("dec", {**DEC, "n": 0}),
    "dec-parts-empty": ("dec", {**DEC, "parts": [], "part_count": 0}),
    "dec-part-count": ("dec", {**DEC, "part_count": 3}),
    "dec-part-not-object": ("dec", {**DEC, "parts": [[2, 1, 1, 0, 0]], "part_count": 1}),
    "dec-weight-count": ("dec", dec_object(4, [(2, [1, 1, 0])])),
    "dec-weight-value": ("dec", dec_object(4, [(2, [1, 1, 0, 0]), (2, [0, -1, 1, 1])])),
    "dec-quota-value": ("dec", dec_object(4, [(MAX_WEIGHT + 1, [1, 1, 0, 0])])),
    "dec-player-count": ("dec", dec_object(3, [(2, [1, 1, 1])])),
}


def test_the_well_formed_files_are_equivalent(tmp_path):
    game, dec = tmp_path / "game.json", tmp_path / "dec.json"
    game.write_text(json.dumps(GAME))
    dec.write_text(json.dumps(DEC))
    assert run_verify(game, dec) == (EXIT_OK, "EQUIVALENT (16 coalitions checked)\n", "")


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_command_matches_the_library_on_malformed_files(tmp_path, name):
    side, content = MALFORMED[name]
    game, dec = tmp_path / "game.json", tmp_path / "dec.json"
    game.write_text(json.dumps(GAME))
    dec.write_text(json.dumps(DEC))
    target = game if side == "game" else dec
    if content is None:
        target.unlink()
    elif isinstance(content, bytes):
        target.write_bytes(content)
    else:
        target.write_text(content if isinstance(content, str) else json.dumps(content))
    result = run_verify(game, dec)
    assert result == oracle_verify(game, dec)
    assert result[0] == EXIT_INPUT and result[2].startswith("error: ")
