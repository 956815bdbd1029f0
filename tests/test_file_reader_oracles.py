"""Differential tests: the game, code and decomposition file readers.

The oracles below are the earlier readers, kept verbatim apart from their
names: ``_read_game``, the body of ``load_code``, ``_read_parts`` (which
checked each part's values before ``load_decomposition`` built its
``WeightedGame``) and ``load_decomposition``.  The readers in
``simplegames.cli`` must return equal results, or raise the same exception
type with the same message, also when one file holds several faults: the
first fault in reading order decides the message.  The ``verify`` command
and ``load_decomposition`` now share one reading loop, so the command's own
oracle test cannot see a change in the order of the checks; this one can.
"""

import importlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simplegames import Code, Decomposition, WeightedGame
from simplegames.core import MAX_WEIGHT
from simplegames.errors import GameError

# Private helpers, reached as module attributes.
cli = importlib.import_module("simplegames.cli")
_load_json = cli._load_json
_player_count = cli._player_count
_mask_list = cli._mask_list
_check_part = importlib.import_module("simplegames._masks")._check_part


# -------------------------------------------------------------------- oracles


def oracle_read_game(path: str) -> tuple[int, list[int]]:
    """The player count of a game file and its maximal losing masks, as listed."""
    data = _load_json(path)
    n = _player_count(data, path)
    return n, _mask_list(data, "maximal_losing", path, n)


def oracle_load_code(path: str) -> Code:
    data = _load_json(path)
    n = _player_count(data, path)
    return Code._of_masks(n, _mask_list(data, "centers", path, n))


def oracle_read_parts(path: str) -> tuple[int, list[tuple[int, list[int]]]]:
    """The player count of a decomposition file and its checked (quota, weights) pairs."""
    data = _load_json(path)
    n = _player_count(data, path)
    raw_parts = data.get("parts")
    if not isinstance(raw_parts, list) or not raw_parts:
        raise ValueError(f"{path}: field 'parts' must be a non-empty list")
    part_count = data.get("part_count")
    if type(part_count) is not int or part_count != len(raw_parts):
        raise ValueError(f"{path}: part_count does not match the number of parts")
    parts = []
    for entry in raw_parts:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: each part must be an object")
        weights = entry.get("weights")
        if not isinstance(weights, list) or len(weights) != n:
            raise ValueError(f"{path}: each part needs exactly {n} weights")
        quota = entry.get("quota")
        _check_part(quota, weights)
        parts.append((quota, weights))
    return n, parts


def oracle_load_decomposition(path: str) -> Decomposition:
    n, parts = oracle_read_parts(path)
    return Decomposition(n, tuple(WeightedGame(q, w) for q, w in parts))


# ------------------------------------------------------------------ readers


def read_game(path: str):
    return cli._read_masks(path, "maximal_losing")


def read_parts(path: str):
    return cli._read_parts(path, cli._check_part)


# Per file shape: (reader under test, its oracle) pairs.
READERS = {
    "game": [(read_game, oracle_read_game)],
    "code": [(cli.load_code, oracle_load_code)],
    "dec": [
        (read_parts, oracle_read_parts),
        (cli.load_decomposition, oracle_load_decomposition),
    ],
}


def outcome(read, path: str):
    # The errors the command line reports as one line, as main() catches them.
    try:
        return "ok", read(path)
    except (GameError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same(obj: object, shape: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "file.json")
        Path(path).write_text(json.dumps(obj))
        for read, oracle in READERS[shape]:
            assert outcome(read, path) == outcome(oracle, path), read.__name__


# ----------------------------------------------------------------- strategies

def mostly(good, bad, goods: int = 6):
    """Draws from bad once in goods + 1 times, else from good."""
    return st.sampled_from([good] * goods + [bad]).flatmap(lambda s: s)


# Per file, faults inside the lists come once in this many + 1 draws: files
# with dense faults hold several in one entry, sparse ones often none.
densities = st.sampled_from([1, 4, 30])
player_counts = mostly(st.integers(1, 8), st.sampled_from([0, 25, True, 3.0, "3", None]))
# Values a file may hold where an int is expected: in range, at the edges,
# beyond them, and of the wrong type.
good_values = st.integers(0, 4) | st.sampled_from([0, MAX_WEIGHT])
bad_values = st.sampled_from(
    [-1, MAX_WEIGHT + 1, 2**63, 2**80, True, False, 1.0, 0.5, None, "1", [1], {}]
)


def fields(draw, obj: dict) -> dict:
    """obj, now and then with one of its fields dropped."""
    dropped = draw(mostly(st.none(), st.sampled_from(sorted(obj))))
    return {k: v for k, v in obj.items() if k != dropped}


@st.composite
def mask_files(draw, key: str) -> dict:
    n, goods = draw(player_counts), draw(densities)
    width = n if type(n) is int and 1 <= n <= 8 else 4
    player = mostly(
        st.integers(1, width),
        st.sampled_from([0, width + 1, 2**60, True, 1.0, "1"]),
        goods,
    )
    entry = mostly(st.lists(player, max_size=width), st.sampled_from([1, None, "1", {}]), goods)
    entries = mostly(st.lists(entry, max_size=6), st.sampled_from([None, {}, "x"]))
    return fields(draw, {"n": n, key: draw(entries)})


@st.composite
def decomposition_files(draw) -> dict:
    n, goods = draw(player_counts), draw(densities)
    width = n if type(n) is int and 1 <= n <= 8 else 4
    values = mostly(good_values, bad_values, goods)
    weights = mostly(
        st.lists(values, min_size=width, max_size=width),
        st.lists(values, max_size=width + 1) | st.sampled_from([None, 1, {}]),
        goods,
    )
    part = mostly(
        st.fixed_dictionaries({"quota": values, "weights": weights}),
        st.fixed_dictionaries({}, optional={"quota": values, "weights": weights})
        | st.sampled_from([[], None, 1, "p"]),
        goods,
    )
    parts = draw(mostly(st.lists(part, min_size=1, max_size=5), st.sampled_from([[], None, {}])))
    count = len(parts) if isinstance(parts, list) else 1
    part_count = draw(mostly(st.just(count), st.sampled_from([count + 1, True, float(count)])))
    return fields(draw, {"n": n, "method": "covering", "part_count": part_count, "parts": parts})


reader_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@reader_settings
@given(st.sampled_from(["maximal_losing", "centers"]).flatmap(mask_files))
def test_game_and_code_readers_match_oracles(obj):
    # Each file is read as both shapes: one of them misses its list field.
    assert_same(obj, "game")
    assert_same(obj, "code")


@reader_settings
@given(decomposition_files())
def test_decomposition_readers_match_oracles(obj):
    assert_same(obj, "dec")


def dec(n: int, *parts) -> dict:
    return {"n": n, "method": "covering", "part_count": len(parts), "parts": list(parts)}


good = {"quota": 1, "weights": [1, 0, 1]}


@pytest.mark.parametrize(
    "obj",
    [
        dec(3, good, good, good),
        dec(3, good, [1, 2, 3], {"quota": -1, "weights": [1, 0, 1]}),
        dec(3, {"quota": True, "weights": [1, 0, 1]}, {"quota": 1, "weights": [1]}),
        dec(3, good, {"quota": 1, "weights": [1, 2.0, 1]}, {"weights": [1, 0]}),
        dec(3, {"quota": 1, "weights": [MAX_WEIGHT + 1, 0, 0]}, "part"),
        dec(3, {"quota": MAX_WEIGHT, "weights": [MAX_WEIGHT, 0, 0]}),
        dec(3, {"weights": [1, 0, 1]}),
        dec(3, {"quota": 1}),
        dec(3, {"quota": 2**80, "weights": [1, 0, 1, 1]}),
        {**dec(3, good), "part_count": 2},
        {"method": "covering", "part_count": 1, "parts": [good]},
        dec(True, good),
    ],
    ids=[
        "valid",
        "non-object-before-bad-value",
        "bool-value-before-short-weights",
        "float-weight-before-missing-quota",
        "value-above-limit-before-non-object",
        "values-at-limit",
        "missing-quota",
        "missing-weights",
        "weight-count-before-huge-value",
        "part-count",
        "missing-n",
        "bool-n",
    ],
)
def test_decomposition_files_with_several_faults_match_oracles(obj):
    assert_same(obj, "dec")
