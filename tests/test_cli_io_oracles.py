"""Differential tests: the file writers and the player-list loader.

The oracles below are the earlier ``json.dump``-based writers and the
earlier ``_coalition_list``, kept verbatim apart from their names.  The
writers in ``simplegames.cli`` must produce the same bytes, and the mask
loader ``_mask_list`` the masks of the oracle's coalitions or the same error
text.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simplegames import (
    Coalition,
    Code,
    Decomposition,
    SimpleGame,
    WeightedGame,
    full_cover,
)
from simplegames.cli import (
    _BLOCK,
    METHODS,
    _mask_list,
    load_code,
    save_code,
    save_decomposition,
    save_game,
)
from simplegames.core import MAX_PLAYERS, MAX_WEIGHT


# -------------------------------------------------------------------- oracles


def _save_json(obj: dict, path: str) -> None:
    # Streamed: the text of a large code file is never held whole in memory.
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def oracle_coalition_list(data: dict, key: str, path: str, n: int) -> list[Coalition]:
    raw = data.get(key)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: field '{key}' must be a list of player lists")
    out = []
    for entry in raw:
        # Range-checked before any mask is built: a huge player number
        # would make a huge mask.
        if not isinstance(entry, list) or not all(
            type(p) is int and 1 <= p <= n for p in entry
        ):
            raise ValueError(f"{path}: '{key}' entries must be lists of players 1..{n}")
        out.append(Coalition.from_players(entry))
    return out


def oracle_save_game(game: SimpleGame, path: str) -> None:
    _save_json(
        {"n": game.n, "maximal_losing": [list(c.players) for c in game.maximal_losing]},
        path,
    )


def oracle_save_code(code: Code, path: str) -> None:
    _save_json({"n": code.n, "centers": [list(c.players) for c in code.centers]}, path)


def oracle_save_decomposition(dec: Decomposition, method: str, path: str) -> None:
    parts = [{"quota": p.quota, "weights": list(p.weights)} for p in dec.parts]
    _save_json(
        {"n": dec.n, "method": method, "part_count": len(parts), "parts": parts}, path
    )


# -------------------------------------------------------------------- writers

# Item counts around the first two block boundaries of the writer.
COUNTS = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
# The oracle takes about 0.1 s per file of a few thousand items; each list is
# drawn from a seed, since hypothesis caps the data one example may draw.
writer_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def same_bytes(tmp_path, write, oracle, *args) -> bool:
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    ours.write_text("x" * 100)  # a longer old file is replaced, not overlaid
    write(*args, ours)
    oracle(*args, theirs)
    return ours.read_bytes() == theirs.read_bytes()


def masks(n: int, count: int, seed: int) -> list[int]:
    # The empty coalition, player n alone and the grand coalition come first.
    rnd = random.Random(seed)
    edge = [0, 1 << (n - 1), (1 << n) - 1]
    return (edge + [rnd.getrandbits(n) for _ in range(count)])[:count]


@writer_settings
@given(
    n=st.integers(1, MAX_PLAYERS),
    count=st.sampled_from([0] + COUNTS),
    seed=st.integers(0, 2**32),
)
def test_game_writer_matches_oracle(tmp_path_factory, n, count, seed):
    # The writer only reads n and the list, so any list will do, even an
    # empty one or one with repeats.
    game = SimpleGame(n, tuple(map(Coalition, masks(n, count, seed))))
    tmp_path = tmp_path_factory.mktemp("game")
    assert same_bytes(tmp_path, save_game, oracle_save_game, game)


@writer_settings
@given(
    n=st.integers(1, MAX_PLAYERS),
    count=st.sampled_from(COUNTS),
    seed=st.integers(0, 2**32),
)
def test_code_writer_matches_oracle(tmp_path_factory, n, count, seed):
    code = Code(n, tuple(map(Coalition, masks(n, count, seed))))
    tmp_path = tmp_path_factory.mktemp("code")
    assert same_bytes(tmp_path, save_code, oracle_save_code, code)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 15, 16, 17])
def test_full_cover_file_matches_oracle(tmp_path, n):
    assert same_bytes(tmp_path, save_code, oracle_save_code, full_cover(n))


@writer_settings
@given(
    n=st.integers(1, MAX_PLAYERS),
    count=st.sampled_from(COUNTS),
    method=st.sampled_from(METHODS),
    seed=st.integers(0, 2**32),
)
def test_decomposition_writer_matches_oracle(tmp_path_factory, n, count, method, seed):
    rnd = random.Random(seed)
    values = [0, 1, MAX_WEIGHT, rnd.randrange(MAX_WEIGHT)]
    parts = [
        WeightedGame(rnd.choice(values), [rnd.choice(values) for _ in range(n)])
        for _ in range(count)
    ]
    parts[0] = WeightedGame(0, [0] * n)
    parts[-1] = WeightedGame(MAX_WEIGHT, [MAX_WEIGHT] * n)
    dec = Decomposition(n, parts)
    tmp_path = tmp_path_factory.mktemp("dec")
    oracle = oracle_save_decomposition
    assert same_bytes(tmp_path, save_decomposition, oracle, dec, method)


# --------------------------------------------------------------------- loader


def load_both(raw, n: int):
    """The loader's masks and those of the oracle's coalitions, or the error texts."""
    data = {"centers": raw}
    try:
        ours = _mask_list(data, "centers", "code.json", n)
    except ValueError as exc:
        ours = str(exc)
    try:
        theirs = [c.mask for c in oracle_coalition_list(data, "centers", "code.json", n)]
    except ValueError as exc:
        theirs = str(exc)
    return ours, theirs


@pytest.mark.parametrize(
    "raw",
    [
        [],
        [[]],
        [[1, 1]],
        [[3, 1, 3]],
        [[1, 5]],
        [[True]],
        [[False]],
        [[1.0]],
        [[0]],
        [[-1]],
        [[6]],
        [[2**80]],
        [["1"]],
        [[None]],
        [[[1]]],
        [[{"1": 1}]],
        [1],
        ["1"],
        [None],
        [{"players": [1]}],
        [[1], [2], [2, True]],
        [[1], 7],
        None,
        "[[1]]",
        {"1": [1]},
    ],
    ids=repr,
)
def test_loader_matches_oracle_on_edge_cases(raw):
    ours, theirs = load_both(raw, 5)
    assert ours == theirs


# Anything json.loads can return, with small ints near the player range.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, MAX_PLAYERS + 3)
    | st.floats()
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
player_lists = st.lists(st.integers(-1, MAX_PLAYERS + 1) | json_values, max_size=6)


@settings(max_examples=300)
@given(
    n=st.integers(1, MAX_PLAYERS), raw=st.lists(player_lists | json_values, max_size=6)
)
def test_loader_matches_oracle(n, raw):
    ours, theirs = load_both(raw, n)
    assert ours == theirs


@pytest.mark.parametrize(
    "raw",
    [
        [[]],
        [[2], [1], [2], []],
        [[1, 3], [3, 1], [5], [1, 1, 3]],
        [[p] for p in range(5, 0, -1)],
    ],
    ids=repr,
)
def test_loaded_code_reads_the_oracles_coalitions(tmp_path, raw):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": 5, "centers": raw}))
    centers = load_code(str(path)).centers
    oracle = oracle_coalition_list({"centers": raw}, "centers", str(path), 5)
    assert type(centers) is tuple and all(type(c) is Coalition for c in centers)
    assert centers == tuple(dict.fromkeys(oracle))


@pytest.mark.parametrize("n", [1, 7, 9, 16])
def test_full_cover_file_loads_back_as_the_same_code(tmp_path, n):
    code = full_cover(n)
    save_code(code, tmp_path / "code.json")
    assert load_code(str(tmp_path / "code.json")) == code
