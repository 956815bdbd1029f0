import gc
import importlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import simplegames
from helpers import four_player_example, random_antichain_game, seven_player_example
from simplegames import (
    Coalition,
    Code,
    Decomposition,
    WeightedGame,
    full_cover,
    validate_game,
)
from simplegames.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    load_decomposition,
    load_game,
    main,
    save_code,
    save_decomposition,
    save_game,
)


@pytest.fixture
def four_player_file(tmp_path):
    path = tmp_path / "game4.json"
    path.write_text(
        json.dumps({"n": 4, "maximal_losing": [[1, 3], [1, 4], [2, 3], [2, 4]]})
    )
    return path


@pytest.fixture
def seven_player_file(tmp_path):
    path = tmp_path / "game7.json"
    path.write_text(
        json.dumps({"n": 7, "maximal_losing": [[1, 2, 3], [3, 4, 5, 6]]})
    )
    return path


def read_parts(path):
    data = json.loads(path.read_text())
    return [(p["quota"], p["weights"]) for p in data["parts"]]


# ---------------------------------------------------------------- decompose


def test_decompose_covering_with_cover_file(four_player_file, tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"n": 4, "centers": [[4], [1, 2, 3]]}))
    out = tmp_path / "dec.json"
    rc = main(
        [
            "decompose",
            str(four_player_file),
            "--method",
            "covering",
            "--cover",
            str(cover),
            "--output",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    assert read_parts(out) == [(2, [1, 1, 2, 0]), (2, [1, 1, 0, 2])]
    data = json.loads(out.read_text())
    assert data["method"] == "covering"
    assert data["part_count"] == 2
    captured = capsys.readouterr()
    assert "parts: 2" in captured.out
    assert "bound: 2" in captured.out


def test_decompose_taylor_zwicker(seven_player_file, tmp_path, capsys):
    out = tmp_path / "dec.json"
    rc = main(
        [
            "decompose",
            str(seven_player_file),
            "--method",
            "taylor-zwicker",
            "--output",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    assert read_parts(out) == [
        (1, [0, 0, 0, 1, 1, 1, 1]),
        (1, [1, 1, 0, 0, 0, 0, 1]),
    ]
    assert "parts: 2" in capsys.readouterr().out


def test_decompose_pairing(four_player_file, tmp_path, capsys):
    out = tmp_path / "dec.json"
    rc = main(
        ["decompose", str(four_player_file), "--method", "pairing", "--output", str(out)]
    )
    assert rc == EXIT_OK
    assert len(read_parts(out)) == 2
    assert "parts: 2" in capsys.readouterr().out


def test_decompose_pairing_bound_is_pairs_plus_singletons(seven_player_file, tmp_path, capsys):
    # {1,2,3} and {3,4,5,6} are at distance 5, so both stay singletons.
    out = tmp_path / "dec.json"
    rc = main(
        ["decompose", str(seven_player_file), "--method", "pairing", "--output", str(out)]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "parts: 2\nbound: 2 (pairs plus singletons)\n"


def test_decompose_covering_defaults_to_greedy(four_player_file, tmp_path):
    out = tmp_path / "dec.json"
    rc = main(
        ["decompose", str(four_player_file), "--method", "covering", "--output", str(out)]
    )
    assert rc == EXIT_OK
    assert len(read_parts(out)) <= 2


def test_decompose_full_code_flag(four_player_file, tmp_path, capsys):
    out = tmp_path / "dec.json"
    rc = main(
        [
            "decompose",
            str(four_player_file),
            "--method",
            "covering",
            "--full-code",
            "--output",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    assert "bound: 4 (cover size)" in capsys.readouterr().out


def seeded_game(n: int):
    return random_antichain_game(n, random.Random(n))


def middle_layer(n: int):
    players = range(1, n + 1)
    return validate_game(n, [Coalition.from_players(c) for c in combinations(players, n // 2)])


@pytest.mark.parametrize(
    "n, build",
    [pytest.param(n, seeded_game, id=f"seeded-{n}") for n in (1, 2, 5, 8, 9, 13, 16)]
    + [pytest.param(8, middle_layer, id="C(8,4)")],
)
def test_full_code_writes_what_the_cover_full_file_gives(n, build, tmp_path, capsys):
    # --full-code clusters around the full cover's syndrome table; --cover
    # lists the same centers from the file that `cover --full n` writes.
    game, full = tmp_path / "game.json", tmp_path / "full.json"
    save_game(build(n), game)
    assert main(["cover", "--full", str(n), "--output", str(full)]) == EXIT_OK
    capsys.readouterr()
    runs = []
    for name, flags in [("file", ["--cover", str(full)]), ("full-code", ["--full-code"])]:
        out = tmp_path / f"{name}.json"
        rc = main(["decompose", str(game), "--method", "covering", *flags, "--output", str(out)])
        runs.append((rc, *capsys.readouterr(), out.read_bytes()))
        assert main(["verify", str(game), str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("EQUIVALENT (")
    assert runs[0] == runs[1]
    rc, stdout, stderr, _ = runs[0]
    assert (rc, stderr) == (EXIT_OK, "") and "(cover size)" in stdout


def test_decompose_rejects_bad_game_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "maximal_losing": [[1], [1, 2]]}))
    out = tmp_path / "dec.json"
    rc = main(["decompose", str(bad), "--method", "pairing", "--output", str(out)])
    assert rc == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_rejects_cover_flag_on_other_methods(four_player_file, tmp_path):
    out = tmp_path / "dec.json"
    rc = main(
        [
            "decompose",
            str(four_player_file),
            "--method",
            "pairing",
            "--full-code",
            "--output",
            str(out),
        ]
    )
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("method", ["covering", "pairing"])
def test_decompose_rejects_empty_cover_path(four_player_file, tmp_path, capsys, method):
    # An empty --cover value is a path to reject, not an absent flag.
    out = tmp_path / "dec.json"
    argv = ["decompose", str(four_player_file), "--method", method, "--cover", ""]
    assert main(argv + ["--output", str(out)]) == EXIT_INPUT
    line = assert_one_error_line(capsys)
    assert not out.exists()
    if method == "covering":
        # The line names the empty path given, not the current directory.
        assert "''" in line and "'.'" not in line
    else:
        assert "--cover" in line


def test_decompose_rejects_non_covering_cover(four_player_file, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"n": 4, "centers": [[]]}))
    out = tmp_path / "dec.json"
    rc = main(
        [
            "decompose",
            str(four_player_file),
            "--method",
            "covering",
            "--cover",
            str(cover),
            "--output",
            str(out),
        ]
    )
    assert rc == EXIT_INPUT


def test_decompose_rejects_cover_of_another_length(four_player_file, tmp_path, capsys):
    cover = tmp_path / "cover.json"
    assert main(["cover", "--full", "5", "--output", str(cover)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "dec.json"
    argv = ["decompose", str(four_player_file), "--method", "covering"]
    assert main(argv + ["--cover", str(cover), "--output", str(out)]) == EXIT_INPUT
    line = assert_one_error_line(capsys)
    assert line == "error: cover is for 5 players but the game has 4"
    assert not out.exists()


def test_decompose_exits_two_when_its_result_fails_verification(
    four_player_file, tmp_path, capsys, monkeypatch
):
    # cmd_decompose looks the method up at call time, so a broken one is
    # caught by the re-verification before anything is written.
    decompose = importlib.import_module("simplegames.decompose")
    whole = decompose.taylor_zwicker
    monkeypatch.setattr(
        decompose, "taylor_zwicker", lambda game: Decomposition(game.n, whole(game).parts[1:])
    )
    out = tmp_path / "dec.json"
    argv = ["decompose", str(four_player_file), "--method", "taylor-zwicker"]
    assert main(argv + ["--output", str(out)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: decomposition disagrees with the game at {1, 3}\n"
    assert not out.exists()


def test_decompose_output_is_deterministic(four_player_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        rc = main(
            ["decompose", str(four_player_file), "--method", "covering", "--output", str(out)]
        )
        assert rc == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


@pytest.fixture
def closure_builds(monkeypatch):
    """How often the down-closure of a game (core._subsets) is built."""
    core = importlib.import_module("simplegames.core")
    subsets = core._subsets
    calls = []

    def counted(*args):
        calls.append(args[0])
        return subsets(*args)

    monkeypatch.setattr(core, "_subsets", counted)
    return calls


@pytest.mark.parametrize(
    "options",
    [
        ["--method", "taylor-zwicker"],
        ["--method", "covering"],
        ["--method", "covering", "--cover", "COVER"],
        ["--method", "covering", "--full-code"],
        ["--method", "pairing"],
    ],
    ids=["taylor-zwicker", "covering", "covering-cover", "covering-full-code", "pairing"],
)
def test_decompose_and_verify_build_the_closure_once(
    seven_player_file, tmp_path, closure_builds, options
):
    # Loading validates the game on its down-closure; verifying reuses it.
    cover = tmp_path / "cover.json"
    assert main(["cover", "--full", "7", "--output", str(cover)]) == EXIT_OK
    options = [str(cover) if o == "COVER" else o for o in options]
    out = tmp_path / "dec.json"
    assert main(["decompose", str(seven_player_file), *options, "--output", str(out)]) == EXIT_OK
    assert closure_builds == [7]
    assert main(["verify", str(seven_player_file), str(out)]) == EXIT_OK
    assert closure_builds == [7, 7]


# -------------------------------------------------------------------- cover


def test_cover_full_seven(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc = main(["cover", "--full", "7", "--output", str(out)])
    assert rc == EXIT_OK
    data = json.loads(out.read_text())
    assert data["n"] == 7
    assert len(data["centers"]) == 16
    captured = capsys.readouterr()
    assert "centers: 16" in captured.out
    assert "known-minimum: 16" in captured.out


def test_cover_full_three(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc = main(["cover", "--full", "3", "--output", str(out)])
    assert rc == EXIT_OK
    assert len(json.loads(out.read_text())["centers"]) == 2
    assert "centers: 2" in capsys.readouterr().out


def test_cover_of_game_family(four_player_file, tmp_path, capsys):
    out = tmp_path / "code.json"
    rc = main(["cover", str(four_player_file), "--output", str(out)])
    assert rc == EXIT_OK
    data = json.loads(out.read_text())
    assert len(data["centers"]) <= 4
    assert "centers:" in capsys.readouterr().out


def test_cover_requires_exactly_one_source(four_player_file, tmp_path):
    out = tmp_path / "code.json"
    assert main(["cover", "--output", str(out)]) == EXIT_INPUT
    assert (
        main(["cover", str(four_player_file), "--full", "4", "--output", str(out)])
        == EXIT_INPUT
    )


# ------------------------------------------------------------------- bounds


def test_bounds_row_n12(capsys):
    assert main(["bounds", "12"]) == EXIT_OK
    row = capsys.readouterr().out
    for token in ("132", "380", "923"):
        assert token in row


def test_bounds_row_n7(capsys):
    assert main(["bounds", "7"]) == EXIT_OK
    row = capsys.readouterr().out
    assert "kn=16" in row
    assert "sperner-1=34" in row
    assert "table-lower=7" in row


def test_bounds_row_n4_has_no_table(capsys):
    assert main(["bounds", "4"]) == EXIT_OK
    row = capsys.readouterr().out
    assert "kn=4" in row
    assert "table-lower" not in row


def test_bounds_rejects_out_of_range(capsys):
    assert main(["bounds", "64"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- verify


def test_verify_accepts_written_decomposition(four_player_file, tmp_path, capsys):
    out = tmp_path / "dec.json"
    main(["decompose", str(four_player_file), "--method", "covering", "--output", str(out)])
    capsys.readouterr()
    rc = main(["verify", str(four_player_file), str(out)])
    assert rc == EXIT_OK
    assert "EQUIVALENT (16 coalitions checked)" in capsys.readouterr().out


def test_verify_flags_partial_decomposition(four_player_file, tmp_path, capsys):
    dec = tmp_path / "dec.json"
    dec.write_text(
        json.dumps(
            {
                "n": 4,
                "method": "covering",
                "part_count": 1,
                "parts": [{"quota": 2, "weights": [1, 1, 2, 0]}],
            }
        )
    )
    rc = main(["verify", str(four_player_file), str(dec)])
    assert rc == EXIT_MISMATCH
    assert "MISMATCH at {3}" in capsys.readouterr().out


def test_verify_rejects_player_count_mismatch(four_player_file, seven_player_file, tmp_path):
    dec = tmp_path / "dec.json"
    main(["decompose", str(seven_player_file), "--method", "pairing", "--output", str(dec)])
    assert main(["verify", str(four_player_file), str(dec)]) == EXIT_INPUT


def test_verify_rejects_inconsistent_part_count(four_player_file, tmp_path):
    dec = tmp_path / "dec.json"
    dec.write_text(
        json.dumps(
            {
                "n": 4,
                "method": "covering",
                "part_count": 2,
                "parts": [{"quota": 2, "weights": [1, 1, 2, 0]}],
            }
        )
    )
    assert main(["verify", str(four_player_file), str(dec)]) == EXIT_INPUT


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


@pytest.mark.parametrize(
    "weight",
    ["a", 2**70, 1.5, True],
    ids=["string", "beyond-int64", "float", "bool"],
)
def test_verify_rejects_non_integer_or_huge_weights(four_player_file, tmp_path, capsys, weight):
    dec = tmp_path / "dec.json"
    dec.write_text(
        json.dumps(
            {
                "n": 4,
                "method": "covering",
                "part_count": 2,
                "parts": [
                    {"quota": 2, "weights": [1, 1, 2, 0]},
                    {"quota": 2, "weights": [weight, 1, 0, 2]},
                ],
            }
        )
    )
    assert main(["verify", str(four_player_file), str(dec)]) == EXIT_INPUT
    assert_one_error_line(capsys)


@pytest.mark.parametrize("part_count", [True, 1.0], ids=["bool", "float"])
def test_verify_rejects_non_integer_part_count(tmp_path, capsys, part_count):
    # A one-part decomposition of the game won only by {1, 2}: it is
    # equivalent, so only the part_count check can reject it.
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"n": 2, "maximal_losing": [[1], [2]]}))
    dec = tmp_path / "dec.json"
    obj = {"n": 2, "method": "covering", "part_count": 1,
           "parts": [{"quota": 2, "weights": [1, 1]}]}
    dec.write_text(json.dumps(obj))
    assert main(["verify", str(game), str(dec)]) == EXIT_OK
    capsys.readouterr()
    dec.write_text(json.dumps({**obj, "part_count": part_count}))
    assert main(["verify", str(game), str(dec)]) == EXIT_INPUT
    assert_one_error_line(capsys)


def test_verify_rejects_huge_player_number_quickly(four_player_file, tmp_path, capsys):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"n": 3, "maximal_losing": [[10_000_000]]}))
    start = time.perf_counter()
    assert main(["verify", str(game), str(four_player_file)]) == EXIT_INPUT
    assert time.perf_counter() - start < 2
    assert_one_error_line(capsys)


def test_code_file_player_count_is_range_checked(four_player_file, tmp_path, capsys):
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"n": 10_000_000, "centers": [[10_000_000]] * 1000}))
    out = tmp_path / "dec.json"
    argv = ["decompose", str(four_player_file), "--method", "covering"]
    assert main(argv + ["--cover", str(code), "--output", str(out)]) == EXIT_INPUT
    assert_one_error_line(capsys)
    assert not out.exists()


# ----------------------------------------------------------------- file io


def test_game_file_round_trip(tmp_path):
    game = seven_player_example()
    path = tmp_path / "game.json"
    save_game(game, path)
    assert load_game(path) == game
    # Serializing what was parsed reproduces the file byte for byte.
    text = path.read_text()
    save_game(load_game(path), path)
    assert path.read_text() == text


def test_decomposition_file_round_trip(four_player_file, tmp_path):
    out = tmp_path / "dec.json"
    main(["decompose", str(four_player_file), "--method", "pairing", "--output", str(out)])
    dec = load_decomposition(out)
    assert dec.n == 4
    assert len(dec.parts) == 2


FULL_7 = full_cover(7)


@pytest.mark.parametrize(
    "write, obj",
    [
        (
            lambda path: save_game(validate_game(3, [Coalition(0)]), path),
            {"n": 3, "maximal_losing": [[]]},
        ),
        (
            lambda path: save_game(seven_player_example(), path),
            {"n": 7, "maximal_losing": [[1, 2, 3], [3, 4, 5, 6]]},
        ),
        (
            lambda path: save_code(Code(2, (Coalition(0),)), path),
            {"n": 2, "centers": [[]]},
        ),
        (
            lambda path: save_code(Code(4, (Coalition.of(4), Coalition.of(1, 2))), path),
            {"n": 4, "centers": [[4], [1, 2]]},
        ),
        (
            lambda path: save_code(FULL_7, path),
            {"n": 7, "centers": [list(c.players) for c in FULL_7.centers]},
        ),
        (
            lambda path: save_decomposition(
                Decomposition(2, (WeightedGame(2, (1, 1)), WeightedGame(0, (0, 3)))),
                "pairing",
                path,
            ),
            {
                "n": 2,
                "method": "pairing",
                "part_count": 2,
                "parts": [
                    {"quota": 2, "weights": [1, 1]},
                    {"quota": 0, "weights": [0, 3]},
                ],
            },
        ),
    ],
    ids=["game-empty", "game", "code-one-center", "code", "code-full-7", "dec"],
)
def test_saved_files_are_indented_json_with_a_final_newline(tmp_path, write, obj):
    # The format every file has had: json.dumps(obj, indent=2) plus "\n".
    path = tmp_path / "out.json"
    path.write_text("x" * 100_000)  # a longer old file is replaced, not overlaid
    write(path)
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()


def test_missing_file_is_an_input_error(tmp_path, capsys):
    rc = main(["bounds", "7"])  # warm-up: capsys isolation
    capsys.readouterr()
    rc = main(
        ["decompose", str(tmp_path / "nope.json"), "--method", "pairing", "--output", "x"]
    )
    assert rc == EXIT_INPUT


def test_deeply_nested_json_is_an_input_error(four_player_file, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["verify", str(deep), str(deep)]) == EXIT_INPUT
    assert_one_error_line(capsys)


def test_non_utf8_file_error_names_the_path(four_player_file, tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"n": 2, "maximal_losing": [["\xe9"]]}')
    assert main(["verify", str(four_player_file), str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: ")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])  # missing required arguments
    assert exc.value.code == EXIT_INPUT


# ------------------------------------------------------- process entry point


def run_child(*argv: str, cwd: Path, stdout=subprocess.PIPE, **env: str):
    """Run ``python -m simplegames.cli *argv`` with stdout block-buffered."""
    src = str(Path(simplegames.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "simplegames.cli", *argv],
        cwd=cwd,
        env={**environ, "PYTHONPATH": path, **env},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_process_decompose_matches_main(seven_player_file, tmp_path, capsys):
    argv = ["decompose", str(seven_player_file), "--method", "taylor-zwicker"]
    child = run_child(*argv, "--output", "child.json", cwd=tmp_path)
    assert main(argv + ["--output", str(tmp_path / "local.json")]) == EXIT_OK
    assert (child.returncode, child.stdout, child.stderr) == (
        EXIT_OK,
        capsys.readouterr().out,
        "",
    )
    local = (tmp_path / "local.json").read_bytes()
    assert (tmp_path / "child.json").read_bytes() == local


def test_process_verify_of_a_dropped_part_exits_three(seven_player_file, tmp_path):
    dec = tmp_path / "dec.json"
    argv = ["decompose", str(seven_player_file), "--method", "taylor-zwicker"]
    assert main(argv + ["--output", str(dec)]) == EXIT_OK
    data = json.loads(dec.read_text())
    data["parts"] = data["parts"][1:]
    data["part_count"] = len(data["parts"])
    dec.write_text(json.dumps(data))
    child = run_child("verify", str(seven_player_file), str(dec), cwd=tmp_path)
    assert child.returncode == EXIT_MISMATCH and child.stderr == ""
    assert child.stdout.startswith("MISMATCH at ")


def test_process_nested_game_is_one_error_line(tmp_path):
    game = tmp_path / "nested.json"
    game.write_text(json.dumps({"n": 3, "maximal_losing": [[1], [1, 2]]}))
    argv = ["decompose", str(game), "--method", "pairing", "--output", "dec.json"]
    child = run_child(*argv, cwd=tmp_path)
    assert child.returncode == EXIT_INPUT and child.stdout == ""
    lines = child.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "dec.json").exists()


def test_process_usage_error_and_help(tmp_path, capsys):
    child = run_child("bounds", cwd=tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bounds"])
    assert exc.value.code == EXIT_INPUT
    assert (child.returncode, child.stdout) == (EXIT_INPUT, "")
    assert child.stderr == capsys.readouterr().err
    assert child.stderr.startswith("usage: simplegames bounds ")
    child = run_child("--help", cwd=tmp_path)
    assert (child.returncode, child.stderr) == (EXIT_OK, "")
    assert child.stdout.startswith("usage: simplegames ")


full_device = pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")


@full_device
def test_process_reports_a_failed_flush_at_exit(tmp_path):
    # Block-buffered, the row is written only at the final flush; its failure
    # is reported by the interpreter, as by a plain sys.exit.
    with open("/dev/full", "w") as full:
        child = run_child("bounds", "12", cwd=tmp_path, stdout=full)
    assert child.returncode == 120
    lines = child.stderr.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Exception ignored") and "<stdout>" in lines[0]
    assert lines[1] == "OSError: [Errno 28] No space left on device"


@full_device
def test_process_unbuffered_write_failure_is_an_input_error(tmp_path):
    with open("/dev/full", "w") as full:
        child = run_child("bounds", "12", cwd=tmp_path, stdout=full, PYTHONUNBUFFERED="1")
    assert child.returncode == EXIT_INPUT
    assert child.stderr == "error: [Errno 28] No space left on device\n"


def cyclic_garbage(argv: list[str]) -> int:
    """Objects the collector finds unreachable after main(argv) ran without it."""
    gc.collect()
    gc.disable()
    try:
        main(argv)
        return gc.collect()
    finally:
        gc.enable()


def clustered_layer(n: int, size: int, seed: int) -> list[int]:
    """``size`` coalitions of n/2 players, each one player short of a seeded
    random center of n/2 + 1, so the greedy cover has about size/8 centers."""
    rng = random.Random(seed)
    family: dict[int, None] = {}
    while len(family) < size:
        center = sum(1 << i for i in rng.sample(range(n), n // 2 + 1))
        for i in range(n):
            if center >> i & 1:
                family.setdefault(center & ~(1 << i))
    return list(family)[:size]


def test_commands_leave_no_cyclic_garbage_that_grows_with_the_family(tmp_path, capsys):
    # The process entry point switches the collector off, which is safe only
    # while no command leaves more cycles behind on a larger input.  The
    # covering splits have 6, 23 and 92 parts, so verify builds every part's
    # losing set on its own (up to 8 * n parts).
    found = {}
    for size in (50, 200, 800):
        work = tmp_path / str(size)
        work.mkdir()
        game = work / "game.json"
        family = [Coalition(m).players for m in clustered_layer(16, size, seed=16)]
        game.write_text(json.dumps({"n": 16, "maximal_losing": family}))
        decompose = ["decompose", str(game), "--method"]
        commands = {
            "cover": ["cover", str(game), "--output", str(work / "cover.json")],
            "taylor-zwicker": decompose + ["taylor-zwicker"],
            "covering": decompose + ["covering"],
            "pairing": decompose + ["pairing"],
            "full-code": decompose + ["covering", "--full-code"],
            "cover-file": decompose + ["covering", "--cover", str(work / "cover.json")],
            "bounds": ["bounds", "16"],
        }
        for name, argv in commands.items():
            if argv[0] == "decompose":
                argv = argv + ["--output", str(work / f"{name}.json")]
            found[name, size] = cyclic_garbage(argv)
        for name in ("taylor-zwicker", "covering"):
            argv = ["verify", str(game), str(work / f"{name}.json")]
            found[f"verify-{name}", size] = cyclic_garbage(argv)
    capsys.readouterr()
    names = {name for name, _ in found}
    assert len(names) == 9
    for name in names:
        assert found[name, 50] == found[name, 200] == found[name, 800], name
