"""Runs at the size the tool is built for.

The middle layer C(16, 8): its 12 870 coalitions of 8 out of 16 players
pass the antichain check, the greedy cover needs 1 430 centers (the count
of the first, full-rescan greedy), and the covering decomposition has one
part per center and is equivalent to the game on all 2**16 coalitions.
The greedy cover of C(18, 9) keeps the 6 122 centers, in the order, of
the lazy greedy it replaced.
The middle layer C(20, 10) passes the antichain check, and with one
coalition nested inside another it is one error line from the command line.
The taylor-zwicker and greedy covering decompositions of 20 000 random
coalitions of 12 out of 24 players each verify within a few seconds.

The full-cube cover of 20 players: writing its 65 536 centers stays within
a fixed memory margin of a command that loads the package and does nothing
else.  Writing the full-cube cover of 22 players and decomposing 40 random
coalitions of 11 out of 22 players around that file, decomposing 40 and 20 000
random coalitions of 12 out of 24 players around the full-cube cover and
around the greedy cover, verifying the taylor-zwicker file of the 20 000,
verifying five n=24 parts with random heavy weights, and deriving the
maximal losing coalitions of the 20-player majority game each stay under a
fixed peak.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import simplegames
from helpers import random_layer, write_hostile_verify_files
from simplegames import (
    Coalition,
    decompose_covering,
    greedy_cover,
    taylor_zwicker,
    validate_game,
    verify_decomposition,
)
from simplegames.cli import main


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


def test_middle_layer_18_greedy_cover_golden():
    family = [Coalition(sum(1 << i for i in c)) for c in combinations(range(18), 9)]
    code = greedy_cover(18, validate_game(18, family).maximal_losing)
    assert len(code) == 6_122
    order = ",".join(str(c.mask) for c in code.centers).encode()
    assert hashlib.sha256(order).hexdigest() == (
        "83dddcce9d0b2327f43fbd68f434ed840f6b95fbd6036f97bbcb4420c4574fae"
    )


# CPU seconds for one verify of a decomposition of the 20 000 coalitions
# below: 13-21 s when every part's losing set was built and ORed in, about
# 0.3 s through one closure of the parts' maximal losing coalitions.
VERIFY_24_MAX_S = 5


def test_many_part_decompositions_at_24_verify_in_seconds():
    family = random_layer(24, 12, 20_000, seed=2024)
    game = validate_game(24, [Coalition(m) for m in family])
    for dec in (taylor_zwicker(game), decompose_covering(game)):
        start = time.process_time()
        report = verify_decomposition(game, dec)
        assert time.process_time() - start < VERIFY_24_MAX_S
        assert report.equivalent
        assert report.coalitions_checked == 1 << 24


def test_middle_layer_20_validates():
    family = [Coalition(sum(1 << i for i in c)) for c in combinations(range(20), 10)]
    game = validate_game(20, family)
    assert len(game.maximal_losing) == 184_756


def test_middle_layer_20_with_a_nested_coalition_is_one_error_line(tmp_path, capsys):
    # The last member in mask order is {11, ..., 20}; {12, ..., 20} is the
    # only coalition inside another, and {1, 12, ..., 20} the smallest around it.
    family = [list(c) for c in combinations(range(1, 21), 10)]
    game = tmp_path / "game.json"
    nested = family + [list(range(12, 21))]
    game.write_text(json.dumps({"n": 20, "maximal_losing": nested}))
    out = tmp_path / "dec.json"
    argv = ["decompose", str(game), "--method", "taylor-zwicker", "--output", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        "error: coalition {12, 13, 14, 15, 16, 17, 18, 19, 20} is contained in "
        "{1, 12, 13, 14, 15, 16, 17, 18, 19, 20}; "
        "maximal losing coalitions must be pairwise incomparable\n"
    )


# Max RSS of `cover --full 20` above that of `bounds 20`, in MiB.  Building
# the centers and writing them as a stream stays near 18 MiB above; holding
# the whole file text as well took about 79 MiB.
COVER_FULL_20_MARGIN_MIB = 40

# Runs a command, then prints its exit code and its own max RSS in KiB.
# Linux counts the memory a child holds before its exec, a copy of its
# parent's, in the child's max RSS, so the command is started from this
# small process rather than from the test process.
MEASURE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def python_max_rss_mib(*args: str, cwd: Path, status: int = 0) -> float:
    """Max RSS, in MiB, of ``python *args`` run with this package importable."""
    src = str(Path(simplegames.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", MEASURE, sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    code, kib = map(int, out.split())
    assert code == status
    return kib / 1024


def cli_max_rss_mib(*argv: str, cwd: Path, status: int = 0) -> float:
    return python_max_rss_mib("-m", "simplegames.cli", *argv, cwd=cwd, status=status)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_cover_full_20_memory_stays_near_start_up(tmp_path):
    baseline = cli_max_rss_mib("bounds", "20", cwd=tmp_path)
    cover = cli_max_rss_mib("cover", "--full", "20", "--output", "c.json", cwd=tmp_path)
    assert (tmp_path / "c.json").stat().st_size > 0
    assert cover - baseline < COVER_FULL_20_MARGIN_MIB


# Peak RSS of `verify` on the five random n=24 parts, in MiB.  Holding the
# 2**n-cell tables took 154.5 MiB; the bitset kernel stays near 55 MiB, and
# a per-part memo kept alive until garbage collection reached 174 MiB.
HOSTILE_VERIFY_MAX_MIB = 160


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_verify_of_random_heavy_parts_stays_under_a_fixed_peak(tmp_path):
    game, dec = write_hostile_verify_files(tmp_path)
    peak = cli_max_rss_mib("verify", str(game), str(dec), cwd=tmp_path, status=3)
    assert peak < HOSTILE_VERIFY_MAX_MIB


# Peak RSS of `cover --full 22` (262 144 centers), in MiB: about 54 MiB when
# every center was a Coalition, about 42 MiB with the centers as int masks.
COVER_FULL_22_MAX_MIB = 48

# Peak RSS of `decompose --method covering --full-code` on 40 coalitions of 24
# players (a cover of 1 048 576 centers), in MiB: about 219 MiB when every
# center was a Coalition, about 170 MiB with the centers as int masks, about
# 34 MiB since each coalition's center comes from its syndrome and the cover
# is never listed.
FULL_CODE_24_MAX_MIB = 64

# The same on 20 000 coalitions: about 180 MiB when the cover was listed,
# about 52 MiB by syndrome.
FULL_CODE_24_20000_MAX_MIB = 80


# Peak RSS of `decompose --method covering --cover` on 40 random coalitions of
# 11 out of 22 players with the `cover --full 22` file, in MiB: about 94 MiB,
# as json.load holds the 31 MB text and then the 262 144 player lists.
COVER_FILE_22_MAX_MIB = 120


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_cover_full_22_stays_under_a_fixed_peak(tmp_path):
    peak = cli_max_rss_mib("cover", "--full", "22", "--output", "c.json", cwd=tmp_path)
    assert (tmp_path / "c.json").stat().st_size > 0
    assert peak < COVER_FULL_22_MAX_MIB
    game = tmp_path / "game.json"
    family = [Coalition(m).players for m in random_layer(22, 11, 40, seed=22)]
    game.write_text(json.dumps({"n": 22, "maximal_losing": family}))
    argv = ["decompose", str(game), "--method", "covering", "--cover", "c.json"]
    peak = cli_max_rss_mib(*argv, "--output", "dec.json", cwd=tmp_path)
    assert json.loads((tmp_path / "dec.json").read_text())["part_count"] == 40
    assert peak < COVER_FILE_22_MAX_MIB


def write_random_layer_game(path: Path, size: int, seed: int) -> Path:
    """A game file of ``size`` seeded random coalitions of 12 out of 24 players."""
    family = [Coalition(m).players for m in random_layer(24, 12, size, seed)]
    path.write_text(json.dumps({"n": 24, "maximal_losing": family}))
    return path


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_full_code_decomposition_at_24_stays_under_a_fixed_peak(tmp_path):
    game = write_random_layer_game(tmp_path / "game.json", 40, seed=24)
    argv = ["decompose", str(game), "--method", "covering", "--full-code"]
    peak = cli_max_rss_mib(*argv, "--output", "dec.json", cwd=tmp_path)
    assert json.loads((tmp_path / "dec.json").read_text())["part_count"] == 40
    assert peak < FULL_CODE_24_MAX_MIB


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_full_code_decomposition_of_20000_at_24_stays_under_a_fixed_peak(tmp_path):
    game = write_random_layer_game(tmp_path / "game.json", 20_000, seed=24)
    argv = ["decompose", str(game), "--method", "covering", "--full-code"]
    peak = cli_max_rss_mib(*argv, "--output", "dec.json", cwd=tmp_path)
    assert json.loads((tmp_path / "dec.json").read_text())["n"] == 24
    assert peak < FULL_CODE_24_20000_MAX_MIB


# Peak RSS of `decompose --method covering` through the greedy cover, by the
# number of random coalitions of 12 out of 24 players, in MiB.  20 000: about
# 77 MiB with a dict of candidate counts and a heap of their keys, about
# 49 MiB with one byte of count per mask.  40: about 36 and 39 MiB; the
# count array takes 2**24 bytes however few coalitions there are.
GREEDY_24_MAX_MIB = {20_000: 64, 40: 48}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("size", GREEDY_24_MAX_MIB)
def test_greedy_covering_decomposition_at_24_stays_under_a_fixed_peak(tmp_path, size):
    game = write_random_layer_game(tmp_path / "game.json", size, seed=24)
    argv = ["decompose", str(game), "--method", "covering", "--output", "dec.json"]
    peak = cli_max_rss_mib(*argv, cwd=tmp_path)
    assert json.loads((tmp_path / "dec.json").read_text())["n"] == 24
    assert peak < GREEDY_24_MAX_MIB[size]


# Peak RSS of `verify` on the taylor-zwicker file of 20 000 random coalitions
# of 12 out of 24 players, in MiB: about 50 MiB when each pass of the closure
# built its holder mask from bytes, about 49 MiB with each mask taken from
# the last one and the byte table of the game freed before the passes.
VERIFY_24_20000_MAX_MIB = 64


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_verify_of_20000_parts_at_24_stays_under_a_fixed_peak(tmp_path):
    game = write_random_layer_game(tmp_path / "game.json", 20_000, seed=24)
    argv = ["decompose", str(game), "--method", "taylor-zwicker", "--output", "tz.json"]
    cli_max_rss_mib(*argv, cwd=tmp_path)
    peak = cli_max_rss_mib("verify", str(game), "tz.json", cwd=tmp_path)
    assert peak < VERIFY_24_20000_MAX_MIB


# Peak RSS of derive_maximal_losing on the 20-player majority game, in MiB:
# about 40 MiB with one list of the 2**20 answers, about 57 MiB with a list
# of the losing masks fed to the closure, about 34 MiB with a generator.
DERIVE_20_MAX_MIB = 48

DERIVE_MAJORITY_20 = """
from simplegames import derive_maximal_losing
assert len(derive_maximal_losing(20, lambda s: 2 * len(s) > 20)) == 184_756
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_derive_majority_20_stays_under_a_fixed_peak(tmp_path):
    peak = python_max_rss_mib("-c", DERIVE_MAJORITY_20, cwd=tmp_path)
    assert peak < DERIVE_20_MAX_MIB
