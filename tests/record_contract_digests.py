"""Record, or check, the digests of every command's output on a fixed corpus.

The corpus runs in process through ``simplegames.cli.main``, in a fresh
directory with relative paths, so that no message quotes a path of the
machine:

* the games C(8, 4), C(10, 5) and seeded random families at n = 5, 9, 13
  and 16, each through ``cover GAME``, every decompose method (taylor-zwicker,
  pairing, greedy covering, ``--full-code``, ``--cover`` with the greedy file
  and with the ``cover --full`` file) and ``verify`` on the taylor-zwicker
  file and on a copy with its first part dropped (exit 3);
* ``cover --full N`` for N = 1..16 and ``bounds N`` for N = 1..63;
* one malformed input per error line of the file loaders, and per input
  error of the commands.

Each job's entry holds its exit code and the SHA-256 of its stdout, its
stderr and the file it writes.  A job whose message quotes text the tool
does not write itself (the ``json`` decoder, the operating system, argparse's
usage text) keeps its exit code alone, as that text differs between Python
versions.  A change to a recorded digest is a change to the command line's
contract and is named in CHANGES.md with its reason.

    python tests/record_contract_digests.py          # rewrite the table
    python tests/record_contract_digests.py --check  # compare; exit 1 on a difference

It imports nothing but the standard library and ``simplegames``, so it
checks an installed package as well as the source tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import combinations
from pathlib import Path

from simplegames.cli import main

TABLE = Path(__file__).with_name("contract_digests.json")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def players(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def layer(n: int, w: int) -> list[int]:
    return sorted(sum(1 << i for i in c) for c in combinations(range(n), w))


def seeded_family(n: int, size: int, seed: int) -> list[int]:
    """The maximal ones of ``size`` seeded masks of n // 2 or n // 2 + 1 players.

    ``getrandbits`` gives the same bits on every Python version.
    """
    rng = random.Random(seed)
    masks: set[int] = set()
    while len(masks) < size:
        m = rng.getrandbits(n)
        if m.bit_count() - n // 2 in (0, 1):
            masks.add(m)
    # with two sizes, a mask is inside another only if one more player makes it
    grown = {m | 1 << i for m in masks for i in range(n) if not m >> i & 1}
    return sorted(m for m in masks if m not in grown)


GAMES = {
    "c8-4": (8, layer(8, 4)),
    "c10-5": (10, layer(10, 5)),
    "seeded5": (5, seeded_family(5, 6, seed=5)),
    "seeded9": (9, seeded_family(9, 40, seed=9)),
    "seeded13": (13, seeded_family(13, 400, seed=13)),
    "seeded16": (16, seeded_family(16, 1500, seed=16)),
}

# One malformed file per loader error line, by name.
BAD_GAMES = {
    "syntax": '{"n": 4,',
    "deep": "[" * 100_000,
    "digits": '{"n": 1' + "0" * 5_000 + "}",
    "array": "[1, 2]",
    "n-missing": '{"maximal_losing": [[1]]}',
    "n-range": '{"n": 25, "maximal_losing": [[1]]}',
    "list": '{"n": 4, "maximal_losing": {}}',
    "entry": '{"n": 4, "maximal_losing": [[5]]}',
    "empty": '{"n": 4, "maximal_losing": []}',
    "grand": '{"n": 4, "maximal_losing": [[1, 2, 3, 4]]}',
    "nested": '{"n": 4, "maximal_losing": [[1], [1, 2]]}',
}
BAD_CODES = {
    "centers": '{"n": 4, "centers": 3}',
    "entry": '{"n": 4, "centers": [[0]]}',
    "empty": '{"n": 4, "centers": []}',
    "n-range": '{"n": 0, "centers": [[1]]}',
    "other-n": '{"n": 5, "centers": [[1]]}',
}
BAD_DECOMPOSITIONS = {
    "utf8": '{"n": 4, "parts": "\udcff"}',  # written as the byte 0xff
    "array": "[]",
    "parts": '{"n": 4, "part_count": 0, "parts": []}',
    "count": '{"n": 4, "part_count": 2, "parts": [{"quota": 1, "weights": [1, 1, 1, 1]}]}',
    "object": '{"n": 4, "part_count": 1, "parts": [1]}',
    "weights": '{"n": 4, "part_count": 1, "parts": [{"quota": 1, "weights": [1]}]}',
    "quota": '{"n": 4, "part_count": 1, "parts": [{"quota": -1, "weights": [1, 1, 1, 1]}]}',
    "other-n": '{"n": 3, "part_count": 1, "parts": [{"quota": 1, "weights": [1, 1, 1]}]}',
}
# Their messages quote the json decoder: its words, a RecursionError, or the
# int-digit limit, which Python 3.10 does not have.
DECODER_QUOTED = {"syntax", "deep", "digits", "utf8"}

GAME = '{"n": 4, "maximal_losing": [[1, 3], [2, 4]]}'
DECOMPOSITION = '{"n": 4, "part_count": 1, "parts": [{"quota": 2, "weights": [1, 1, 1, 1]}]}'


def write(path: str, text: str) -> str:
    Path(path).write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def run_job(argv: list[str], output: str | None, own_text: bool) -> dict:
    """Run one command line through ``main`` and digest what it produced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code, own_text = exc.code, False
    if not own_text:
        return {"exit": code}
    entry = {
        "exit": code,
        "stdout": sha(out.getvalue().encode()),
        "stderr": sha(err.getvalue().encode()),
    }
    if output is not None and os.path.exists(output):
        entry["output"] = sha(Path(output).read_bytes())
    return entry


def run_corpus(work: Path) -> dict[str, dict]:
    """Every job's entry, by name, run with ``work`` as the current directory."""
    table = {}

    def job(name: str, *argv: str, output: str | None = None, own_text: bool = True) -> None:
        assert name not in table, name
        if output is not None:
            argv += ("--output", output)
        table[name] = run_job(list(argv), output, own_text)

    home = os.getcwd()
    os.chdir(work)
    try:
        for n in range(1, 64):
            job(f"bounds {n}", "bounds", str(n))
        for n in range(1, 17):
            job(f"cover --full {n}", "cover", "--full", str(n), output=f"full{n}.json")
        for name, (n, family) in GAMES.items():
            text = json.dumps({"n": n, "maximal_losing": [players(m) for m in family]})
            game = write(f"{name}.json", text)
            job(f"{name} cover", "cover", game, output=f"{name}-cover.json")
            method = ("decompose", game, "--method")
            covering = (*method, "covering")
            for m in ("taylor-zwicker", "pairing", "covering"):
                job(f"{name} {m}", *method, m, output=f"{name}-{m}.json")
            job(f"{name} --full-code", *covering, "--full-code", output=f"{name}-code.json")
            for kind, code in (("greedy", f"{name}-cover.json"), ("full", f"full{n}.json")):
                out = f"{name}-{kind}-file.json"
                job(f"{name} --cover {kind}", *covering, "--cover", code, output=out)
            tz = f"{name}-taylor-zwicker.json"
            job(f"{name} verify", "verify", game, tz)
            data = json.loads(Path(tz).read_text())
            data["parts"] = data["parts"][1:]
            data["part_count"] -= 1
            dropped = write(f"{name}-dropped.json", json.dumps(data))
            job(f"{name} verify dropped", "verify", game, dropped)

        game, dec = write("game.json", GAME), write("dec.json", DECOMPOSITION)
        for name, text in BAD_GAMES.items():
            bad, own_text = write(f"bad-game-{name}.json", text), name not in DECODER_QUOTED
            argv = ("decompose", bad, "--method", "taylor-zwicker")
            job(f"bad game {name} decompose", *argv, output="x.json", own_text=own_text)
            job(f"bad game {name} verify", "verify", bad, dec, own_text=own_text)
        for name, text in BAD_CODES.items():
            bad = write(f"bad-code-{name}.json", text)
            argv = ("decompose", game, "--method", "covering", "--cover", bad)
            job(f"bad code {name}", *argv, output="x.json")
        for name, text in BAD_DECOMPOSITIONS.items():
            bad, own_text = write(f"bad-dec-{name}.json", text), name not in DECODER_QUOTED
            job(f"bad decomposition {name}", "verify", game, bad, own_text=own_text)

        job("missing game file", "verify", "missing.json", dec, own_text=False)
        argv = ("decompose", game, "--method", "pairing", "--cover", dec)
        job("--cover with pairing", *argv, output="x.json")
        job("cover without a game", "cover", output="x.json")
        job("cover --full 25", "cover", "--full", "25", output="x.json")
        job("bounds 64", "bounds", "64")
        job("bounds without n", "bounds")
        assert not os.path.exists("x.json"), "a failed command wrote its output"
    finally:
        os.chdir(home)
    return table


def differences(found: dict[str, dict], recorded: dict[str, dict]) -> list[str]:
    """One line per job whose entry is not the recorded one, or that is on one side only."""
    lines = []
    for name in sorted(found.keys() | recorded.keys()):
        if name not in recorded:
            lines.append(f"{name}: not recorded")
        elif name not in found:
            lines.append(f"{name}: recorded but not run")
        elif found[name] != recorded[name]:
            keys = found[name].keys() | recorded[name].keys()
            fields = [k for k in sorted(keys) if found[name].get(k) != recorded[name].get(k)]
            lines.append(f"{name}: {', '.join(fields)} differ")
    return lines


def script(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: record_contract_digests.py [--check]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        found = run_corpus(Path(work))
    if argv:
        lines = differences(found, json.loads(TABLE.read_text()))
        print("\n".join(lines) or f"all {len(found)} jobs match {TABLE.name}")
        return 1 if lines else 0
    TABLE.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(found)} entries to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(script(sys.argv[1:]))
