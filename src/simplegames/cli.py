"""Command line front end: decompose, cover, bounds, verify.

Files are JSON objects with 1-based player numbers:

* game:           {"n": 4, "maximal_losing": [[1, 3], [2, 4]]}
* code:           {"n": 4, "centers": [[4], [1, 2, 3]]}
* decomposition:  {"n": 4, "method": "covering", "part_count": 2,
                   "parts": [{"quota": 2, "weights": [1, 1, 2, 0]}]}

Exit codes: 0 success, 1 parse/validation error, 2 internal verification
failure while decomposing, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .codes import Code, bounds_report, full_cover, greedy_cover
from .core import (
    MAX_PLAYERS,
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
    is_winning,
    validate_game,
)
from .decompose import decompose_covering, decompose_pairing, taylor_zwicker
from .errors import GameError
from .verify import verify_decomposition

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_MISMATCH = 3

METHODS = ("taylor-zwicker", "covering", "pairing")


# ------------------------------------------------------------------- file io


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # Decode errors, bad UTF-8, oversized integers and deep nesting.
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _save_json(obj: dict, path: str) -> None:
    # Streamed: the text of a large code file is never held whole in memory.
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _player_count(data: dict, path: str) -> int:
    n = data.get("n")
    if type(n) is not int:
        raise ValueError(f"{path}: field 'n' must be an integer")
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"{path}: field 'n' must be in 1..{MAX_PLAYERS}, got {n}")
    return n


def _coalition_list(data: dict, key: str, path: str, n: int) -> list[Coalition]:
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


def load_game(path: str) -> SimpleGame:
    data = _load_json(path)
    n = _player_count(data, path)
    return validate_game(n, _coalition_list(data, "maximal_losing", path, n))


def save_game(game: SimpleGame, path: str) -> None:
    _save_json(
        {"n": game.n, "maximal_losing": [list(c.players) for c in game.maximal_losing]},
        path,
    )


def load_code(path: str) -> Code:
    data = _load_json(path)
    n = _player_count(data, path)
    return Code(n, tuple(_coalition_list(data, "centers", path, n)))


def save_code(code: Code, path: str) -> None:
    _save_json({"n": code.n, "centers": [list(c.players) for c in code.centers]}, path)


def load_decomposition(path: str) -> Decomposition:
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
        parts.append(WeightedGame(entry.get("quota"), tuple(weights)))
    return Decomposition(n, tuple(parts))


def save_decomposition(dec: Decomposition, method: str, path: str) -> None:
    parts = [{"quota": p.quota, "weights": list(p.weights)} for p in dec.parts]
    _save_json(
        {"n": dec.n, "method": method, "part_count": len(parts), "parts": parts}, path
    )


# ----------------------------------------------------------------- commands


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.method != "covering" and (args.cover is not None or args.full_code):
        raise ValueError("--cover/--full-code only apply to --method covering")
    game = load_game(args.input)
    if args.method == "taylor-zwicker":
        dec = taylor_zwicker(game)
        bound, note = len(game.maximal_losing), "maximal losing coalitions"
    elif args.method == "covering":
        if args.cover is not None:
            code = load_code(args.cover)
            if code.n != game.n:
                raise ValueError(
                    f"cover is for {code.n} players but the game has {game.n}"
                )
        elif args.full_code:
            code = full_cover(game.n)
        else:
            code = greedy_cover(game.n, game.maximal_losing)
        dec = decompose_covering(game, code)
        bound, note = len(code), "cover size"
    else:
        dec = decompose_pairing(game)
        bound, note = len(dec.parts), "pairs plus singletons"
    report = verify_decomposition(game, dec)
    if not report.equivalent:
        print(
            f"internal error: decomposition disagrees with the game at "
            f"{report.first_mismatch}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    save_decomposition(dec, args.method, args.output)
    print(f"parts: {len(dec.parts)}")
    print(f"bound: {bound} ({note})")
    return EXIT_OK


def cmd_cover(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.full is None):
        raise ValueError("give either a game file or --full N")
    if args.full is not None:
        code = full_cover(args.full)
        save_code(code, args.output)
        print(f"centers: {len(code)}")
        report = bounds_report(args.full)
        known = report.kn_exact if report.kn_exact is not None else "unknown"
        print(f"known-minimum: {known}")
        print(f"log-upper-bound: {float(report.kn_upper_log):.2f}")
    else:
        game = load_game(args.input)
        code = greedy_cover(game.n, game.maximal_losing)
        save_code(code, args.output)
        print(f"centers: {len(code)}")
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    report = bounds_report(args.n)
    kn = report.kn_exact if report.kn_exact is not None else "?"
    row = (
        f"n={report.n}"
        f"  formula-lower={report.lower_bound_formula}"
        f"  kn={kn}"
        f"  kn-log-upper~={float(report.kn_upper_log):.2f}"
        f"  sperner={report.sperner_bound}"
        f"  sperner-1={report.taylor_zwicker_minus_one}"
    )
    if report.known_bounds_row is not None:
        lower, upper = report.known_bounds_row
        row += f"  table-lower={lower}  table-upper={upper}"
    print(row)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    dec = load_decomposition(args.decomposition)
    report = verify_decomposition(game, dec)
    if report.equivalent:
        print(f"EQUIVALENT ({report.coalitions_checked} coalitions checked)")
        return EXIT_OK
    c = report.first_mismatch
    game_side = "winning" if is_winning(game, c) else "losing"
    dec_side = "losing" if game_side == "winning" else "winning"
    print(f"MISMATCH at {c}: game={game_side}, decomposition={dec_side}")
    return EXIT_MISMATCH


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for internal verification failures, so
    # usage errors exit 1 like every other input problem.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplegames",
        description="Decompose simple games into intersections of weighted games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a game and verify the result")
    p.add_argument("input", help="game file")
    p.add_argument("--method", choices=METHODS, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cover", help="code file to cluster around (covering only)")
    group.add_argument(
        "--full-code",
        action="store_true",
        help="cluster around a cover of the whole cube (covering only)",
    )
    p.add_argument("--output", required=True, help="decomposition file to write")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cover", help="compute a radius-1 cover")
    p.add_argument("input", nargs="?", help="game file whose family to cover")
    p.add_argument("--full", type=int, help="cover the whole cube of this length")
    p.add_argument("--output", required=True, help="code file to write")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("bounds", help="print dimension bounds for a length")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="check a decomposition against its game")
    p.add_argument("game", help="game file")
    p.add_argument("decomposition", help="decomposition file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
