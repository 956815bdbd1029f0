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
import gc
import json
import os
import sys

from .core import (
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
    _check_players,
    is_winning,
    validate_game,
)
from .errors import GameError

# Each command imports the library modules it runs, inside its function: verify
# never compiles codes or decompose, bounds and cover never decompose or verify.
TYPE_CHECKING = False  # type checkers take it as True; typing stays unloaded
if TYPE_CHECKING:
    from typing import NoReturn

    from .codes import Code

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_MISMATCH = 3

METHODS = ("taylor-zwicker", "covering", "pairing")


# ------------------------------------------------------------------- file io


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (ValueError, RecursionError) as exc:
        # Decode errors, bad UTF-8, oversized integers and deep nesting.
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


# Output files are json.dumps(obj, indent=2) + "\n" and end in a list.  The C
# encoder serves only indent=None, so its items are rendered here, in blocks.
_BLOCK = 4096
_PART = '    {\n      "quota": %s,\n      "weights": [\n        %s\n      ]\n    }'


def _save_object(path: str, fields: dict, key: str, items, render) -> None:
    # render(block) is the text of up to _BLOCK items, joined by ",\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({**fields, key: []}, indent=2)[:-4] + "[")  # cut "[]\n}"
        for start in range(0, len(items), _BLOCK):
            f.write((",\n" if start else "\n") + render(items[start : start + _BLOCK]))
        f.write("\n  ]\n}\n" if items else "]\n}\n")


def _save_masks(path: str, n: int, key: str, masks) -> None:
    # tables[k][b]: ",\n      p" per player p = 8k + i + 1, bit i of b; n <= 24.
    lo, mid, hi = tables = [[""], [""], [""]]
    for p in range(24):
        tables[p >> 3] += [f"{s},\n      {p + 1}" for s in tables[p >> 3]]

    def render(m: int) -> str:
        body = lo[m & 255] + mid[m >> 8 & 255] + hi[m >> 16]
        return f"    [{body[1:]}\n    ]" if body else "    []"

    def render_block(block) -> str:
        return ",\n".join(map(render, block))

    _save_object(path, {"n": n}, key, masks, render_block)


def _player_count(data: dict, path: str) -> int:
    n = data.get("n")
    if type(n) is not int:
        raise ValueError(f"{path}: field 'n' must be an integer")
    _check_players(n, f"{path}: field 'n'")
    return n


def _mask_list(data: dict, key: str, path: str, n: int) -> list[int]:
    raw = data.get(key)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: field '{key}' must be a list of player lists")
    # Keys are the ints 1..n; a bad player (true, 1.0) or entry looks up None.
    bits = {p: 1 << (p - 1) for p in range(1, n + 1)}
    out = []
    try:
        for entry in raw:
            mask = 0
            for p in entry if isinstance(entry, list) else [None]:
                mask |= bits[p if type(p) is int else None]
            out.append(mask)
    except KeyError:
        raise ValueError(f"{path}: '{key}' entries must be lists of players 1..{n}")
    return out


def load_game(path: str) -> SimpleGame:
    data = _load_json(path)
    n = _player_count(data, path)
    return validate_game(n, map(Coalition, _mask_list(data, "maximal_losing", path, n)))


def save_game(game: SimpleGame, path: str) -> None:
    _save_masks(path, game.n, "maximal_losing", [c.mask for c in game.maximal_losing])


def load_code(path: str) -> Code:
    from .codes import Code

    data = _load_json(path)
    n = _player_count(data, path)
    return Code._of_masks(n, _mask_list(data, "centers", path, n))


def save_code(code: Code, path: str) -> None:
    _save_masks(path, code.n, "centers", code._masks)


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
    part = _PART % ("%d", ",\n        ".join(["%d"] * dec.n))  # n + 1 slots

    def render(block: tuple[WeightedGame, ...]) -> str:
        values = []
        for p in block:
            values.append(p.quota)
            values += p.weights
        return ",\n".join([part] * len(block)) % tuple(values)

    fields = {"n": dec.n, "method": method, "part_count": len(dec.parts)}
    _save_object(path, fields, "parts", dec.parts, render)


# ----------------------------------------------------------------- commands


def cmd_decompose(args: argparse.Namespace) -> int:
    from .decompose import decompose_covering, decompose_pairing, taylor_zwicker
    from .verify import verify_decomposition

    if args.method != "covering" and (args.cover is not None or args.full_code):
        raise ValueError("--cover/--full-code only apply to --method covering")
    game = load_game(args.input)
    if args.method == "taylor-zwicker":
        dec = taylor_zwicker(game)
        bound, note = len(game.maximal_losing), "maximal losing coalitions"
    elif args.method == "covering":
        from .codes import full_cover, greedy_cover

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
    from .codes import bounds_report, full_cover, greedy_cover

    if (args.input is None) == (args.full is None):
        raise ValueError("give either a game file or --full N")
    if args.full is None:
        game = load_game(args.input)
        code = greedy_cover(game.n, game.maximal_losing)
    else:
        code = full_cover(args.full)
    save_code(code, args.output)
    print(f"centers: {len(code)}")
    if args.full is not None:
        report = bounds_report(args.full)
        known = report.kn_exact if report.kn_exact is not None else "unknown"
        print(f"known-minimum: {known}")
        print(f"log-upper-bound: {float(report.kn_upper_log):.2f}")
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    from .codes import bounds_report

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
    from .verify import verify_decomposition

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


def run() -> NoReturn:
    """Process entry point: ``main()`` on ``sys.argv``, then exit at once.

    The pipeline's data holds no reference cycles, so the cyclic collector
    only walks live objects and is switched off.  Once stdout and stderr are
    flushed, ``os._exit`` skips interpreter teardown and atexit handlers;
    output files are closed by then.  If a flush fails, ``sys.exit`` lets the
    interpreter report it as usual (exit 120).  Usage errors and uncaught
    exceptions leave ``main()`` by the normal exit path.
    """
    gc.disable()
    status = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
