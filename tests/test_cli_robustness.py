"""Arbitrary JSON as game, code and decomposition files never crashes the CLI.

Every command must end in exit 0, 1 or 3 with no traceback, quickly.
Files are drawn in the expected shape, with or without arbitrary JSON mixed
in at every level; a well-formed file never has more than 8 players, so
that the exhaustive checks stay cheap.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import reduce_to_maximal, write_hostile_verify_files
from simplegames import Coalition
from simplegames.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, main
from simplegames.core import MAX_PLAYERS

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)

# Counts above 8 that the loaders accept would make the 2**n checks slow.
player_counts = st.integers(-1, 8) | json_values.filter(
    lambda v: not (type(v) is int and 9 <= v <= MAX_PLAYERS)
)


@st.composite
def cli_files(draw) -> tuple[object, object, object]:
    """Game, code and decomposition file contents sharing a player count.

    Each file is either tidy, with every field in range (a tidy game is a
    valid game), or has arbitrary JSON mixed in at every level.
    """
    tidy = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    n = draw(st.integers(1, 8) if any(tidy) else player_counts)
    width = n if type(n) is int and 1 <= n <= 8 else 4

    def content(tidy: bool, **fields) -> object:
        def leaf(good):
            return good if tidy else good | st.integers(-1, width + 1) | json_values

        players = leaf(st.lists(leaf(st.integers(1, width)), max_size=width))
        weights = leaf(st.integers(0, 4))
        shapes = {
            "n": st.just(n) if tidy else st.just(n) | player_counts,
            "coalitions": leaf(st.lists(players, max_size=6)),
            "part_count": leaf(st.integers(0, 4)),
            "parts": leaf(
                st.lists(
                    leaf(
                        st.fixed_dictionaries(
                            {
                                "quota": weights,
                                "weights": leaf(
                                    st.lists(weights, min_size=width, max_size=width)
                                ),
                            }
                        )
                    ),
                    min_size=1,
                    max_size=4,
                )
            ),
        }
        return draw(leaf(st.fixed_dictionaries({k: shapes[v] for k, v in fields.items()})))

    if tidy[0]:
        # A tidy game is a valid one, so that the commands get past loading.
        masks = draw(st.sets(st.integers(0, (1 << n) - 2), min_size=1, max_size=6))
        family = [list(Coalition(m).players) for m in reduce_to_maximal(masks)]
        game = {"n": n, "maximal_losing": family}
    else:
        game = content(False, n="n", maximal_losing="coalitions")
    code = content(tidy[1], n="n", centers="coalitions")
    dec = content(tidy[2], n="n", part_count="part_count", parts="parts")
    # A part count that matches the parts, so that the weights get read.
    if isinstance(dec, dict) and isinstance(dec.get("parts"), list) and draw(st.booleans()):
        dec["part_count"] = len(dec["parts"])
    return game, code, dec


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert time.perf_counter() - start < 10, argv
    return rc, out.getvalue(), err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(cli_files())
def test_arbitrary_json_files_end_in_a_defined_exit_code(files):
    with tempfile.TemporaryDirectory() as tmp:
        game, code, dec, out = (Path(tmp, f) for f in ("g.json", "c.json", "d.json", "o.json"))
        for path, value in zip((game, code, dec), files):
            path.write_text(json.dumps(value))
        decompose = ["decompose", str(game), "--output", str(out), "--method"]
        commands = [
            decompose + ["taylor-zwicker"],
            decompose + ["pairing"],
            decompose + ["covering"],
            decompose + ["covering", "--cover", str(code)],
            decompose + ["covering", "--full-code"],
            ["cover", str(game), "--output", str(out)],
            ["verify", str(game), str(dec)],
        ]
        for argv in commands:
            rc, _, err = run(argv)
            assert rc in (EXIT_OK, EXIT_INPUT, EXIT_MISMATCH), (argv, err)
            assert "Traceback" not in err
            if rc == EXIT_INPUT:
                assert len(err.splitlines()) == 1 and err.startswith("error:")
            if rc == EXIT_OK and argv[0] == "decompose":
                rc, _, err = run(["verify", str(game), str(out)])
                assert (rc, err) == (EXIT_OK, "")


def test_verify_bounds_its_work_on_random_heavy_weights(tmp_path):
    # Five n=24 parts with random weights below 2**40 and about 2**24
    # distinct subset sums each: verify must still answer inside the bound.
    game, dec = write_hostile_verify_files(tmp_path)
    assert run(["verify", str(game), str(dec)]) == (
        EXIT_MISMATCH,
        "MISMATCH at {1, 13}: game=winning, decomposition=losing\n",
        "",
    )
