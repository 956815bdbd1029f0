"""Guards on the public contract: the exported names, verify's independence,
the functions the benchmark tracer wraps, the library names tests import,
and a command line that runs without numpy."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy  # noqa: F401  (loaded for the in-process run to compare with)

import simplegames
from simplegames.cli import main

PUBLIC_NAMES = [
    "MAX_PLAYERS",
    "BoundsReport",
    "Cluster",
    "ClusterCase",
    "Coalition",
    "Code",
    "Decomposition",
    "PairingPlan",
    "SimpleGame",
    "TradeCertificate",
    "VerificationReport",
    "WeightedGame",
    "bounds_report",
    "check_trade_certificate",
    "cluster_partition",
    "cluster_to_weighted",
    "covering_radius_at_most",
    "decompose_covering",
    "decompose_pairing",
    "derive_maximal_losing",
    "find_trade_certificate",
    "full_coalition",
    "full_cover",
    "greedy_cover",
    "hamming_code",
    "hamming_distance",
    "is_winning",
    "pair_partition",
    "pair_to_weighted",
    "simple_game_table",
    "taylor_zwicker",
    "validate_game",
    "verify_decomposition",
    "weighted_game_table",
    "weighted_is_winning",
]


def test_public_names_are_pinned():
    assert simplegames.__all__ == PUBLIC_NAMES
    assert all(hasattr(simplegames, name) for name in PUBLIC_NAMES)


def test_verify_does_not_import_decompose():
    # verify is the independent oracle for every decomposition.
    source = Path(simplegames.__file__).with_name("verify.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert "decompose" not in (node.module or "")
            assert all("decompose" not in a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert all("decompose" not in a.name for a in node.names)


def test_traced_names_are_module_level_functions():
    # The benchmark tracer wraps these by name; a renamed or moved function
    # would drop out of the per-layer metrics without any error.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    )
    package = Path(simplegames.__file__).parent
    for module, names in traced.items():
        tree = ast.parse((package / f"{module}.py").read_text())
        functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        missing = set(names) - functions
        assert not missing, f"simplegames.{module} has no function {sorted(missing)}"


def test_tests_import_only_public_names_from_the_library():
    # An oracle that imports a private helper changes along with the code
    # it checks.  Test modules take public names and upper-case constants.
    restricted = {f"simplegames.{m}" for m in ("core", "codes", "decompose", "verify")}
    allowed = set(simplegames.__all__)
    offenders = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in restricted:
                offenders += [
                    f"{path.name}: {node.module}.{a.name}"
                    for a in node.names
                    if a.name not in allowed and not a.name.isupper()
                ]
    assert not offenders


# Runs each command line given as JSON in argv[1] through the CLI with numpy
# unimportable, and prints the exit codes and stdout as JSON.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from simplegames.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
print(json.dumps(results))
"""


def cli_commands(work: Path) -> list[list[str]]:
    """Every command on a small game, writing its outputs into work."""
    work.mkdir()
    game, wrong = work / "game.json", work / "wrong.json"
    game.write_text(json.dumps({"n": 4, "maximal_losing": [[1, 3], [1, 4], [2, 3], [2, 4]]}))
    wrong.write_text(
        json.dumps(
            {
                "n": 4,
                "method": "covering",
                "part_count": 1,
                "parts": [{"quota": 2, "weights": [1, 1, 2, 0]}],
            }
        )
    )
    decompose = ["decompose", str(game), "--method"]
    return [
        ["bounds", "9"],
        ["cover", "--full", "7", "--output", str(work / "full7.json")],
        ["cover", str(game), "--output", str(work / "cover.json")],
        decompose + ["taylor-zwicker", "--output", str(work / "tz.json")],
        decompose + ["covering", "--output", str(work / "covering.json")],
        decompose + ["covering", "--full-code", "--output", str(work / "full.json")],
        decompose + ["pairing", "--output", str(work / "pairing.json")],
        ["verify", str(game), str(work / "covering.json")],
        ["verify", str(game), str(wrong)],
    ]


def test_cli_runs_without_numpy(tmp_path):
    src = str(Path(simplegames.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps(cli_commands(tmp_path / "child"))],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    expected = []
    for argv in cli_commands(tmp_path / "local"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            expected.append([main(argv), out.getvalue()])
    assert json.loads(child.stdout) == expected
    assert [rc for rc, _ in expected] == [0] * 8 + [3]
    written = sorted(p.name for p in (tmp_path / "local").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "child").iterdir())
    for name in written:
        assert (tmp_path / "child" / name).read_bytes() == (
            tmp_path / "local" / name
        ).read_bytes()


# Appended to WITHOUT_NUMPY: prints which of these modules the commands loaded.
LOADED = """
print(json.dumps([m for m in ("numpy", "importlib.resources") if sys.modules.get(m)]))
"""


def test_commands_load_only_the_standard_library(tmp_path):
    # -S skips site, whose .pth files may import modules of their own.
    commands = json.dumps(cli_commands(tmp_path / "child"))
    child = subprocess.run(
        [sys.executable, "-S", "-c", WITHOUT_NUMPY + LOADED, commands],
        env=dict(os.environ, PYTHONPATH=str(Path(simplegames.__file__).parents[1])),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    results, loaded = map(json.loads, child.stdout.splitlines())
    assert [rc for rc, _ in results] == [0] * 8 + [3]
    assert loaded == []


def test_numpy_is_imported_only_by_the_table_adapter():
    importers = []
    for path in sorted(Path(simplegames.__file__).parent.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "numpy" for m in modules):
                    importers.append(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert importers == ["verify._winning_table"]
