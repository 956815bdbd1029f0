"""Guards on the public contract: the exported names, verify's independence,
the functions the benchmark tracer wraps, the library names tests import,
a command line that runs without numpy, the modules each command loads, and
the recorded digests of every command's output on a fixed corpus."""

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy  # noqa: F401  (loaded for the in-process run to compare with)
import pytest

import record_contract_digests as contract
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


def test_public_names_are_the_objects_of_their_home_modules():
    # Each name is defined at the top level of exactly one module, and the
    # package hands out that module's object.
    package = Path(simplegames.__file__).parent
    homes = {}
    for module in ("core", "codes", "decompose", "verify"):
        for node in ast.parse((package / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                homes.setdefault(name, []).append(module)
    for name in PUBLIC_NAMES:
        assert len(homes.get(name, [])) == 1, name
        home = importlib.import_module(f"simplegames.{homes[name][0]}")
        assert getattr(simplegames, name) is getattr(home, name)


# Lists, after a bare import of the package: the public names dir() misses,
# the submodules reached as attributes, the names a star import binds, and
# the public names the package then still lacks in its own namespace.
LAZY_EXPORTS = """
import json, simplegames
missing = sorted(set(simplegames.__all__) - set(dir(simplegames)))
modules = ("codes", "core", "decompose", "errors", "verify")
reached = [getattr(simplegames, m).__name__ for m in modules]
star = {}
exec("from simplegames import *", star)
uncached = sorted(set(simplegames.__all__) - set(vars(simplegames)))
print(json.dumps([missing, reached, sorted(set(star) - {"__builtins__"}), uncached]))
"""


def test_public_names_load_on_first_use():
    child = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_EXPORTS],
        env=dict(os.environ, PYTHONPATH=str(Path(simplegames.__file__).parents[1])),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    missing, reached, star, uncached = json.loads(child.stdout)
    assert missing == []
    assert reached == [
        f"simplegames.{m}" for m in ("codes", "core", "decompose", "errors", "verify")
    ]
    assert star == sorted(PUBLIC_NAMES)
    assert uncached == []
    with pytest.raises(
        AttributeError, match="^module 'simplegames' has no attribute 'no_such_name'$"
    ):
        simplegames.no_such_name


def test_verify_does_not_import_decompose():
    # verify is the independent oracle for every decomposition.  The kernels
    # under it, which the verify command runs on its own, also stay clear of
    # the covering codes and of the dataclasses in core.
    package = Path(simplegames.__file__).parent
    kernel = ("decompose", "codes", "core", "dataclasses")
    forbidden = {"verify.py": ("decompose",), "_losing.py": kernel, "_masks.py": kernel}
    for name, words in forbidden.items():
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            else:
                continue
            assert not [m for m in imported for w in words if w in m], (name, imported)


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


def test_cli_looks_library_functions_up_when_it_calls_them(tmp_path, monkeypatch):
    # The tracer swaps functions on their home modules; a command holding a
    # reference of its own would run past the wrapper and lose the span.
    calls = []

    def count(module: str, name: str) -> None:
        home = importlib.import_module(f"simplegames.{module}")
        original = getattr(home, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(home, name, counted)

    count("verify", "verify_decomposition")
    count("decompose", "taylor_zwicker")
    count("_losing", "_parts_losing")
    game, dec = tmp_path / "game.json", tmp_path / "tz.json"
    game.write_text(json.dumps({"n": 3, "maximal_losing": [[1, 2], [3]]}))
    argv = ["decompose", str(game), "--method", "taylor-zwicker", "--output", str(dec)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        assert calls == ["taylor_zwicker", "verify_decomposition"]
        assert main(["verify", str(game), str(dec)]) == 0
    # the verify command runs the kernel under verify_decomposition itself
    assert calls == ["taylor_zwicker", "verify_decomposition", "_parts_losing"]


def test_tests_import_only_public_names_from_the_library():
    # An oracle that imports a private helper changes along with the code
    # it checks.  Test modules take public names and upper-case constants.
    restricted = {
        f"simplegames.{m}"
        for m in ("core", "codes", "decompose", "verify", "_losing", "_masks")
    }
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


# Appended to WITHOUT_NUMPY: prints which modules of exact arithmetic loaded.
LOADED_EXACT = """
print(json.dumps([m for m in ("fractions", "decimal") if m in sys.modules]))
"""


def test_decompose_and_verify_leave_exact_arithmetic_unloaded(tmp_path):
    # Only bounds_report needs fractions, which loads decimal in turn.
    commands = [
        argv
        for argv in cli_commands(tmp_path / "child")
        if argv[0] in ("decompose", "verify")
    ]
    script = WITHOUT_NUMPY + LOADED_EXACT
    child = subprocess.run(
        [sys.executable, "-S", "-c", script, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=str(Path(simplegames.__file__).parents[1])),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    results, loaded = map(json.loads, child.stdout.splitlines())
    assert [rc for rc, _ in results] == [0] * 5 + [3]
    assert loaded == []


# Imports the package (argv[1] is null) or the CLI, runs the command line given
# as JSON in argv[1] if any, and prints on its last line which simplegames
# modules are loaded and which of typing, dataclasses and inspect are.
MODULES_LOADED = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import simplegames
else:
    from simplegames.cli import main
    if argv:
        main(argv)
loaded = sorted(m for m in sys.modules if m.startswith("simplegames."))
heavy = [m for m in ("typing", "dataclasses", "inspect") if m in sys.modules]
print(json.dumps([[m.split(".")[1] for m in loaded], heavy]))
"""


def loaded_modules(argv: list[str] | None) -> list:
    # -S skips site, whose .pth files may import modules of their own.
    child = subprocess.run(
        [sys.executable, "-S", "-c", MODULES_LOADED, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=str(Path(simplegames.__file__).parents[1])),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    assert loaded_modules(None) == [[], []]
    assert loaded_modules([]) == [["_masks", "cli", "errors"], []]
    # Keyed by command, and for decompose by method: only covering needs codes.
    # verify runs on masks, without the dataclasses of core and verify.
    runs = {
        "bounds": ["_masks", "cli", "codes", "core", "errors"],
        "cover": ["_masks", "cli", "codes", "core", "errors"],
        "covering": ["_losing", "_masks", "cli", "codes", "core", "decompose", "errors", "verify"],
        "pairing": ["_losing", "_masks", "cli", "core", "decompose", "errors", "verify"],
        "taylor-zwicker": ["_losing", "_masks", "cli", "core", "decompose", "errors", "verify"],
        "verify": ["_losing", "_masks", "cli", "errors"],
    }
    for argv in cli_commands(tmp_path / "work"):
        key = argv[3] if argv[0] == "decompose" else argv[0]
        heavy = [] if key == "verify" else ["dataclasses", "inspect"]
        assert loaded_modules(argv) == [runs[key], heavy], argv


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


def test_every_command_output_matches_its_recorded_digest(tmp_path):
    # A difference is a change to the command line's contract: rerun
    # tests/record_contract_digests.py and name each changed job in CHANGES.md.
    recorded = json.loads(contract.TABLE.read_text())
    found = contract.run_corpus(tmp_path)
    assert contract.differences(found, recorded) == []
    assert {entry["exit"] for entry in found.values()} == {0, 1, 3}
    found["bounds 9"]["stdout"] = contract.sha(b"")
    assert contract.differences(found, recorded) == ["bounds 9: stdout differ"]
