"""Guards on the public contract: the exported names, verify's independence,
the functions the benchmark tracer wraps and the library names tests import."""

import ast
from pathlib import Path

import simplegames

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
