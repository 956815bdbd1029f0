"""Simple games as maximal losing coalitions, decomposed into weighted games.

Importing the package loads none of its modules: each public name is
imported from its home module on first use, so a command that never
decomposes never compiles ``decompose``.
"""

from importlib import import_module

# Public name -> home module, in the pinned order of __all__.
_HOMES = {
    "MAX_PLAYERS": "core",
    "BoundsReport": "codes",
    "Cluster": "decompose",
    "ClusterCase": "decompose",
    "Coalition": "core",
    "Code": "codes",
    "Decomposition": "core",
    "PairingPlan": "decompose",
    "SimpleGame": "core",
    "TradeCertificate": "verify",
    "VerificationReport": "verify",
    "WeightedGame": "core",
    "bounds_report": "codes",
    "check_trade_certificate": "verify",
    "cluster_partition": "decompose",
    "cluster_to_weighted": "decompose",
    "covering_radius_at_most": "codes",
    "decompose_covering": "decompose",
    "decompose_pairing": "decompose",
    "derive_maximal_losing": "core",
    "find_trade_certificate": "verify",
    "full_coalition": "core",
    "full_cover": "codes",
    "greedy_cover": "codes",
    "hamming_code": "codes",
    "hamming_distance": "core",
    "is_winning": "core",
    "pair_partition": "decompose",
    "pair_to_weighted": "decompose",
    "simple_game_table": "verify",
    "taylor_zwicker": "decompose",
    "validate_game": "core",
    "verify_decomposition": "verify",
    "weighted_game_table": "verify",
    "weighted_is_winning": "core",
}
_MODULES = ("codes", "core", "decompose", "errors", "verify")

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _MODULES:  # simplegames.core after a bare import simplegames
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
