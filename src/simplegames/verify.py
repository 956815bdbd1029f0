"""Exhaustive equivalence checks and two-trade witnesses of non-weightedness.

The truth tables here are computed straight from the definitions (subset
of a maximal losing coalition; weight sum against quota) and are therefore
independent of how a decomposition was constructed.  A losing set is held
as one int of 2**n bits, bit m for the coalition with mask m; only the
public table functions turn it into a numpy array, and only they import
numpy.  The losing sets of the parts come from the kernels in ``_losing``,
which work on ``(quota, weights)`` pairs; the ``verify`` command calls them
itself, without this module.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ._losing import _check_dimension, _part_losing, _parts_losing
from .core import (
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
    is_winning,
    weighted_is_winning,
)
from .errors import CapExceeded, UnbalancedTrade

# Certificate search scans losing pairs times submasks, roughly 4**n work.
TRADE_SEARCH_MAX_PLAYERS = 10

GameLike = SimpleGame | WeightedGame | Decomposition | Callable[[Coalition], bool]


@dataclass(frozen=True)
class TradeCertificate:
    """Two losing and two winning coalitions using the same player multiset.

    Swapping players between the losing pair produces the winning pair, so
    under any single quota/weight assignment the pairs would have equal
    total weight: below twice the quota on one side, at least twice the
    quota on the other.  A valid certificate therefore proves the game has
    no weighted representation.
    """

    losing_pair: tuple[Coalition, Coalition]
    winning_pair: tuple[Coalition, Coalition]


@dataclass(frozen=True)
class VerificationReport:
    """A game compared with a decomposition on all ``coalitions_checked`` coalitions.

    ``first_mismatch`` is the smallest coalition, by mask, that one side lets
    win and the other lose; it is None exactly when ``equivalent`` is true.
    """

    equivalent: bool
    first_mismatch: Coalition | None
    coalitions_checked: int


def _pairs(parts: tuple[WeightedGame, ...]) -> list[tuple[int, tuple[int, ...]]]:
    return [(p.quota, p.weights) for p in parts]


def _winning_table(n: int, losing: int) -> numpy.ndarray:
    """The bool table of the masks whose bit is clear, indexed by mask."""
    import numpy as np

    raw = np.frombuffer(losing.to_bytes((1 << n) + 7 >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=1 << n, bitorder="little") == 0


def simple_game_table(game: SimpleGame) -> numpy.ndarray:
    """Winning truth table over all 2**n coalitions, indexed by mask."""
    return _winning_table(game.n, game._down_closure)


def weighted_game_table(wg: WeightedGame) -> numpy.ndarray:
    """Winning truth table of a weighted game, indexed by mask."""
    return _winning_table(wg.n, _part_losing(wg.quota, wg.weights))


def decomposition_table(dec: Decomposition) -> numpy.ndarray:
    """Winning truth table of the intersection of the parts, indexed by mask."""
    return _winning_table(dec.n, _parts_losing(dec.n, _pairs(dec.parts)))


def verify_decomposition(game: SimpleGame, dec: Decomposition) -> VerificationReport:
    """Compare the game and the intersection of the parts on every coalition.

    Both sides are losing sets held as 2**n-bit integers; the smallest
    mismatching coalition (by mask) is the lowest bit of their difference.
    """
    _check_dimension(game.n, dec.n)
    diff = game._down_closure ^ _parts_losing(dec.n, _pairs(dec.parts))
    return VerificationReport(
        equivalent=not diff,
        first_mismatch=Coalition((diff & -diff).bit_length() - 1) if diff else None,
        coalitions_checked=1 << game.n,
    )


def _winning_predicate(game: GameLike) -> Callable[[Coalition], bool]:
    if isinstance(game, SimpleGame):
        return lambda s: is_winning(game, s)
    if isinstance(game, WeightedGame):
        return lambda s: weighted_is_winning(game, s)
    if isinstance(game, Decomposition):
        return lambda s: all(weighted_is_winning(p, s) for p in game.parts)
    return game


def _require_balanced(cert: TradeCertificate) -> None:
    l1, l2 = cert.losing_pair
    w1, w2 = cert.winning_pair
    top = (l1 | l2 | w1 | w2).mask.bit_length()
    for i in range(top):
        losing_count = (l1.mask >> i & 1) + (l2.mask >> i & 1)
        winning_count = (w1.mask >> i & 1) + (w2.mask >> i & 1)
        if losing_count != winning_count:
            raise UnbalancedTrade(
                f"player {i + 1} appears {losing_count} time(s) in the losing "
                f"pair but {winning_count} in the winning pair"
            )


def check_trade_certificate(game: GameLike, cert: TradeCertificate) -> bool:
    """True when the certificate really does disprove weightedness of the game.

    The game may be a SimpleGame, a WeightedGame, a Decomposition, or any
    win/lose predicate on coalitions.  A malformed (unbalanced) certificate
    raises UnbalancedTrade.
    """
    _require_balanced(cert)
    win = _winning_predicate(game)
    l1, l2 = cert.losing_pair
    w1, w2 = cert.winning_pair
    return not win(l1) and not win(l2) and win(w1) and win(w2)


def find_trade_certificate(
    game: SimpleGame, cap: int = TRADE_SEARCH_MAX_PLAYERS
) -> TradeCertificate | None:
    """Search all balanced two-trades for a witness of non-weightedness.

    Enumerates pairs of losing coalitions in canonical order and, for each,
    every redistribution of their symmetric difference; the first
    redistribution turning both into winners is returned.  Absence of a
    certificate does not prove the game weighted, it only rules out this
    particular obstruction.
    """
    if game.n > cap:
        raise CapExceeded(
            f"certificate search needs n <= {cap}, got {game.n}"
        )
    lost = game._down_closure
    losing = [m for m in range(1 << game.n) if lost >> m & 1]
    for i, l1 in enumerate(losing):
        for l2 in losing[i:]:
            shared = l1 & l2
            diff = l1 ^ l2
            sub = 0
            while True:
                w1 = shared | sub
                w2 = shared | (diff ^ sub)
                if not (lost >> w1 | lost >> w2) & 1:
                    return TradeCertificate(
                        losing_pair=(Coalition(l1), Coalition(l2)),
                        winning_pair=(
                            Coalition(min(w1, w2)),
                            Coalition(max(w1, w2)),
                        ),
                    )
                if sub == diff:
                    break
                sub = (sub - diff) & diff  # next submask of diff, ascending
    return None
