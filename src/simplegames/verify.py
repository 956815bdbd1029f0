"""Exhaustive equivalence checks and two-trade witnesses of non-weightedness.

The truth tables here are computed straight from the definitions (subset
of a maximal losing coalition; weight sum against quota) and are therefore
independent of how a decomposition was constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    MAX_PLAYERS,
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
    is_winning,
    weighted_is_winning,
)
from .errors import CapExceeded, DimensionMismatch, UnbalancedTrade

# Certificate search scans losing pairs times submasks, roughly 4**n work.
TRADE_SEARCH_MAX_PLAYERS = 10

# Half-sum cells (parts times 2**ceil(n/2)) the threshold tables hold at once;
# larger chunks save little time and raise peak memory.
CHUNK_CELLS = 1 << 14

GameLike = Union[SimpleGame, WeightedGame, Decomposition, Callable[[Coalition], bool]]


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
    equivalent: bool
    first_mismatch: Optional[Coalition]
    coalitions_checked: int


def simple_game_table(game: SimpleGame) -> np.ndarray:
    """Winning truth table over all 2**n coalitions, indexed by mask."""
    if game.n > MAX_PLAYERS:
        raise CapExceeded(f"truth tables need n <= {MAX_PLAYERS}, got {game.n}")
    losing = np.zeros(1 << game.n, dtype=bool)
    losing[[t.mask for t in game.maximal_losing]] = True
    for i in range(game.n):
        # pairs[:, 0] holds the masks without player i + 1, pairs[:, 1] the
        # same masks with it; after all passes losing[m] iff m is a submask
        # of a marked mask
        pairs = losing.reshape(-1, 2, 1 << i)
        pairs[:, 0] |= pairs[:, 1]
    return ~losing


def _subset_sums(weights: np.ndarray) -> np.ndarray:
    """Row r, column m: the sum of weights[r, i] over the bits i of m."""
    rows, count = weights.shape
    sums = np.zeros((rows, 1 << count), dtype=np.int64)
    for i in range(count):
        bit = 1 << i
        np.add(sums[:, :bit], weights[:, i : i + 1], out=sums[:, bit : 2 * bit])
    return sums


def _threshold_table(n: int, parts: tuple[WeightedGame, ...]) -> np.ndarray:
    """Truth table of the intersection of weighted games, indexed by mask.

    Meet in the middle: a mask is a column (its low h bits) and a row (the
    rest), and it wins a part iff lo[column] >= quota - hi[row], with lo and
    hi the subset sums of the part's low and high weights.  Each row of the
    table is then one vectorised comparison per chunk of parts, for
    parts * 2**n comparisons in all and about 2**n bytes of table plus
    a few arrays of at most CHUNK_CELLS cells.
    """
    if n > MAX_PLAYERS:
        raise CapExceeded(f"truth tables need n <= {MAX_PLAYERS}, got {n}")
    h = (n + 1) // 2
    table = np.ones((1 << (n - h), 1 << h), dtype=bool)
    step = max(1, CHUNK_CELLS >> h)
    for start in range(0, len(parts), step):
        chunk = parts[start : start + step]
        weights = np.array([p.weights for p in chunk], dtype=np.int64)
        quotas = np.array([[p.quota] for p in chunk], dtype=np.int64)
        lo = _subset_sums(weights[:, :h])
        need = quotas - _subset_sums(weights[:, h:])
        for r, row in enumerate(table):
            row &= (lo >= need[:, r : r + 1]).all(axis=0)
    return table.reshape(-1)


def weighted_game_table(wg: WeightedGame) -> np.ndarray:
    """Winning truth table of a weighted game, indexed by mask."""
    return _threshold_table(wg.n, (wg,))


def decomposition_table(dec: Decomposition) -> np.ndarray:
    """Winning truth table of the intersection of the parts, indexed by mask."""
    return _threshold_table(dec.n, dec.parts)


def verify_decomposition(game: SimpleGame, dec: Decomposition) -> VerificationReport:
    """Compare the game and the intersection of the parts on every coalition.

    Reports the smallest mismatching coalition (by mask) if any.
    """
    if game.n != dec.n:
        raise DimensionMismatch(
            f"game has {game.n} players but decomposition has {dec.n}"
        )
    mismatches = np.nonzero(simple_game_table(game) != decomposition_table(dec))[0]
    first = Coalition(int(mismatches[0])) if mismatches.size else None
    return VerificationReport(
        equivalent=mismatches.size == 0,
        first_mismatch=first,
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
) -> Optional[TradeCertificate]:
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
    wins = simple_game_table(game)
    losing = [int(m) for m in np.nonzero(~wins)[0]]
    for i, l1 in enumerate(losing):
        for l2 in losing[i:]:
            shared = l1 & l2
            diff = l1 ^ l2
            sub = 0
            while True:
                w1 = shared | sub
                w2 = shared | (diff ^ sub)
                if wins[w1] and wins[w2]:
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
