"""Exhaustive equivalence checks and two-trade witnesses of non-weightedness.

The truth tables here are computed straight from the definitions (subset
of a maximal losing coalition; weight sum against quota) and are therefore
independent of how a decomposition was constructed.  A losing set is held
as one int of 2**n bits, bit m for the coalition with mask m; only the
public table functions turn it into a numpy array, and only they import
numpy.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate

from .core import (
    MAX_PLAYERS,
    Coalition,
    Decomposition,
    SimpleGame,
    WeightedGame,
    _subsets,
    is_winning,
    weighted_is_winning,
)
from .errors import CapExceeded, DimensionMismatch, UnbalancedTrade

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


def _part_losing(part: WeightedGame) -> int:
    """Bit m set iff the members of mask m weigh less than the part's quota.

    below(i, x), the masks of players 1..i that weigh less than x, is empty
    for x <= 0, everything for x above the players' total, and otherwise
    below(i - 1, x) | below(i - 1, x - w_i) << 2**(i - 1).  Every x between
    two subset sums of players 1..i gives the same set, so on the low levels
    (2i <= n) x is moved up to the next subset sum.  Level i then holds at
    most min(2**i + 1, 2**(n - i)) states, and each costs 2**i bits.
    :func:`_parts_losing` ORs these sets when there are few parts, and for
    a part whose maximal losing masks take too long to list.
    """
    weights = part.weights
    n = len(weights)
    if n > MAX_PLAYERS:
        raise CapExceeded(f"truth tables need n <= {MAX_PLAYERS}, got {n}")
    totals = list(accumulate(weights, initial=0))
    sums: dict[int, list[int]] = {}
    memo: dict[tuple[int, int], int] = {}

    def below(i: int, x: int) -> int:
        if x <= 0:
            return 0
        if x > totals[i]:
            return (1 << (1 << i)) - 1
        if 2 * i <= n and totals[i] >= 1 << i:
            if i not in sums:
                subset = [0]
                for w in weights[:i]:
                    subset += [s + w for s in subset]
                sums[i] = sorted(set(subset))
            x = sums[i][bisect_left(sums[i], x)]
        key = (i, x)
        bits = memo.get(key)
        if bits is None:
            low, high = below(i - 1, x), below(i - 1, x - weights[i - 1])
            bits = memo[key] = low | high << (1 << i - 1)
        return bits

    bits = below(n, part.quota)
    # below refers to itself; unbound, the memo goes now rather than at the
    # next garbage collection
    del below
    return bits


def _maximal_losing(part: WeightedGame, budget: int) -> list[int] | None:
    """The part's maximal losing masks, or None after ``budget`` search nodes.

    With a positive quota q, players of weight 0 are in every maximal losing
    coalition and players of weight at least q in none.  A depth-first search
    decides the other, light, players heaviest first: it adds a player while
    the sum stays below q, leaves one out only while the sum plus all the
    players still to come reaches q, and takes every player still to come
    once they all fit.  Every node then leads to a leaf, and each leaf S is
    maximal: w(S) < q <= w(S) + w for the lightest light weight w left out.
    """
    q = part.quota
    if not q:
        return []
    base = 0
    light = []
    for i, w in enumerate(part.weights):
        if not w:
            base |= 1 << i
        elif w < q:
            light.append((w, 1 << i))
    if not light:
        return [base]
    light.sort(reverse=True)
    rest = [0] * (len(light) + 1)  # weight and mask of light[j:]
    rest_bits = rest[:]
    for j in range(len(light) - 1, -1, -1):
        rest[j] = rest[j + 1] + light[j][0]
        rest_bits[j] = rest_bits[j + 1] | light[j][1]
    found = []
    stack = [(0, 0, base)]
    while stack:
        budget -= 1
        if budget < 0:
            return None
        j, s, mask = stack.pop()
        if s + rest[j] < q:
            found.append(mask | rest_bits[j])
            continue
        w, bit = light[j]
        stack.append((j + 1, s, mask))
        if s + w < q:
            stack.append((j + 1, s + w, mask | bit))
    return found


def _parts_losing(n: int, parts: tuple[WeightedGame, ...]) -> int:
    """Bit m set iff mask m loses at least one of the parts.

    Up to 8 * n parts, each part's set comes from :func:`_part_losing` and
    is ORed in: about parts * 2**n bits of work.  Past that, the union is the
    down-closure of all the parts' maximal losing masks (:func:`_maximal_losing`),
    one ``_subsets`` call of n passes over 2**n bits whatever the part count.
    A part that needs more than 32 * n search nodes to list its masks goes
    through :func:`_part_losing` instead, so hostile parts cost at most
    that much more.  The parts the tool writes list one mask per member of
    their game.  On taylor-zwicker parts (2 CPUs, Python 3.11) the closure
    was faster from about 10 parts at n=12..14, 60 at n=18, 100-140 at
    n=20 and 100-250 at n=22..24.  At n=24, the 14 402 to 20 000 parts of
    20 000 coalitions take 0.3-0.4 s this way and 13-21 s part by part.
    """
    closure = len(parts) > 8 * n
    losing = 0
    masks: list[int] = []
    for part in parts:
        found = _maximal_losing(part, 32 * n) if closure else None
        if found is None:
            losing |= _part_losing(part)
        else:
            masks += found
    return losing | _subsets(n, masks)[0] if masks else losing


def _winning_table(n: int, losing: int) -> numpy.ndarray:
    """The bool table of the masks whose bit is clear, indexed by mask."""
    import numpy as np

    raw = np.frombuffer(losing.to_bytes((1 << n) + 7 >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=1 << n, bitorder="little") == 0


def simple_game_table(game: SimpleGame) -> numpy.ndarray:
    """Winning truth table over all 2**n coalitions, indexed by mask."""
    return _winning_table(game.n, game._down_closure[0])


def weighted_game_table(wg: WeightedGame) -> numpy.ndarray:
    """Winning truth table of a weighted game, indexed by mask."""
    return _winning_table(wg.n, _part_losing(wg))


def decomposition_table(dec: Decomposition) -> numpy.ndarray:
    """Winning truth table of the intersection of the parts, indexed by mask."""
    return _winning_table(dec.n, _parts_losing(dec.n, dec.parts))


def verify_decomposition(game: SimpleGame, dec: Decomposition) -> VerificationReport:
    """Compare the game and the intersection of the parts on every coalition.

    Both sides are losing sets held as 2**n-bit integers; the smallest
    mismatching coalition (by mask) is the lowest bit of their difference.
    """
    if game.n != dec.n:
        raise DimensionMismatch(
            f"game has {game.n} players but decomposition has {dec.n}"
        )
    diff = game._down_closure[0] ^ _parts_losing(dec.n, dec.parts)
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
    lost = game._down_closure[0]
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
