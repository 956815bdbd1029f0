"""Losing sets of weighted parts, the kernels of every exhaustive verification.

A part is a pair ``(quota, weights)`` and a set of coalitions one int of
2**n bits, bit m for the coalition with mask m.  ``verify`` calls these
kernels on its public types and the ``verify`` command on the pairs it
reads; only those two load this module, so the other commands never
compile it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

from ._masks import MAX_PLAYERS, _subsets
from .errors import CapExceeded, DimensionMismatch

TYPE_CHECKING = False  # type checkers take it as True; typing stays unloaded
if TYPE_CHECKING:
    from collections.abc import Sequence

    Part = tuple[int, Sequence[int]]


def _part_losing(quota: int, weights: Sequence[int]) -> int:
    """Bit m set iff the members of mask m weigh less than the quota.

    below(i, x), the masks of players 1..i that weigh less than x, is empty
    for x <= 0, everything for x above their total t_i, and otherwise
    below(i - 1, x) | below(i - 1, x - w_i) << 2**(i - 1).  Every x between
    two subset sums gives the same set, so where 2i <= n and t_i >= 2**i, x
    is moved up to the next one (a smaller t_i has fewer than 2**i distinct
    x anyway).  Level i holds at most min(2**i + 1, 2**(n - i)) states of
    2**i bits.  :func:`_parts_losing` ORs these sets when there are few
    parts, and for a part whose maximal losing masks take too long to list.
    """
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

    bits = below(n, quota)
    # below refers to itself; unbound, the memo goes now rather than at the
    # next garbage collection
    del below
    return bits


def _maximal_losing(quota: int, weights: Sequence[int], budget: int) -> list[int] | None:
    """The part's maximal losing masks, or None after ``budget`` search nodes.

    With a positive quota q, players of weight 0 are in every maximal losing
    coalition and players of weight at least q in none.  A depth-first search
    decides the other, light, players heaviest first: it adds a player while
    the sum stays below q, leaves one out only while the sum plus all the
    players still to come reaches q, and takes every player still to come
    once they all fit.  Every node then leads to a leaf, and each leaf S is
    maximal: w(S) < q <= w(S) + w for the lightest light weight w left out.
    """
    if not quota:
        return []
    base = 0
    light = []
    for i, w in enumerate(weights):
        if not w:
            base |= 1 << i
        elif w < quota:
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
        if s + rest[j] < quota:
            found.append(mask | rest_bits[j])
            continue
        w, bit = light[j]
        stack.append((j + 1, s, mask))
        if s + w < quota:
            stack.append((j + 1, s + w, mask | bit))
    return found


def _parts_losing(n: int, parts: Sequence[Part]) -> int:
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
    for quota, weights in parts:
        found = _maximal_losing(quota, weights, 32 * n) if closure else None
        if found is None:
            losing |= _part_losing(quota, weights)
        else:
            masks += found
    return losing | _subsets(n, masks)[0] if masks else losing


def _check_dimension(n: int, parts_n: int) -> None:
    """Refuse parts over another number of players than the game's n."""
    if n != parts_n:
        raise DimensionMismatch(f"game has {n} players but decomposition has {parts_n}")
