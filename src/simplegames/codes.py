"""Radius-1 binary covering codes and the size bounds they imply.

A code is a collection of coalitions ("centers").  It covers a target
coalition when some center is within Hamming distance 1 of it.  Perfect
Hamming codes cover the whole n-cube with 2**n/(n+1) centers for
n = 2**m - 1; for arbitrary target sets a greedy set cover does the job.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from typing import Iterable

from .core import MAX_PLAYERS, Coalition, hamming_distance
from .errors import MOutOfRange, PlayerOutOfRange

HAMMING_MIN_M = 2
HAMMING_MAX_M = 4

BOUNDS_TABLE_MIN_N = 6
BOUNDS_TABLE_MAX_N = 15


@dataclass(frozen=True)
class Code:
    """A non-empty, duplicate-free, ordered collection of center coalitions."""

    n: int
    centers: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        _check_length(self.n)
        object.__setattr__(self, "centers", tuple(dict.fromkeys(self.centers)))
        for c in self.centers:
            if not c.fits(self.n):
                raise PlayerOutOfRange(f"center {c} does not fit into {self.n} players")
        if not self.centers:
            raise ValueError("a code needs at least one center")

    def __len__(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class BoundsReport:
    """Everything this package knows about dimension bounds at one length n.

    ``lower_bound_formula`` is the counting lower bound
    C(n, floor(n/2)) / n; ``kn_exact`` is the minimum covering-code size
    when a closed form exists (n = 2**m - 1 or n = 2**m), else None;
    ``kn_upper_log`` is the dominating-set upper bound
    (ln(n+1) + 1) * 2**n / (n+1); ``known_bounds_row`` carries the bundled
    known (lower, upper) dimension bounds for 6 <= n <= 15.
    """

    n: int
    sperner_bound: int
    taylor_zwicker_minus_one: int
    lower_bound_formula: Fraction
    kn_exact: int | None
    kn_upper_log: Fraction
    known_bounds_row: tuple[int, int] | None


def hamming_code(m: int) -> Code:
    """The perfect radius-1 code of length n = 2**m - 1 (see :func:`full_cover`)."""
    if type(m) is not int or not HAMMING_MIN_M <= m <= HAMMING_MAX_M:
        raise MOutOfRange(
            f"supported range is {HAMMING_MIN_M} <= m <= {HAMMING_MAX_M}, got {m}"
        )
    return full_cover((1 << m) - 1)


def _check_length(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"length must be in 1..{MAX_PLAYERS}, got {n}")


def _ball(mask: int, n: int) -> list[int]:
    """The mask itself plus all single-bit flips."""
    return [mask] + [mask ^ (1 << i) for i in range(n)]


def greedy_cover(n: int, targets: Iterable[Coalition]) -> Code:
    """Cover every target within distance 1 using greedy set cover.

    Candidate centers are exactly the coalitions within distance 1 of some
    target; any ball that covers a target has its center there, so nothing
    is lost by skipping the rest of the cube.  Each round picks the
    candidate covering the most uncovered targets, ties broken by smallest
    mask.  Centers are returned in selection order.

    The rounds are lazy (Minoux's accelerated greedy): a heap holds every
    candidate under ``(-count, mask)`` with a count that may be stale, and
    only the popped top is re-counted.  If its fresh count still equals its
    key it is taken; otherwise it goes back under the fresh count, or is
    dropped at 0.  Counts only fall as targets get covered, so every other
    key bounds its candidate's fresh count from above: nobody covers more
    than the winner, and a candidate covering as many sits behind it in the
    heap only with a larger mask.  That is the same pick as a full rescan.
    """
    _check_length(n)
    target_masks = sorted({t.mask for t in targets})
    if not target_masks:
        raise ValueError("need at least one target to cover")
    for t in target_masks:
        if t >> n:
            raise PlayerOutOfRange(f"target {Coalition(t)} does not fit into {n} players")
    uncovered = set(target_masks)

    def count(c: int) -> int:
        return len(uncovered.intersection(_ball(c, n)))

    heap = [(-count(c), c) for c in {c for t in target_masks for c in _ball(t, n)}]
    heapq.heapify(heap)
    chosen: list[int] = []
    while uncovered:
        key, c = heapq.heappop(heap)  # never empty: an uncovered target counts itself
        fresh = count(c)
        if fresh == -key:
            chosen.append(c)
            uncovered.difference_update(_ball(c, n))
        elif fresh:
            heapq.heappush(heap, (-fresh, c))
    return Code(n, tuple(Coalition(c) for c in chosen))


def full_cover(n: int) -> Code:
    """A radius-1 cover of the whole n-cube, in ascending mask order.

    Takes the perfect Hamming code on the longest length b = 2**m - 1 <= n.
    A coalition of the first b players is a codeword exactly when its
    syndrome, the XOR of its member numbers, is zero; flipping player j
    changes the syndrome by j, so the codewords' radius-1 balls tile the
    b-cube (for b = 1 the one codeword {} covers both coalitions).  Each
    codeword is padded with every subset of the remaining n - b players,
    which gives 2**(n - b) * 2**(b - m) centers, the exact minimum when
    n = b.
    """
    _check_length(n)
    b = (1 << ((n + 1).bit_length() - 1)) - 1
    syndromes = [0]  # syndromes[mask] for every mask on the players seen so far
    for j in range(1, b + 1):
        syndromes += [s ^ j for s in syndromes]
    base = [mask for mask, s in enumerate(syndromes) if s == 0]
    centers = (c | suffix << b for suffix in range(1 << (n - b)) for c in base)
    return Code(n, tuple(Coalition(c) for c in centers))


def covering_radius_at_most(code: Code, targets: Iterable[Coalition], r: int) -> bool:
    """True when every target is within distance r of some center."""
    return all(
        any(hamming_distance(t, c) <= r for c in code.centers) for t in targets
    )


@cache
def _bounds_table() -> dict[int, tuple[int, int]]:
    text = resources.files("simplegames").joinpath("data/dimension_bounds.txt").read_text()
    table: dict[int, tuple[int, int]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, lower, upper = (int(tok) for tok in line.split())
        table[n] = (lower, upper)
    return table


def bounds_report(n: int) -> BoundsReport:
    """Collect every bound this package knows for length n (1 <= n <= 63)."""
    if type(n) is not int or not 1 <= n <= 63:
        raise ValueError(f"bounds are reported for 1 <= n <= 63, got {n}")
    sperner = math.comb(n, n // 2)
    if (n + 1).bit_count() == 1:
        kn_exact = (1 << n) // (n + 1)
    elif n.bit_count() == 1:
        kn_exact = (1 << n) // n
    else:
        kn_exact = None
    kn_upper_log = (Fraction(math.log(n + 1)) + 1) * Fraction(1 << n, n + 1)
    return BoundsReport(
        n=n,
        sperner_bound=sperner,
        taylor_zwicker_minus_one=sperner - 1,
        lower_bound_formula=Fraction(sperner, n),
        kn_exact=kn_exact,
        kn_upper_log=kn_upper_log,
        known_bounds_row=_bounds_table().get(n),
    )
