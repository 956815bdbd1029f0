"""Radius-1 binary covering codes and the size bounds they imply.

A code is a collection of coalitions ("centers").  It covers a target
coalition when some center is within Hamming distance 1 of it.  Perfect
Hamming codes cover the whole n-cube with 2**n/(n+1) centers for
n = 2**m - 1; for arbitrary target sets a greedy set cover does the job.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from functools import cached_property

from ._masks import _check_fits, _check_players
from .core import MAX_PLAYERS, Coalition
from .errors import MOutOfRange

HAMMING_MIN_M = 2
HAMMING_MAX_M = 4
_BALL = (0, *(1 << i for i in range(MAX_PLAYERS)))  # flips from a mask to its radius-1 ball

# Known lower and upper bounds on the maximum dimension of an n-player
# simple game, keyed by n.
_KNOWN_BOUNDS = {
    6: (4, 12),
    7: (7, 16),
    8: (14, 32),
    9: (18, 62),
    10: (36, 120),
    11: (66, 192),
    12: (132, 380),
    13: (166, 704),
    14: (325, 1408),
    15: (585, 2048),
}
BOUNDS_TABLE_MIN_N = min(_KNOWN_BOUNDS)
BOUNDS_TABLE_MAX_N = max(_KNOWN_BOUNDS)

TYPE_CHECKING = False  # type checkers take it as True; typing stays unloaded
if TYPE_CHECKING:  # bounds_report imports it, to keep it out of start-up
    from fractions import Fraction


@dataclass(frozen=True, init=False, eq=False)
class Code:
    """A non-empty, duplicate-free, ordered collection of center coalitions.

    Each code holds one table: a listed code the dict whose keys are its
    center masks in code order, first occurrence kept, and a :func:`full_cover`
    its syndrome table.  ``_masks`` and ``centers`` list them on the first read.
    Two codes are equal when their lengths and their centers, in order, are.
    """

    n: int
    _index = None  # a listed code's centers, as dict keys in code order; not a field
    _syndromes = None  # a full cover's table; not a field

    def __init__(self, n: int, centers: Iterable[Coalition]) -> None:
        self._hold(n, (c.mask for c in centers))

    @classmethod
    def _of_masks(cls, n: int, masks: Iterable[int]) -> Code:
        return cls.__new__(cls)._hold(n, masks)

    def _hold(self, n: int, masks: Iterable[int]) -> Code:
        """Check and keep the centers: the one check of both constructors."""
        _check_players(n, "length")
        index = dict.fromkeys(masks)
        if not index:
            raise ValueError("a code needs at least one center")
        _check_fits(n, index, "center ")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_index", index)
        return self

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The centers in code order: ascending for a full cover (see full_cover)."""
        if self._index is not None:
            return tuple(self._index)
        base = [mask for mask, s in enumerate(self._syndromes) if s == 0]
        pads = range(0, 1 << self.n, len(self._syndromes))  # subsets after b
        return tuple(c | pad for pad in pads for c in base)

    def __eq__(self, other: object) -> bool:
        return type(other) is Code and (self.n, self._masks) == (other.n, other._masks)

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def _nearest(self, x: int) -> int | None:
        """Mask x's nearest center: x if a center, else the smallest at distance 1, else None.

        A full cover flips the player that the syndrome of x names, or no one
        when the syndrome is 0; any other code looks up x's radius-1 ball in
        its center index.  A mask with players beyond the code's length is
        covered only when it is a center plus exactly one such player.
        """
        wide = x >> self.n << self.n
        if wide:
            c = x ^ wide
            return c if wide.bit_count() == 1 and self._nearest(c) == c else None
        if self._syndromes is not None:  # syndrome s flips bit s - 1, or none when 0
            return x ^ (1 << self._syndromes[x & len(self._syndromes) - 1] >> 1)
        index = self._index
        if x in index:
            return x
        return min([x ^ f for f in _BALL[1 : self.n + 1] if x ^ f in index], default=None)

    def _in_order(self, centers: Collection[int]) -> list[int]:
        """Some of the code's centers in code order: ascending for a full cover."""
        if self._index is None:
            return sorted(centers)
        return [c for c in self._index if c in centers]

    @cached_property
    def centers(self) -> tuple[Coalition, ...]:
        return tuple(map(Coalition, self._masks))

    def __len__(self) -> int:
        if self._index is not None:
            return len(self._index)
        pads = (1 << self.n) // len(self._syndromes)
        return self._syndromes.count(0) * pads  # codewords times pads


@dataclass(frozen=True)
class BoundsReport:
    """Everything this package knows about dimension bounds at one length n.

    ``lower_bound_formula`` is the counting lower bound
    C(n, floor(n/2)) / n; ``kn_exact`` is the minimum covering-code size
    when a closed form exists (n = 2**m - 1 or n = 2**m), else None;
    ``kn_upper_log`` is the dominating-set upper bound
    (ln(n+1) + 1) * 2**n / (n+1); ``known_bounds_row`` carries the
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


def greedy_cover(n: int, targets: Iterable[Coalition]) -> Code:
    """Cover every target within distance 1 using greedy set cover.

    Candidate centers are exactly the coalitions within distance 1 of some
    target; any ball that covers a target has its center there, so nothing
    is lost by skipping the rest of the cube.  Each round picks the
    candidate covering the most uncovered targets, ties broken by smallest
    mask.  Centers are returned in selection order.

    One byte per mask counts the uncovered targets in its ball, at most
    n + 1: the counts are made once, and each target a chosen center newly
    covers takes one off every mask in its own ball, k * (n + 1) decrements
    for k targets in all.  The next center is the first mask, from the last
    center on, whose count is ``top``, the highest count left.  Counts only
    fall, so no mask before the last center can reach ``top`` again; when
    none is left, ``top`` steps down and the scan starts over from mask 0.
    """
    _check_players(n, "length")
    target_masks = sorted({t.mask for t in targets})
    if not target_masks:
        raise ValueError("need at least one target to cover")
    _check_fits(n, target_masks, "target ")
    ball = _BALL[: n + 1]
    count = bytearray(1 << n)
    for t in target_masks:
        for f in ball:
            count[t ^ f] += 1
    uncovered = set(target_masks)
    chosen: list[int] = []
    top, c = n + 1, 0
    while uncovered:
        c = count.find(top, c)
        if c < 0:  # top never reaches 0: an uncovered target counts itself
            top, c = top - 1, 0
            continue
        chosen.append(c)
        for t in [c ^ f for f in ball if c ^ f in uncovered]:
            uncovered.remove(t)
            for f in ball:
                count[t ^ f] -= 1
    return Code._of_masks(n, chosen)


def full_cover(n: int) -> Code:
    """A radius-1 cover of the whole n-cube, in ascending mask order.

    Takes the perfect Hamming code on the longest length b = 2**m - 1 <= n.
    A coalition of the first b players is a codeword exactly when its
    syndrome, the XOR of its member numbers, is zero; flipping player j
    changes the syndrome by j, so the codewords' radius-1 balls tile the
    b-cube (for b = 1 the one codeword {} covers both coalitions).  Each
    codeword is padded with every subset of the remaining n - b players,
    which gives 2**(n - b) * 2**(b - m) centers, the exact minimum when
    n = b.  The code keeps the syndrome table and lists its centers only
    when they are read.
    """
    _check_players(n, "length")
    b = (1 << ((n + 1).bit_length() - 1)) - 1
    syndromes = [0]  # syndromes[mask] for every mask on the players seen so far
    for j in range(1, b + 1):
        syndromes += [s ^ j for s in syndromes]
    code = Code.__new__(Code)
    object.__setattr__(code, "n", n)
    object.__setattr__(code, "_syndromes", syndromes)
    return code


def covering_radius_at_most(code: Code, targets: Iterable[Coalition], r: int) -> bool:
    """True when every target is within distance r of some center."""
    return all(any((t.mask ^ c).bit_count() <= r for c in code._masks) for t in targets)


def bounds_report(n: int) -> BoundsReport:
    """Collect every bound this package knows for length n (1 <= n <= 63)."""
    if type(n) is not int or not 1 <= n <= 63:
        raise ValueError(f"bounds are reported for 1 <= n <= 63, got {n}")
    from fractions import Fraction

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
        known_bounds_row=_KNOWN_BOUNDS.get(n),
    )
