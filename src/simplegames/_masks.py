"""Mask-level checks and closures behind the public types of ``core``.

A coalition here is a bare n-bit mask (player i on bit i-1), and a set of
coalitions one int of 2**n bits.  ``core`` wraps these kernels in its
dataclasses; the ``verify`` command calls them on the masks it reads, so
this module imports neither ``dataclasses`` nor any other module of the
package but ``errors``.
"""

from __future__ import annotations

from .errors import (
    AntichainViolation,
    EmptyFamily,
    FullCoalitionLosing,
    PlayerOutOfRange,
)

TYPE_CHECKING = False  # type checkers take it as True; typing stays unloaded
if TYPE_CHECKING:
    from collections.abc import Callable, Collection, Iterable, Iterator, Sequence

# Single knob for every exhaustive 2**n scan in the package.
MAX_PLAYERS = 24

# Largest weight or quota a weighted game may hold, and so the largest
# number the file loader accepts in a decomposition.
MAX_WEIGHT = 1 << 58


def _players(mask: int) -> tuple[int, ...]:
    """Members of the mask as ascending 1-based player numbers."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _format(mask: int) -> str:
    """The coalition as printed everywhere: ``{1, 3}``."""
    return "{" + ", ".join(map(str, _players(mask))) + "}"


def _check_players(n: int, what: str) -> None:
    """Refuse a player count (or code length) that is not an int in 1..MAX_PLAYERS."""
    if type(n) is not int or not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"{what} must be in 1..{MAX_PLAYERS}, got {n}")


def _check_fits(n: int, masks: Collection[int], what: str = "") -> None:
    """Refuse the first of the masks that holds a player beyond n."""
    if max(masks, default=0) >> n:
        m = next(m for m in masks if m >> n)
        raise PlayerOutOfRange(f"{what}{_format(m)} does not fit into {n} players")


def _check_part(quota: int, weights: Sequence[int]) -> tuple[int, Sequence[int]]:
    """Refuse a weighted game without players or with a value outside 0..MAX_WEIGHT."""
    if not weights:
        raise ValueError("a weighted game needs at least one player")
    for v in (quota, *weights):
        if type(v) is not int or not 0 <= v <= MAX_WEIGHT:
            raise ValueError(f"quota and weights must be integers in 0..{MAX_WEIGHT}")
    return quota, weights


def _holders(n: int) -> Iterator[tuple[int, int]]:
    """Yield (i, bits of the masks that hold player i + 1) for i = n-1 down to 0.

    The masks holding player i + 1 are those holding player i + 2, XOR that
    set shifted down by 2**i (Knuth, TAOCP Vol. 4A, 7.1.3).
    """
    bits = (1 << (1 << n)) - (1 << (1 << n - 1))
    for i in range(n - 1, -1, -1):
        yield i, bits
        bits ^= bits >> (1 << i) // 2


def _subsets(n: int, masks: Iterable[int]) -> tuple[int, int, int]:
    """Bitsets: every subset of the masks, those strictly inside another, the masks."""
    marked = bytearray((1 << n) + 7 >> 3)
    for m in masks:
        marked[m >> 3] |= 1 << (m & 7)
    family = closed = int.from_bytes(marked, "little")
    del marked  # 2**n / 8 bytes fewer through the passes
    below = 0
    for i, holders in _holders(n):
        # drop player i + 1 from every subset found so far
        dropped = (closed & holders) >> (1 << i)
        closed |= dropped
        below |= dropped
    return closed, family & below, family


def _check_family(
    n: int, masks: Sequence[int], name: Callable[[int], object] = _format
) -> int:
    """Check distinct ascending maximal losing masks as a game; return its losing set.

    The checks :func:`simplegames.core.validate_game` makes after the player
    count, in its order; an :class:`AntichainViolation` holds ``name`` of
    the two masks.
    """
    _check_fits(n, masks, "coalition ")
    if masks and masks[-1] == (1 << n) - 1:
        raise FullCoalitionLosing(f"the grand coalition of all {n} players must win")
    if not masks:
        raise EmptyFamily("a game needs at least one losing coalition")
    closed, inside = _subsets(n, masks)[:2]
    if inside:
        small = (inside & -inside).bit_length() - 1
        large = next(m for m in masks if m & small == small != m)
        raise AntichainViolation(name(small), name(large))
    return closed
