"""Core types and predicates for simple games given by maximal losing coalitions.

Players are numbered 1..n. A coalition is an n-bit mask with player i on
bit i-1, so player 1 is the least significant bit and sorting coalitions
by mask value yields the canonical deterministic order used everywhere in
this package.  Masks, player numbers, player counts and weights must be
exactly ``int`` (checked as ``type(v) is int``), so bools and floats are
refused where they enter.

The checks, the coalition formatter and the subset closure behind these
types are mask-level kernels in ``_masks``; the ``verify`` command calls
them without loading this module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property

from . import _masks
from ._masks import (
    _check_family,
    _check_fits,
    _check_part,
    _check_players,
    _format,
    _holders,
    _players,
    _subsets,
)
from .errors import CapExceeded, NonMonotoneOracle, PlayerOutOfRange

# The player cap and the weight limit, which the kernels check.
MAX_PLAYERS = _masks.MAX_PLAYERS
MAX_WEIGHT = _masks.MAX_WEIGHT


@dataclass(frozen=True, order=True, slots=True)
class Coalition:
    """A set of players stored as a bit mask (player i on bit i-1)."""

    mask: int

    def __post_init__(self) -> None:
        if type(self.mask) is not int or self.mask < 0:
            raise ValueError(f"coalition mask must be an int >= 0, got {self.mask!r}")

    @classmethod
    def from_players(cls, players: Iterable[int]) -> Coalition:
        """Build a coalition from 1-based player numbers."""
        mask = 0
        for p in players:
            if type(p) is not int or p < 1:
                raise PlayerOutOfRange(f"players are ints numbered from 1, got {p!r}")
            mask |= 1 << (p - 1)
        return cls(mask)

    @classmethod
    def of(cls, *players: int) -> Coalition:
        """Shorthand: ``Coalition.of(1, 3)`` is the coalition {1, 3}."""
        return cls.from_players(players)

    @property
    def players(self) -> tuple[int, ...]:
        """Members as ascending 1-based player numbers."""
        return _players(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, player: int) -> bool:
        return player >= 1 and self.mask >> (player - 1) & 1 == 1

    def issubset(self, other: Coalition) -> bool:
        return self.mask & ~other.mask == 0

    def __or__(self, other: Coalition) -> Coalition:
        return Coalition(self.mask | other.mask)

    def __and__(self, other: Coalition) -> Coalition:
        return Coalition(self.mask & other.mask)

    def __sub__(self, other: Coalition) -> Coalition:
        return Coalition(self.mask & ~other.mask)

    def __str__(self) -> str:
        return _format(self.mask)

    def __repr__(self) -> str:
        return f"Coalition.of({', '.join(str(p) for p in self.players)})"


def full_coalition(n: int) -> Coalition:
    """The grand coalition of all n players."""
    return Coalition((1 << n) - 1)


@dataclass(frozen=True)
class SimpleGame:
    """A simple game, represented by its family of maximal losing coalitions.

    A coalition loses exactly when it is contained in one of the maximal
    losing coalitions, and wins otherwise.  Construct instances through
    :func:`validate_game`, which checks the representation invariants.
    The set of losing coalitions is built on first use, and
    :func:`validate_game` hands over the one it built while checking the game.
    """

    n: int
    maximal_losing: tuple[Coalition, ...]

    @cached_property
    def _down_closure(self) -> int:
        """The losing coalitions as a 2**n-bit set."""
        n = self.n
        if n > MAX_PLAYERS:
            raise CapExceeded(f"truth tables need n <= {MAX_PLAYERS}, got {n}")
        masks = [t.mask for t in self.maximal_losing]
        _check_fits(n, masks)
        return _subsets(n, masks)[0]


@dataclass(frozen=True)
class WeightedGame:
    """A threshold game ``[quota; w_1, ..., w_n]`` with integers in 0..MAX_WEIGHT.

    A coalition wins exactly when its members' total weight reaches the
    quota.
    """

    quota: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        _check_part(self.quota, self.weights)

    @property
    def n(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return f"[{self.quota};{','.join(str(w) for w in self.weights)}]"


@dataclass(frozen=True)
class Decomposition:
    """An ordered list of weighted games whose intersection is a simple game."""

    n: int
    parts: tuple[WeightedGame, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        _check_players(self.n, "player count")
        if not self.parts:
            raise ValueError("a decomposition needs at least one part")
        for part in self.parts:
            if part.n != self.n:
                raise ValueError(
                    f"part {part} has {part.n} players, expected {self.n}"
                )


def validate_game(n: int, coalitions: Iterable[Coalition]) -> SimpleGame:
    """Check and canonicalize a family of maximal losing coalitions.

    Exact duplicates are dropped silently; the result holds the given
    coalitions, one per mask, in ascending mask order.  The antichain check
    reads the game's down-closure, which verify reuses, for any family size.

    Raises:
        PlayerOutOfRange: a coalition mentions a player outside 1..n.
        FullCoalitionLosing: the grand coalition was declared losing.
        EmptyFamily: no coalition given (the empty coalition must lose,
            so every game has at least one maximal losing coalition).
        AntichainViolation: one coalition contains another.
    """
    _check_players(n, "player count")
    given = {c.mask: c for c in coalitions}
    masks = sorted(given)
    losing = _check_family(n, masks, given.__getitem__)
    game = SimpleGame(n, tuple(given[m] for m in masks))
    object.__setattr__(game, "_down_closure", losing)  # fills the cached property
    return game


def is_winning(game: SimpleGame, s: Coalition) -> bool:
    """True unless ``s`` is contained in some maximal losing coalition."""
    _check_fits(game.n, (s.mask,))
    return all(s.mask & ~t.mask for t in game.maximal_losing)


def weighted_is_winning(wg: WeightedGame, s: Coalition) -> bool:
    """True when the total weight of the members of ``s`` reaches the quota."""
    _check_fits(wg.n, (s.mask,))
    total = sum(w for i, w in enumerate(wg.weights) if s.mask >> i & 1)
    return total >= wg.quota


def hamming_distance(x: Coalition, y: Coalition) -> int:
    """Size of the symmetric difference of the two coalitions."""
    return (x.mask ^ y.mask).bit_count()


def derive_maximal_losing(
    n: int, winning_oracle: Callable[[Coalition], bool]
) -> tuple[Coalition, ...]:
    """Enumerate the maximal losing coalitions of a monotone win/lose oracle.

    The oracle is called once per coalition, in ascending mask order.  The
    losing ones go through the down-closure of :func:`validate_game`, which
    adds nothing exactly when the oracle is monotone, and those not strictly
    inside another are returned in ascending mask order.  The result is
    empty exactly when the oracle accepts everything (such an oracle
    describes no valid game, and :func:`validate_game` rejects it).

    Raises:
        CapExceeded: n exceeds MAX_PLAYERS.
        NonMonotoneOracle: some winning coalition has a losing superset.
            It names the first winner, by mask, with a losing one-player
            extension, and the first such extension.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"player count must be a positive int, got {n}")
    if n > MAX_PLAYERS:
        raise CapExceeded(f"exhaustive scan needs n <= {MAX_PLAYERS}, got {n}")
    losing = (m for m in range(1 << n) if not winning_oracle(Coalition(m)))
    closed, inside, family = _subsets(n, losing)
    if closed != family:  # some winner lies below a loser
        # per player i, the winners without i that lose once i joins
        m, i = min(
            ((w & -w).bit_length() - 1, i)
            for i, holders in _holders(n)
            if (w := family >> (1 << i) & ~family & ~holders)
        )
        raise NonMonotoneOracle(Coalition(m), Coalition(m | 1 << i))
    maximal = bin(family & ~inside)[:1:-1]
    return tuple(Coalition(m) for m, bit in enumerate(maximal) if bit == "1")
