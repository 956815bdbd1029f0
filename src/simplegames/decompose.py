"""Decompositions of a simple game into intersections of weighted games.

If the maximal losing coalitions are split into groups, the game is the
intersection of the games the groups define: a coalition loses exactly
when it lies inside some maximal losing coalition, i.e. when it loses in
at least one group.  Each method picks groups whose games are weighted.
``taylor_zwicker`` makes one group per coalition.  ``decompose_covering``
groups the coalitions within distance 1 of each center of a radius-1
covering code; in an antichain a group is the center alone, or lies all
below it, or all above it.  ``decompose_pairing`` greedily matches pairs
at distance 2 or 3 and leaves the rest alone, so it never needs more
parts than ``taylor_zwicker``.

Every part comes from one weight rule, ``_part``: quota q, weight 1 on
``ones``, q - 1 on ``heavy``, 0 on ``zeros`` and q on everyone else.  In
each row below a coalition reaches q exactly when it lies inside no
member of the group.  ``spread`` is the players in which some cluster
member differs from the center; x is the pair member with more players
outside the other.

=======================  ========  ======  =====  ===============
part                     q         ones    heavy  zeros
=======================  ========  ======  =====  ===============
single coalition t       1         none    none   t
cluster, center alone    1         none    none   center
cluster below center     |spread|  spread  none   center - spread
cluster above center     2         spread  none   center
pair x, y at distance d  d         x - y   y - x  x & y
=======================  ========  ======  =====  ===============
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Coalition, Decomposition, SimpleGame, WeightedGame
from .errors import BadPairDistance, MixedCluster, NotACover

# decompose_covering imports greedy_cover when it needs one, so that the
# other methods never load codes.
TYPE_CHECKING = False  # type checkers take it as True; typing stays unloaded
if TYPE_CHECKING:
    from .codes import Code


class ClusterCase(Enum):
    """Shape of a cluster relative to its center."""

    BELOW_CENTER = "below-center"
    EXACTLY_CENTER = "exactly-center"
    ABOVE_CENTER = "above-center"


@dataclass(frozen=True)
class Cluster:
    """A group of maximal losing coalitions within distance 1 of a center.

    For an antichain the three shapes in :class:`ClusterCase` are the only
    possibilities: a member at distance 1 is the center plus or minus one
    player, and mixing sides (or including the center alongside others)
    would put one member inside another.
    """

    center: Coalition
    members: tuple[Coalition, ...]
    case_tag: ClusterCase

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        if not self.members:
            raise ValueError("a cluster needs at least one member")
        # Members are distinct, so {EXACTLY_CENTER} means the center alone.
        if {_side(self.center.mask, m.mask) for m in self.members} != {self.case_tag}:
            raise MixedCluster(
                f"members {[str(m) for m in self.members]} do not form a "
                f"{self.case_tag.value} cluster around {self.center}"
            )


def _side(center: int, member: int) -> ClusterCase | None:
    """The shape a member gives a cluster around the center; None beyond distance 1."""
    flip = center ^ member
    if not flip:
        return ClusterCase.EXACTLY_CENTER
    if flip & (flip - 1):
        return None
    return ClusterCase.BELOW_CENTER if center & flip else ClusterCase.ABOVE_CENTER


@dataclass(frozen=True)
class PairingPlan:
    """A maximal matching of the maximal losing coalitions at distance <= 3.

    ``pairs`` and ``singletons`` together partition the family; no two
    singletons are within distance 3 of each other (otherwise the greedy
    matching would have paired them).
    """

    pairs: tuple[tuple[Coalition, Coalition], ...]
    singletons: tuple[Coalition, ...]


def _part(n: int, q: int, ones: int, zeros: int, heavy: int = 0) -> WeightedGame:
    """The game with quota q: weight 1 on ones, q - 1 on heavy, 0 on zeros.

    Everyone else weighs q.  The masks are disjoint and clipped to n players.
    """
    weights = [q] * n
    for mask, w in (ones, 1), (heavy, q - 1), (zeros, 0):
        rest = mask & (1 << n) - 1
        while rest:
            low = rest & -rest
            weights[low.bit_length() - 1] = w
            rest ^= low
    return WeightedGame(q, tuple(weights))


def taylor_zwicker(game: SimpleGame) -> Decomposition:
    """One weighted game per maximal losing coalition, in canonical order.

    Each is the single-coalition row of the module's table: a coalition
    wins the part for t iff it holds a player outside t.
    """
    parts = tuple(_part(game.n, 1, 0, t.mask) for t in game.maximal_losing)
    return Decomposition(game.n, parts)


def _groups(game: SimpleGame, code: Code) -> list[tuple[int, list[Coalition], int]]:
    """Each used center, in code order, with its members and their spread.

    Each coalition joins the center ``Code._nearest`` names; the spread is
    the OR of member ^ center.  Raises NotACover for the first one uncovered.
    """
    members: dict[int, list[Coalition]] = {}
    spread: dict[int, int] = {}
    for x in game.maximal_losing:
        c = code._nearest(x.mask)
        if c is None:
            raise NotACover(x)
        members.setdefault(c, []).append(x)
        spread[c] = spread.get(c, 0) | x.mask ^ c
    return [(c, members[c], spread[c]) for c in code._in_order(members)]


def _cluster(center: int, members: list[Coalition]) -> Cluster:
    """The Cluster of a group, with the shape its first member gives it."""
    return Cluster(Coalition(center), tuple(members), _side(center, members[0].mask))


def _cluster_part(n: int, center: int, spread: int) -> WeightedGame:
    """The weighted game of a cluster, from its center and spread alone."""
    # q is |spread| below the center, 1 for the center alone, 2 above it.
    q = (spread & center).bit_count() or 1 + bool(spread)
    return _part(n, q, spread, center & ~spread)


def cluster_partition(game: SimpleGame, code: Code) -> list[Cluster]:
    """Assign every maximal losing coalition to a covering center.

    Each coalition goes to the center ``Code._nearest`` names.  Clusters
    come back in the code's center order with empty ones dropped.

    Raises NotACover if some maximal losing coalition is farther than
    distance 1 from every center.
    """
    return [_cluster(c, members) for c, members, _ in _groups(game, code)]


def cluster_to_weighted(cluster: Cluster, n: int) -> WeightedGame:
    """Express the game of one cluster as a weighted game.

    The weights are the cluster rows of the module's table.  Below the
    center a coalition beats every member iff it leaves the center or
    keeps all of spread; above it, iff it has a player outside
    center+spread or two of the spread players.
    """
    c = cluster.center.mask
    spread = 0
    for m in cluster.members:
        spread |= m.mask ^ c
    return _cluster_part(n, c, spread)


def decompose_covering(
    game: SimpleGame, code: Code | None = None
) -> Decomposition:
    """Decompose via a radius-1 cover of the maximal losing coalitions.

    With no code given, a greedy cover of the family itself is computed
    first.  The number of parts never exceeds the number of centers.
    """
    if code is None:
        from .codes import greedy_cover

        code = greedy_cover(game.n, game.maximal_losing)
    parts = []
    for c, members, spread in _groups(game, code):
        side = spread & c
        if len(members) != max(spread.bit_count(), 1) or side and side != spread:
            # Only a game built without validate_game gets here: Cluster
            # raises MixedCluster unless the members merely repeat.
            _cluster(c, members)
        parts.append(_cluster_part(game.n, c, spread))
    return Decomposition(game.n, tuple(parts))


def pair_partition(game: SimpleGame) -> PairingPlan:
    """Greedy maximal matching of the family at Hamming distance <= 3.

    Scans coalitions in canonical order; each unmatched coalition grabs
    the first later unmatched coalition within distance 3.  Distances 0
    and 1 cannot occur inside an antichain, so every pair is at distance
    2 or 3.
    """
    family = game.maximal_losing
    masks = [x.mask for x in family]
    matched = [False] * len(family)
    pairs: list[tuple[Coalition, Coalition]] = []
    for i, x in enumerate(masks):
        if matched[i]:
            continue
        for j in range(i + 1, len(masks)):
            if not matched[j] and (x ^ masks[j]).bit_count() <= 3:
                pairs.append((family[i], family[j]))
                matched[i] = matched[j] = True
                break
    singletons = tuple(x for i, x in enumerate(family) if not matched[i])
    return PairingPlan(tuple(pairs), singletons)


def pair_to_weighted(x: Coalition, y: Coalition, n: int) -> WeightedGame:
    """Express the game losing exactly inside x or y as a weighted game.

    Requires x and y incomparable at distance d = 2 or 3.  The weights are
    the pair row of the module's table, with x the side holding more of
    the symmetric difference.
    """
    only_x = x.mask & ~y.mask
    only_y = y.mask & ~x.mask
    if not only_x or not only_y:
        raise BadPairDistance(f"{x} and {y} are comparable; cannot pair them")
    d = (only_x | only_y).bit_count()
    if d not in (2, 3):
        raise BadPairDistance(f"{x} and {y} are at distance {d}, need 2 or 3")
    if only_x.bit_count() < only_y.bit_count():
        only_x, only_y = only_y, only_x
    return _part(n, d, only_x, x.mask & y.mask, only_y)


def decompose_pairing(game: SimpleGame) -> Decomposition:
    """Decompose via the greedy distance-3 matching.

    One part per matched pair, then one single-coalition part per leftover;
    the part count is (|family| + |singletons|) / 2.
    """
    plan = pair_partition(game)
    parts = tuple(
        [pair_to_weighted(x, y, game.n) for x, y in plan.pairs]
        + [_part(game.n, 1, 0, t.mask) for t in plan.singletons]
    )
    return Decomposition(game.n, parts)
