"""Decompositions of a simple game into intersections of weighted games.

All three constructions exploit the same observation: if the maximal
losing coalitions are split into groups, the game equals the intersection
of the games defined by the individual groups.  A coalition loses exactly
when it is contained in some maximal losing coalition, i.e. when it loses
in at least one group.  The art is choosing groups whose games are
weighted:

* ``taylor_zwicker``: one group per maximal losing coalition.  Each
  single-coalition game is trivially weighted.
* ``decompose_covering``: group the maximal losing coalitions around the
  centers of a radius-1 covering code.  Because the family is an
  antichain, every group consists of the center alone, of coalitions one
  player short of the center, or of coalitions one player beyond it, and
  each of these three shapes is weighted.
* ``decompose_pairing``: greedily match coalitions at Hamming distance at
  most 3; each matched pair forms a weighted two-coalition game, leftovers
  fall back to single-coalition games.  This never needs more parts than
  ``taylor_zwicker`` and needs strictly fewer as soon as one pair matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .codes import Code, greedy_cover
from .core import Coalition, Decomposition, SimpleGame, WeightedGame
from .errors import BadPairDistance, MixedCluster, NotACover


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


def _tiered(n: int, quota: int, outside: int, *tiers: tuple[int, int]) -> WeightedGame:
    """The game ``[quota; w_1, ..., w_n]`` built from (mask, weight) tiers.

    Each player weighs the weight of the first tier whose mask holds it;
    players in no tier weigh ``outside``.
    """
    weights = [outside] * n
    for mask, w in reversed(tiers):
        rest = mask & (1 << n) - 1
        while rest:
            low = rest & -rest
            weights[low.bit_length() - 1] = w
            rest ^= low
    return WeightedGame(quota, tuple(weights))


def taylor_zwicker(game: SimpleGame) -> Decomposition:
    """One weighted game per maximal losing coalition.

    The part for coalition t has quota 1 and weight 1 exactly on the
    players outside t, so a coalition wins the part iff it is not
    contained in t.  Parts follow the canonical coalition order.
    """
    parts = tuple(_tiered(game.n, 1, 1, (t.mask, 0)) for t in game.maximal_losing)
    return Decomposition(game.n, parts)


def cluster_partition(game: SimpleGame, code: Code) -> list[Cluster]:
    """Assign every maximal losing coalition to a covering center.

    Each coalition goes to a nearest center (distance 0 or 1), ties broken
    by smallest center mask.  Clusters come back in the code's center
    order with empty ones dropped.  Centers are found by looking up the
    radius-1 ball of each coalition, so the cost is O(|family| * n).

    Raises NotACover if some maximal losing coalition is farther than
    distance 1 from every center.
    """
    masks = code._masks
    index = {c: i for i, c in enumerate(masks)}
    # A center may hold players beyond game.n when the code is longer.
    flips = [1 << i for i in range(max(game.n, code.n))]
    groups: dict[int, tuple[ClusterCase, list[Coalition]]] = {}
    for x in game.maximal_losing:
        c = x.mask
        if c not in index:  # distance 0 wins over distance 1
            near = [c ^ f for f in flips if c ^ f in index]
            if not near:
                raise NotACover(x)
            c = min(near)
        groups.setdefault(index[c], (_side(c, x.mask), []))[1].append(x)
    return [
        Cluster(Coalition(masks[i]), tuple(members), case)
        for i, (case, members) in sorted(groups.items())
    ]


def cluster_to_weighted(cluster: Cluster, n: int) -> WeightedGame:
    """Express the game of one cluster as a weighted game.

    Let ``spread`` be the players in which some member differs from the
    center.  Below the center a coalition beats every member iff it leaves
    the center or keeps all of spread, so quota |spread| with weight
    |spread| outside the center and 1 on each spread player works.  Above
    the center a coalition beats every member iff it has a player outside
    center+spread or two of the spread players, giving quota 2 with
    weights 2 outside, 1 on spread players and 0 on the center.  A
    center-only cluster is the single-coalition game.
    """
    c = cluster.center.mask
    if cluster.case_tag is ClusterCase.EXACTLY_CENTER:
        return _tiered(n, 1, 1, (c, 0))
    spread = 0
    for m in cluster.members:
        spread |= m.mask ^ c
    if cluster.case_tag is ClusterCase.BELOW_CENTER:
        q = spread.bit_count()
        return _tiered(n, q, q, (spread, 1), (c, 0))
    return _tiered(n, 2, 2, (c, 0), (spread, 1))


def decompose_covering(
    game: SimpleGame, code: Code | None = None
) -> Decomposition:
    """Decompose via a radius-1 cover of the maximal losing coalitions.

    With no code given, a greedy cover of the family itself is computed
    first.  The number of parts never exceeds the number of centers.
    """
    if code is None:
        code = greedy_cover(game.n, game.maximal_losing)
    clusters = cluster_partition(game, code)
    parts = tuple(cluster_to_weighted(cl, game.n) for cl in clusters)
    return Decomposition(game.n, parts)


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

    Requires x and y incomparable at distance d = 2 or 3.  The larger side
    of the symmetric difference weighs 1 per player, the other side d - 1,
    the common players 0 and everyone else d, with quota d.  A coalition
    then reaches the quota exactly when it escapes both x and y.
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
    return _tiered(n, d, d, (only_x, 1), (only_y, d - 1), (x.mask & y.mask, 0))


def decompose_pairing(game: SimpleGame) -> Decomposition:
    """Decompose via the greedy distance-3 matching.

    One part per matched pair, then one single-coalition part per leftover;
    the part count is (|family| + |singletons|) / 2.
    """
    plan = pair_partition(game)
    parts = tuple(
        [pair_to_weighted(x, y, game.n) for x, y in plan.pairs]
        + [_tiered(game.n, 1, 1, (t.mask, 0)) for t in plan.singletons]
    )
    return Decomposition(game.n, parts)
