"""Differential tests: the decompositions against the original implementations.

The oracles below are the first versions of the clustering, of the
pairing scan and of the two group-to-weighted-game constructions, kept
verbatim apart from their names: a scan over every center for each
coalition, one classification per cluster, a pairwise scan over
``Coalition`` objects, and one hand-written weight formula per shape and
per pair distance.  The covering decomposition is also checked against the
path it replaced, kept verbatim apart from the names and the library's
private helpers, spelled out here: a center -> index dict probed over each
coalition's radius-1 ball, one ``Cluster`` per used center, and one part
per cluster by its shape tag.  ``simplegames.decompose`` must reproduce
them exactly, and every kind of code's nearest-center rule must name the
center that the ball lookup finds.
"""

import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import antichain_games, secded_games
from simplegames import (
    Cluster,
    ClusterCase,
    Coalition,
    Code,
    Decomposition,
    PairingPlan,
    SimpleGame,
    WeightedGame,
    cluster_partition,
    cluster_to_weighted,
    decompose_covering,
    decompose_pairing,
    full_cover,
    greedy_cover,
    hamming_distance,
    pair_partition,
    pair_to_weighted,
    taylor_zwicker,
    validate_game,
)
from simplegames.errors import BadPairDistance, MixedCluster, NotACover


# -------------------------------------------------------------------- oracles


def _classify_members(
    center: Coalition, members: tuple[Coalition, ...]
) -> ClusterCase:
    """Decide which cluster shape the members form around the center.

    Raises MixedCluster when they form none of the three shapes; that can
    only happen for inputs that are not an antichain or not within
    distance 1 of the center.
    """
    if any(hamming_distance(m, center) > 1 for m in members):
        raise MixedCluster(
            f"some member is farther than distance 1 from center {center}"
        )
    if members == (center,):
        return ClusterCase.EXACTLY_CENTER
    if all(m != center and m.issubset(center) for m in members):
        return ClusterCase.BELOW_CENTER
    if all(m != center and center.issubset(m) for m in members):
        return ClusterCase.ABOVE_CENTER
    raise MixedCluster(
        f"members around {center} mix sides; the family cannot be an antichain"
    )


def _single_losing_game(n: int, t: Coalition) -> WeightedGame:
    # Wins exactly when not contained in t: quota 1, unit weight outside t.
    return WeightedGame(1, tuple(0 if p in t else 1 for p in range(1, n + 1)))


def oracle_cluster_partition(game: SimpleGame, code: Code) -> list[Cluster]:
    members: dict[int, list[Coalition]] = {c.mask: [] for c in code.centers}
    for x in game.maximal_losing:
        best: Optional[tuple[int, int]] = None
        for c in code.centers:
            d = hamming_distance(x, c)
            if d <= 1 and (best is None or (d, c.mask) < best):
                best = (d, c.mask)
        if best is None:
            raise NotACover(x)
        members[best[1]].append(x)
    return [
        Cluster(c, tuple(members[c.mask]), _classify_members(c, tuple(members[c.mask])))
        for c in code.centers
        if members[c.mask]
    ]


def oracle_cluster_to_weighted(cluster: Cluster, n: int) -> WeightedGame:
    c = cluster.center
    if cluster.case_tag is ClusterCase.EXACTLY_CENTER:
        return _single_losing_game(n, c)
    if cluster.case_tag is ClusterCase.BELOW_CENTER:
        removed = Coalition(0)
        for m in cluster.members:
            removed |= c - m
        quota = len(removed)
        weights = tuple(
            quota if p not in c else (1 if p in removed else 0)
            for p in range(1, n + 1)
        )
        return WeightedGame(quota, weights)
    added = Coalition(0)
    for m in cluster.members:
        added |= m - c
    weights = tuple(
        0 if p in c else (1 if p in added else 2) for p in range(1, n + 1)
    )
    return WeightedGame(2, weights)


def oracle_pair_partition(game: SimpleGame) -> PairingPlan:
    """Greedy maximal matching of the family at Hamming distance <= 3.

    Scans coalitions in canonical order; each unmatched coalition grabs
    the first later unmatched coalition within distance 3.  Distances 0
    and 1 cannot occur inside an antichain, so every pair is at distance
    2 or 3.
    """
    family = game.maximal_losing
    matched = [False] * len(family)
    pairs: list[tuple[Coalition, Coalition]] = []
    for i, x in enumerate(family):
        if matched[i]:
            continue
        for j in range(i + 1, len(family)):
            if not matched[j] and hamming_distance(x, family[j]) <= 3:
                pairs.append((x, family[j]))
                matched[i] = matched[j] = True
                break
    singletons = tuple(x for i, x in enumerate(family) if not matched[i])
    return PairingPlan(tuple(pairs), singletons)


def oracle_pair_to_weighted(x: Coalition, y: Coalition, n: int) -> WeightedGame:
    only_x = x - y
    only_y = y - x
    if len(only_x) == 0 or len(only_y) == 0:
        raise BadPairDistance(f"{x} and {y} are comparable; cannot pair them")
    d = len(only_x) + len(only_y)
    if d not in (2, 3):
        raise BadPairDistance(f"{x} and {y} are at distance {d}, need 2 or 3")
    if len(only_x) < len(only_y):
        only_x, only_y = only_y, only_x
    both = x | y
    if d == 2:
        weights = tuple(
            2 if p not in both else (1 if p in only_x or p in only_y else 0)
            for p in range(1, n + 1)
        )
        return WeightedGame(2, weights)
    weights = tuple(
        3
        if p not in both
        else (1 if p in only_x else (2 if p in only_y else 0))
        for p in range(1, n + 1)
    )
    return WeightedGame(3, weights)


def _oracle_side(center: int, member: int) -> Optional[ClusterCase]:
    """The shape a member gives a cluster around the center; None beyond distance 1."""
    flip = center ^ member
    if not flip:
        return ClusterCase.EXACTLY_CENTER
    if flip & (flip - 1):
        return None
    return ClusterCase.BELOW_CENTER if center & flip else ClusterCase.ABOVE_CENTER


def _oracle_tiered(n: int, quota: int, outside: int, *tiers: tuple[int, int]) -> WeightedGame:
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


def indexed_cluster_partition(game: SimpleGame, code: Code) -> list[Cluster]:
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
        groups.setdefault(index[c], (_oracle_side(c, x.mask), []))[1].append(x)
    return [
        Cluster(Coalition(masks[i]), tuple(members), case)
        for i, (case, members) in sorted(groups.items())
    ]


def tagged_cluster_to_weighted(cluster: Cluster, n: int) -> WeightedGame:
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
        return _oracle_tiered(n, 1, 1, (c, 0))
    spread = 0
    for m in cluster.members:
        spread |= m.mask ^ c
    if cluster.case_tag is ClusterCase.BELOW_CENTER:
        q = spread.bit_count()
        return _oracle_tiered(n, q, q, (spread, 1), (c, 0))
    return _oracle_tiered(n, 2, 2, (c, 0), (spread, 1))


def clustered_decompose_covering(
    game: SimpleGame, code: Optional[Code] = None
) -> Decomposition:
    """Decompose via a radius-1 cover of the maximal losing coalitions.

    With no code given, a greedy cover of the family itself is computed
    first.  The number of parts never exceeds the number of centers.
    """
    if code is None:
        code = greedy_cover(game.n, game.maximal_losing)
    clusters = indexed_cluster_partition(game, code)
    parts = tuple(tagged_cluster_to_weighted(cl, game.n) for cl in clusters)
    return Decomposition(game.n, parts)


def ball_nearest(centers: set[int], width: int, x: int) -> Optional[int]:
    """The center at distance 0, else the smallest at distance 1, else None."""
    if x in centers:
        return x
    return min((x ^ 1 << i for i in range(width) if x ^ 1 << i in centers), default=None)


# ----------------------------------------------------------------- strategies


@st.composite
def games_with_codes(draw) -> tuple[SimpleGame, Code]:
    """A game and a code that may or may not cover it.

    Codes are the greedy cover, the full-cube cover, the family itself,
    or centers drawn from the radius-1 balls of the family plus random
    masks, in any order.  The last kind gives ties at distance 1 and,
    when some ball is missed, codes that are no cover.  Codes one player
    longer or shorter than the game are drawn too.
    """
    game = draw(antichain_games(min_n=1, max_n=8))
    n = game.n
    family = [t.mask for t in game.maximal_losing]
    kind = draw(st.sampled_from(["greedy", "full", "self", "balls"]))
    if kind == "greedy":
        centers = [c.mask for c in greedy_cover(n, game.maximal_losing).centers]
    elif kind == "full":
        centers = [c.mask for c in full_cover(n).centers]
    elif kind == "self":
        centers = family
    else:
        # Flips of player n + 1 too, for codes one player longer.
        near = sorted({t ^ b for t in family for b in [0] + [1 << i for i in range(n + 1)]})
        centers = draw(st.lists(st.sampled_from(near), min_size=1, max_size=3 * n))
        centers += draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    centers = draw(st.permutations(centers))
    if draw(st.booleans()):
        # Drop a center: the code may stop covering the family.
        centers = centers[1:] or centers
    length = draw(st.sampled_from([n, n + 1, max(1, n - 1)]))
    centers = [c for c in centers if c >> length == 0] or [0]
    return game, Code(length, tuple(Coalition(c) for c in centers))


@st.composite
def clusters_near_a_center(draw) -> tuple[Coalition, list[Coalition]]:
    """A center and members from its radius-1 or radius-2 ball, n <= 8.

    Members may repeat, include the center, lie on both sides of it or
    lie at distance 2; the list may be empty.
    """
    n = draw(st.integers(1, 8))
    center = draw(st.integers(0, (1 << n) - 1))
    radius = draw(st.sampled_from([1, 2]))
    ball = [center ^ f for f in range(1 << n) if f.bit_count() <= radius]
    members = draw(st.lists(st.sampled_from(ball), max_size=6))
    return Coalition(center), [Coalition(m) for m in members]


@st.composite
def games_with_covers(draw) -> tuple[SimpleGame, Code]:
    """A game with a greedy cover, a full cover or a listed copy of one.

    Full covers are drawn at the game's length, longer (up to 24 players)
    and one player shorter, where a coalition holding the last player is
    covered only from a codeword one player below it.
    """
    game = draw(antichain_games(min_n=1, max_n=10))
    n = game.n
    kind = draw(st.sampled_from(["greedy", "full", "listed", "longer", "shorter"]))
    if kind == "greedy":
        return game, greedy_cover(n, game.maximal_losing)
    if kind == "listed":
        return game, Code(n, full_cover(n).centers)
    if kind == "longer":
        return game, full_cover(min(24, n + draw(st.integers(1, 14))))
    if kind == "shorter":
        return game, full_cover(max(1, n - 1))
    return game, full_cover(n)


@st.composite
def unchecked_games_with_codes(draw) -> tuple[SimpleGame, Code]:
    """A SimpleGame built without validate_game, and a code around it.

    The family may repeat a coalition, nest one in another and come in any
    order, so a cluster may mix shapes.  Codes are the full cover, the
    greedy cover of the family, or centers from the family's radius-1 balls.
    """
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    game = SimpleGame(n, tuple(Coalition(m) for m in masks))
    kind = draw(st.sampled_from(["full", "greedy", "balls"]))
    if kind == "full":
        return game, full_cover(n)
    if kind == "greedy":
        return game, greedy_cover(n, game.maximal_losing)
    near = sorted({m ^ b for m in masks for b in [0] + [1 << i for i in range(n)]})
    centers = draw(st.lists(st.sampled_from(near), min_size=1, max_size=2 * n))
    return game, Code(n, tuple(Coalition(c) for c in centers))


def outcome(fn, *args):
    """The result of a call, or the type and payload of the error it raised."""
    try:
        return fn(*args)
    except NotACover as exc:
        return ("NotACover", exc.uncovered)
    except BadPairDistance as exc:
        return ("BadPairDistance", str(exc))
    except MixedCluster as exc:
        return ("MixedCluster", str(exc))


# ---------------------------------------------------------------- differences


@settings(max_examples=300, deadline=None)
@given(games_with_codes())
def test_cluster_partition_matches_oracle(game_and_code):
    game, code = game_and_code
    clusters = outcome(cluster_partition, game, code)
    assert clusters == outcome(oracle_cluster_partition, game, code)
    if isinstance(clusters, list):
        parts = tuple(oracle_cluster_to_weighted(cl, game.n) for cl in clusters)
        assert tuple(cluster_to_weighted(cl, game.n) for cl in clusters) == parts
        assert decompose_covering(game, code).parts == parts


@pytest.mark.parametrize(
    "centers",
    [
        # {1,2} sits at distance 1 from all three centers; {1} is smallest.
        [(1, 2, 3), (1, 2, 4), (1,)],
        # Distance 0 beats the smaller center {1} at distance 1.
        [(1,), (1, 2)],
        # {1,2} has no center within distance 1.
        [(3, 4), (1, 2, 3, 4)],
        # Only a center holding player 5, beyond the game, covers {1,2}.
        [(1, 2, 5), (3,)],
    ],
)
def test_cluster_partition_tie_breaks_match_oracle(centers):
    game = validate_game(4, [Coalition.of(1, 2), Coalition.of(3)])
    code = Code(5, tuple(Coalition.of(*c) for c in centers))
    expected = outcome(oracle_cluster_partition, game, code)
    assert outcome(cluster_partition, game, code) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)
        )
    )
)
def test_pair_to_weighted_matches_oracle(n_x_y):
    n, x, y = n_x_y
    args = (Coalition(x), Coalition(y), n)
    assert outcome(pair_to_weighted, *args) == outcome(oracle_pair_to_weighted, *args)


@settings(max_examples=150, deadline=None)
@given(antichain_games(min_n=1, max_n=8))
def test_single_coalition_parts_match_oracle(game):
    n = game.n
    singles = tuple(_single_losing_game(n, t) for t in game.maximal_losing)
    assert taylor_zwicker(game).parts == singles
    plan = pair_partition(game)
    assert decompose_pairing(game).parts == tuple(
        [oracle_pair_to_weighted(x, y, n) for x, y in plan.pairs]
        + [_single_losing_game(n, t) for t in plan.singletons]
    )


@settings(max_examples=400, deadline=None)
@given(clusters_near_a_center())
def test_cluster_accepts_exactly_the_shapes_the_oracle_names(center_and_members):
    center, members = center_and_members
    distinct = tuple(sorted(set(members)))
    try:
        shape = _classify_members(center, distinct) if distinct else None
    except MixedCluster:
        shape = None
    for tag in ClusterCase:
        if not distinct:
            with pytest.raises(ValueError):
                Cluster(center, tuple(members), tag)
        elif tag is shape:
            assert Cluster(center, tuple(members), tag).members == distinct
        else:
            with pytest.raises(MixedCluster):
                Cluster(center, tuple(members), tag)


@settings(max_examples=300, deadline=None)
@given(antichain_games(min_n=1, max_n=8))
def test_pair_partition_matches_oracle(game):
    assert pair_partition(game) == oracle_pair_partition(game)


@settings(max_examples=60, deadline=None)
@given(secded_games())
def test_secded_families_have_no_pairs_and_one_center_each(game):
    plan = pair_partition(game)
    assert plan == oracle_pair_partition(game)
    assert plan.pairs == () and plan.singletons == game.maximal_losing
    assert len(greedy_cover(game.n, game.maximal_losing)) == len(game.maximal_losing)


@settings(max_examples=300, deadline=None)
@given(games_with_covers())
def test_covering_matches_the_cluster_path(game_and_code):
    game, code = game_and_code
    dec = outcome(decompose_covering, game, code)
    assert dec == outcome(clustered_decompose_covering, game, code)
    assert outcome(cluster_partition, game, code) == outcome(
        indexed_cluster_partition, game, code
    )


@settings(max_examples=300, deadline=None)
@given(unchecked_games_with_codes())
def test_unchecked_games_mix_clusters_as_the_cluster_path_does(game_and_code):
    game, code = game_and_code
    dec = outcome(decompose_covering, game, code)
    assert dec == outcome(clustered_decompose_covering, game, code)
    assert outcome(cluster_partition, game, code) == outcome(
        indexed_cluster_partition, game, code
    )


@pytest.mark.parametrize(
    "n, family, code",
    [
        # {1, 2, 3} is a center of the full cover and {1, 2} sits below it.
        (3, [(1, 2, 3), (1, 2)], full_cover(3)),
        # Around the full cover's center {}: {2} above, {} itself first.
        (3, [(), (2,)], full_cover(3)),
        # {1} below and {1, 2, 3} above the one center {1, 2}.
        (3, [(1, 2, 3), (1,)], Code(3, [Coalition.of(1, 2)])),
        # A repeated member mixes nothing.
        (3, [(1,), (1,)], Code(3, [Coalition.of(1, 2)])),
    ],
    ids=["center-and-below", "center-and-above", "both-sides", "repeat"],
)
def test_unchecked_game_errors_name_the_cluster_as_before(n, family, code):
    game = SimpleGame(n, tuple(Coalition.of(*c) for c in family))
    expected = outcome(clustered_decompose_covering, game, code)
    assert outcome(decompose_covering, game, code) == expected
    assert isinstance(expected, Decomposition) == (len(set(family)) == 1)


def code_of_kind(kind: str, n: int) -> Code:
    """A seeded code of one kind around a game of n players.

    ``full`` is the full cover and ``listed`` a listed copy of it;
    ``greedy`` covers a random family in selection order; ``balls`` draws
    half the radius-1 balls of a random family plus random masks, shuffled,
    as games_with_codes does, so it has ties at distance 1 and misses most
    masks; ``longer`` and ``shorter`` are ball codes of length n + 1 and
    n - 1.
    """
    if kind == "full":
        return full_cover(n)
    if kind == "listed":
        return Code._of_masks(n, full_cover(n)._masks)
    rng = random.Random(f"{kind}-{n}")
    length = {"longer": n + 1, "shorter": max(1, n - 1)}.get(kind, n)
    family = [rng.randrange(1 << length) for _ in range(min(2 * n, 1 << n))]
    if kind == "greedy":
        return greedy_cover(n, [Coalition(t) for t in family])
    near = sorted({t ^ f for t in family for f in [0] + [1 << i for i in range(length)]})
    centers = rng.sample(near, len(near) // 2 or 1) + [rng.randrange(1 << length)]
    rng.shuffle(centers)
    return Code._of_masks(length, centers)


def assert_nearest_is_the_ball_lookup(code: Code, width: int, masks) -> None:
    """``_nearest`` names the ball lookup's center on each mask, the ball
    spanning ``width`` players, and ``_in_order`` lists the named centers in
    code order."""
    centers = set(code._masks)  # the listing, checked in test_cover_oracles
    width = max(width, code.n)  # the ball reaches the longer of game and code
    used = set()
    for x in masks:
        c = code._nearest(x)
        assert c == ball_nearest(centers, width, x), x
        used.add(c)
    used.discard(None)
    assert code._in_order(used) == [c for c in code._masks if c in used]


KINDS = ["greedy", "listed", "balls", "longer", "shorter"]


def every_kind(ns):
    """The full cover at each n under the id n, then every other kind
    (no longer code at n = 24: 24 players is the cap)."""
    return [pytest.param(n, "full", id=str(n)) for n in ns] + [
        pytest.param(n, kind, id=f"{kind}-{n}")
        for kind in KINDS
        for n in ns
        if (kind, n) != ("longer", 24)
    ]


@pytest.mark.parametrize("n, kind", every_kind(range(1, 17)))
def test_full_cover_syndrome_names_the_ball_lookup_center_on_every_mask(n, kind):
    # Masks with up to two players beyond a game of n players; a coalition
    # wider than the code is covered only by dropping its one extra player.
    width = n + 2 if n <= 10 else n
    assert_nearest_is_the_ball_lookup(code_of_kind(kind, n), width, range(1 << width))


@pytest.mark.parametrize("n, kind", every_kind(range(17, 25)))
def test_full_cover_syndrome_names_the_ball_lookup_center_on_samples(n, kind):
    code = code_of_kind(kind, n)
    rng = random.Random(n)
    # Random masks, and neighbours of centers, where ties at distance 1 lie.
    near = [c ^ 1 << rng.randrange(code.n) for c in rng.choices(code._masks, k=2000)]
    masks = [rng.randrange(1 << n) for _ in range(2000)] + near + [(1 << n) - 1, 0]
    wide = [x | rng.choice([1, 2, 3]) << code.n for x in masks]  # one or two wide players
    assert_nearest_is_the_ball_lookup(code, code.n + 2, masks + wide)
