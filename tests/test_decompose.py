import random

import pytest
from hypothesis import given, settings

from helpers import (
    antichain_games,
    four_player_example,
    random_antichain_game,
    seven_player_example,
)
from simplegames import (
    Cluster,
    ClusterCase,
    Coalition,
    Code,
    WeightedGame,
    cluster_partition,
    cluster_to_weighted,
    decompose_covering,
    decompose_pairing,
    derive_maximal_losing,
    full_cover,
    hamming_distance,
    pair_partition,
    pair_to_weighted,
    taylor_zwicker,
    validate_game,
    verify_decomposition,
    weighted_is_winning,
)
from simplegames.errors import BadPairDistance, MixedCluster, NotACover


# ------------------------------------------------------------ taylor_zwicker


def test_taylor_zwicker_seven_player_golden():
    dec = taylor_zwicker(seven_player_example())
    assert [str(p) for p in dec.parts] == [
        "[1;0,0,0,1,1,1,1]",
        "[1;1,1,0,0,0,0,1]",
    ]


def test_taylor_zwicker_single_coalition():
    game = validate_game(4, [Coalition.of(2, 3)])
    dec = taylor_zwicker(game)
    assert dec.parts == (WeightedGame(1, (1, 0, 0, 1)),)


def test_taylor_zwicker_four_player_equivalence():
    game = four_player_example()
    dec = taylor_zwicker(game)
    assert len(dec.parts) == 4
    report = verify_decomposition(game, dec)
    assert report.equivalent and report.coalitions_checked == 16


# --------------------------------------------------------- cluster_partition


def test_cluster_partition_four_player_example():
    game = four_player_example()
    code = Code(4, (Coalition.of(4), Coalition.of(1, 2, 3)))
    clusters = cluster_partition(game, code)
    by_center = {cl.center: cl for cl in clusters}
    assert by_center[Coalition.of(4)].members == (
        Coalition.of(1, 4),
        Coalition.of(2, 4),
    )
    assert by_center[Coalition.of(4)].case_tag is ClusterCase.ABOVE_CENTER
    assert by_center[Coalition.of(1, 2, 3)].members == (
        Coalition.of(1, 3),
        Coalition.of(2, 3),
    )
    assert by_center[Coalition.of(1, 2, 3)].case_tag is ClusterCase.BELOW_CENTER


def test_cluster_partition_self_cover_gives_singletons():
    game = four_player_example()
    code = Code(4, game.maximal_losing)
    clusters = cluster_partition(game, code)
    assert len(clusters) == 4
    for cl in clusters:
        assert cl.members == (cl.center,)
        assert cl.case_tag is ClusterCase.EXACTLY_CENTER


def test_cluster_partition_detects_non_cover():
    game = four_player_example()
    with pytest.raises(NotACover) as exc:
        cluster_partition(game, Code(4, (Coalition.of(),)))
    assert exc.value.uncovered == Coalition.of(1, 3)


def test_cluster_rejects_mixed_members():
    with pytest.raises(MixedCluster):
        Cluster(
            Coalition.of(1, 2),
            (Coalition.of(1), Coalition.of(1, 2, 3)),
            ClusterCase.BELOW_CENTER,
        )


def test_cluster_rejects_distant_member():
    with pytest.raises(MixedCluster):
        Cluster(Coalition.of(1), (Coalition.of(2, 3),), ClusterCase.ABOVE_CENTER)


# ------------------------------------------------------- cluster_to_weighted


def test_cluster_below_center_golden():
    cluster = Cluster(
        Coalition.of(1, 2, 3, 4),
        (Coalition.of(1, 2, 3), Coalition.of(1, 2, 4), Coalition.of(1, 3, 4)),
        ClusterCase.BELOW_CENTER,
    )
    assert str(cluster_to_weighted(cluster, 5)) == "[3;0,1,1,1,3]"


def test_cluster_above_center_golden():
    cluster = Cluster(
        Coalition.of(1, 2, 3),
        (
            Coalition.of(1, 2, 3, 4),
            Coalition.of(1, 2, 3, 5),
            Coalition.of(1, 2, 3, 6),
        ),
        ClusterCase.ABOVE_CENTER,
    )
    assert str(cluster_to_weighted(cluster, 7)) == "[2;0,0,0,1,1,1,2]"


def test_cluster_above_center_small_golden():
    cluster = Cluster(
        Coalition.of(4),
        (Coalition.of(1, 4), Coalition.of(2, 4)),
        ClusterCase.ABOVE_CENTER,
    )
    assert str(cluster_to_weighted(cluster, 4)) == "[2;1,1,2,0]"


def test_cluster_exactly_center_matches_single_losing_game():
    cluster = Cluster(Coalition.of(2, 3), (Coalition.of(2, 3),), ClusterCase.EXACTLY_CENTER)
    assert cluster_to_weighted(cluster, 4) == WeightedGame(1, (1, 0, 0, 1))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cluster_to_weighted_isolation(n):
    # The produced weighted game must lose exactly on the cluster members.
    rng = random.Random(300 + n)
    for _ in range(40):
        center_mask = rng.randrange(1 << n)
        c = Coalition(center_mask)
        below = [i for i in range(n) if center_mask >> i & 1]
        above = [i for i in range(n) if not center_mask >> i & 1]
        side = rng.choice(["below", "above", "exact"])
        if side == "exact" or (side == "below" and not below) or (
            side == "above" and not above
        ):
            members, tag = (c,), ClusterCase.EXACTLY_CENTER
        elif side == "below":
            picks = rng.sample(below, rng.randint(1, len(below)))
            members = tuple(Coalition(center_mask ^ (1 << i)) for i in picks)
            tag = ClusterCase.BELOW_CENTER
        else:
            picks = rng.sample(above, rng.randint(1, len(above)))
            members = tuple(Coalition(center_mask | (1 << i)) for i in picks)
            tag = ClusterCase.ABOVE_CENTER
        if members == (Coalition((1 << n) - 1),):
            continue  # grand coalition cannot lose
        cluster = Cluster(c, members, tag)
        wg = cluster_to_weighted(cluster, n)
        derived = derive_maximal_losing(n, lambda s: weighted_is_winning(wg, s))
        assert derived == cluster.members


# --------------------------------------------------------- decompose_covering


def test_decompose_covering_four_player_golden():
    game = four_player_example()
    code = Code(4, (Coalition.of(4), Coalition.of(1, 2, 3)))
    dec = decompose_covering(game, code)
    assert [str(p) for p in dec.parts] == ["[2;1,1,2,0]", "[2;1,1,0,2]"]
    assert verify_decomposition(game, dec).equivalent


def test_decompose_covering_default_greedy_cover():
    game = four_player_example()
    dec = decompose_covering(game)
    assert len(dec.parts) <= 2
    assert verify_decomposition(game, dec).equivalent


def test_decompose_covering_with_family_as_code_equals_taylor_zwicker():
    game = four_player_example()
    dec = decompose_covering(game, Code(4, game.maximal_losing))
    assert dec == taylor_zwicker(game)


def test_decompose_covering_with_full_cover_seven_players():
    game = seven_player_example()
    dec = decompose_covering(game, full_cover(7))
    assert len(dec.parts) <= 16
    assert verify_decomposition(game, dec).equivalent


# ------------------------------------------------------------ pair_partition


def test_pair_partition_distant_family_stays_single():
    plan = pair_partition(seven_player_example())
    assert plan.pairs == ()
    assert len(plan.singletons) == 2


def test_pair_partition_four_player_example():
    plan = pair_partition(four_player_example())
    assert len(plan.pairs) == 2
    assert plan.singletons == ()


def test_pair_partition_single_member():
    game = validate_game(3, [Coalition.of(2)])
    plan = pair_partition(game)
    assert plan.pairs == ()
    assert plan.singletons == (Coalition.of(2),)


@settings(max_examples=80)
@given(antichain_games())
def test_pair_partition_is_a_maximal_matching(game):
    plan = pair_partition(game)
    used = [c for pair in plan.pairs for c in pair] + list(plan.singletons)
    assert sorted(used) == list(game.maximal_losing)
    for x, y in plan.pairs:
        assert 2 <= hamming_distance(x, y) <= 3
    for i, x in enumerate(plan.singletons):
        for y in plan.singletons[i + 1 :]:
            assert hamming_distance(x, y) >= 4


# ----------------------------------------------------------- pair_to_weighted


def test_pair_to_weighted_distance_three_golden():
    wg = pair_to_weighted(Coalition.of(1, 2, 3, 4), Coalition.of(2, 3, 5), 7)
    assert str(wg) == "[3;1,0,0,1,2,3,3]"


def test_pair_to_weighted_distance_two_golden():
    wg = pair_to_weighted(Coalition.of(1, 3), Coalition.of(1, 4), 4)
    assert wg == WeightedGame(2, (0, 2, 1, 1))


def test_pair_to_weighted_swaps_sides_as_needed():
    a = pair_to_weighted(Coalition.of(2, 3, 5), Coalition.of(1, 2, 3, 4), 7)
    b = pair_to_weighted(Coalition.of(1, 2, 3, 4), Coalition.of(2, 3, 5), 7)
    assert a == b


def test_pair_to_weighted_rejects_containment():
    with pytest.raises(BadPairDistance):
        pair_to_weighted(Coalition.of(1), Coalition.of(1, 2, 3), 4)
    with pytest.raises(BadPairDistance):
        pair_to_weighted(Coalition.of(1, 2), Coalition.of(1, 2), 4)


def test_pair_to_weighted_rejects_distance_four():
    with pytest.raises(BadPairDistance):
        pair_to_weighted(Coalition.of(1, 2), Coalition.of(3, 4), 4)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_pair_to_weighted_isolation(n):
    # The produced weighted game must lose exactly on {x, y}.
    rng = random.Random(400 + n)
    found = 0
    while found < 30:
        x = Coalition(rng.randrange(1 << n))
        y = Coalition(rng.randrange(1 << n))
        if len(x - y) == 0 or len(y - x) == 0 or hamming_distance(x, y) > 3:
            continue
        found += 1
        wg = pair_to_weighted(x, y, n)
        derived = derive_maximal_losing(n, lambda s: weighted_is_winning(wg, s))
        assert derived == tuple(sorted({x, y}))


# ---------------------------------------------------------- decompose_pairing


def test_decompose_pairing_four_player_golden():
    game = four_player_example()
    dec = decompose_pairing(game)
    assert [str(p) for p in dec.parts] == ["[2;1,1,0,2]", "[2;1,1,2,0]"]
    assert verify_decomposition(game, dec).equivalent


def test_decompose_pairing_falls_back_to_taylor_zwicker():
    game = seven_player_example()
    assert decompose_pairing(game) == taylor_zwicker(game)


def test_decompose_pairing_far_apart_family_keeps_every_part():
    # Pairwise distances >= 4: the matching stays empty.
    game = validate_game(
        8, [Coalition.of(1, 2), Coalition.of(3, 4), Coalition.of(5, 6)]
    )
    dec = decompose_pairing(game)
    assert len(dec.parts) == len(game.maximal_losing)
    assert verify_decomposition(game, dec).equivalent


# -------------------------------------------------------- end-to-end fuzzing


@pytest.mark.parametrize("n", [3, 5, 7, 10])
def test_all_methods_equivalent_on_random_games(n):
    rng = random.Random(500 + n)
    for _ in range(40):
        game = random_antichain_game(n, rng)
        for dec in (
            taylor_zwicker(game),
            decompose_covering(game),
            decompose_pairing(game),
        ):
            assert verify_decomposition(game, dec).equivalent


@settings(max_examples=60)
@given(antichain_games())
def test_methods_equivalent_and_bounded(game):
    tz = taylor_zwicker(game)
    cover_code = None
    covering = decompose_covering(game, cover_code)
    pairing = decompose_pairing(game)
    family_size = len(game.maximal_losing)
    assert len(tz.parts) == family_size
    assert len(pairing.parts) <= family_size
    min_distance = min(
        (
            hamming_distance(x, y)
            for i, x in enumerate(game.maximal_losing)
            for y in game.maximal_losing[i + 1 :]
        ),
        default=99,
    )
    if min_distance <= 3:
        assert len(pairing.parts) < family_size
    for dec in (tz, covering, pairing):
        assert verify_decomposition(game, dec).equivalent


@settings(max_examples=60)
@given(antichain_games())
def test_cluster_partition_never_mixes_on_antichains(game):
    code = greedy_cover_of(game)
    clusters = cluster_partition(game, code)  # must not raise MixedCluster
    assert sum(len(cl.members) for cl in clusters) == len(game.maximal_losing)
    assert len(clusters) <= len(code.centers)


def greedy_cover_of(game):
    from simplegames import greedy_cover

    return greedy_cover(game.n, game.maximal_losing)
