import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplegames import Coalition, decompose_covering, hamming_distance, validate_game
from simplegames.codes import (
    BOUNDS_TABLE_MAX_N,
    BOUNDS_TABLE_MIN_N,
    Code,
    bounds_report,
    covering_radius_at_most,
    full_cover,
    greedy_cover,
    hamming_code,
)
from simplegames.core import MAX_PLAYERS
from simplegames.errors import GameError, MOutOfRange, PlayerOutOfRange


def all_coalitions(n):
    return [Coalition(m) for m in range(1 << n)]


# ----------------------------------------------------------------- Code type


def test_code_deduplicates_preserving_order():
    code = Code(4, (Coalition.of(4), Coalition.of(1), Coalition.of(4)))
    assert code.centers == (Coalition.of(4), Coalition.of(1))
    assert len(code) == 2


def test_code_rejects_oversized_center():
    with pytest.raises(PlayerOutOfRange):
        Code(3, (Coalition.of(5),))


@pytest.mark.parametrize("n", [1, 3, MAX_PLAYERS])
def test_code_rejects_the_first_player_beyond_n(n):
    with pytest.raises(PlayerOutOfRange) as error:
        Code(n, (Coalition((1 << n) - 1), Coalition(1 << n)))
    assert str(error.value) == f"center {{{n + 1}}} does not fit into {n} players"


def test_code_rejects_empty():
    with pytest.raises(ValueError):
        Code(3, ())


@pytest.mark.parametrize("n", [0, 25, True, 3.0], ids=repr)
def test_code_lengths_are_ints_within_the_cap(n):
    # A code of length 0 could be saved but not loaded back.
    with pytest.raises(ValueError):
        Code(n, (Coalition(0),))


def test_code_equality_follows_length_and_center_order():
    a, b = Coalition.of(1), Coalition.of(2)
    assert Code(3, (a, b)) == Code(3, (a, b, a))
    assert hash(Code(3, (a, b))) == hash(Code(3, [a, b]))
    assert Code(3, (a, b)) != Code(3, (b, a))
    assert Code(3, (a, b)) != Code(4, (a, b))


def test_code_is_immutable_and_builds_its_centers_once():
    code = Code(3, (Coalition.of(1, 2), Coalition.of(3)))
    for name, value in [("n", 4), ("centers", ())]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(code, name, value)
    centers = code.centers
    assert centers == (Coalition.of(1, 2), Coalition.of(3))
    assert type(centers) is tuple and all(type(c) is Coalition for c in centers)
    assert code.centers is centers


def test_a_listed_code_groups_a_family_without_listing_its_masks():
    # A listed code holds one table, the dict of its centers in code order;
    # grouping a family reads it and builds neither the mask tuple nor the
    # coalitions.
    masks = [0b1110, 0b0111, 0b0001]
    game = validate_game(4, [Coalition(m) for m in (0b0011, 0b0101, 0b0110, 0b1010, 0b1100)])
    code = Code._of_masks(4, masks)
    split = decompose_covering(game, code)
    assert split == decompose_covering(game, Code(4, [Coalition(m) for m in masks]))
    assert len(split.parts) == 3
    assert vars(code).keys() == {"n", "_index"}
    assert list(code._index) == masks


def built(build):
    """The code's length, centers and hash, or the type and text of its error."""
    try:
        code = build()
    except (ValueError, GameError) as exc:
        return type(exc), str(exc)
    return code, code.n, code.centers, len(code), hash(code)


def assert_both_constructors_agree(n, masks):
    # Code._of_masks is the path of greedy_cover and the loader; full_cover
    # builds its Code from the syndrome table.
    from_masks = built(lambda: Code._of_masks(n, masks))
    assert from_masks == built(lambda: Code(n, [Coalition(m) for m in masks]))


@pytest.mark.parametrize(
    "n, masks",
    [
        (4, [8, 1, 8, 1, 0]),  # repeats keep their first place
        (3, [1, 8, 16, 8]),  # the first center that does not fit is named
        (3, [1, 7, 7, 1 << 30]),
        (MAX_PLAYERS, [(1 << MAX_PLAYERS) - 1, 1 << MAX_PLAYERS]),
        (3, []),
        (0, [0]),
        (MAX_PLAYERS + 1, [0]),
        (True, [0]),
    ],
    ids=[
        "repeats", "too-wide", "far-too-wide", "cap", "empty", "n-zero", "n-over", "bool"
    ],
)
def test_code_from_masks_matches_code_from_coalitions(n, masks):
    assert_both_constructors_agree(n, masks)


@settings(max_examples=300)
@given(st.integers(0, MAX_PLAYERS + 1), st.data())
def test_code_from_random_masks_matches_code_from_coalitions(n, data):
    masks = data.draw(st.lists(st.integers(0, (4 << n) - 1), max_size=8))
    masks += data.draw(st.lists(st.sampled_from(masks), max_size=3)) if masks else []
    assert_both_constructors_agree(n, data.draw(st.permutations(masks)))


# ------------------------------------------------------------- hamming_code


def test_hamming_code_m2():
    code = hamming_code(2)
    assert code.n == 3
    assert code.centers == (Coalition.of(), Coalition.of(1, 2, 3))
    assert covering_radius_at_most(code, all_coalitions(3), 1)


@pytest.mark.parametrize("m", [2, 3])
def test_hamming_code_is_perfect(m):
    code = hamming_code(m)
    assert code.n == (1 << m) - 1
    assert len(code) == (1 << code.n) // (code.n + 1)
    # Radius-1 balls partition the cube: every coalition covered exactly once.
    for s in all_coalitions(code.n):
        hits = sum(1 for c in code.centers if hamming_distance(s, c) <= 1)
        assert hits == 1


@pytest.mark.parametrize("m", [2, 3])
def test_hamming_code_minimum_distance_three(m):
    code = hamming_code(m)
    assert len(code) == 1 << (code.n - m)
    assert min(
        hamming_distance(a, b) for a, b in combinations(code.centers, 2)
    ) == 3


def test_hamming_code_m4_size():
    code = hamming_code(4)
    assert code.n == 15
    assert len(code) == 2048


def test_hamming_code_rejects_out_of_range_m():
    with pytest.raises(MOutOfRange):
        hamming_code(1)
    with pytest.raises(MOutOfRange):
        hamming_code(5)


@pytest.mark.parametrize("m", [3.0, True, "3", None], ids=repr)
def test_hamming_code_rejects_non_integer_m(m):
    with pytest.raises(MOutOfRange):
        hamming_code(m)


# ------------------------------------------------------------- greedy_cover


def test_greedy_cover_four_player_family():
    targets = [Coalition.of(1, 3), Coalition.of(1, 4), Coalition.of(2, 3), Coalition.of(2, 4)]
    code = greedy_cover(4, targets)
    assert len(code) == 2
    assert covering_radius_at_most(code, targets, 1)


def test_greedy_cover_single_target():
    code = greedy_cover(3, [Coalition.of(1)])
    assert len(code) == 1
    assert covering_radius_at_most(code, [Coalition.of(1)], 1)


def test_greedy_cover_whole_cube_n4():
    code = greedy_cover(4, all_coalitions(4))
    assert covering_radius_at_most(code, all_coalitions(4), 1)
    assert len(code) >= 4


def test_greedy_cover_rejects_empty_targets():
    with pytest.raises(ValueError):
        greedy_cover(4, [])


def test_covering_radius_zero_needs_the_targets_themselves():
    targets = [Coalition.of(1), Coalition.of(2, 3)]
    code = Code(3, tuple(targets))
    assert covering_radius_at_most(code, targets, 0)
    assert not covering_radius_at_most(Code(3, (Coalition.of(1),)), targets, 0)


def oracle_covering_radius_at_most(code, targets, r):
    # The earlier version: one hamming_distance call per target and center.
    return all(
        any(hamming_distance(t, c) <= r for c in code.centers) for t in targets
    )


@settings(max_examples=300)
@given(st.integers(1, 8), st.data())
def test_covering_radius_matches_pairwise_oracle(n, data):
    # Targets may hold players beyond n, and r may be negative.
    wide = st.integers(0, (2 << n) - 1)
    centers = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    targets = [Coalition(m) for m in data.draw(st.lists(wide, max_size=8))]
    r = data.draw(st.integers(-1, n + 1))
    code = Code(n, [Coalition(m) for m in centers])
    expected = oracle_covering_radius_at_most(code, targets, r)
    assert covering_radius_at_most(code, iter(targets), r) == expected


@settings(max_examples=60)
@given(st.integers(2, 8), st.data())
def test_greedy_cover_properties(n, data):
    masks = data.draw(
        st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=12)
    )
    targets = [Coalition(m) for m in masks]
    code = greedy_cover(n, targets)
    assert covering_radius_at_most(code, targets, 1)
    assert len(code) <= len(targets)


# --------------------------------------------------------------- full_cover


@pytest.mark.parametrize(
    "n,expected_size",
    [(1, 1), (2, 2), (3, 2), (4, 4), (7, 16), (8, 32), (10, 128), (15, 2048)],
)
def test_full_cover_sizes(n, expected_size):
    assert len(full_cover(n)) == expected_size


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 10])
def test_full_cover_covers_everything(n):
    code = full_cover(n)
    assert covering_radius_at_most(code, all_coalitions(n), 1)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_full_cover_meets_perfect_bound_at_hamming_lengths(m):
    n = (1 << m) - 1
    assert len(full_cover(n)) == (1 << n) // (n + 1)


@pytest.mark.parametrize("n", [2.0, True, "3", None], ids=repr)
def test_cover_lengths_must_be_integers(n):
    with pytest.raises(ValueError):
        full_cover(n)
    with pytest.raises(ValueError):
        greedy_cover(n, [Coalition.of(1)])


# ------------------------------------------------------------ bounds_report


def test_bounds_report_n7():
    report = bounds_report(7)
    assert report.sperner_bound == 35
    assert report.taylor_zwicker_minus_one == 34
    assert report.kn_exact == 16
    assert report.lower_bound_formula == Fraction(35, 7) == 5
    assert report.known_bounds_row == (7, 16)


def test_bounds_report_n8():
    assert bounds_report(8).kn_exact == 32


def test_bounds_report_n10():
    report = bounds_report(10)
    assert report.known_bounds_row == (36, 120)
    assert report.taylor_zwicker_minus_one == 251


def test_bounds_report_no_closed_form():
    report = bounds_report(10)
    assert report.kn_exact is None


def test_bounds_report_small_lengths():
    assert bounds_report(1).kn_exact == 1
    assert bounds_report(2).kn_exact == 2
    assert bounds_report(3).kn_exact == 2
    assert bounds_report(4).kn_exact == 4
    assert bounds_report(4).known_bounds_row is None


def test_bounds_report_rejects_out_of_range():
    with pytest.raises(ValueError):
        bounds_report(0)
    with pytest.raises(ValueError):
        bounds_report(64)


@pytest.mark.parametrize("n", [True, 2.0, 1.5], ids=repr)
def test_bounds_report_takes_only_ints(n):
    with pytest.raises(ValueError):
        bounds_report(n)


@pytest.mark.parametrize("n", range(1, 64))
def test_bounds_report_internal_consistency(n):
    report = bounds_report(n)
    assert report.lower_bound_formula <= report.sperner_bound
    assert report.sperner_bound == math.comb(n, n // 2)
    assert isinstance(report.kn_upper_log, Fraction)
    if report.known_bounds_row is not None:
        lower, upper = report.known_bounds_row
        assert lower <= upper <= report.taylor_zwicker_minus_one
    if report.kn_exact is not None:
        assert report.kn_exact <= report.kn_upper_log


def test_bounds_table_covers_expected_range():
    for n in range(BOUNDS_TABLE_MIN_N, BOUNDS_TABLE_MAX_N + 1):
        assert bounds_report(n).known_bounds_row is not None
    assert bounds_report(BOUNDS_TABLE_MIN_N - 1).known_bounds_row is None
    assert bounds_report(BOUNDS_TABLE_MAX_N + 1).known_bounds_row is None
