import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplegames import Coalition, hamming_distance
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
from simplegames.errors import MOutOfRange, PlayerOutOfRange


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


def test_code_rejects_empty():
    with pytest.raises(ValueError):
        Code(3, ())


@pytest.mark.parametrize("n", [0, 25, True, 3.0], ids=repr)
def test_code_lengths_are_ints_within_the_cap(n):
    # A code of length 0 could be saved but not loaded back.
    with pytest.raises(ValueError):
        Code(n, (Coalition(0),))


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
