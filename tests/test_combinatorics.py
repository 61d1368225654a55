import math
from fractions import Fraction

import numpy as np
import pytest

from blockmonte.combinatorics import (
    alternating_flags,
    derangement_count,
    derangement_flags,
    enumerate_permutations,
    is_alternating,
    is_derangement,
    permutation_rank,
    permutation_table,
    validate_permutation,
    zigzag_count,
)

# 1/e to 30 digits; well beyond the 1e-10-scale tail bounds tested below.
INV_E = 0.367879441171442321595523770161


class TestPredicates:
    def test_fixed_point_at_position_two(self):
        assert is_derangement((3, 2, 4, 1, 6, 5)) is False

    def test_derangement_example(self):
        assert is_derangement((4, 3, 1, 5, 6, 2)) is True

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_identity_is_never_deranged(self, n):
        assert is_derangement(tuple(range(1, n + 1))) is False

    def test_alternating_examples(self):
        assert is_alternating((1, 4, 2, 3)) is True
        assert is_alternating((1, 3, 4, 2)) is False

    def test_short_permutations_are_alternating(self):
        assert is_alternating(()) is True
        assert is_alternating((1,)) is True
        assert is_alternating((1, 2)) is True
        assert is_alternating((2, 1)) is False

    def test_non_permutations_rejected(self):
        with pytest.raises(ValueError):
            is_derangement((1, 1, 3))
        with pytest.raises(ValueError):
            is_alternating((0, 1))

    def test_validate_returns_tuple(self):
        assert validate_permutation([2, 1]) == (2, 1)


class TestDerangementCount:
    def test_empty_case(self):
        assert derangement_count(0) == 1

    def test_small_values_against_enumeration(self):
        for n in range(0, 9):
            brute = sum(is_derangement(p) for p in enumerate_permutations(n))
            assert derangement_count(n) == brute

    def test_nine_by_brute_force(self):
        brute = sum(is_derangement(p) for p in enumerate_permutations(9))
        assert derangement_count(9) == brute == 133496

    def test_overflow_guard(self):
        assert derangement_count(20) > 0
        with pytest.raises(OverflowError):
            derangement_count(21)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derangement_count(-1)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_partial_sum_identity(self, n):
        # D(n)/n! equals the n-th partial sum of sum (-1)^k / k!, exactly.
        partial = sum(Fraction((-1) ** k, math.factorial(k)) for k in range(n + 1))
        assert Fraction(derangement_count(n), math.factorial(n)) == partial

    @pytest.mark.parametrize("n", range(1, 13))
    def test_tail_bound_against_inverse_e(self, n):
        gap = abs(derangement_count(n) / math.factorial(n) - INV_E)
        assert gap < 1 / math.factorial(n + 1)


class TestZigzagCount:
    def test_base_cases(self):
        assert zigzag_count(0) == 1
        assert zigzag_count(1) == 1

    def test_four_by_enumeration(self):
        brute = sum(is_alternating(p) for p in enumerate_permutations(4))
        assert zigzag_count(4) == brute == 5

    def test_small_values_against_enumeration(self):
        for n in range(0, 9):
            brute = sum(is_alternating(p) for p in enumerate_permutations(n))
            assert zigzag_count(n) == brute

    def test_nine_by_brute_force(self):
        brute = sum(is_alternating(p) for p in enumerate_permutations(9))
        assert zigzag_count(9) == brute

    def test_overflow_guard(self):
        assert zigzag_count(20) > 0
        with pytest.raises(OverflowError):
            zigzag_count(21)


class TestEnumeration:
    def test_empty(self):
        assert list(enumerate_permutations(0)) == [()]

    def test_three_known_order(self):
        assert list(enumerate_permutations(3)) == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]

    def test_five_has_120_distinct(self):
        perms = list(enumerate_permutations(5))
        assert len(perms) == 120
        assert len(set(perms)) == 120

    def test_size_limit(self):
        with pytest.raises(ValueError):
            enumerate_permutations(10)


class TestRankTables:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_table_is_the_enumeration_minus_one(self, n):
        shape = (math.factorial(n), n)
        expected = np.array(list(enumerate_permutations(n)), dtype=np.int64).reshape(shape) - 1
        table = permutation_table(n)
        assert table.shape == shape and table.dtype == np.int8
        assert (table == expected).all()

    @pytest.mark.parametrize("n", range(0, 10))
    def test_flag_sums_are_the_exact_counts(self, n):
        assert derangement_flags(n).sum() == derangement_count(n)
        assert alternating_flags(n).sum() == zigzag_count(n)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_flags_agree_with_the_predicates_row_for_row(self, n):
        perms = list(enumerate_permutations(n))
        assert derangement_flags(n).tolist() == [is_derangement(p) for p in perms]
        assert alternating_flags(n).tolist() == [is_alternating(p) for p in perms]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_rank_and_table_are_inverse(self, n):
        table = permutation_table(n)
        for rank, row in enumerate(table):
            assert permutation_rank(tuple(int(v) + 1 for v in row)) == rank
        for perm in enumerate_permutations(n):
            assert (table[permutation_rank(perm)] == np.array(perm) - 1).all()

    def test_rank_examples(self):
        assert permutation_rank((1, 2, 3, 4)) == 0
        assert permutation_rank((4, 3, 2, 1)) == 23
        assert permutation_rank((2, 1, 3)) == 2
        with pytest.raises(ValueError):
            permutation_rank((1, 1))

    def test_tables_are_cached_and_read_only(self):
        assert permutation_table(9) is permutation_table(9)
        assert derangement_flags(9) is derangement_flags(9)
        for array in (permutation_table(5), derangement_flags(5), alternating_flags(5)):
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_table_size_limit(self, bad):
        with pytest.raises(ValueError):
            permutation_table(bad)
