import math
from fractions import Fraction
from itertools import product

import pytest

from blockmonte.numtheory import (
    ZETA_EVEN_PI_COEFFICIENT,
    coprime_probability_exact,
    euler_product_partial,
    gcd_tuple,
    sieve_primes,
    zeta_partial,
    zeta_value,
)


def subtraction_gcd(a: int, b: int) -> int:
    # Deliberately different algorithm from math.gcd, for cross-checking.
    while a != b:
        if a > b:
            a -= b
        else:
            b -= a
    return a


def mobius_coprime_count(m: int, bound: int) -> int:
    # Inclusion-exclusion over squarefree d: sum mu(d) * floor(bound/d)^m.
    mu = [0] * (bound + 1)
    mu[1] = 1
    for d in range(1, bound + 1):
        if mu[d]:
            for multiple in range(2 * d, bound + 1, d):
                mu[multiple] -= mu[d]
    return sum(mu[d] * (bound // d) ** m for d in range(1, bound + 1))


class TestGcdTuple:
    def test_shared_factor_three(self):
        assert gcd_tuple((6, 9, 21)) == 3

    @pytest.mark.parametrize("k", [1, 2, 17, 10 ** 9])
    def test_unit_entry_forces_one(self, k):
        assert gcd_tuple((1, k)) == 1

    def test_pairwise_coprime_squares(self):
        assert gcd_tuple((4, 9, 25)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            gcd_tuple(())
        with pytest.raises(ValueError):
            gcd_tuple((4, 0, 6))

    def test_order_invariant_and_duplication_idempotent(self):
        import random

        rng = random.Random(5)
        for _ in range(200):
            values = [rng.randint(1, 10 ** 6) for _ in range(3)]
            shuffled = list(values)
            rng.shuffle(shuffled)
            assert gcd_tuple(values) == gcd_tuple(shuffled)
            assert gcd_tuple(values + [values[0]]) == gcd_tuple(values)

    def test_agrees_with_subtraction_euclid(self):
        import random

        rng = random.Random(6)
        for _ in range(100):
            a, b = rng.randint(1, 5000), rng.randint(1, 5000)
            assert gcd_tuple((a, b)) == subtraction_gcd(a, b)


class TestZetaPartial:
    def test_first_term(self):
        assert zeta_partial(3, 1) == 1.0

    def test_apery_to_five_places(self):
        assert abs(zeta_partial(3, 10 ** 6) - 1.20205) < 1e-4

    def test_basel_partial(self):
        assert abs(zeta_partial(2, 10 ** 6) - math.pi ** 2 / 6) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            zeta_partial(1, 10)
        with pytest.raises(ValueError):
            zeta_partial(3, 0)


class TestEulerProduct:
    def test_empty_product(self):
        assert euler_product_partial(3, 1) == 1.0

    def test_single_prime_factor(self):
        assert euler_product_partial(2, 2) == pytest.approx(4 / 3, rel=1e-15)

    def test_sieve_small(self):
        assert sieve_primes(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert sieve_primes(1) == []

    def test_agrees_with_series_route(self):
        assert abs(euler_product_partial(3, 10 ** 4) - zeta_partial(3, 10 ** 6)) < 1e-4

    def test_disagreement_shrinks_as_cutoffs_grow(self):
        gaps = [abs(euler_product_partial(3, bound) - zeta_partial(3, terms))
                for bound, terms in ((10, 10 ** 2), (10 ** 2, 10 ** 4), (10 ** 4, 10 ** 6))]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_both_routes_bracket_published_value(self):
        for value in (euler_product_partial(3, 10 ** 4), zeta_partial(3, 10 ** 6)):
            assert abs(value - 1.20205) < 1e-4


class TestCoprimeProbabilityExact:
    def test_single_tuple_universe(self):
        assert coprime_probability_exact(2, 1) == Fraction(1, 1)

    def test_three_by_ten_is_exact_fraction(self):
        probability = coprime_probability_exact(3, 10)
        assert probability.denominator == 1000
        assert probability == Fraction(mobius_coprime_count(3, 10), 1000)

    def test_matches_mobius_formula(self):
        for m, bound in ((2, 30), (3, 12), (4, 6), (5, 100), (2, 10_001)):
            expected = Fraction(mobius_coprime_count(m, bound), bound ** m)
            assert coprime_probability_exact(m, bound) == expected

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_brute_force_enumeration(self, m):
        # A reference that does not use Mobius inversion: every tuple's gcd.
        for bound in range(1, 13):
            coprime = sum(math.gcd(*values) == 1
                          for values in product(range(1, bound + 1), repeat=m))
            assert coprime_probability_exact(m, bound) == Fraction(coprime, bound ** m)

    def test_two_by_hundred_near_basel(self):
        probability = float(coprime_probability_exact(2, 100))
        assert abs(probability - 6 / math.pi ** 2) < 0.02

    def test_converges_toward_reciprocal_zeta_two(self):
        target = 6 / math.pi ** 2
        gaps = [abs(float(coprime_probability_exact(2, bound)) - target)
                for bound in (10, 50, 100)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("m, bound", [(1, 10), (65, 2), (2, 10 ** 7 + 1)])
    def test_size_guard(self, m, bound):
        with pytest.raises(ValueError):
            coprime_probability_exact(m, bound)


def test_even_zeta_coefficients_match_partial_sums():
    for m, coefficient in ZETA_EVEN_PI_COEFFICIENT.items():
        assert zeta_partial(m, 10 ** 6) == pytest.approx(
            float(coefficient) * math.pi ** m, abs=2e-6 if m == 2 else 1e-10)


class TestZetaValue:
    def test_equals_scipy_bit_for_bit(self):
        from scipy.special import zeta

        from blockmonte.estimators import reference_zeta

        for m in [*range(2, 61), 100, 10 ** 9]:
            expected = float(zeta(float(m)))
            assert zeta_value(m) == expected, m
            assert reference_zeta(m) == expected, m

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
    def test_invalid_m(self, bad):
        with pytest.raises(ValueError):
            zeta_value(bad)
