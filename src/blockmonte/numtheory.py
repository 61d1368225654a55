"""gcd/coprimality helpers, zeta partial sums, and Euler-product partials.

``coprime_probability_exact`` is an exact finite-universe oracle (a
Möbius-inverted count) and therefore returns an exact Fraction; the
floating ``zeta_partial`` and ``euler_product_partial`` routes approach zeta(s) from the series and the
prime product respectively, giving two independent checks on one value.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

# zeta(2k) as a rational multiple of pi^(2k).
ZETA_EVEN_PI_COEFFICIENT = {
    2: Fraction(1, 6),
    4: Fraction(1, 90),
    6: Fraction(1, 945),
}

# The sieve holds a (limit + 1)-byte array and takes about 0.1 s at this
# bound on a 2-core machine; zeta_partial loops in Python over every number
# up to its bound, about 1.2 s; coprime_probability_exact, which sieves mu,
# about 1.2 s with a 55 MB peak.
SERIES_BOUND_LIMIT = 10 ** 7

# zeta's largest m: from 54 on zeta(m) is 1.0 in double precision.
COPRIME_MAX_M = 64


def gcd_tuple(values: Sequence[int]) -> int:
    """gcd of all entries via iterated Euclid; the tuple is setwise coprime
    iff the result is 1."""
    if len(values) == 0:
        raise ValueError("tuple must be non-empty")
    result = 0
    for value in values:
        if value < 1 or int(value) != value:
            raise ValueError("all entries must be positive integers")
        result = math.gcd(result, int(value))
    return result


def sieve_primes(limit: int) -> list[int]:
    """Primes <= limit by the sieve of Eratosthenes."""
    if limit > SERIES_BOUND_LIMIT:
        raise ValueError(f"limit must be <= {SERIES_BOUND_LIMIT}")
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return np.flatnonzero(np.frombuffer(flags, dtype=np.uint8)).tolist()


def zeta_partial(s: int, terms: int) -> float:
    """Partial sum of zeta(s): sum_{n=1}^{terms} n^-s.

    fsum keeps the accumulation exactly rounded, so the only error left is
    the series tail (below 1/terms for s >= 2).
    """
    if s < 2 or int(s) != s:
        raise ValueError("s must be an integer >= 2")
    if not 1 <= terms <= SERIES_BOUND_LIMIT:
        raise ValueError(f"terms must be in [1, {SERIES_BOUND_LIMIT}]")
    return math.fsum(n ** -s for n in range(1, terms + 1))


# zeta(m) - 1 < 2**-53, half a unit in the last place of 1.0, from here on.
ZETA_ROUNDS_TO_ONE = 54
_ZETA_DIRECT_TERMS = 10
_ZETA_CORRECTIONS = 20


@lru_cache(maxsize=None)
def _bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """B_2, B_4, ..., B_(2 count), exactly (Akiyama-Tanigawa)."""
    row, numbers = [], []
    for n in range(2 * count + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        if n >= 2 and n % 2 == 0:
            numbers.append(row[0])
    return tuple(numbers)


def zeta_value(m: int) -> float:
    """zeta(m) for an integer m >= 2, correctly rounded to a double.

    Euler-Maclaurin in 40-digit decimals, with N = 10: the terms n < N
    summed, the tail from N as its integral, half its first term and 20
    Bernoulli corrections.  For every m < 54 the first omitted correction is
    below 1e-24, so the one rounding of the decimal sum to a double is the
    correct one.  From m = 54 on that double is 1.0.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 2:
        raise ValueError("m must be an integer >= 2")
    if m >= ZETA_ROUNDS_TO_ONE:
        return 1.0
    with localcontext() as ctx:
        ctx.prec = 40
        n = Decimal(_ZETA_DIRECT_TERMS)
        total = sum(Decimal(k) ** -m for k in range(1, _ZETA_DIRECT_TERMS))
        total += n ** (1 - m) / (m - 1) + n ** -m / 2
        # B_2k / (2k)! * m (m+1) ... (m+2k-2) * N^(1-m-2k)
        rising, factorial = m, 2
        for k, bernoulli in enumerate(_bernoulli_even(_ZETA_CORRECTIONS), start=1):
            coefficient = bernoulli * rising / factorial
            total += (Decimal(coefficient.numerator) / coefficient.denominator
                      * n ** (1 - m - 2 * k))
            rising *= (m + 2 * k - 1) * (m + 2 * k)
            factorial *= (2 * k + 1) * (2 * k + 2)
        return float(total)


def euler_product_partial(s: int, prime_bound: int) -> float:
    """Product over primes p <= prime_bound of (1 - p^-s)^-1."""
    if s < 2 or int(s) != s:
        raise ValueError("s must be an integer >= 2")
    if not 1 <= prime_bound <= SERIES_BOUND_LIMIT:
        raise ValueError(f"prime_bound must be in [1, {SERIES_BOUND_LIMIT}]")
    result = 1.0
    for p in sieve_primes(prime_bound):
        result *= 1.0 / (1.0 - p ** -s)
    return result


def _mobius(n: int) -> np.ndarray:
    """mu(0), ..., mu(n) as int8, mu(0) = 0: each prime p flips the sign
    of its multiples, and the multiples of p^2 are 0."""
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in sieve_primes(n):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def coprime_probability_exact(m: int, bound: int) -> Fraction:
    """Exact probability that an m-tuple uniform on [1, bound]^m is setwise
    coprime.

    "Coprime" means the gcd of all entries is 1, not pairwise coprimality.
    The count of coprime tuples is sum over d of mu(d) * (bound // d)^m, by
    Möbius inversion; d is taken in its O(sqrt(bound)) runs of equal
    bound // d, each weighted by its difference of the prefix sums of mu.
    The result is a Fraction with denominator bound^m so it can anchor
    acceptance tests without rounding.
    """
    if not 2 <= m <= COPRIME_MAX_M:
        raise ValueError(f"m must be in [2, {COPRIME_MAX_M}]")
    if not 1 <= bound <= SERIES_BOUND_LIMIT:
        raise ValueError(f"bound must be in [1, {SERIES_BOUND_LIMIT}]")
    ends, d = [], 1
    while d <= bound:
        ends.append(bound // (bound // d))
        d = ends[-1] + 1
    mertens = _mobius(bound).astype(np.int32)
    np.cumsum(mertens, out=mertens)  # in place: the prefix sums of mu
    run_sums = np.diff(mertens[ends], prepend=0).tolist()
    count = sum(mu_sum * (bound // end) ** m for mu_sum, end in zip(run_sums, ends))
    return Fraction(count, bound ** m)
