"""Exact permutation predicates, counts and rank tables.

These are the oracles behind the e and sec(1)+tan(1) estimators, so every
count is computed in exact integer arithmetic; no floating point is allowed
anywhere in this module.

The rank tables serve the sampling kernels: ``permutation_table(n)`` lists
every permutation of 0..n-1 in lexicographic order, so row r is the
permutation whose Lehmer-code rank (``permutation_rank``) is r, and a
uniform rank in [0, n!) picks a uniform permutation.  The per-rank flag
tables answer the derangement and alternation questions by lookup.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

# A permutation of [n] is a sequence containing 1..n exactly once.
Permutation = tuple[int, ...]

# Counts above n = 20 no longer fit 64-bit integers, which is the stated
# interchange contract for these oracles.
_MAX_COUNT_N = 20


def validate_permutation(entries: Sequence[int]) -> Permutation:
    perm = tuple(int(v) for v in entries)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {entries!r}")
    return perm


def is_derangement(entries: Sequence[int]) -> bool:
    """True iff no entry sits at its own position (p_i != i for all i)."""
    perm = validate_permutation(entries)
    return all(value != position for position, value in enumerate(perm, start=1))


def is_alternating(entries: Sequence[int]) -> bool:
    """True iff entries zigzag: p1 < p2 > p3 < p4 ...

    Lengths 0 and 1 are alternating vacuously.
    """
    perm = validate_permutation(entries)
    for i in range(len(perm) - 1):
        rising = i % 2 == 0
        if rising and not perm[i] < perm[i + 1]:
            return False
        if not rising and not perm[i] > perm[i + 1]:
            return False
    return True


def derangement_count(n: int) -> int:
    """Number of derangements of [n]: sum_{k=0}^{n} (-1)^k n!/k!."""
    _check_count_arg(n)
    factorial_n = math.factorial(n)
    return sum((-1) ** k * (factorial_n // math.factorial(k)) for k in range(n + 1))


def zigzag_count(n: int) -> int:
    """Number of alternating permutations of [n] (A_0 = A_1 = 1).

    Computed with the boustrophedon recurrence; the A_0 = A_1 = 1 convention
    makes sum A_n/n! equal sec(1)+tan(1) with the series starting at n = 0.
    """
    _check_count_arg(n)
    row = [1]
    for i in range(1, n + 1):
        prev = row
        row = [0]
        for k in range(1, i + 1):
            row.append(row[k - 1] + prev[i - k])
    return row[-1]


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of [n], each exactly once, lexicographic order."""
    _check_enumeration_arg(n)
    return itertools.permutations(range(1, n + 1))


def permutation_rank(entries: Sequence[int]) -> int:
    """Lexicographic rank of a permutation of 1..n, via its Lehmer code.

    Digit i of the code counts the later entries smaller than entry i; the
    rank reads the code in the factorial number system, so the identity has
    rank 0 and the reversal rank n! - 1.
    """
    perm = validate_permutation(entries)
    rank = 0
    for i, value in enumerate(perm):
        smaller_later = sum(1 for later in perm[i + 1:] if later < value)
        rank = rank * (len(perm) - i) + smaller_later
    return rank


@lru_cache(maxsize=None)
def permutation_table(n: int) -> np.ndarray:
    """Read-only int8 array of shape (n!, n): row r is the permutation of
    0..n-1 with lexicographic rank r.

    Built from the table for n - 1: the rows with first entry f are f
    followed by each shorter row with every entry >= f shifted up by one,
    which keeps lexicographic order.  The array is column-major, so the
    per-position passes of the flag tables read contiguous memory.  n = 9
    takes 3.3 MB.
    """
    _check_enumeration_arg(n)
    if n == 0:
        table = np.zeros((1, 0), dtype=np.int8, order="F")
    else:
        shorter = permutation_table(n - 1)
        rows = shorter.shape[0]
        table = np.empty((n * rows, n), dtype=np.int8, order="F")
        table[:, 0] = np.repeat(np.arange(n, dtype=np.int8), rows)
        for first in range(n):
            rest = table[first * rows:(first + 1) * rows, 1:]
            rest[...] = shorter
            rest += shorter >= first
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def derangement_flags(n: int) -> np.ndarray:
    """Read-only bool array of length n!: entry r is True iff the rank-r
    permutation has no fixed point."""
    table = permutation_table(n)
    flags = np.ones(table.shape[0], dtype=bool)
    for position in range(n):
        flags &= table[:, position] != position
    flags.flags.writeable = False
    return flags


@lru_cache(maxsize=None)
def alternating_flags(n: int) -> np.ndarray:
    """Read-only bool array of length n!: entry r is True iff the rank-r
    permutation zigzags p1 < p2 > p3 < ... (as ``is_alternating``)."""
    table = permutation_table(n)
    flags = np.ones(table.shape[0], dtype=bool)
    for i in range(n - 1):
        if i % 2 == 0:
            flags &= table[:, i] < table[:, i + 1]
        else:
            flags &= table[:, i] > table[:, i + 1]
    flags.flags.writeable = False
    return flags


def _check_enumeration_arg(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 9:
        raise ValueError("enumeration supported only for n <= 9")


def _check_count_arg(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _MAX_COUNT_N:
        raise OverflowError(f"count for n > {_MAX_COUNT_N} exceeds 64-bit range")
