"""Deterministic, splittable random streams.

Every experiment draws all of its randomness from an ``RngStream`` derived
from a 64-bit master seed plus a ``StreamId`` (label, trial index).  Streams
are keyed through SHA-256 into a Philox counter-based generator, so two
streams with different ids are statistically independent and never share
mutable state: reproducibility holds no matter how trials are scheduled.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1

# A master seed is any unsigned 64-bit integer.
MasterSeed = int


@dataclass(frozen=True)
class StreamId:
    """Identifies one random stream within a run.

    (label, index) pairs must be unique within a run; the executor uses the
    experiment name as the label and the trial/block number as the index.
    """

    experiment_label: str
    trial_index: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.experiment_label, str):
            raise ValueError("experiment_label must be a string")
        if self.trial_index < 0:
            raise ValueError("trial_index must be >= 0")


class RngStream:
    """One deterministic stream of random draws.

    The output sequence is a pure function of the (seed, id) origin.  A
    stream must not be shared between concurrent workers; hand each worker
    its own stream instead.
    """

    def __init__(self, generator: np.random.Generator, origin: tuple[int, StreamId]):
        self._generator = generator
        self.origin = origin

    def __repr__(self) -> str:
        seed, sid = self.origin
        return f"RngStream(seed={seed}, label={sid.experiment_label!r}, index={sid.trial_index})"

    # -- scalar draws -----------------------------------------------------

    def next_uint64(self) -> int:
        return int(self._generator.integers(0, 1 << 64, dtype=np.uint64))

    def next_float(self) -> float:
        """Uniform draw in [0, 1)."""
        return float(self._generator.random())

    def next_int_below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n), via masked rejection.

        Rejection (rather than a modulo) keeps every residue exactly equally
        likely; a biased integer draw would corrupt the ratio estimators.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            candidate = self.next_uint64() & mask
            if candidate < n:
                return candidate

    # -- block draws ------------------------------------------------------
    #
    # Vectorised equivalents used by the experiment executor.  They draw the
    # same distributions as the scalar calls but consume the stream in bulk,
    # so scalar and block consumers of one stream see different sequences.

    def float_block(self, count: int) -> np.ndarray:
        return self._generator.random(count)

    def int_below_block(self, n: int, shape, dtype=np.int64) -> np.ndarray:
        """Uniform integers in [0, n), int64 or, for n <= 2^31, int32.
        numpy draws both dtypes through its 32-bit bounded path while n - 1
        fits in 32 bits, so an int32 draw equals the int64 one.  An index
        wants int64 (numpy casts an int32 index to intp first)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self._generator.integers(0, n, size=shape, dtype=dtype)

    def geometric_block(self, p: float, shape) -> np.ndarray:
        """Geometric (trials-to-first-success, support >= 1) by inversion."""
        _check_probability(p)
        if p == 1.0:
            return np.ones(shape, dtype=np.int64)
        # The largest uniform, 1 - 2^-53, gives the longest wait, computed as
        # below; from 2^63 on the int64 cast would wrap instead of failing.
        if np.floor(np.log1p(-(1.0 - 2.0 ** -53)) / math.log1p(-p)) >= 2.0 ** 63:
            raise ValueError("p is too small: a geometric draw could exceed the int64 range")
        # max(1 + floor(log1p(-u) / log1p(-p)), 1): the same ufuncs in the
        # same order, in place, so only two arrays are allocated
        u = self._generator.random(shape)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= math.log1p(-p)
        np.floor(u, out=u)
        draws = u.astype(np.int64)
        draws += 1
        return np.maximum(draws, 1, out=draws)


def derive_stream(seed: MasterSeed, stream_id: StreamId) -> RngStream:
    """Build the stream owned by (seed, stream_id).

    Repeated calls with equal arguments return streams that emit identical
    sequences.  The 128-bit Philox key is the leading half of
    SHA-256(seed || label || index), so distinct ids land on unrelated keys.
    """
    if not 0 <= seed <= MASK64:
        raise ValueError("master seed must be an unsigned 64-bit integer")
    material = hashlib.sha256()
    material.update(seed.to_bytes(8, "little"))
    material.update(stream_id.experiment_label.encode("utf-8"))
    material.update(b"\x00")
    material.update(stream_id.trial_index.to_bytes(8, "little"))
    key = np.frombuffer(material.digest()[:16], dtype=np.uint64)
    generator = np.random.Generator(np.random.Philox(key=key))
    return RngStream(generator, (seed, stream_id))


def geometric_trials(stream: RngStream, p: float) -> int:
    """Number of Bernoulli(p) trials up to and including the first success.

    Sampled by inversion of the geometric CDF, which produces exactly the
    trials-to-first-success distribution in a single uniform draw.
    """
    _check_probability(p)
    if p == 1.0:
        return 1
    u = stream.next_float()
    draws = 1 + math.floor(math.log1p(-u) / math.log1p(-p))
    return max(1, draws)


def _check_probability(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError("p must satisfy 0 < p <= 1")
