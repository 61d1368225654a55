import math

import numpy as np
import pytest
from scipy.stats import chi2

from blockmonte.rng import RngStream, StreamId, derive_stream, geometric_trials


def stream(seed=42, label="test", index=0) -> RngStream:
    return derive_stream(seed, StreamId(label, index))


class TestDeriveStream:
    def test_same_origin_means_identical_sequence(self):
        a = [stream().next_uint64() for _ in range(1000)]
        b = [stream().next_uint64() for _ in range(1000)]
        assert a == b

    def test_distinct_trial_indices_diverge(self):
        a = [stream(seed=42, label="pi", index=0).next_uint64() for _ in range(1000)]
        b = [stream(seed=42, label="pi", index=1).next_uint64() for _ in range(1000)]
        assert a != b

    def test_distinct_seeds_diverge(self):
        a = [stream(seed=0, label="e").next_uint64() for _ in range(100)]
        b = [stream(seed=1, label="e").next_uint64() for _ in range(100)]
        assert a != b

    def test_distinct_labels_diverge(self):
        assert stream(label="pi").next_uint64() != stream(label="e").next_uint64()

    def test_seed_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            derive_stream(1 << 64, StreamId("x", 0))
        with pytest.raises(ValueError):
            derive_stream(-1, StreamId("x", 0))

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError):
            StreamId("x", -1)

    def test_block_draws_are_reproducible(self):
        assert np.array_equal(stream().float_block(500), stream().float_block(500))


class TestNextIntBelow:
    def test_n_one_always_zero(self):
        s = stream()
        assert all(s.next_int_below(1) == 0 for _ in range(100))

    def test_range_contract_n_4096(self):
        s = stream()
        draws = [s.next_int_below(4096) for _ in range(5000)]
        assert min(draws) >= 0 and max(draws) <= 4095

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            stream().next_int_below(0)

    def test_six_sided_counts_and_chi2(self):
        # 60000 draws of a 6-way uniform: counts near 10000, chi2 below the
        # alpha=0.001 critical value for 5 dof.
        s = stream(seed=42, label="die")
        counts = [0] * 6
        for _ in range(60000):
            counts[s.next_int_below(6)] += 1
        assert all(9500 <= c <= 10500 for c in counts)
        statistic = sum((c - 10000) ** 2 / 10000 for c in counts)
        assert statistic < 20.5

    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_uniformity_chi_squared(self, n):
        s = stream(seed=2024, label=f"chi2-{n}")
        draws = 10000 * n
        counts = [0] * n
        for _ in range(draws):
            counts[s.next_int_below(n)] += 1
        expected = draws / n
        statistic = sum((c - expected) ** 2 / expected for c in counts)
        assert statistic < chi2.ppf(0.999, df=n - 1)

    def test_block_draws_chi_squared(self):
        s = stream(seed=5, label="block")
        values = s.int_below_block(6, 60000)
        counts = np.bincount(values, minlength=6)
        statistic = ((counts - 10000) ** 2 / 10000).sum()
        assert statistic < chi2.ppf(0.999, df=5)


class TestIntBelowBlock:
    @pytest.mark.parametrize("n", [2, 3, math.factorial(9), 10 ** 6, 2 ** 31 - 1])
    def test_an_int32_draw_equals_the_int64_draw(self, n):
        for seed in range(4):
            narrow, wide = (stream(seed=seed, label="int32") for _ in range(2))
            drawn = narrow.int_below_block(n, (4096, 3), np.int32)
            assert drawn.dtype == np.int32
            assert np.array_equal(drawn, wide.int_below_block(n, (4096, 3)))
            assert narrow.next_float() == wide.next_float()  # the same state after

    def test_the_default_is_int64(self):
        assert stream().int_below_block(2 ** 40, 10).dtype == np.int64
        assert stream().int_below_block(6, 10).dtype == np.int64


class TestGeometricTrials:
    def test_certain_success_is_one(self):
        s = stream()
        assert all(geometric_trials(s, 1.0) == 1 for _ in range(50))

    def test_support_is_at_least_one(self):
        s = stream(label="geo-support")
        assert all(geometric_trials(s, 0.001) >= 1 for _ in range(2000))

    @pytest.mark.parametrize("p", [0.5, 0.1, 0.01])
    def test_sample_mean_within_three_sigma(self, p):
        s = stream(seed=11, label=f"geo-{p}")
        n = 100_000
        values = s.geometric_block(p, n)
        sigma_mean = math.sqrt((1 - p) / p ** 2 / n)
        assert abs(values.mean() - 1 / p) <= 3 * sigma_mean

    def test_half_probability_mean_band(self):
        s = stream(seed=11, label="geo-band")
        mean = sum(geometric_trials(s, 0.5) for _ in range(100_000)) / 100_000
        assert 1.97 <= mean <= 2.03

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_invalid_probability_rejected(self, bad):
        with pytest.raises(ValueError):
            geometric_trials(stream(), bad)

    @pytest.mark.parametrize("p", [0.5, 0.2, 0.0153, 1e-6])
    def test_block_matches_the_inversion_formula(self, p):
        u = stream(seed=5, label=f"geo-inv-{p}").float_block(12_000).reshape(4000, 3)
        expected = np.maximum(1 + np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64), 1)
        block = stream(seed=5, label=f"geo-inv-{p}").geometric_block(p, (4000, 3))
        assert block.dtype == np.int64
        assert np.array_equal(block, expected)

    def test_block_refuses_a_wait_past_int64(self):
        # the longest wait is about 36.74 / p: below p ~ 3.99e-18 it passes 2^63
        assert stream().geometric_block(4e-18, 1000).min() >= 1
        for p in (3.98e-18, 1e-300):
            with pytest.raises(ValueError, match="int64"):
                stream().geometric_block(p, 10)

    def test_scalar_and_block_agree_in_distribution(self):
        scalar = stream(seed=3, label="geo-sb")
        values = [geometric_trials(scalar, 0.2) for _ in range(20000)]
        block = stream(seed=3, label="geo-sb2").geometric_block(0.2, 20000)
        assert abs(np.mean(values) - block.mean()) < 4 * math.sqrt(2 * 0.8 / 0.04 / 20000)
