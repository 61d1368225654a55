import math
import threading
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chi2

from blockmonte import mechanics
from blockmonte.combinatorics import permutation_rank
from blockmonte.estimators import VARIANTS
from blockmonte.geometry import cell_in_disc, rasterize_circle
from blockmonte.mechanics import (
    SLIME_CHUNK_SEGMENTS,
    Dropper,
    HopperTimer,
    RandomTickScheduler,
    SlimeArena,
    dropper_permutation,
    dropper_rank_block,
    hopper_item_count,
    hopper_items_in_window,
    slime_death_cell,
    slime_death_cells,
    ticks_until_growth,
    ticks_until_growth_block,
    _free_displacement,
)
from blockmonte.rng import StreamId, derive_stream


def stream(seed=42, label="mech", index=0):
    return derive_stream(seed, StreamId(label, index))


class TestHopper:
    def test_quoted_quantization_example(self):
        # 25 items corresponds to a window of 10 to 10.4 seconds.
        timer = HopperTimer()
        assert hopper_item_count(timer, 10.2) == 25
        assert hopper_item_count(timer, 10.0) == 25
        assert hopper_item_count(timer, 10.399) == 25

    def test_zero_duration(self):
        assert hopper_item_count(HopperTimer(), 0.0) == 0

    def test_period_boundary_is_half_open(self):
        assert hopper_item_count(HopperTimer(), 0.4) == 1

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            hopper_item_count(HopperTimer(), -0.1)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            HopperTimer(period_seconds=0.0)

    def test_durations_past_float_precision_are_rejected_at_once(self):
        # At 2**52 periods and beyond, n + 1 == n in float, so the count
        # loop would never end; it must raise instead.  The call runs on a
        # daemon thread so a regression fails here instead of hanging.
        outcome = []

        def call(duration):
            try:
                hopper_item_count(HopperTimer(), duration)
            except ValueError as exc:
                outcome.append(exc)

        for duration in (0.4 * 2.0 ** 52, 1e302, math.inf):
            worker = threading.Thread(target=call, args=(duration,), daemon=True)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()
        assert len(outcome) == 3
        assert hopper_item_count(HopperTimer(period_seconds=1.0), 2.0 ** 52 - 1) == 2 ** 52 - 1

    @pytest.mark.parametrize("period", [0.4, 0.25, 0.05, 1.7])
    def test_half_open_interval_contract(self, period):
        # count(t) = n exactly when n*period <= t < (n+1)*period, in float
        # comparisons against the same products.
        timer = HopperTimer(period_seconds=period)
        rng = np.random.default_rng(9)
        for t in rng.uniform(0, 50, 500):
            n = hopper_item_count(timer, float(t))
            assert n * period <= t < (n + 1) * period

    def test_exact_multiples_with_binary_period(self):
        timer = HopperTimer(period_seconds=0.25)
        for n in (1, 7, 41, 1000):
            assert hopper_item_count(timer, n * 0.25) == n

    def test_window_with_phase_matches_release_schedule(self):
        # Releases happen every period; a window of the same length catches
        # either n or n+1 of them depending on the start phase.
        timer = HopperTimer()
        assert hopper_items_in_window(timer, 10.2, 0.0) == 25
        counts = {hopper_items_in_window(timer, 10.2, phase)
                  for phase in np.linspace(0.0, 0.399, 97)}
        assert counts <= {25, 26}


class TestDropper:
    def test_single_slot(self):
        assert dropper_permutation(Dropper(slot_count=1), stream()) == (1,)

    def test_full_dropper_is_a_permutation(self):
        s = stream(label="drop9")
        for _ in range(50):
            assert sorted(dropper_permutation(Dropper(slot_count=9), s)) == list(range(1, 10))

    @pytest.mark.parametrize("bad", [0, 10])
    def test_slot_count_bounds(self, bad):
        with pytest.raises(ValueError):
            Dropper(slot_count=bad)

    def test_three_slot_orders_near_uniform(self):
        s = stream(seed=7, label="drop3")
        counts = {p: 0 for p in permutations((1, 2, 3))}
        for _ in range(60000):
            counts[dropper_permutation(Dropper(slot_count=3), s)] += 1
        assert all(9500 <= c <= 10500 for c in counts.values())

    @pytest.mark.parametrize("slots", [2, 3, 4])
    def test_uniformity_chi_squared(self, slots):
        s = stream(seed=13, label=f"dropchi{slots}")
        orders = list(permutations(range(1, slots + 1)))
        draws = 10000 * len(orders)
        counts = {p: 0 for p in orders}
        for _ in range(draws):
            counts[dropper_permutation(Dropper(slot_count=slots), s)] += 1
        expected = draws / len(orders)
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        assert statistic < chi2.ppf(0.999, df=len(orders) - 1)

    def test_block_three_slot_chi_squared(self):
        ranks = dropper_rank_block(Dropper(slot_count=3), stream(seed=3, label="dropblk3"), 60000)
        assert ranks.min() >= 0 and ranks.max() < 6
        counts = np.bincount(ranks, minlength=6)
        statistic = ((counts - 10000) ** 2 / 10000).sum()
        assert statistic < chi2.ppf(0.999, df=5)


    def test_scalar_and_rank_kernel_share_one_law(self):
        # Two-sample chi-squared: 24k scalar orders, ranked, against 24k
        # block ranks for n = 4 (24 cells of about 1000 each).
        dropper = Dropper(slot_count=4)
        s = stream(seed=17, label="tie4")
        scalar = np.bincount([permutation_rank(dropper_permutation(dropper, s))
                              for _ in range(24_000)], minlength=24)
        block = np.bincount(dropper_rank_block(dropper, stream(seed=17, label="tie4blk"), 24_000),
                            minlength=24)
        assert scalar.sum() == block.sum() == 24_000 and len(block) == 24
        statistic = (((scalar - block) ** 2) / (scalar + block)).sum()
        assert statistic < chi2.ppf(0.999, df=23)


class TestRandomTicks:
    def test_certain_selection_and_growth(self):
        sched = RandomTickScheduler(cube_cells=1, picks_per_tick=1)
        s = stream(label="tick1")
        assert all(ticks_until_growth(sched, 1.0, s) == 1 for _ in range(20))

    def test_default_cube_mean_within_three_sigma(self):
        sched = RandomTickScheduler()
        p = sched.selection_probability * (1 / 3)
        n = 100_000
        values = ticks_until_growth_block(sched, 1 / 3, stream(seed=5, label="tickmean"), n)
        sigma_mean = math.sqrt((1 - p) / p ** 2 / n)
        assert abs(values.mean() - 1 / p) <= 3 * sigma_mean

    def test_speed_multiplier_speeds_up_the_wait(self):
        # The exact waiting means at multipliers 1 and 64; their true ratio
        # is 62.5, within a few percent of the naive 64x reading because the
        # per-tick selection probability is no longer tiny at 192 picks.
        base = RandomTickScheduler()
        fast = RandomTickScheduler(speed_multiplier=64)
        mean_base = 3 / base.selection_probability
        mean_fast = 3 / fast.selection_probability
        assert abs(mean_base / mean_fast - 64) / 64 < 0.03
        n = 100_000
        values = ticks_until_growth_block(fast, 1 / 3, stream(seed=6, label="tickfast"), n)
        p = fast.selection_probability / 3
        sigma_mean = math.sqrt((1 - p) / p ** 2 / n)
        assert abs(values.mean() - 1 / p) <= 3 * sigma_mean

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_waiting_time_is_geometric(self, k):
        sched = RandomTickScheduler(cube_cells=16, picks_per_tick=3)
        p = sched.selection_probability * 0.5
        n = 50_000
        values = ticks_until_growth_block(sched, 0.5, stream(seed=8, label="tickgeo"), n)
        survival = (values > k).mean()
        expected = (1 - p) ** k
        assert abs(survival - expected) <= 3 * math.sqrt(expected * (1 - expected) / n)

    @pytest.mark.parametrize("bad", [0.0, 1.5])
    def test_invalid_growth_prob_rejected(self, bad):
        with pytest.raises(ValueError):
            ticks_until_growth(RandomTickScheduler(), bad, stream())

    def test_picks_cannot_exceed_cube(self):
        with pytest.raises(ValueError):
            RandomTickScheduler(cube_cells=8, picks_per_tick=3, speed_multiplier=4)


def lattice_disc_count(radius: int) -> int:
    return sum(1 for x in range(-radius, radius + 1) for z in range(-radius, radius + 1)
               if x * x + z * z <= radius * radius)


def cell_histogram(xs, zs, radius):
    """Counts per cell of the (2r+1)^2 square, from x and z cell rows."""
    side = 2 * radius + 1
    xs, zs = np.asarray(xs), np.asarray(zs)
    return np.bincount((xs + radius) * side + zs + radius, minlength=side * side)


def two_sample_chi2(a, b):
    """Statistic and degrees of freedom for two equal-size histograms;
    bins empty in both are dropped."""
    used = (a + b) > 0
    return (((a - b)[used] ** 2) / (a + b)[used]).sum(), int(used.sum()) - 1


def open_plane_displacement(arena, s):
    """The rounds of ``slime_death_cell`` with the walls taken away: the
    (x, z) a walker moves before it is killed."""
    heading = s.next_float() * math.tau
    x = z = 0.0
    while s.next_float() >= arena.kill_probability:
        if s.next_float() < arena.turn_probability:
            heading = s.next_float() * math.tau
        x += arena.step_cells * math.cos(heading)
        z += arena.step_cells * math.sin(heading)
    return x, z


class TestSlimeWalk:
    def test_immediate_kill_returns_start_cell_uniformly(self):
        arena = SlimeArena(half_width=5, kill_probability=1.0)
        cells = slime_death_cells(arena, stream(seed=1, label="slime-start"), 60500)
        side = 11
        counts = np.zeros((side, side))
        for x, z in cells.T:
            counts[x + 5, z + 5] += 1
        expected = 60500 / side ** 2
        statistic = ((counts - expected) ** 2 / expected).sum()
        assert statistic < chi2.ppf(0.999, df=side ** 2 - 1)

    def test_scalar_walk_stays_in_square(self):
        arena = SlimeArena(half_width=4, kill_probability=0.2)
        s = stream(seed=2, label="slime-scalar")
        for _ in range(500):
            x, z = slime_death_cell(arena, s)
            assert type(x) is int and type(z) is int
            assert -4 <= x <= 4 and -4 <= z <= 4

    def test_one_cell_is_an_int_pair_and_many_are_two_rows(self):
        arena = SlimeArena(half_width=6, kill_probability=0.3)
        cell = slime_death_cell(arena, stream(seed=8, label="slime-cell"))
        assert [type(v) for v in cell] == [int, int]
        cells = slime_death_cells(arena, stream(seed=8, label="slime-cells"), 40)
        assert cells.shape == (2, 40) and cells.dtype == np.int64
        raster = rasterize_circle(6)
        for cell_set in (raster.inside_cells, raster.outline_cells()):
            assert {tuple(map(type, c)) for c in cell_set} == {(int, int)}
        for x, z in [*cells.T.tolist(), cell, (6, 0), (5, 5)]:
            assert cell_in_disc((x, z), 6) == ((x, z) in raster)

    def test_batch_walk_stays_in_square(self):
        arena = SlimeArena(half_width=20)
        cells = slime_death_cells(arena, stream(seed=3, label="slime-bound"), 50_000)
        assert np.abs(cells).max() <= 20

    def test_disc_fraction_matches_lattice_count(self):
        # With no drift the death cell is uniform over the (2R+1)^2 cells, so
        # the in-disc fraction has mean N(R)/(2R+1)^2 with N the exact count
        # of lattice cells inside the disc.
        r = 20
        n = 200_000
        arena = SlimeArena(half_width=r)
        cells = slime_death_cells(arena, stream(seed=4, label="slime-disc"), n)
        inside = ((cells[0] ** 2 + cells[1] ** 2) <= r * r).mean()
        p = lattice_disc_count(r) / (2 * r + 1) ** 2
        assert abs(inside - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_quadrant_balance_without_drift(self):
        r = 20
        cells = slime_death_cells(SlimeArena(half_width=r),
                                  stream(seed=5, label="slime-quad"), 200_000)
        x, z = cells
        quadrants = [int(((x > 0) & (z > 0)).sum()), int(((x < 0) & (z > 0)).sum()),
                     int(((x > 0) & (z < 0)).sum()), int(((x < 0) & (z < 0)).sum())]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(quadrants[i] - quadrants[j]) <= 4 * math.sqrt(quadrants[i] + quadrants[j])

    def test_drift_pulls_deaths_south_east(self):
        r = 20
        n = 200_000
        plain = slime_death_cells(SlimeArena(half_width=r),
                                  stream(seed=6, label="slime-plain"), n)
        drifted = slime_death_cells(SlimeArena(half_width=r, drift_bias=(0.3, -0.3)),
                                    stream(seed=6, label="slime-drift"), n)
        # south-east means +x and -z here; compare mean displacement along
        # (1, -1) against the combined standard error of the two runs.
        plain_proj = plain[0] - plain[1]
        drift_proj = drifted[0] - drifted[1]
        combined_se = math.sqrt(plain_proj.var() / n + drift_proj.var() / n)
        assert drift_proj.mean() - plain_proj.mean() > 3 * combined_se

    # r = 3, 49 cells.  kill_probability 0.1 makes walks of about 10 moves,
    # longer than the 7-cell side, so drift and turning shape the law.
    @pytest.mark.parametrize("case", [
        {"turn_probability": 0.0},
        {"turn_probability": 1.0},
        {"kill_probability": 1.0},
        {"drift_bias": (0.3, -0.3)},
        {"drift_bias": (0.3, -0.3), "turn_probability": 0.0},
        {"drift_bias": (0.3, -0.3), "turn_probability": 1.0},
        {"step_cells": 6.5},
        {"step_cells": 6.5, "drift_bias": (0.3, -0.3)},
    ], ids=["turn0", "turn1", "kill1", "drift", "drift-turn0", "drift-turn1",
            "long-step", "long-step-drift"])
    def test_kernel_and_scalar_walk_share_one_law(self, case):
        # Two-sample chi-squared on death cells: 6,000 scalar walks against
        # 6,000 from the block kernel.
        arena = SlimeArena(half_width=3, **{"kill_probability": 0.1, **case})
        s = stream(seed=23, label="slime-law-scalar")
        scalar = [slime_death_cell(arena, s) for _ in range(6000)]
        block = slime_death_cells(arena, stream(seed=23, label="slime-law-block"), 6000)
        statistic, df = two_sample_chi2(cell_histogram(*zip(*scalar), 3),
                                        cell_histogram(*block, 3))
        assert statistic < chi2.ppf(0.999, df=df)

    @pytest.mark.parametrize("chunk", [SLIME_CHUNK_SEGMENTS, 3])
    @pytest.mark.parametrize("turn", [0.0, 0.2, 1.0])
    def test_unfolded_displacement_matches_the_rounds(self, monkeypatch, turn, chunk):
        # Death cells without drift are uniform for any move count, so the
        # cell test above cannot see the segment bookkeeping; the free
        # displacement can.  Its length in steps, binned with half-integer
        # edges (a walk that never turns moves a whole number of steps),
        # against the scalar rounds in the open plane.  A chunk of 3
        # segments splits many walkers across two or more chunks.
        monkeypatch.setattr(mechanics, "SLIME_CHUNK_SEGMENTS", chunk)
        arena = SlimeArena(half_width=3, kill_probability=0.1, turn_probability=turn)
        s = stream(seed=29, label="slime-free-scalar")
        scalar = np.array([open_plane_displacement(arena, s) for _ in range(6000)]).T
        block = _free_displacement(arena, stream(seed=29, label="slime-free-block"), 6000)
        edges = [0, 0.5, 1.5, 2.5, 4.5, 6.5, 9.5, 13.5, 19.5, 29.5, np.inf]
        statistic, df = two_sample_chi2(
            np.histogram(np.hypot(*scalar) / arena.step_cells, edges)[0],
            np.histogram(np.hypot(*block) / arena.step_cells, edges)[0])
        assert statistic < chi2.ppf(0.999, df=df)

    @pytest.mark.parametrize("drift", [(0.0, 0.0), (0.3, -0.3)], ids=["unfolded", "stepped"])
    def test_memory_stays_bounded_at_the_least_kill_probability(self, drift):
        # At the table's least kill_probability a walker makes about 1,000
        # moves, and 16,384 walkers run about 3.3M straight segments: some
        # 130 MB of per-segment arrays if drawn at once.
        least = VARIANTS["pi"].params["kill_probability"].minimum
        arena = SlimeArena(half_width=20, kill_probability=least, drift_bias=drift)
        tracemalloc.start()
        try:
            cells = slime_death_cells(arena, stream(seed=31, label="slime-memory"), 16_384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cells.shape == (2, 16_384) and np.abs(cells).max() <= 20
        assert peak < 32 * 2 ** 20

    def test_long_walks_are_drawn_in_chunks(self):
        # SlimeArena itself takes any kill_probability in (0, 1].  These 8
        # walkers turn every round and make about a million moves each, so
        # one walker alone holds several chunks of segments: some 100 MB of
        # per-segment arrays if drawn at once.
        arena = SlimeArena(half_width=20, kill_probability=1e-6, turn_probability=1.0)
        tracemalloc.start()
        try:
            cells = slime_death_cells(arena, stream(seed=37, label="slime-long-walks"), 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.abs(cells).max() <= 20
        assert peak < 32 * 2 ** 20

    def test_kill_probability_validation(self):
        with pytest.raises(ValueError):
            SlimeArena(half_width=5, kill_probability=0.0)
