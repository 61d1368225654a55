"""The six experiments, plus count-only replay of recorded runs.

Each randomized estimator consumes trials in fixed-size blocks; block i of
experiment ``label`` draws from the stream (master_seed, (label, i)), and
block results are combined in index order.  That makes every record a pure
function of its ExperimentConfig, no matter how many workers execute the
blocks.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .combinatorics import alternating_flags, derangement_flags
from .errors import DegenerateCourseError, DegenerateRegionError, DegenerateSampleError
from .expr import parse_function
from .geometry import (
    DEFAULT_WALK_SPEED,
    TriangleCourse,
    cells_in_disc,
    gauss_kronrod,
    rasterize_curve,
    traversal_seconds,
)
from .mechanics import (
    DROPPER_MAX_SLOTS,
    HOPPER_MAX_PERIODS,
    HOPPER_PERIOD_SECONDS,
    Dropper,
    HopperTimer,
    RandomTickScheduler,
    SlimeArena,
    dropper_rank_block,
    hopper_items_in_window,
    slime_death_cells,
    ticks_until_growth_block,
)
from .numtheory import ZETA_EVEN_PI_COEFFICIENT, zeta_value
from .rng import StreamId, derive_stream
from .stats import CONSTANTS, ratio_stderr, relative_error, wilson_ci

# Trials per random stream; one stream per block keeps results independent
# of worker scheduling while still letting numpy do the sampling in bulk.
BLOCK_TRIALS = 1 << 16

# Blocks each thread of _map_blocks runs between two folds of their results.
CHUNK_BLOCKS = 256

Z_95 = 1.96

# rasterize_curve keeps each column's height as a Python int, so that their
# sum is exact; at 100,000 columns the one raster of a config's build takes
# about 19 ms and a 9 MB peak on the default integrand (2-core machine).
# Rasterized integrals take at most this many columns.
MAX_RASTER_COLUMNS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """``variant_params`` is read once, by ``resolve_params``; the config keeps,
    compares and prints only the resolved ``params``: read them, never mutate them."""

    variant: str
    master_seed: int = 0
    trials: int = 10_000
    variant_params: InitVar[dict | None] = None
    params: dict = field(init=False)
    # the Run the variant's build picked, or a counts replay's
    model: Run = field(init=False, repr=False, compare=False)

    def __post_init__(self, variant_params: dict | None) -> None:
        object.__setattr__(self, "master_seed", SEED.coerce("seed", self.master_seed))
        object.__setattr__(self, "trials", COUNT.coerce("trials", self.trials))
        params, model = resolve_params(self.variant, variant_params or {}, self.trials)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "model", model)


@dataclass
class EstimateRecord:
    """Point estimate plus uncertainty; the unit of every report.

    ``estimate`` is None only for runs marked failed (degenerate sample).
    stderr and the CI are None where no sampling model applies.
    """

    variant: str
    estimate: float | None
    trials_used: int
    success_count: int | None
    stderr: float | None
    ci_low: float | None
    ci_high: float | None
    reference: float | None
    params: dict
    # the config's master seed, set by the sampler; None for a counts replay
    seed: int | None = None

    @property
    def relative_error_percent(self) -> float | None:
        """Percent error of the estimate; None for a failed run and against a
        zero or missing reference, where it is undefined."""
        if self.estimate is None or not self.reference:
            return None
        return relative_error(self.estimate, self.reference)


# ---------------------------------------------------------------------------
# record builders: the one step from counts to record, shared by the
# sampling estimators and the count replay; each checks its counts


def _pi_record(inside: int, total: int, params: dict) -> EstimateRecord:
    """4 * inside / total, its binomial stderr and the Wilson interval times 4."""
    if total == 0:
        raise DegenerateSampleError("total count is zero")
    if inside > total:
        raise ValueError("invalid value for 'counts': inside count cannot exceed the total")
    p_hat = inside / total
    low, high = wilson_ci(inside, total, Z_95)
    return EstimateRecord("pi", 4.0 * inside / total, total, inside,
                          4.0 * math.sqrt(p_hat * (1.0 - p_hat) / total), 4.0 * low, 4.0 * high,
                          CONSTANTS.pi, params)


def _ratio_record(variant: str, trials: int, successes: int, reference: float,
                  params: dict) -> EstimateRecord:
    """trials / successes, its delta-method stderr and the Wilson interval
    of the proportion, inverted.  The caller rejects zero successes."""
    if successes > trials:
        raise ValueError("invalid value for 'counts': successes cannot exceed the trial count")
    low, high = wilson_ci(successes, trials, Z_95)
    return EstimateRecord(variant, trials / successes, trials, successes,
                          ratio_stderr(successes, trials), 1.0 / high, 1.0 / low,
                          reference, params)


def _e_record(trials: int, derangements: int, params: dict) -> EstimateRecord:
    if derangements == 0:
        raise DegenerateSampleError("no derangements observed; cannot form trials/derangements")
    return _ratio_record("e", trials, derangements, CONSTANTS.e, params)


def _zeta_record(trials: int, coprime: int, params: dict) -> EstimateRecord:
    if coprime == 0:
        raise DegenerateSampleError("no coprime tuples observed; cannot form trials/coprime")
    return _ratio_record("zeta", trials, coprime, reference_zeta(params["m"]), params)


def _quotient_record(hyp_items: int, leg_items: int, params: dict) -> EstimateRecord:
    """sqrt2's hyp_items / leg_items: one deterministic count ratio, no
    sampling model, so no stderr or interval."""
    if leg_items == 0:
        raise DegenerateCourseError(
            "leg traversal finished before the timer released a single item")
    return EstimateRecord("sqrt2", hyp_items / leg_items, 1, None, None, None, None,
                          CONSTANTS.sqrt2, params)


# ---------------------------------------------------------------------------
# parameter table


@dataclass(frozen=True)
class Param:
    """One entry of a variant's parameter table.

    ``kind`` is int, float, bool, choice, str or pair (a list of two ``item`` values).
    Bounds are inclusive (``minimum``, ``maximum``) or exclusive (``above``);
    a pair's bounds apply to each of its values.  Defaults are used as given.
    A ``text=False`` entry is set from Python alone and refuses a string.
    """

    kind: str
    default: object = None
    minimum: float | None = None
    maximum: float | None = None
    above: float | None = None
    choices: tuple[str, ...] = ()
    item: str = "float"
    text: bool = True

    def coerce(self, name: str, raw):
        """``raw`` (a manifest or CLI string, or a Python value) as this
        entry's kind; a bad value raises ValueError naming ``name``."""
        if self.kind != "pair":
            return self._scalar(name, self.kind, raw)
        parts = raw.split(",") if isinstance(raw, str) else raw
        try:
            first, second = parts
        except (TypeError, ValueError):
            raise ValueError(f"invalid value for '{name}': {raw!r} is not a pair") from None
        return [self._scalar(name, self.item, first), self._scalar(name, self.item, second)]

    def _scalar(self, name: str, kind: str, raw):
        def bad(why: str) -> ValueError:
            return ValueError(f"invalid value for '{name}': {why}")

        if kind in ("str", "choice"):
            value = str(raw)
            if kind == "choice" and value not in self.choices:
                raise bad(f"{value!r} (expected one of {', '.join(self.choices)})")
            return value
        if kind == "bool":
            if isinstance(raw, bool):
                return raw
            text = str(raw).strip().lower()
            if text in ("1", "true", "yes", "on"):
                return True
            if text in ("0", "false", "no", "off"):
                return False
            raise bad(f"{raw!r} is not a boolean")
        expected = "an integer" if kind == "int" else "a number"
        if isinstance(raw, bool) or (isinstance(raw, str) and not self.text):
            raise bad(f"{raw!r} is not {expected}")
        try:
            if kind == "int":
                value = int(raw) if isinstance(raw, str) else operator.index(raw)
            else:
                value = float(raw)
        except (TypeError, ValueError):
            raise bad(f"{raw!r} is not {expected}") from None
        if kind == "float" and not math.isfinite(value):
            raise bad(f"{raw!r} is not finite")
        if self.minimum is not None and value < self.minimum:
            raise bad(f"must be >= {self.minimum}")
        if self.maximum is not None and value > self.maximum:
            raise bad(f"must be <= {self.maximum}")
        if self.above is not None and not value > self.above:
            raise bad(f"must be > {self.above}")
        return value


# A config's seed and trials, and a run's workers; a manifest or the CLI
# coerces its text through Param("int") first.
SEED = Param("int", minimum=0, maximum=2 ** 64 - 1, text=False)
COUNT = Param("int", minimum=1, text=False)


class Run(NamedTuple):
    """What a build picked for its config's run, once: ``jobs``, the
    (label, trials, block function) tuples ``_map_blocks`` runs;
    ``record(totals)``, the record from their totals, one per job;
    ``cells``, pi's scatter cells (``collect_pi_outcomes``), else None."""

    jobs: list[tuple[str, int, Callable]]
    record: Callable[[list], EstimateRecord]
    cells: Callable | None = None


def resolve_params(variant: str, raw: dict, trials: int) -> tuple[dict, Run]:
    """Coerce ``raw`` against ``VARIANTS[variant].params``, defaults filling
    the rest, then run the variant's build for ``trials``; with a ``counts``
    key, take the variant's replay entry instead.

    Returns (params echo in table order, pairs as lists; the build's Run).
    Unknown keys and bad values raise ValueError naming the field.
    """
    if variant not in VARIANTS:
        raise ValueError(f"invalid value for 'variant': {variant!r} "
                         f"(expected one of {', '.join(VARIANTS)})")
    entry = VARIANTS[variant]
    if "counts" in raw:
        if entry.replay is None:
            raise ValueError("invalid value for 'variant': counts replay supports " + ", ".join(
                name for name, other in VARIANTS.items() if other.replay is not None))
        entry = entry.replay
    for key in raw:
        if key not in entry.params:
            raise ValueError(f"unknown parameter '{key}' for variant '{variant}'")
    params = {name: param.coerce(name, raw[name]) if name in raw else param.default
              for name, param in entry.params.items()}
    return params, entry.build(params, trials)


# ---------------------------------------------------------------------------
# block execution


def _map_blocks(seed: int, jobs: list[tuple[str, int, Callable]], workers: int = 1) -> list:
    """Run every job's blocks on one pool; return one total per job.

    Job (label, trials, block_fn) calls block_fn(stream, count) on each of
    its blocks, block i drawing from the stream (seed, (label, i)); its total
    is block 0's result plus each later one, in block order.  Blocks run and
    fold CHUNK_BLOCKS per thread at a time, so memory does not grow with the
    trials.  The pool never has more threads than cores or blocks, whatever
    ``workers`` asks for.
    """
    blocks = sum(-(-trials // BLOCK_TRIALS) for _, trials, _ in jobs)
    plan = ((job, start // BLOCK_TRIALS, min(BLOCK_TRIALS, trials - start))
            for job, (_, trials, _) in enumerate(jobs)
            for start in range(0, trials, BLOCK_TRIALS))

    def run_one(item):
        job, index, count = item
        label, _, block_fn = jobs[job]
        return job, index, block_fn(derive_stream(seed, StreamId(label, index)), count)

    workers = min(workers, os.cpu_count() or 1, blocks)
    totals = [0] * len(jobs)
    with (ThreadPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        run = map if pool is None else pool.map
        chunk = CHUNK_BLOCKS * max(workers, 1)
        for _ in range(0, blocks, chunk):
            for job, index, result in run(run_one, itertools.islice(plan, chunk)):
                totals[job] = result if index == 0 else totals[job] + result
    return totals


def _sample(config: ExperimentConfig, workers: int) -> EstimateRecord:
    """Every variant's sampler: the record from the totals of the config's
    jobs, carrying the seed they were drawn with."""
    run = config.model
    record = run.record(_map_blocks(config.master_seed, run.jobs, workers))
    record.seed = config.master_seed
    return record


def _flagged_orders(dropper: Dropper, flags: np.ndarray) -> Callable:
    """Block function counting the dropper orders whose rank is flagged.

    The caller builds ``flags`` before any worker thread starts, so the
    threads only read the shared table.
    """
    def block(stream, count):
        # take is a few percent faster than flags[ranks]
        return int(np.count_nonzero(flags.take(dropper_rank_block(dropper, stream, count))))

    return block


# ---------------------------------------------------------------------------
# pi


def _build_pi(params: dict, trials: int) -> Run:
    """Monte Carlo disc experiment: estimate = 4 * inside / total.

    ``cells(stream, count)`` gives the (x, z) int64 cells of ``count``
    uniform points or slime deaths; the job's block counts the points
    inside the disc.  An unset drift becomes (0.3, -0.3) for
    slime_walk_drift and (0, 0) otherwise; no other sampler takes a non-zero
    one.  Building the arena here runs its reach rule before any trial."""
    drifting = params["sampler_mode"] == "slime_walk_drift"
    if params["drift"] is None:
        params["drift"] = [0.3, -0.3] if drifting else [0.0, 0.0]
    elif not drifting and params["drift"] != [0.0, 0.0]:
        raise ValueError("invalid value for 'drift': only slime_walk_drift accepts a bias")
    radius = params["radius"]
    uniform = params["sampler_mode"] == "uniform_ideal"
    if uniform:
        def cells(stream, count):
            points = _uniform_points(stream, count, radius)
            return tuple(np.floor(points, out=points).astype(np.int64))
    else:
        try:
            arena = SlimeArena(half_width=radius, step_cells=params["step_cells"],
                               turn_probability=params["turn_probability"],
                               drift_bias=tuple(params["drift"]),
                               kill_probability=params["kill_probability"])
        except ValueError as exc:
            raise ValueError(f"invalid value for 'step_cells': {exc}") from None

        def cells(stream, count):
            return tuple(slime_death_cells(arena, stream, count))

    if uniform and params["raster_mode"] == "exact_disc":
        def block(stream, count):
            return int(np.count_nonzero(_disc_mask(stream, count, radius)))
    else:
        def block(stream, count):
            # a raster cell, or a death cell in the exact disc, is inside iff its center is
            return int(np.count_nonzero(cells_in_disc(*cells(stream, count), radius)))

    def record(totals):
        [inside] = totals
        return _pi_record(inside, trials, dict(params))
    return Run([("pi", trials, block)], record, cells)


def _uniform_points(stream, count: int, radius: int) -> np.ndarray:
    """(2, count) array of continuous points, x row then z row, uniform on
    the circumscribed square of the disc (side 2R, centered on the origin
    cell's center): hit chance pi/4.

    One draw of 2 * count floats: x takes the first half, z the second.
    """
    points = stream.float_block(2 * count).reshape(2, count)
    # 0.5 + (2u - 1) * radius in place, in the same operation order, so
    # the floats (and the report bytes) are those of the expression
    points *= 2.0
    points -= 1.0
    points *= radius
    points += 0.5
    return points


def _disc_mask(stream, count: int, radius: int) -> np.ndarray:
    """Which of ``count`` uniform points lie in the continuous disc:
    (x - 0.5)^2 + (z - 0.5)^2 <= R^2, in place."""
    points = _uniform_points(stream, count, radius)
    points -= 0.5
    np.square(points, out=points)
    distance2 = np.add(points[0], points[1], out=points[0])
    return distance2 <= float(radius) ** 2


def collect_pi_outcomes(config: ExperimentConfig,
                        limit: int = 10_000) -> tuple[np.ndarray, np.ndarray]:
    """Sampled cells for a scatter plot, as (x, z) int64 arrays, drawn with
    the config's seed.

    Uses its own block-0 stream sized to ``limit``, so the dots are a
    reproducible sample of the configured experiment rather than a prefix
    of the full estimating run.
    """
    if config.model.cells is None:
        raise ValueError("invalid value for 'variant': only a sampled pi config has scatter cells")
    stream = derive_stream(config.master_seed, StreamId("pi/scatter", 0))
    return config.model.cells(stream, min(config.trials, limit))


# ---------------------------------------------------------------------------
# e


def _build_e(params: dict, trials: int) -> Run:
    """Derangement experiment: estimate = trials / derangements, the block
    counting the derangements of a permutation_size dropper.

    The default size 9 matches the ejector's capacity; the systematic gap
    between 9!/D(9) and e is ~1.9e-6, far below sampling noise at any
    achievable trial count.
    """
    size = params["permutation_size"]
    block = _flagged_orders(Dropper(slot_count=size), derangement_flags(size))

    def record(totals):
        [derangements] = totals
        return _e_record(trials, derangements, dict(params))
    return Run([("e", trials, block)], record)


# ---------------------------------------------------------------------------
# zeta


# Values below this side take their gcd from ``_gcd_table``.
GCD_TABLE_SIDE = 1024


@lru_cache(maxsize=None)
def _gcd_table() -> np.ndarray:
    """Read-only int16 table, entry [a, b] = gcd(a, b) for a, b < GCD_TABLE_SIDE.

    Each divisor d writes itself over every pair of its multiples, smallest
    d first, so each entry ends on the largest common divisor; only
    gcd(0, 0) = 0 is left to set by hand.
    """
    grid = np.zeros((GCD_TABLE_SIDE, GCD_TABLE_SIDE), dtype=np.int16)
    for d in range(1, GCD_TABLE_SIDE):
        grid[::d, ::d] = d
    grid[0, 0] = 0
    grid.setflags(write=False)
    return grid


def _coprime_rows(values: np.ndarray, table: np.ndarray) -> int:
    """Number of rows of positive integers whose gcd is 1.

    Each row's gcd is chained column by column through one pairwise step,
    picked from the block's largest value: a lookup in ``table``
    (``_gcd_table()``) when every value is below its side, else the binary
    ``np.gcd``, which is cheaper than ``np.gcd.reduce`` along the short row
    axis, and faster in int32 when the values fit.
    """
    largest = values.max()
    if largest < GCD_TABLE_SIDE:
        def step(common, column):
            index = np.multiply(common, GCD_TABLE_SIDE, dtype=np.intp)
            index += column
            return table.take(index)
    else:
        step = np.gcd
        if values.dtype == np.int64 and largest < 2 ** 31:
            values = values.astype(np.int32)
    common = values[:, 0]
    for column in range(1, values.shape[1]):
        common = step(common, values[:, column])
    return int(np.count_nonzero(common == 1))


def reference_zeta(m: int) -> float:
    return zeta_value(m)


def _build_zeta(params: dict, trials: int) -> Run:
    """Coprimality experiment: estimate = tuples / coprime_tuples.

    The uniform sampler's block draws m-tuples on [1, value_bound]; the
    random_tick sampler's mirrors the waiting-time device instead and its
    values follow a geometric (negative binomial) law, not a uniform one,
    which the record flags in its params.  Both count through
    ``_coprime_rows``, whose gcd table is built here, before any worker
    thread reads it.  For even m the record also carries the implied pi^m
    value, since zeta(2k) is a rational multiple of pi^(2k).
    """
    m, table = params["m"], _gcd_table()
    if params["sampler_mode"] == "uniform":
        distribution = "uniform"
        bound = params["value_bound"]
        # int32 below 2^31, where 1 can be added in place, feeds the int32 gcd as drawn
        dtype = np.int32 if bound < 2 ** 31 else np.int64

        def block(stream, count):
            values = stream.int_below_block(bound, (count, m), dtype)
            values += 1
            return _coprime_rows(values, table)
    else:
        distribution = "negative_binomial_non_uniform"
        sched = RandomTickScheduler(speed_multiplier=params["speed_multiplier"])
        growth = params["growth_prob"]

        def block(stream, count):
            return _coprime_rows(ticks_until_growth_block(sched, growth, stream, (count, m)), table)

    def record(totals):
        [coprime] = totals
        echo = dict(params, value_distribution=distribution)
        result = _zeta_record(trials, coprime, echo)
        if m in ZETA_EVEN_PI_COEFFICIENT:
            scale = 1.0 / float(ZETA_EVEN_PI_COEFFICIENT[m])
            echo["pi_power"] = m
            echo["pi_power_estimate"] = scale * result.estimate
            echo["pi_power_stderr"] = scale * result.stderr
            echo["pi_power_reference"] = CONSTANTS.pi ** m
        return result
    return Run([("zeta", trials, block)], record)


# ---------------------------------------------------------------------------
# sec(1) + tan(1)


def _build_sec_tan(params: dict, trials: int) -> Run:
    """Sum over sizes n <= max_size of the alternating fraction A_n/n!.

    Sizes 0 and 1 contribute exactly 1 each; every larger size is one job
    of ``trials`` sampled orders of a dropper of that size, its block
    counting the alternating ones.  The estimand is the max_size partial
    sum of the series whose limit is sec(1)+tan(1).
    """
    sizes = range(2, params["max_size"] + 1)

    def record(totals):
        estimate = float(min(params["max_size"] + 1, 2))
        variance = 0.0
        for hits in totals:
            fraction = hits / trials
            estimate += fraction
            variance += fraction * (1.0 - fraction) / trials
        stderr = math.sqrt(variance)
        echo = dict(params, trials_per_size=trials,
                    alternating_counts=[[size, hits] for size, hits in zip(sizes, totals)])
        return EstimateRecord("sec_tan", estimate, trials * len(totals), None, stderr,
                              estimate - Z_95 * stderr, estimate + Z_95 * stderr,
                              CONSTANTS.sec1_plus_tan1, echo)
    return Run([(f"sec_tan/size{size}", trials,
                 _flagged_orders(Dropper(slot_count=size), alternating_flags(size)))
                for size in sizes], record)


# ---------------------------------------------------------------------------
# definite integrals


_EXTREMA_SAMPLES = 10_000

# A continuous integral's u in [0, 1) falls in bin int(u * ENCLOSURE_BINS),
# exactly, as the bin count is a power of two; the build bounds f on each bin.
ENCLOSURE_BINS = 1 << 12


def _bin_bounds(f, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """f's enclosure on each of the ENCLOSURE_BINS bins of u.  The sampler's
    x = a + u * (b - a) rounds monotonically in u, so a bin's x lie between
    its edges computed the same way, with a few ulps of max(|a|, |b|) to
    spare; no x is below a, which keeps sqrt(x) bounded on [0, b]."""
    edges = a + np.arange(ENCLOSURE_BINS + 1) / ENCLOSURE_BINS * (b - a)
    spare = 4 * np.spacing(float(max(abs(a), abs(b))))
    return f.enclose(np.maximum(edges[:-1] - spare, a), edges[1:] + spare)


def _build_integral(params: dict, trials: int) -> Run:
    """Signed-area Monte Carlo for the integral of f over [a, b].

    Points are uniform in the box [a, b] x [y_low, y_high], spanning 0, f
    on _EXTREMA_SAMPLES evenly spaced points of [a, b] and the heights; the
    estimate is (above-axis hits - below-axis hits) * box_area / trials.
    Rasterized, the curve is the block-column step function and the
    reference the exact signed sum of column areas.  Continuous, the
    reference is adaptive Gauss-Kronrod quadrature's, its error estimate
    and convergence echoed, and a block calls f only on the points that
    f's bounds on their bin cannot settle (``_banded_hits``), with the same
    counts and errors.  A flat curve, or a box of infinite area, runs no job.
    """
    a, b = params["a"], params["b"]
    if not a < b:
        raise ValueError("invalid value for 'b': bounds must satisfy a < b")
    rasterized = params["raster_mode"] == "rasterized"
    if rasterized and b - a > MAX_RASTER_COLUMNS:
        raise ValueError(f"invalid value for 'b': rasterized mode takes at most "
                         f"{MAX_RASTER_COLUMNS} columns (b - a)")
    f = parse_function(params["function_spec"])
    values = f(np.linspace(a, b, _EXTREMA_SAMPLES))
    y_low = min(0.0, float(values.min()))
    y_high = max(0.0, float(values.max()))
    if rasterized:
        curve = rasterize_curve(f, a, b)
        heights = np.asarray(curve.heights, dtype=float)
        y_low, y_high = min(y_low, float(heights.min())), max(y_high, float(heights.max()))
        reference, echo = float(curve.signed_column_area()), dict(params)
        hits = partial(_column_hits, heights, a, b) if heights.any() else None
    else:
        reference, abserr, converged = gauss_kronrod(f, a, b)
        echo = dict(params, reference_abserr=abserr, reference_converged=converged)
        hits = partial(_banded_hits, f, _bin_bounds(f, a, b), a, b)
    box_area = (b - a) * (y_high - y_low)
    if y_high == y_low or hits is None:  # f is 0 on the grid, or every column is
        def record(totals):  # nothing can land off the axis: the net estimate is exactly 0
            return EstimateRecord("integral", 0.0, trials, 0, 0.0, 0.0, 0.0, reference,
                                  dict(echo, note="flat zero curve; estimate exact"))
        return Run([], record)
    if not math.isfinite(box_area):
        def record(totals):
            raise DegenerateRegionError("sampling box area is not finite")
        return Run([], record)

    def block(stream, count):
        u = stream.float_block(count)
        ys = stream.float_block(count)  # y_low + v * (y_high - y_low), in place
        ys *= y_high - y_low
        ys += y_low
        return hits(u, ys)

    def record(totals):
        [hits_total] = totals
        above, below = (int(h) for h in hits_total)
        if above + below == 0:  # zero hits would read as a certain zero, stderr 0
            raise DegenerateSampleError("no point landed between the curve and the axis")
        net = (above - below) / trials
        hit = (above + below) / trials
        estimate = net * box_area
        stderr = box_area * math.sqrt(max(0.0, hit - net * net) / trials)
        ci_low, ci_high = estimate - Z_95 * stderr, estimate + Z_95 * stderr
        if not (math.isfinite(ci_low) and math.isfinite(ci_high)):
            raise DegenerateRegionError("interval on the sampling box is not finite")
        return EstimateRecord("integral", estimate, trials, above + below, stderr, ci_low,
                              ci_high, reference, dict(echo, hits_above=above, hits_below=below))
    return Run([("integral", trials, block)], record)


def _signed_hits(ys: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """[above, below]: how many ys have 0 < y <= curve, and curve <= y < 0."""
    hit = np.greater(ys, 0)
    buffer = np.less_equal(ys, curve)
    hit &= buffer
    above = np.count_nonzero(hit)
    np.less(ys, 0, out=hit)
    np.greater_equal(ys, curve, out=buffer)
    hit &= buffer
    return np.array([above, np.count_nonzero(hit)], dtype=np.int64)


def _column_hits(heights, a: int, b: int, u: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``_signed_hits`` against the heights of columns floor(a + u * (b - a)) - a."""
    u *= b - a  # in place
    u += a
    columns = np.floor(u, out=u).astype(np.intp)
    columns -= a
    np.clip(columns, 0, len(heights) - 1, out=columns)
    return _signed_hits(ys, heights.take(columns))


def _banded_hits(f, bands: tuple, a: int, b: int, u: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``_signed_hits(ys, f(a + u * (b - a)))``, calling f only on the points
    whose y lies within f's bounds on their bin (``_bin_bounds``).  A point
    of a bin f is unbounded on is always among them, so a non-finite f
    raises naming the same first x."""
    bins = np.multiply(u, ENCLOSURE_BINS).astype(np.intp)
    under = ys < bands[0].take(bins)  # y < f: a hit above the axis iff y > 0
    over = ys > bands[1].take(bins)  # y > f: a hit below the axis iff y < 0
    settled = np.array([np.count_nonzero(under & (ys > 0)),
                        np.count_nonzero(over & (ys < 0))], dtype=np.int64)
    under |= over
    rest = np.flatnonzero(~under)
    return settled + _signed_hits(ys[rest], f(a + u[rest] * (b - a)))


# ---------------------------------------------------------------------------
# sqrt(2)


def _build_sqrt2(params: dict, trials: int) -> Run:
    """Diagonal-course timing experiment: estimate = hyp_items / leg_items.

    Its one job is a single read, whatever ``trials``: the block gives
    [leg_items, hyp_items], the hopper timer read over the course's leg and
    hypotenuse times.  Deterministic at fixed speed; the only error term is
    timer quantization.  With random_start_phase each window starts at a
    phase uniform in [0, period), the leg's drawn first, modelling a timer
    that was already running.  Rejects a hypotenuse window that, plus one
    period of phase, reaches HOPPER_MAX_PERIODS timer periods."""
    period = params["period"]
    try:
        windows = traversal_seconds(TriangleCourse(params["leg_blocks"], params["speed"]))
    except OverflowError:
        windows = (math.inf, math.inf)
    if (windows[1] + period) / period >= HOPPER_MAX_PERIODS:
        raise ValueError("invalid value for 'speed': the hypotenuse takes 2**52 or more "
                         "timer periods at this speed")
    timer = HopperTimer(period_seconds=period)
    random_phase = params["random_start_phase"]

    def block(stream, count):
        phases = [stream.next_float() * period if random_phase else 0.0 for _ in windows]
        return [hopper_items_in_window(timer, window, phase)
                for window, phase in zip(windows, phases)]

    def record(totals):
        [(leg_items, hyp_items)] = totals
        return _quotient_record(hyp_items, leg_items,
                                dict(params, leg_items=leg_items, hyp_items=hyp_items))
    return Run([("sqrt2", 1, block)], record)


# ---------------------------------------------------------------------------
# count-only replay


_REPLAY_PARAMS = {
    "counts": Param("pair", minimum=0, maximum=2 ** 53, item="int"),  # exact as doubles
    # default: the variant's own style; past 17 digits a double has no more
    "reported_decimals": Param("int", minimum=0, maximum=17),
}


def _replay(decimals: int, from_reported: bool, builder: Callable, echo: tuple[str, ...],
            params: dict, trials: int) -> Run:
    """A count-only replay's build: a Run with no jobs whose record replays
    the two counts in ``params`` through the variant's record builder, called
    as ``builder(first, second, params)``.  ``decimals`` is the display
    precision the counts were first reported with; ``from_reported`` says
    whether that report quoted its error from the already-rounded estimate
    (sqrt2 and e did; pi and zeta quoted the error of the full ratio);
    ``echo`` names the params keys, if any, that repeat the two counts."""
    def replay(totals):
        echoed = dict(params)
        shown = echoed.pop("reported_decimals")
        echoed.update(zip(echo, echoed["counts"]))
        record = builder(*echoed["counts"], echoed)
        reported_estimate = f"{record.estimate:.{decimals if shown is None else shown}f}"
        basis = float(reported_estimate) if from_reported else record.estimate
        record.params["reported_estimate"] = reported_estimate
        record.params["reported_error_pct"] = f"{relative_error(basis, record.reference):#.3g}"
        return record
    return Run([], replay)


# ---------------------------------------------------------------------------
# the variant registry


@dataclass(frozen=True)
class Variant:
    """One variant: ``params`` is its parameter table, in params-echo order;
    ``build(params, trials)`` runs after coercion on the coerced params
    alone, rejects what no single field can, may fill an unset (None)
    default that depends on another field, and returns, as ``config.model``,
    the config's ``Run``, its block functions and record rule picked once
    for the config's mode; ``replay`` is the entry a config with ``counts``
    resolves through instead, or None if its counts cannot be replayed."""

    params: dict[str, Param]
    build: Callable[[dict, int], Run]
    replay: Variant | None = None


VARIANTS: dict[str, Variant] = {
    "sqrt2": Variant({
        "leg_blocks": Param("int", 100, minimum=1),
        "speed": Param("float", DEFAULT_WALK_SPEED, above=0),
        "period": Param("float", HOPPER_PERIOD_SECONDS, above=0),
        "random_start_phase": Param("bool", False),
    }, _build_sqrt2, Variant(_REPLAY_PARAMS, partial(_replay, 4, True, _quotient_record,
                                                     ("hyp_items", "leg_items")))),
    "pi": Variant({
        # Beyond 2^30 the int64 disc test x^2 + z^2 <= r^2 could overflow.
        "radius": Param("int", 50, minimum=1, maximum=2 ** 30),
        "sampler_mode": Param("choice", "uniform_ideal",
                              choices=("uniform_ideal", "slime_walk", "slime_walk_drift")),
        "raster_mode": Param("choice", "exact_disc", choices=("raster", "exact_disc")),
        "step_cells": Param("float", 0.8, above=0),
        "turn_probability": Param("float", 0.2, minimum=0, maximum=1),
        # A walk makes about 1/kill_probability moves, so its time grows
        # without bound as the probability nears 0: at 1e-3 a 65,536-walker
        # block takes seconds, at 1e-9 a run would take days.
        "kill_probability": Param("float", 0.05, minimum=1e-3, maximum=1),
        "drift": Param("pair"),  # unset: (0.3, -0.3) for slime_walk_drift, else (0, 0)
    }, _build_pi, Variant(_REPLAY_PARAMS,
                          partial(_replay, 3, False, _pi_record, ("inside", "total")))),
    "e": Variant({
        "permutation_size": Param("int", DROPPER_MAX_SLOTS, minimum=2,
                                  maximum=DROPPER_MAX_SLOTS),
    }, _build_e, Variant(_REPLAY_PARAMS, partial(_replay, 5, True, _e_record, ()))),
    "zeta": Variant({
        # Each block draws a (65,536 x m) array, int32 below value_bound
        # 2^31 and int64 from there, about 0.5 MB per unit of m and worker
        # at most; and from m = 54 on zeta(m) is 1.0 in double precision,
        # so a larger m adds memory and nothing to measure.
        "m": Param("int", 3, minimum=2, maximum=64),
        "sampler_mode": Param("choice", "uniform", choices=("uniform", "random_tick")),
        "value_bound": Param("int", 10 ** 6, minimum=2, maximum=2 ** 63 - 1),
        # A tick-and-grow chance p below about 4e-18 lets a geometric wait
        # pass 2^63; the least selection probability (speed_multiplier 1) is
        # 7.3e-4, so this minimum keeps p above 7.3e-18.
        "growth_prob": Param("float", 1.0 / 3.0, minimum=1e-14, maximum=1),
        # 3 picks per tick times this cannot exceed the 16^3-cell cube.
        "speed_multiplier": Param("int", 64, minimum=1, maximum=4096 // 3),
    }, _build_zeta, Variant({**_REPLAY_PARAMS, "m": Param("int", 3, minimum=2)},
                            partial(_replay, 4, False, _zeta_record, ()))),
    "sec_tan": Variant({
        "max_size": Param("int", DROPPER_MAX_SLOTS, minimum=0, maximum=DROPPER_MAX_SLOTS),
    }, _build_sec_tan),
    "integral": Variant({
        "function_spec": Param("str", "x**2*sin(x) + cbrt(x)"),
        "a": Param("int", 0, minimum=-2 ** 53, maximum=2 ** 53),
        "b": Param("int", 8, minimum=-2 ** 53, maximum=2 ** 53),
        "raster_mode": Param("choice", "continuous", choices=("continuous", "rasterized")),
    }, _build_integral),
}

# run_config dispatches through this dict at call time, so a wrapper put
# in it (a tracer, a test double) sees every sampled run and no replay.
_ESTIMATORS = dict.fromkeys(VARIANTS, _sample)


def run_config(config: ExperimentConfig, workers: int = 1) -> EstimateRecord:
    """Execute one experiment config into a record; a counts config replays
    its counts and runs no block."""
    workers = COUNT.coerce("workers", workers)
    if "counts" in config.params:
        return config.model.record([])
    return _ESTIMATORS[config.variant](config, workers=workers)
