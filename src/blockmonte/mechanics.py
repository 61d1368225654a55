"""Game-free models of the four in-game measurement instruments.

* hopper timer: releases items at a fixed rate, quantizing elapsed time;
* dropper: ejects its distinct items in uniformly random order;
* random-tick scheduler: 3 cells of a 16^3 cube are picked per 0.05 s tick,
  making waiting times for a watched block geometric;
* slime arena: a persistent random walker in a walled square whose death
  cell acts as a spatial random sample.

Each stochastic operation has a scalar form taking one stream and a
``*_block`` form that draws the same distribution in bulk for the
experiment executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import Permutation
from .rng import RngStream, geometric_trials

# Hoppers move 2.5 items per second.
HOPPER_PERIOD_SECONDS = 0.4
# From 2**52 periods on, (n + 1) * period can round to n * period in float,
# so item counts are exact only below it.
HOPPER_MAX_PERIODS = 2 ** 52
# A dropper holds at most 9 distinct items.
DROPPER_MAX_SLOTS = 9
# The unfolded slime walk draws at most this many segments at a time (2 MB
# per per-segment array, about 14 MB peak); larger chunks run no faster.
SLIME_CHUNK_SEGMENTS = 1 << 18


@dataclass(frozen=True)
class HopperTimer:
    period_seconds: float = HOPPER_PERIOD_SECONDS

    def __post_init__(self) -> None:
        if not self.period_seconds > 0:
            raise ValueError("period_seconds must be > 0")


def hopper_item_count(timer: HopperTimer, duration: float) -> int:
    """Items released while the timer ran for ``duration`` seconds.

    Returns the unique n with n*period <= duration < (n+1)*period.  The
    correction loops pin that half-open contract down in float arithmetic,
    where duration/period alone can land one ulp on the wrong side.  They
    only converge below HOPPER_MAX_PERIODS periods; longer durations raise.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    period = timer.period_seconds
    if duration / period >= HOPPER_MAX_PERIODS:
        raise ValueError("duration must be shorter than 2**52 timer periods")
    n = max(0, int(duration // period))
    while (n + 1) * period <= duration:
        n += 1
    while n > 0 and n * period > duration:
        n -= 1
    return n


def hopper_items_in_window(timer: HopperTimer, duration: float, start_phase: float) -> int:
    """Items released during [start_phase, start_phase + duration) for a
    timer that has already been running ``start_phase`` seconds."""
    if start_phase < 0:
        raise ValueError("start_phase must be >= 0")
    return hopper_item_count(timer, duration + start_phase) - hopper_item_count(timer, start_phase)


@dataclass(frozen=True)
class Dropper:
    slot_count: int = DROPPER_MAX_SLOTS

    def __post_init__(self) -> None:
        if not 1 <= self.slot_count <= DROPPER_MAX_SLOTS:
            raise ValueError(f"slot_count must be in [1, {DROPPER_MAX_SLOTS}]")


def dropper_permutation(dropper: Dropper, stream: RngStream) -> Permutation:
    """Eject every slot item in uniformly random order, without replacement.

    Each activation picks one of the remaining items uniformly, so the
    ejection order read as a sequence is a uniform permutation of [n].
    """
    remaining = list(range(1, dropper.slot_count + 1))
    ejected = []
    while remaining:
        ejected.append(remaining.pop(stream.next_int_below(len(remaining))))
    return tuple(ejected)


def dropper_rank_block(dropper: Dropper, stream: RngStream, count: int) -> np.ndarray:
    """count independent ejection orders, each as its lexicographic rank in
    [0, slot_count!).

    A uniform rank is a uniform permutation, so estimators that only ask a
    yes/no question of each order look the answer up by rank (see
    ``combinatorics.derangement_flags``) without building the rows.
    """
    return stream.int_below_block(math.factorial(dropper.slot_count), count)


@dataclass(frozen=True)
class RandomTickScheduler:
    """Per tick, picks_per_tick * speed_multiplier cells of the cube are
    picked (with replacement) to receive a random tick."""

    cube_cells: int = 16 ** 3
    picks_per_tick: int = 3
    speed_multiplier: int = 1

    def __post_init__(self) -> None:
        if self.cube_cells < 1 or self.picks_per_tick < 1 or self.speed_multiplier < 1:
            raise ValueError("cube_cells, picks_per_tick and speed_multiplier must be >= 1")
        if self.picks_per_tick * self.speed_multiplier > self.cube_cells:
            raise ValueError("picks per tick cannot exceed the cube size")

    @property
    def selection_probability(self) -> float:
        """Chance a fixed cell is picked at least once in one tick."""
        if self.cube_cells == 1:
            return 1.0
        picks = self.picks_per_tick * self.speed_multiplier
        return -math.expm1(picks * math.log1p(-1.0 / self.cube_cells))


def ticks_until_growth(sched: RandomTickScheduler, growth_prob: float, stream: RngStream) -> int:
    """Tick index (>= 1) at which the watched block first changes.

    The block changes on a tick iff it is picked (selection_probability) and
    then actually grows (growth_prob), so the wait is geometric with success
    probability selection_probability * growth_prob.
    """
    if not 0.0 < growth_prob <= 1.0:
        raise ValueError("growth_prob must satisfy 0 < p <= 1")
    return geometric_trials(stream, sched.selection_probability * growth_prob)


def ticks_until_growth_block(sched: RandomTickScheduler, growth_prob: float,
                             stream: RngStream, shape) -> np.ndarray:
    if not 0.0 < growth_prob <= 1.0:
        raise ValueError("growth_prob must satisfy 0 < p <= 1")
    return stream.geometric_block(sched.selection_probability * growth_prob, shape)


@dataclass(frozen=True)
class SlimeArena:
    """Walled square of cells with coordinates in [-half_width, half_width],
    containing the circle raster of the same radius.

    The walker keeps a heading, occasionally resamples it, and bounces off
    the walls specularly (position and heading both reflect), which keeps
    the uniform distribution stationary.  drift_bias is added to every step
    and models the directional preference most mobs have; slimes have none.
    """

    half_width: int
    step_cells: float = 0.8
    turn_probability: float = 0.2
    drift_bias: tuple[float, float] = (0.0, 0.0)
    kill_probability: float = 0.05

    def __post_init__(self) -> None:
        if self.half_width < 1:
            raise ValueError("half_width must be >= 1")
        if not self.step_cells > 0:
            raise ValueError("step_cells must be > 0")
        if not 0.0 <= self.turn_probability <= 1.0:
            raise ValueError("turn_probability must be in [0, 1]")
        if not 0.0 < self.kill_probability <= 1.0:
            raise ValueError("kill_probability must be in (0, 1]")
        reach = self.step_cells + max(abs(self.drift_bias[0]), abs(self.drift_bias[1]))
        if reach >= 2 * self.half_width + 1:
            raise ValueError("step plus drift must stay below the square side")

    @property
    def bounds(self) -> tuple[float, float]:
        """Continuous extent [lo, hi) covering cells -half_width..half_width."""
        return float(-self.half_width), float(self.half_width + 1)


def slime_death_cell(arena: SlimeArena, stream: RngStream) -> tuple[int, int]:
    """Walk one slime from a uniform start until it is killed; return the
    (x, z) grid cell containing the death position.

    Each round: the kill check runs first (kill_probability 1 therefore dies
    on its starting cell), then the heading may be resampled, then the slime
    advances one step plus drift and reflects off the walls.
    """
    lo, hi = arena.bounds
    span = hi - lo
    x = lo + stream.next_float() * span
    z = lo + stream.next_float() * span
    heading = stream.next_float() * math.tau
    while True:
        if stream.next_float() < arena.kill_probability:
            return _position_cell(x, z, arena.half_width)
        if stream.next_float() < arena.turn_probability:
            heading = stream.next_float() * math.tau
        x += arena.step_cells * math.cos(heading) + arena.drift_bias[0]
        z += arena.step_cells * math.sin(heading) + arena.drift_bias[1]
        if x >= hi:
            x, heading = 2 * hi - x, math.pi - heading
        elif x < lo:
            x, heading = 2 * lo - x, math.pi - heading
        if z >= hi:
            z, heading = 2 * hi - z, -heading
        elif z < lo:
            z, heading = 2 * lo - z, -heading
        heading %= math.tau


def _position_cell(x: float, z: float, half_width: int) -> tuple[int, int]:
    cx = min(max(math.floor(x), -half_width), half_width)
    cz = min(max(math.floor(z), -half_width), half_width)
    return cx, cz


def slime_death_cells(arena: SlimeArena, stream: RngStream, count: int) -> np.ndarray:
    """(2, count) int64 death cells, x row then z row, of ``count``
    independent walkers, each drawn from the law of ``slime_death_cell``.

    A walk without drift is unfolded (``_unfolded_walk``); a drifting walk
    is stepped with its lifetimes drawn first (``_stepped_walk``).  Results
    are indexed by walker on one stream, so the output is reproducible.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    walk = _stepped_walk if any(arena.drift_bias) else _unfolded_walk
    cells = np.floor(walk(arena, stream, count)).astype(np.int64)
    r = arena.half_width
    return np.clip(cells, -r, r, out=cells)


def _unfolded_walk(arena: SlimeArena, stream: RngStream, count: int) -> np.ndarray:
    """(2, count) death positions, x row then z row, of walks with no drift.

    Specular reflection in the square is free motion in the plane tiled by
    its mirror images (billiard unfolding), and a mirror maps a uniform
    heading to a uniform heading.  So each walker moves freely from its
    uniform start by ``_free_displacement`` and is folded back into the
    square once, by a triangle wave of period twice the side.
    """
    lo, hi = arena.bounds
    span = hi - lo
    pos = lo + stream.float_block(2 * count).reshape(2, count) * span
    pos += _free_displacement(arena, stream, count)
    # hi - |((pos - lo) mod 2 span) - span|, in place
    pos -= lo
    np.mod(pos, 2 * span, out=pos)
    pos -= span
    np.abs(pos, out=pos)
    return np.subtract(hi, pos, out=pos)


def _free_displacement(arena: SlimeArena, stream: RngStream, count: int) -> np.ndarray:
    """(2, count) displacements of ``count`` walks in the open plane.

    Each round a walker dies with chance p; else it turns with chance q and
    moves.  A round that kills or turns ends a straight segment, which
    happens with chance e = p + (1 - p) q, and such a round kills with
    chance p / e.  So a walker runs Geom(p / e) segments, each of
    Geom(e) - 1 plain moves on a uniform heading, and every segment but the
    first also holds the move of the turn that starts it.

    Segments are drawn in order, SLIME_CHUNK_SEGMENTS at a time; a walker
    whose segments straddle two chunks sums its part of each.  That bounds
    the memory whatever p and q are, even for a single walker.
    """
    p = arena.kill_probability
    ending = min(1.0, p + (1.0 - p) * arena.turn_probability)
    segments = stream.geometric_block(p / ending, count)
    ends = np.cumsum(segments)
    firsts = ends - segments
    displacement = np.zeros((2, count))
    total = int(ends[-1]) if count else 0
    for low in range(0, total, SLIME_CHUNK_SEGMENTS):
        high = min(low + SLIME_CHUNK_SEGMENTS, total)
        # walkers with a segment in [low, high), and where each one's
        # segments start within the chunk (negative: in an earlier chunk)
        first, last = np.searchsorted(ends, low, "right"), np.searchsorted(firsts, high)
        starts = firsts[first:last] - low
        moves = stream.geometric_block(ending, high - low)
        moves[starts[starts >= 0]] -= 1
        np.maximum(starts, 0, out=starts)
        length = moves * arena.step_cells
        del moves
        heading = stream.float_block(length.size)
        heading *= math.tau
        along = np.cos(heading)
        along *= length
        displacement[0, first:last] += np.add.reduceat(along, starts)
        np.sin(heading, out=along)
        along *= length
        displacement[1, first:last] += np.add.reduceat(along, starts)
    return displacement


def _stepped_walk(arena: SlimeArena, stream: RngStream, count: int) -> np.ndarray:
    """(2, count) death positions, x row then z row, of drifting walks.

    Drift acts in the real frame, so these walks cannot unfold; but the
    kill check does not look at the position, so each walker's move count,
    Geom(p) - 1, is drawn first.  With the walkers sorted longest-lived
    first, the walkers still moving in any round are a prefix, which each
    round steps in place: no kill draws and no compaction.
    """
    lo, hi = arena.bounds
    span = hi - lo
    moves = stream.geometric_block(arena.kill_probability, count)
    moves -= 1
    order = np.argsort(-moves, kind="stable")
    # live[t]: walkers that make a move in round t
    live = count - np.cumsum(np.bincount(moves))[:-1]
    pos = lo + stream.float_block(2 * count).reshape(2, count) * span
    heading = stream.float_block(count)
    heading *= math.tau
    velocity = arena.step_cells * np.array([np.cos(heading), np.sin(heading)])
    drift = np.array(arena.drift_bias, dtype=float).reshape(2, 1)
    q = arena.turn_probability
    for n in live.tolist():
        u = stream.float_block(n)
        turning = np.flatnonzero(u < q)
        if turning.size:
            # given u < q, u / q is uniform on [0, 1): the new heading
            heading = u[turning] / q * math.tau
            velocity[0, turning] = arena.step_cells * np.cos(heading)
            velocity[1, turning] = arena.step_cells * np.sin(heading)
        x, v = pos[:, :n], velocity[:, :n]
        x += v
        x += drift
        # step plus drift stays below the side, so one reflection is enough
        over = x >= hi
        np.subtract(2 * hi, x, out=x, where=over)
        np.negative(v, out=v, where=over)
        under = x < lo
        np.subtract(2 * lo, x, out=x, where=under)
        np.negative(v, out=v, where=under)
    out = np.empty_like(pos)
    out[:, order] = pos
    return out
