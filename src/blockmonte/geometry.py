"""Integer-grid geometry: circle and curve rasters, the Gauss-Kronrod
integral of a curve, the diagonal timing course, and the polygon-doubling
bounds used as a pi reference."""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property
from typing import Callable

import numpy as np


def cell_in_disc(cell, radius: float) -> bool:
    """True iff the (x, z) cell's center lies within ``radius`` of the origin
    cell's center (boundary inclusive).

    Centers sit at half-integer offsets, so center-to-center distance is
    exactly sqrt(x^2 + z^2); integer radii are decided in integer arithmetic.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    x, z = map(int, cell)
    r = int(radius) if float(radius).is_integer() else radius
    return x * x + z * z <= r * r


def cells_in_disc(xs: np.ndarray, zs: np.ndarray, radius: int) -> np.ndarray:
    """``cell_in_disc`` for int64 cell coordinate arrays and an integer
    radius: x^2 + z^2 <= r^2.

    Coordinates are clipped to [-(r + 1), r + 1] first, which changes no
    answer and keeps 2 (r + 1)^2 within int64 for any radius up to 2^30.
    """
    edge = radius + 1
    x2 = np.clip(xs, -edge, edge)
    z2 = np.clip(zs, -edge, edge)
    np.multiply(x2, x2, out=x2)
    np.multiply(z2, z2, out=z2)
    x2 += z2
    return x2 <= radius * radius


@dataclass(frozen=True)
class CircleRaster:
    """The grid cells of the disc of an integer radius, x^2 + z^2 <= r^2.

    Column x holds the cells |z| <= spans[|x|].  Closed under the 8 dihedral
    symmetries (x,z) -> (+-x, +-z) and swap, so row z holds |x| <= spans[|z|].
    """

    radius: int

    @cached_property
    def spans(self) -> tuple[int, ...]:
        """spans[i] = isqrt(r^2 - i^2) for i = 0..r, then -1 for the empty
        column just outside the disc."""
        r = self.radius
        return tuple(math.isqrt(r * r - i * i) for i in range(r + 1)) + (-1,)

    @cached_property
    def inside_cells(self) -> frozenset[tuple[int, int]]:
        """Every (x, z) cell of the disc as a set: O(r^2), for oracles and tests."""
        r, spans = self.radius, self.spans
        return frozenset((x, z) for x in range(-r, r + 1)
                         for z in range(-spans[abs(x)], spans[abs(x)] + 1))

    def __contains__(self, cell) -> bool:
        return cell_in_disc(cell, self.radius)

    def contains_cells(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Vectorised membership for integer cell coordinate arrays."""
        return cells_in_disc(xs, zs, self.radius)

    def _ring(self, i: int) -> range:
        """|z| of the outline cells in column |x| = i, and by symmetry |x|
        of those in row |z| = i: a cell's outer z neighbour is outside iff
        |z| == spans[i], its outer x neighbour iff |z| > spans[i + 1], and
        spans never grow with i, so its inner neighbours are inside."""
        span = self.spans[i]
        return range(min(span, self.spans[i + 1] + 1), span + 1)

    def outline_cells(self) -> frozenset[tuple[int, int]]:
        """(x, z) raster cells with at least one 4-neighbour outside (the ring)."""
        cells = []
        for x in range(-self.radius, self.radius + 1):
            ring = self._ring(abs(x))
            cells.extend((x, z) for z in ring)
            cells.extend((x, -z) for z in ring if z)
        return frozenset(cells)


def rasterize_circle(radius: int) -> CircleRaster:
    """The disc of cells whose centers fall inside ``radius`` (``cell_in_disc``)."""
    if radius < 1 or int(radius) != radius:
        raise ValueError("radius must be a positive integer")
    return CircleRaster(radius=int(radius))


def raster_to_text(raster: CircleRaster, fill: str = "#", empty: str = ".",
                   outline_only: bool = False) -> str:
    """Plain-text rendering, one grid row per line (north at the top)."""
    r, spans = raster.radius, raster.spans
    rows = []
    for z in range(r, -r - 1, -1):
        span = spans[abs(z)]
        # |x| <= span is filled; the outline leaves |x| < inner empty
        inner = raster._ring(abs(z)).start if outline_only else 0
        margin = empty * (r - span)
        if inner == 0:
            rows.append(margin + fill * (2 * span + 1) + margin)
        else:
            arc = fill * (span - inner + 1)
            rows.append(margin + arc + empty * (2 * inner - 1) + arc + margin)
    return "\n".join(rows)


def round_half_away_from_zero(value):
    """Round to the nearest whole number, elementwise; halves go away from zero.

    Decided on the exact fraction value - trunc(value): adding 0.5 first
    would round, taking 0.49999999999999994 to 1 and odd values past 2^52 up.
    """
    whole = np.trunc(value)
    return np.where(np.abs(value - whole) >= 0.5, whole + np.sign(value), whole)


@dataclass(frozen=True)
class CurveRaster:
    """One block column per integer x in [x_start, x_stop), column height
    taken from the curve sampled at the column midpoint."""

    x_start: int
    x_stop: int
    heights: tuple[int, ...]

    def signed_column_area(self) -> int:
        """Exact net area of the columns (width 1 each, signed heights)."""
        return sum(self.heights)


def rasterize_curve(f: Callable[[np.ndarray], np.ndarray], a: int, b: int) -> CurveRaster:
    """Heights round_half_away_from_zero(f(x + 0.5)) for x in [a, b), from one call of f."""
    if int(a) != a or int(b) != b:
        raise ValueError("domain endpoints must be integers")
    a, b = int(a), int(b)
    if not a < b:
        raise ValueError("domain must satisfy a < b")
    midpoints = np.arange(a, b) + 0.5
    values = np.broadcast_to(np.asarray(f(midpoints), dtype=float), midpoints.shape)
    finite = np.isfinite(values)
    if not finite.all():
        x = a + int(np.argmin(finite))
        raise ValueError(f"curve is not finite at column {x} (sampled at {x + 0.5})")
    heights = round_half_away_from_zero(values).tolist()
    return CurveRaster(x_start=a, x_stop=b, heights=tuple(map(int, heights)))


# QUADPACK's dqk21 rule (Piessens et al., QUADPACK, 1983): the 21-point
# Kronrod nodes on [-1, 1], outermost first, with their Kronrod weights;
# every second node from the outermost is a node of the 10-point Gauss rule.
_KRONROD_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077282977372272, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_GAUSS_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)

# All 21 nodes left to right, and both rules as weight vectors over them.
_GK_NODES = np.array([-x for x in _KRONROD_NODES[:-1]] + list(_KRONROD_NODES[::-1]))
_GK_KRONROD = np.array(_KRONROD_WEIGHTS + _KRONROD_WEIGHTS[-2::-1])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _GAUSS_WEIGHTS
_GK_GAUSS[11:20:2] = _GAUSS_WEIGHTS[::-1]

QUADRATURE_RTOL = 1e-13
QUADRATURE_MAX_INTERVALS = 2000
# Rounding error of one rule, as a share of the rule's integral of |f|
# (QUADPACK's 50 machine epsilons): no bisection can get below it.
_ROUNDOFF = 50 * np.finfo(float).eps


def gauss_kronrod(f: Callable, a: float, b: float) -> tuple[float, float, bool]:
    """Adaptive Gauss-Kronrod (G10/K21) integral of ``f`` over [a, b].

    Each pass evaluates ``f`` once, on an (intervals x 21) array of nodes.
    The passes stop when the summed |K21 - G10| is within QUADRATURE_RTOL of
    the integral, or within rounding of the integral of |f| (so a zero
    integral stops too); otherwise each interval whose |K21 - G10| exceeds
    both its width's share of that tolerance and its own rounding is
    bisected.  Returns (value, error estimate, converged), the estimate being
    the summed |K21 - G10| plus the rounding bound.  ``converged`` is False
    when bisecting would pass QUADRATURE_MAX_INTERVALS intervals; value and
    estimate are then those of the current partition.  A non-finite value of
    f at a node raises ValueError.
    """
    width = b - a
    lows, highs = np.array([float(a)]), np.array([float(b)])
    done_values, done_difference, done_rounding = [], 0.0, 0.0
    while True:
        centers, halves = 0.5 * (lows + highs), 0.5 * (highs - lows)
        nodes = centers[:, None] + halves[:, None] * _GK_NODES
        values = np.broadcast_to(np.asarray(f(nodes), dtype=float), nodes.shape)
        if not np.isfinite(values).all():
            bad = float(nodes[~np.isfinite(values)][0])
            raise ValueError(f"integrand is not finite at x = {bad!r}")
        kronrod = halves * (values @ _GK_KRONROD)
        difference = np.abs(kronrod - halves * (values @ _GK_GAUSS))
        rounding = _ROUNDOFF * halves * (np.abs(values) @ _GK_KRONROD)
        value = math.fsum(done_values + kronrod.tolist())
        total_difference = done_difference + float(difference.sum())
        total_rounding = done_rounding + float(rounding.sum())
        tolerance = max(QUADRATURE_RTOL * abs(value), total_rounding)
        split = difference > np.maximum(tolerance * (2 * halves / width), rounding)
        if total_difference <= tolerance or not split.any():
            return value, total_difference + total_rounding, True
        intervals = len(done_values) + len(lows) + int(np.count_nonzero(split))
        if intervals > QUADRATURE_MAX_INTERVALS:
            return value, total_difference + total_rounding, False
        keep = ~split
        done_values += kronrod[keep].tolist()
        done_difference += float(difference[keep].sum())
        done_rounding += float(rounding[keep].sum())
        lows, highs = lows[split], highs[split]
        middles = 0.5 * (lows + highs)
        lows, highs = np.concatenate([lows, middles]), np.concatenate([middles, highs])


# Normal walking speed in blocks per second; slower transport (e.g. a
# slowness effect) is modelled by passing a smaller speed.
DEFAULT_WALK_SPEED = 4.317


@dataclass(frozen=True)
class TriangleCourse:
    """Leg and hypotenuse of a 45-45-90 right triangle walked at constant
    speed; the hypotenuse of an L-block leg measures L*sqrt(2) blocks."""

    leg_blocks: int
    speed_blocks_per_second: float = DEFAULT_WALK_SPEED

    def __post_init__(self) -> None:
        if self.leg_blocks < 1 or int(self.leg_blocks) != self.leg_blocks:
            raise ValueError("leg_blocks must be a positive integer")
        if not self.speed_blocks_per_second > 0:
            raise ValueError("speed_blocks_per_second must be > 0")


def traversal_seconds(course: TriangleCourse) -> tuple[float, float]:
    """(leg_time, hypotenuse_time) in continuous time, before quantization."""
    leg_time = course.leg_blocks / course.speed_blocks_per_second
    return leg_time, leg_time * math.sqrt(2.0)


def archimedes_bounds(doublings: int) -> tuple[Decimal, Decimal]:
    """(lower, upper) bounds on pi from inscribed/circumscribed polygons.

    Starts from the regular hexagon (inscribed perimeter/diameter 3,
    circumscribed 2*sqrt(3)) and applies the side-doubling recurrence
    a' = 2ab/(a+b), b' = sqrt(a'b) the requested number of times.  Computed
    in 60-digit decimal arithmetic: by 30 doublings the true gap between the
    bounds (~4e-19) is far below float64 resolution, and the contract that
    the bounds strictly bracket pi at every step would not survive rounding
    to binary doubles.
    """
    if not 0 <= doublings <= 30:
        raise ValueError("doublings must be in [0, 30]")
    with localcontext() as ctx:
        ctx.prec = 60
        lower = Decimal(3)
        upper = 2 * Decimal(3).sqrt()
        for _ in range(doublings):
            upper = 2 * upper * lower / (upper + lower)
            lower = (upper * lower).sqrt()
        return +lower, +upper


def is_sum_of_two_squares(n: int) -> bool:
    """True iff n = i^2 + j^2 for some integers i, j >= 0.

    Squares may be zero, so perfect squares qualify (4 = 0^2 + 2^2); that is
    the standard number-theoretic convention.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    n = int(n)
    for i in range(math.isqrt(n) + 1):
        rest = n - i * i
        root = math.isqrt(rest)
        if root * root == rest:
            return True
    return False
