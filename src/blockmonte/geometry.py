"""Integer-grid geometry: circle and curve rasters, the diagonal timing
course, and the polygon-doubling bounds used as a pi reference."""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property
from typing import Callable

import numpy as np


@dataclass(frozen=True, order=True)
class GridCell:
    """One cell of the block grid (2D plane, x east / z south)."""

    x: int
    z: int


def _cell_xz(cell) -> tuple[int, int]:
    if isinstance(cell, GridCell):
        return cell.x, cell.z
    x, z = cell
    return int(x), int(z)


def cell_in_disc(cell, radius: float) -> bool:
    """True iff the cell's center lies within ``radius`` of the origin
    cell's center (boundary inclusive).

    Centers sit at half-integer offsets, so center-to-center distance is
    exactly sqrt(x^2 + z^2); integer radii are decided in integer arithmetic.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    x, z = _cell_xz(cell)
    d2 = x * x + z * z
    if float(radius).is_integer():
        r = int(radius)
        return d2 <= r * r
    return d2 <= radius * radius


@dataclass(frozen=True)
class CircleRaster:
    """Set of grid cells approximating the disc of an integer radius.

    Closed under the 8 dihedral symmetries (x,z) -> (+-x, +-z) and swap.
    """

    radius: int
    inside_cells: frozenset[GridCell]

    def __contains__(self, cell) -> bool:
        x, z = _cell_xz(cell)
        return GridCell(x, z) in self.inside_cells

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean lookup grid indexed by [x + radius + 1, z + radius + 1].

        Its outermost ring lies one cell outside the square and is all
        False, so coordinates clipped onto it read as outside.
        """
        edge = self.radius + 1
        grid = np.zeros((2 * edge + 1, 2 * edge + 1), dtype=bool)
        for cell in self.inside_cells:
            grid[cell.x + edge, cell.z + edge] = True
        grid.setflags(write=False)
        return grid

    def contains_cells(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Vectorised membership for integer cell coordinate arrays."""
        edge = self.radius + 1
        index = np.clip(xs, -edge, edge)
        index += edge
        index *= 2 * edge + 1
        index += np.clip(zs, -edge, edge)
        index += edge
        return self.mask.take(index)

    def outline_cells(self) -> frozenset[GridCell]:
        """Raster cells with at least one 4-neighbour outside (the ring)."""
        ring = set()
        for cell in self.inside_cells:
            for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if GridCell(cell.x + dx, cell.z + dz) not in self.inside_cells:
                    ring.add(cell)
                    break
        return frozenset(ring)


def rasterize_circle(radius: int) -> CircleRaster:
    """All cells whose centers fall inside the disc, per ``cell_in_disc``."""
    if radius < 1 or int(radius) != radius:
        raise ValueError("radius must be a positive integer")
    radius = int(radius)
    cells = []
    for x in range(-radius, radius + 1):
        span = math.isqrt(radius * radius - x * x)
        cells.extend(GridCell(x, z) for z in range(-span, span + 1))
    return CircleRaster(radius=radius, inside_cells=frozenset(cells))


def raster_to_text(raster: CircleRaster, fill: str = "#", empty: str = ".",
                   outline_only: bool = False) -> str:
    """Plain-text rendering, one grid row per line (north at the top)."""
    cells = raster.outline_cells() if outline_only else raster.inside_cells
    r = raster.radius
    rows = []
    for z in range(r, -r - 1, -1):
        rows.append("".join(fill if GridCell(x, z) in cells else empty
                            for x in range(-r, r + 1)))
    return "\n".join(rows)


def round_half_away_from_zero(value: float) -> int:
    """Round to the nearest whole number; halves go away from zero."""
    if value >= 0:
        return math.floor(value + 0.5)
    return math.ceil(value - 0.5)


@dataclass(frozen=True)
class CurveRaster:
    """One block column per integer x in [x_start, x_stop), column height
    taken from the curve sampled at the column midpoint."""

    x_start: int
    x_stop: int
    heights: tuple[int, ...]

    def height_at(self, x: int) -> int:
        if not self.x_start <= x < self.x_stop:
            raise ValueError(f"column {x} outside [{self.x_start}, {self.x_stop})")
        return self.heights[x - self.x_start]

    def cells(self) -> tuple[GridCell, ...]:
        return tuple(GridCell(x, h)
                     for x, h in zip(range(self.x_start, self.x_stop), self.heights))

    def signed_column_area(self) -> int:
        """Exact net area of the columns (width 1 each, signed heights)."""
        return sum(self.heights)


def rasterize_curve(f: Callable[[float], float], a: int, b: int) -> CurveRaster:
    """Block heights round_half_away_from_zero(f(x + 0.5)) for x in [a, b)."""
    if int(a) != a or int(b) != b:
        raise ValueError("domain endpoints must be integers")
    a, b = int(a), int(b)
    if not a < b:
        raise ValueError("domain must satisfy a < b")
    heights = []
    for x in range(a, b):
        value = float(f(x + 0.5))
        if not math.isfinite(value):
            raise ValueError(f"curve is not finite at column {x} (sampled at {x + 0.5})")
        heights.append(round_half_away_from_zero(value))
    return CurveRaster(x_start=a, x_stop=b, heights=tuple(heights))


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
