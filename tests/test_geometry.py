import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from blockmonte.estimators import parse_function
from blockmonte.geometry import (
    CircleRaster,
    TriangleCourse,
    archimedes_bounds,
    cell_in_disc,
    gauss_kronrod,
    is_sum_of_two_squares,
    raster_to_text,
    rasterize_circle,
    rasterize_curve,
    round_half_away_from_zero,
    traversal_seconds,
)

PI_50_DIGITS = Decimal("3.14159265358979323846264338327950288419716939937511")


class TestCellInDisc:
    def test_center_cell(self):
        assert cell_in_disc((0, 0), 1)

    def test_boundary_is_inclusive(self):
        assert cell_in_disc((11, 0), 11)
        assert not cell_in_disc((12, 0), 11)
        assert not cell_in_disc((8, 8), 11)  # distance sqrt(128) > 11

    def test_real_radius(self):
        assert cell_in_disc((1, 1), 1.5)
        assert not cell_in_disc((1, 1), 1.4)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            cell_in_disc((0, 0), 0)

    def test_disc_count_tracks_area_at_radius_100(self):
        count = sum(1 for x in range(-100, 101) for z in range(-100, 101)
                    if cell_in_disc((x, z), 100))
        assert abs(count / 100 ** 2 - math.pi) / math.pi < 0.005


class TestCircleRaster:
    def test_radius_one_is_center_plus_four_neighbours(self):
        raster = rasterize_circle(1)
        assert raster.inside_cells == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_radius_eleven_area_sandwich(self):
        raster = rasterize_circle(11)
        assert math.floor(math.pi * 10 ** 2) <= len(raster.inside_cells) <= math.ceil(math.pi * 12 ** 2)

    @pytest.mark.parametrize("radius", range(2, 65))
    def test_area_sandwich(self, radius):
        count = len(rasterize_circle(radius).inside_cells)
        assert math.pi * (radius - 1) ** 2 <= count <= math.pi * (radius + 1) ** 2

    @pytest.mark.parametrize("radius", range(1, 65))
    def test_eightfold_symmetry(self, radius):
        cells = rasterize_circle(radius).inside_cells
        for x, z in cells:
            for cell in ((x, -z), (-x, z), (-x, -z), (z, x), (-z, -x)):
                assert cell in cells

    def test_membership_matches_cell_in_disc(self):
        raster = rasterize_circle(7)
        for x in range(-9, 10):
            for z in range(-9, 10):
                assert ((x, z) in raster) == cell_in_disc((x, z), 7)

    def test_vectorised_membership(self):
        import numpy as np

        raster = rasterize_circle(5)
        xs = np.array([0, 5, 6, -5, 3])
        zs = np.array([0, 0, 0, 0, 4])
        assert raster.contains_cells(xs, zs).tolist() == [True, True, False, True, True]

    @pytest.mark.parametrize("radius", [1, 5, 12])
    def test_vectorised_membership_matches_the_square_test(self, radius):
        import numpy as np

        raster = rasterize_circle(radius)
        edges = [radius, radius + 1, radius + 2, 10 ** 12, 2 ** 62]
        line = np.array(sorted({*range(-radius, radius + 1), *edges, *(-v for v in edges)}))
        xs, zs = (axis.ravel() for axis in np.meshgrid(line, line))
        in_square = (np.abs(xs) <= radius) & (np.abs(zs) <= radius)
        expected = [bool(square) and (x, z) in raster
                    for x, z, square in zip(xs.tolist(), zs.tolist(), in_square)]
        assert raster.contains_cells(xs, zs).tolist() == expected

    @pytest.mark.parametrize("radius", range(1, 65))
    def test_spans_match_brute_force_over_the_padded_square(self, radius):
        r = radius
        square = [(x, z) for x in range(-r - 1, r + 2) for z in range(-r - 1, r + 2)]
        inside = {cell for cell in square if cell[0] ** 2 + cell[1] ** 2 <= r * r}
        ring = {(x, z) for x, z in inside
                if not {(x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1)} <= inside}
        raster = rasterize_circle(r)
        assert len(raster.inside_cells) == len(inside)
        assert raster.inside_cells == inside
        assert raster.outline_cells() == ring
        xs, zs = (np.array(axis) for axis in zip(*square))
        assert raster.contains_cells(xs, zs).tolist() == [cell in inside for cell in square]
        for text, cells in ((raster_to_text(raster), inside),
                            (raster_to_text(raster, outline_only=True), ring)):
            assert text.splitlines() == [
                "".join("#" if (x, z) in cells else "." for x in range(-r, r + 1))
                for z in range(r, -r - 1, -1)]

    def test_largest_radius_does_not_overflow(self):
        r = 2 ** 30
        raster = rasterize_circle(r)
        span = math.isqrt(r * r - 2 ** 58)  # the column at x = r / 2
        xs = np.array([r, r + 1, r, -r, 0, 2 ** 62, -(2 ** 62), 2 ** 29, 2 ** 29])
        zs = np.array([0, 0, 1, 0, -r, 2 ** 62, 2 ** 62, span, span + 1])
        expected = [x * x + z * z <= r * r for x, z in zip(xs.tolist(), zs.tolist())]
        assert expected == [True, False, False, True, True, False, False, True, False]
        assert raster.contains_cells(xs, zs).tolist() == expected

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            rasterize_circle(0)

    def test_text_export_radius_two(self):
        # Hand-enumerated: x^2 + z^2 <= 4 holds for |x|+|z| <= 2 and that set
        # alone, giving the diamond below.
        expected = "\n".join([
            "..#..",
            ".###.",
            "#####",
            ".###.",
            "..#..",
        ])
        assert raster_to_text(rasterize_circle(2)) == expected

    @pytest.mark.parametrize("outline_only", [False, True])
    def test_text_export_at_the_largest_radius_is_fast(self, outline_only):
        raster = rasterize_circle(4096)
        start = time.perf_counter()
        text = raster_to_text(raster, fill="X", empty=" ", outline_only=outline_only)
        assert time.perf_counter() - start < 1.0
        rows = text.split("\n")
        assert len(rows) == 8193 and {len(row) for row in rows} == {8193}
        filled = sum(2 * raster.spans[abs(z)] + 1 for z in range(-4096, 4097))
        assert text.count("X") == (len(raster.outline_cells()) if outline_only else filled)

    def test_text_export_counts_match(self):
        raster = rasterize_circle(9)
        text = raster_to_text(raster)
        assert text.count("#") == len(raster.inside_cells)
        assert len(text.splitlines()) == 19

    def test_outline_is_inside_the_raster(self):
        raster = rasterize_circle(11)
        ring = raster.outline_cells()
        assert ring <= raster.inside_cells
        assert (11, 0) in ring
        assert (0, 0) not in ring


class TestRounding:
    @pytest.mark.parametrize("value,expected", [
        (0.5, 1), (1.5, 2), (2.5, 3), (2.4, 2), (2.6, 3),
        (-0.5, -1), (-1.5, -2), (-2.4, -2), (0.0, 0),
        (0.49999999999999994, 0), (-0.49999999999999994, 0),
        (4503599627370497.0, 4503599627370497), (-4503599627370497.0, -4503599627370497),
    ])
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away_from_zero(value) == expected


class TestCurveRaster:
    def test_zero_function(self):
        raster = rasterize_curve(lambda x: 0.0, 0, 5)
        assert raster.heights == (0, 0, 0, 0, 0)

    def test_identity_function_rounds_up_at_midpoints(self):
        assert rasterize_curve(lambda x: x, 0, 3).heights == (1, 2, 3)

    def test_negative_halves_round_away_from_zero(self):
        assert rasterize_curve(lambda x: -x, 0, 2).heights == (-1, -2)

    def test_showcase_curve_matches_direct_evaluation(self):
        def f(x):
            return x * x * np.sin(x) + x ** (1 / 3)

        raster = rasterize_curve(f, 0, 8)
        for x in range(0, 8):
            value = f(x + 0.5)
            expected = math.floor(value + 0.5) if value >= 0 else math.ceil(value - 0.5)
            assert raster.heights[x - raster.x_start] == expected

    def test_the_curve_is_evaluated_once_on_the_column_midpoints(self):
        f = parse_function("x**2*sin(x) + cbrt(x)")
        calls = []

        def counted(x):
            calls.append(np.array(x, dtype=float))
            return f(x)

        raster = rasterize_curve(counted, 0, 8)
        assert len(calls) == 1
        assert calls[0].tolist() == [x + 0.5 for x in range(8)]
        assert all(type(height) is int for height in raster.heights)

    def test_one_cell_per_column(self):
        raster = rasterize_curve(lambda x: np.sin(x), -3, 7)
        assert len(raster.heights) == 10
        assert list(range(raster.x_start, raster.x_stop)) == list(range(-3, 7))

    def test_non_finite_error_names_the_column(self):
        with pytest.raises(ValueError, match="column 2"):
            rasterize_curve(lambda x: np.where(x > 2, np.nan, 0.0), 0, 5)

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            rasterize_curve(lambda x: x, 3, 3)

    def test_signed_area_is_height_sum(self):
        raster = rasterize_curve(lambda x: x - 2, 0, 5)
        assert raster.signed_column_area() == sum(raster.heights)


# (spec, a, b, exact integral)
CLOSED_FORMS = [
    # -x^2 cos x + 2x sin x + 2 cos x + (3/4) x^(4/3) over [0, 8]
    ("x**2*sin(x) + cbrt(x)", 0, 8, -62 * math.cos(8) + 16 * math.sin(8) + 10),
    ("cbrt(x)", 0, 8, 12.0),
    # e^(-x/3) (2 sin 2x - cos(2x) / 3) / (4 + 1/9) over [0, 9]
    ("exp(-x/3)*cos(2*x)", 0, 9,
     (math.exp(-3) * (2 * math.sin(18) - math.cos(18) / 3) + 1 / 3) / (4 + 1 / 9)),
    ("abs(x-3.3)", 0, 8, 3.3 ** 2 / 2 + 4.7 ** 2 / 2),
    ("2", 0, 8, 16.0),
    ("x**5 - 3*x", -2, 2, 0.0),
]

# The integrands the benchmark's quad oracle checks, plus a kink and jumps.
QUAD_SPECS = [
    ("x**2*sin(x) + cbrt(x)", 0, 8),
    ("exp(-x/3)*cos(2*x)", 0, 9),
    ("sqrt(x)*(1 + sin(x))", 0, 7),
    ("3*sin(x)", -2, 5),
    ("abs(x-3.3)", 0, 8),
    ("floor(x)", -2, 5),
    ("floor(3*x)*sin(x)", 0, 8),
]


class TestGaussKronrod:
    def test_gauss_nodes_and_weights_are_legendre_ten_point(self):
        from blockmonte.geometry import _GK_GAUSS, _GK_NODES

        nodes, weights = np.polynomial.legendre.leggauss(10)
        used = _GK_GAUSS > 0
        assert np.allclose(_GK_NODES[used], nodes, rtol=0, atol=1e-15)
        assert np.allclose(_GK_GAUSS[used], weights, rtol=0, atol=1e-15)

    def test_kronrod_rule_is_exact_to_degree_31(self):
        from blockmonte.geometry import _GK_KRONROD, _GK_NODES

        for degree in range(32):
            exact = (1 - (-1) ** (degree + 1)) / (degree + 1)
            assert (_GK_NODES ** degree) @ _GK_KRONROD == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("spec, a, b, exact", CLOSED_FORMS)
    def test_closed_forms(self, spec, a, b, exact):
        value, abserr, converged = gauss_kronrod(parse_function(spec), a, b)
        assert converged
        assert abs(value - exact) <= abserr
        assert abs(value - exact) <= 1e-13 * max(abs(exact), 1.0)

    @pytest.mark.parametrize("spec, a, b", QUAD_SPECS)
    def test_agrees_with_quadpack_under_the_benchmark_oracle_rule(self, spec, a, b):
        from scipy.integrate import quad

        f = parse_function(spec)
        expected, expected_err = quad(f, a, b, limit=200)
        value, _, converged = gauss_kronrod(f, a, b)
        assert converged
        assert abs(value - expected) <= expected_err + 1e-12 * abs(expected)

    def test_zero_integrals_stop_at_the_rounding_floor(self):
        assert gauss_kronrod(lambda x: 0 * x, 0, 8) == (0.0, 0.0, True)
        # A kink off the bisection points and an integral of 0: no relative
        # tolerance can be met, so the absolute floor from the integral of
        # |f| must end the passes (about 20; some 40 without it).
        kinked = parse_function("abs(x-1) - 5/6")
        passes = []

        def counted(x):
            passes.append(len(x))
            return kinked(x)

        value, abserr, converged = gauss_kronrod(counted, 0, 3)
        assert converged
        assert abs(value) <= abserr < 1e-13
        assert len(passes) < 30

    def test_non_finite_node_value_names_the_spec(self):
        with pytest.raises(ValueError, match="'function_spec'.*x = 0.5"):
            with np.errstate(divide="ignore"):
                gauss_kronrod(parse_function("1/(x-0.5)"), 0, 8)


class TestTriangleCourse:
    def test_unit_speed_times(self):
        leg, hyp = traversal_seconds(TriangleCourse(leg_blocks=10, speed_blocks_per_second=1.0))
        assert leg == 10.0
        assert hyp == pytest.approx(14.142135623730951)

    def test_ratio_is_sqrt_two(self):
        leg, hyp = traversal_seconds(TriangleCourse(leg_blocks=123, speed_blocks_per_second=3.7))
        assert hyp / leg == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_default_walk_speed(self):
        leg, _ = traversal_seconds(TriangleCourse(leg_blocks=100))
        assert leg == pytest.approx(100 / 4.317)
        assert leg == pytest.approx(23.164, abs=5e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TriangleCourse(leg_blocks=0)
        with pytest.raises(ValueError):
            TriangleCourse(leg_blocks=5, speed_blocks_per_second=0.0)


class TestArchimedes:
    def test_hexagon_start(self):
        lower, upper = archimedes_bounds(0)
        assert lower == 3
        assert float(upper) == pytest.approx(2 * math.sqrt(3))

    def test_96_gon_matches_the_classical_interval(self):
        lower, upper = archimedes_bounds(4)
        assert Decimal("3.1408") <= lower < PI_50_DIGITS
        assert PI_50_DIGITS < upper <= Decimal("3.1429")

    def test_twenty_doublings_within_1e_10(self):
        lower, upper = archimedes_bounds(20)
        assert abs(lower - PI_50_DIGITS) < Decimal("1e-10")
        assert abs(upper - PI_50_DIGITS) < Decimal("1e-10")

    def test_monotone_and_bracketing_up_to_thirty(self):
        previous_lower, previous_upper = archimedes_bounds(0)
        for doublings in range(1, 31):
            lower, upper = archimedes_bounds(doublings)
            assert previous_lower < lower < PI_50_DIGITS < upper < previous_upper
            previous_lower, previous_upper = lower, upper

    def test_doublings_out_of_range(self):
        with pytest.raises(ValueError):
            archimedes_bounds(31)
        with pytest.raises(ValueError):
            archimedes_bounds(-1)


def has_two_square_decomposition_by_factoring(n: int) -> bool:
    # Fermat: n is a sum of two squares iff every prime p = 3 (mod 4)
    # divides n to an even power.  Independent of the search in the library.
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            power = 0
            while remaining % p == 0:
                remaining //= p
                power += 1
            if p % 4 == 3 and power % 2 == 1:
                return False
        p += 1
    return remaining % 4 != 3


class TestSumOfTwoSquares:
    @pytest.mark.parametrize("n,expected", [
        (5, True), (7, False), (1, True), (2, True), (3, False),
        (4, True), (25, True), (21, False), (50, True),
    ])
    def test_known_values(self, n, expected):
        assert is_sum_of_two_squares(n) is expected

    def test_agrees_with_prime_factorisation_criterion(self):
        for n in range(1, 2000):
            assert is_sum_of_two_squares(n) == has_two_square_decomposition_by_factoring(n)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            is_sum_of_two_squares(0)
