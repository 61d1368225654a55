"""Output checks: every report row against the program's exact oracles.

A binomial estimate fails when its success fraction lies more than
``Z_GATE`` standard errors from the exact probability, the standard error
taken from the exact probability (not from the record), widened by any
bias bound the oracle states.  Samplers with no oracle (drifting slimes,
random-tick values) are checked for the params that flag them.
"""

from __future__ import annotations

import math
from functools import lru_cache

Z_GATE = 5.0


def _binomial(problems, label, successes, trials, p, bias=0.0):
    tolerance = Z_GATE * math.sqrt(p * (1.0 - p) / trials) + bias
    if abs(successes / trials - p) > tolerance:
        problems.append(f"{label}: fraction {successes}/{trials} is more than "
                        f"{Z_GATE:g} stderr from exact {p:.9g}")


def _close(a, b) -> bool:
    return a is not None and abs(a - b) <= 1e-12 * max(1.0, abs(b))


@lru_cache(maxsize=None)
def _disc_cells(radius: int) -> int:
    from blockmonte.geometry import rasterize_circle

    return len(rasterize_circle(radius).inside_cells)


@lru_cache(maxsize=None)
def _curve_area(spec: str, a: int, b: int) -> int:
    from blockmonte.estimators import parse_function
    from blockmonte.geometry import rasterize_curve

    return rasterize_curve(parse_function(spec), a, b).signed_column_area()


@lru_cache(maxsize=None)
def _quadrature(spec: str, a: int, b: int) -> tuple[float, float]:
    from scipy.integrate import quad

    from blockmonte.estimators import parse_function

    value, abserr = quad(parse_function(spec), a, b, limit=200)
    return float(value), float(abserr)


def check_row(row: dict, request) -> list[str]:
    """Problems found in one report row; empty when the row is correct.

    ``request`` is the generated request that produced the row: its
    variant, seed, trials and any replayed counts are what the row must echo.
    """
    from blockmonte.combinatorics import derangement_count, zigzag_count
    from blockmonte.estimators import reference_zeta

    problems = []
    estimate, trials, params = row.get("estimate"), row.get("trials"), row.get("params") or {}
    if row.get("variant") != request.variant:
        problems.append(f"variant {row.get('variant')!r} != {request.variant!r}")
    if estimate is None or not math.isfinite(estimate):
        return problems + [f"no finite estimate ({params.get('failed', estimate)!r})"]
    if request.counts is not None:
        first, second = request.counts
        if not _close(estimate, first / second) or params.get("counts") != [first, second]:
            problems.append(f"replay of {first},{second} gave {estimate!r}")
        return problems
    if row.get("seed") != request.seed:
        problems.append(f"seed {row.get('seed')!r} != {request.seed}")
    expected_trials = request.trials
    if request.variant == "sec_tan":
        expected_trials *= max(0, int(params.get("max_size", 0)) - 1)
    elif request.variant == "sqrt2":
        expected_trials = 1
    if trials != expected_trials:
        problems.append(f"trials {trials!r} != {expected_trials}")
        return problems
    successes = row.get("success_count")
    variant = request.variant

    if variant == "e":
        n = int(params["permutation_size"])
        if not _close(estimate, trials / successes):
            problems.append("estimate != trials / derangements")
        _binomial(problems, "e", successes, trials, derangement_count(n) / math.factorial(n))
    elif variant == "sec_tan":
        per_size = params["trials_per_size"]
        total = float(min(int(params["max_size"]) + 1, 2))
        for size, hits in params["alternating_counts"]:
            _binomial(problems, f"sec_tan size {size}", hits, per_size,
                      zigzag_count(size) / math.factorial(size))
            total += hits / per_size
        if not _close(estimate, total):
            problems.append("estimate != sum of alternating fractions")
    elif variant == "pi":
        if not _close(estimate, 4.0 * successes / trials):
            problems.append("estimate != 4 * inside / total")
        sampler, radius = params["sampler_mode"], int(params["radius"])
        if sampler == "slime_walk_drift":
            if params.get("drift") in (None, [0.0, 0.0]):
                problems.append("drifting walk does not echo its drift")
        elif sampler == "slime_walk":
            # Death positions are uniform on the walled square of cells.
            _binomial(problems, "pi slime", successes, trials,
                      _disc_cells(radius) / (2 * radius + 1) ** 2)
        elif params["raster_mode"] == "exact_disc":
            _binomial(problems, "pi disc", successes, trials, math.pi / 4.0)
        else:
            # Raster cells overlap the sampling square [0.5-R, 0.5+R]^2 fully,
            # except the four axis tips (+-R, 0), (0, +-R), which overlap half.
            _binomial(problems, "pi raster", successes, trials,
                      (_disc_cells(radius) - 2) / (4.0 * radius * radius))
    elif variant == "zeta":
        m, bound = int(params["m"]), int(params["value_bound"])
        if not _close(estimate, trials / successes):
            problems.append("estimate != tuples / coprime")
        if params["sampler_mode"] == "random_tick":
            if params.get("value_distribution") != "negative_binomial_non_uniform":
                problems.append("random_tick record does not flag its value distribution")
        else:
            # Finite universe [1, N]^m: |P_N - 1/zeta(m)| <= m (1 + ln N) / N.
            _binomial(problems, "zeta", successes, trials, 1.0 / reference_zeta(m),
                      bias=m * (1.0 + math.log(bound)) / bound)
    elif variant == "integral":
        spec, a, b = params["function_spec"], int(params["a"]), int(params["b"])
        stderr = row.get("stderr")
        if stderr is None or not stderr > 0:
            return problems + [f"integral stderr {stderr!r} is not positive"]
        if params["raster_mode"] == "rasterized":
            reference, slack = float(_curve_area(spec, a, b)), 0.0
        else:
            reference, slack = _quadrature(spec, a, b)
        if abs(row.get("reference") - reference) > slack + 1e-12 * abs(reference):
            problems.append(f"reference {row.get('reference')!r} != oracle {reference!r}")
        if abs(estimate - reference) > Z_GATE * stderr + slack:
            problems.append(f"integral estimate {estimate!r} more than {Z_GATE:g} "
                            f"stderr from {reference!r}")
    elif variant == "sqrt2":
        leg, hyp = int(params["leg_items"]), int(params["hyp_items"])
        if not _close(estimate, hyp / leg):
            problems.append("estimate != hyp_items / leg_items")
        # Each window count is within one item of time/period, so
        # |hyp - sqrt(2) leg| <= 1 + sqrt(2).
        if abs(estimate - math.sqrt(2.0)) > (1.0 + math.sqrt(2.0)) / leg:
            problems.append("sqrt2 estimate outside the quantization bound")
    return problems
