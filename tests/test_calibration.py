"""Coverage of the 95% intervals against each record's exact target.

Every case runs seeds 0-399 and counts the runs whose [ci_low, ci_high]
holds the target; a run that ends degenerate (no usable estimate) counts as
a miss.  Coverage must reach 0.95 - 3 sqrt(0.95 * 0.05 / 400), three
binomial standard errors below the nominal level.

Only the records whose law has an exact target in the code today are
checked: uniform exact-disc pi (pi itself), e (9!/D(9), the inverse of the
9-slot dropper's derangement rate), uniform zeta (1 / the exact coprime
probability on [1, value_bound]^m), sec_tan (the exact sum of A_n/n!
for n up to 9) and the continuous integral (its quadrature reference).
Random-tick zeta and slime pi are left out, since the negative binomial
values of the waiting-time device and the slime walk's death cells have
no exact target in the code yet (ROADMAP items 3 and 20); so is sqrt2,
whose one deterministic read reports no interval (item 12).

The same runs also test each record's success count against its exact
law, Binomial(trials, p), by a chi-squared goodness of fit over the 400
seeds; the integral is left out there, as its outcome is not binomial.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from scipy.stats import binom, chi2

from blockmonte.combinatorics import derangement_count, zigzag_count
from blockmonte.errors import DegenerateResultError
from blockmonte.estimators import ExperimentConfig, run_config
from blockmonte.numtheory import coprime_probability_exact

SEEDS = range(400)
LEVEL = 0.95
FLOOR = LEVEL - 3 * math.sqrt(LEVEL * (1 - LEVEL) / len(SEEDS))  # 0.9173

TARGETS = {
    "pi": (("pi", {"sampler_mode": "uniform_ideal", "raster_mode": "exact_disc"}),
           lambda record: math.pi),
    "e": (("e", {}), lambda record: math.factorial(9) / derangement_count(9)),
    "zeta": (("zeta", {"m": 3, "value_bound": 100}),
             lambda record: float(1 / coprime_probability_exact(3, 100))),
    "sec_tan": (("sec_tan", {}),
                lambda record: float(sum(Fraction(zigzag_count(n), math.factorial(n))
                                         for n in range(10)))),
    "integral": (("integral", {}), lambda record: record.reference),
}


@lru_cache(maxsize=None)
def seeded_records(name: str, trials: int) -> tuple:
    """The case's record at each seed, None where the run ended degenerate."""
    (variant, params), _ = TARGETS[name]
    records = []
    for seed in SEEDS:
        config = ExperimentConfig(variant, master_seed=seed, trials=trials,
                                  variant_params=params)
        try:
            records.append(run_config(config))
        except DegenerateResultError:
            records.append(None)
    return tuple(records)


def coverage(name: str, trials: int) -> float:
    _, target = TARGETS[name]
    return sum(record is not None and record.ci_low <= target(record) <= record.ci_high
               for record in seeded_records(name, trials)) / len(SEEDS)


@pytest.mark.parametrize("name, trials", [
    ("pi", 20), ("pi", 100),
    ("e", 20), ("e", 100),
    ("zeta", 20), ("zeta", 100),
    ("sec_tan", 20), ("sec_tan", 100),
    pytest.param("integral", 20, marks=pytest.mark.xfail(
        strict=True, reason="covers 0.8675 (7 of 400 runs degenerate): the normal "
                            "interval on a {-1, 0, 1} outcome is too short at 20 trials; "
                            "ROADMAP item 4 asks for a paired score interval")),
    ("integral", 50), ("integral", 100),
])
def test_the_interval_covers_its_target(name, trials):
    assert coverage(name, trials) >= FLOOR


# Each case's exact success chance per trial; sec_tan has one per size.
LAWS = {
    "pi": math.pi / 4,
    "e": Fraction(derangement_count(9), math.factorial(9)),
    "zeta": coprime_probability_exact(3, 100),
}
SEC_TAN_LAWS = {size: Fraction(zigzag_count(size), math.factorial(size))
                for size in range(2, 10)}


def binomial_fit(counts: list[int], trials: int, p) -> float:
    """Chi-squared p-value of ``counts`` against Binomial(trials, p), bins of
    adjacent counts merged from the low end until each expects at least 5
    runs, and a short last bin merged into the one before it."""
    expected = len(counts) * binom.pmf(range(trials + 1), trials, float(p))
    observed = [counts.count(k) for k in range(trials + 1)]
    bins = []
    for want, seen in zip(expected, observed):
        if bins and bins[-1][0] < 5:
            bins[-1][0] += want
            bins[-1][1] += seen
        else:
            bins.append([want, seen])
    if bins[-1][0] < 5:
        want, seen = bins.pop()
        bins[-1][0] += want
        bins[-1][1] += seen
    statistic = sum((seen - want) ** 2 / want for want, seen in bins)
    return chi2.sf(statistic, df=len(bins) - 1)


@pytest.mark.parametrize("name, trials", [
    ("pi", 20), ("pi", 100),
    ("e", 20), ("e", 100),
    ("zeta", 20), ("zeta", 100),
    ("sec_tan", 20), ("sec_tan", 100),
])
def test_the_success_count_follows_its_exact_law(name, trials):
    records = seeded_records(name, trials)
    if name == "sec_tan":
        fits = {size: binomial_fit([dict(record.params["alternating_counts"])[size]
                                    for record in records], trials, p)
                for size, p in SEC_TAN_LAWS.items()}
    else:
        fits = {name: binomial_fit([record.success_count for record in records], trials,
                                   LAWS[name])}
    assert min(fits.values()) >= 1e-3, fits
