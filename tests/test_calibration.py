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
"""

import math
from fractions import Fraction

import pytest

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


def coverage(name: str, trials: int) -> float:
    (variant, params), target = TARGETS[name]
    covered = 0
    for seed in SEEDS:
        config = ExperimentConfig(variant, master_seed=seed, trials=trials,
                                  variant_params=params)
        try:
            record = run_config(config)
        except DegenerateResultError:
            continue
        covered += record.ci_low <= target(record) <= record.ci_high
    return covered / len(SEEDS)


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
