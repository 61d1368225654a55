"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run pytest with -s or -rA to see them all).

Recorded experiment tallies are single random draws, so only their
arithmetic is replayed exactly; the sampling criteria are statistical, with
seeds fixed for reproducibility.
"""

import math
import time
from decimal import Decimal
from fractions import Fraction

from blockmonte.combinatorics import (
    derangement_count,
    enumerate_permutations,
    is_alternating,
    is_derangement,
    zigzag_count,
)
from blockmonte.estimators import ExperimentConfig, run_config
from blockmonte.geometry import archimedes_bounds
from blockmonte.numtheory import coprime_probability_exact
from blockmonte.runner import RunManifest, run_experiment
from blockmonte.stats import CONSTANTS

PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")
INV_E = 0.367879441171442321595523770161


def emit(number: str, ok: bool, name: str, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} {name}{suffix}")
    return ok


def config(variant, seed=0, trials=10_000, **params):
    return ExperimentConfig(variant=variant, master_seed=seed, trials=trials,
                            variant_params=params)


def test_criterion_01_count_arithmetic():
    started = time.perf_counter()
    checks = []

    record = run_config(ExperimentConfig("sqrt2", variant_params={"counts": (57, 41)}))
    checks.append(record.params["reported_estimate"] == "1.3902")
    checks.append(record.params["reported_error_pct"] == "1.70")
    checks.append(round(record.estimate, 4) == 1.3902)

    record = run_config(ExperimentConfig("pi", variant_params={"counts": (508, 619)}))
    checks.append(record.params["reported_estimate"] == "3.283")
    checks.append(record.params["reported_error_pct"] == "4.49")

    record = run_config(ExperimentConfig("e", variant_params={"counts": (647, 238)}))
    checks.append(record.params["reported_estimate"] == "2.71849")
    checks.append(record.params["reported_error_pct"] == "0.00766")
    checks.append(round(float(record.params["reported_error_pct"]), 4) == 0.0077)

    record = run_config(ExperimentConfig("zeta", variant_params={"counts": (70, 58)}))
    checks.append(record.params["reported_estimate"] == "1.2069")
    checks.append(round(record.relative_error_percent, 1) == 0.4)

    record = run_config(ExperimentConfig("pi", variant_params={"counts": (33943, 43270),
                                                              "reported_decimals": 5}))
    checks.append(record.params["reported_estimate"] == "3.13779")

    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 1.0
    assert emit("01", ok, "count arithmetic replays every recorded line",
                f"{len(checks)} checks, {elapsed:.2f}s")


def test_criterion_02_oracles_agree_with_enumeration():
    started = time.perf_counter()
    ok = True
    for n in range(0, 9):
        permutations = list(enumerate_permutations(n))
        ok &= derangement_count(n) == sum(is_derangement(p) for p in permutations)
        ok &= zigzag_count(n) == sum(is_alternating(p) for p in permutations)
    brute_nine = sum(is_derangement(p) for p in enumerate_permutations(9))
    ok &= brute_nine == derangement_count(9) == 133496
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    assert emit("02", ok, "derangement/zigzag counts match exhaustive enumeration",
                f"D(9)={brute_nine}, {elapsed:.1f}s")


def test_criterion_03_derangement_tail_bound():
    started = time.perf_counter()
    ok = all(
        abs(derangement_count(n) / math.factorial(n) - INV_E) < 1 / math.factorial(n + 1)
        for n in range(1, 13))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert emit("03", ok, "|D(n)/n! - 1/e| < 1/(n+1)! for n in [1, 12]",
                f"{elapsed:.2f}s")


def test_criterion_04_archimedes_bounds():
    started = time.perf_counter()
    lower4, upper4 = archimedes_bounds(4)
    ok = Decimal("3.1408") <= lower4 < PI_50 < upper4 <= Decimal("3.1429")
    lower20, upper20 = archimedes_bounds(20)
    ok &= abs(lower20 - PI_50) < Decimal("1e-10") and abs(upper20 - PI_50) < Decimal("1e-10")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert emit("04", ok, "96-gon inside [3.1408, 3.1429]; 20 doublings within 1e-10",
                f"96-gon=[{float(lower4):.6f}, {float(upper4):.6f}], {elapsed:.2f}s")


def test_criterion_05_pi_estimator():
    started = time.perf_counter()
    records = [run_config(config("pi", seed=seed, trials=1_000_000)) for seed in range(20)]
    within = all(abs(r.estimate - CONSTANTS.pi) < 4 * r.stderr for r in records)
    mae = sum(abs(r.estimate - CONSTANTS.pi) for r in records) / 20
    covered = sum(r.ci_low <= CONSTANTS.pi <= r.ci_high for r in records)
    elapsed = time.perf_counter() - started
    ok = within and mae < 0.005 and covered >= 17 and elapsed < 60.0
    assert emit("05", ok, "pi runs within 4 sigma; MAE < 0.005; CI coverage >= 17/20",
                f"MAE={mae:.5f}, coverage={covered}/20, {elapsed:.1f}s")


def test_criterion_06_e_estimator():
    started = time.perf_counter()
    target = math.factorial(9) / derangement_count(9)
    records = [run_config(config("e", seed=seed, trials=1_000_000)) for seed in range(20)]
    within = all(abs(r.estimate - target) < 4 * r.stderr for r in records)
    # The quoted 1e-6 closeness of 9!/D(9) to e holds as a relative error:
    # the absolute gap is e^2 * tail = 1.87e-6, the relative gap 6.9e-7.
    target_gap = abs(target - CONSTANTS.e) / CONSTANTS.e
    elapsed = time.perf_counter() - started
    ok = within and target_gap < 1e-6 and elapsed < 120.0
    assert emit("06", ok, "e runs within 4 sigma of 9!/D(9); target within 1e-6 of e",
                f"relative target gap={target_gap:.2e}, {elapsed:.1f}s")


def test_criterion_07_zeta_estimators():
    started = time.perf_counter()
    apery = run_config(config("zeta", seed=1, trials=1_000_000))
    ok = abs(apery.estimate - CONSTANTS.zeta3) < 4 * apery.stderr
    basel = run_config(config("zeta", seed=2, trials=1_000_000, m=2))
    derived = basel.params["pi_power_estimate"]
    ok &= abs(derived - CONSTANTS.pi ** 2) < 4 * basel.params["pi_power_stderr"]
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    assert emit("07", ok, "zeta(3) within 4 sigma; derived 6/P2 within 4 sigma of pi^2",
                f"zeta3={apery.estimate:.5f}, pi^2={derived:.4f}, {elapsed:.1f}s")


def test_criterion_08a_partial_sum_against_reference():
    # NOTE: sum_{n<=9} A_n/n! = 3.3699101631..., which sits 0.0383 below
    # sec(1)+tan(1) = 3.4082234423: the terms decay geometrically with ratio
    # 2/pi, not factorially, so no 5e-4 agreement between the 9-term sum and
    # the constant is mathematically possible.  The check is kept at its
    # stated tolerance rather than loosened to what the series can do.
    started = time.perf_counter()
    oracle = float(sum(Fraction(zigzag_count(n), math.factorial(n)) for n in range(10)))
    gap = abs(oracle - CONSTANTS.sec1_plus_tan1)
    elapsed = time.perf_counter() - started
    ok = gap < 5e-4 and elapsed < 60.0
    assert emit("08a", ok, "9-term partial sum within 5e-4 of sec(1)+tan(1)",
                f"gap={gap:.4f}, {elapsed:.1f}s")


def test_criterion_08b_monte_carlo_against_oracle_sum():
    started = time.perf_counter()
    oracle = float(sum(Fraction(zigzag_count(n), math.factorial(n)) for n in range(10)))
    record = run_config(config("sec_tan", seed=3, trials=100_000))
    gap = abs(record.estimate - oracle)
    elapsed = time.perf_counter() - started
    ok = gap < 3 * record.stderr and elapsed < 60.0
    assert emit("08b", ok, "sampled alternating fractions within 3 sigma of oracle sum",
                f"gap={gap:.5f} vs 3sigma={3 * record.stderr:.5f}, {elapsed:.1f}s")


def test_criterion_09_integral_estimator():
    started = time.perf_counter()
    analytic = -62 * math.cos(8) + 16 * math.sin(8) + 10
    continuous = run_config(config("integral", seed=4, trials=1_000_000))
    ok = abs(continuous.reference - analytic) < 1e-9
    ok &= abs(continuous.estimate - analytic) < 4 * continuous.stderr
    rasterized = run_config(config("integral", seed=5, trials=1_000_000,
                                   raster_mode="rasterized"))
    ok &= abs(rasterized.estimate - rasterized.reference) < 4 * rasterized.stderr
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    assert emit("09", ok, "integral within 4 sigma in continuous and rasterized modes",
                f"continuous={continuous.estimate:.3f}, "
                f"rasterized={rasterized.estimate:.3f} vs {rasterized.reference}, {elapsed:.1f}s")


def test_criterion_10_bias_demonstrations():
    started = time.perf_counter()
    uniform_runs = [run_config(config("pi", seed=seed, trials=20_000)).estimate
                    for seed in range(20)]
    drift_runs = [run_config(config("pi", seed=seed, trials=20_000, radius=20,
                                    sampler_mode="slime_walk_drift")).estimate
                  for seed in range(20)]

    def mean_and_se(values):
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return mean, math.sqrt(variance / len(values))

    uniform_mean, uniform_se = mean_and_se(uniform_runs)
    drift_mean, drift_se = mean_and_se(drift_runs)
    separation = abs(uniform_mean - drift_mean) / math.hypot(uniform_se, drift_se)
    ok = separation > 3

    finite_target = 1 / float(coprime_probability_exact(3, 10))
    capped = run_config(config("zeta", seed=6, trials=1_000_000, value_bound=10))
    ok &= abs(capped.estimate - finite_target) < 4 * capped.stderr
    ok &= abs(finite_target - CONSTANTS.zeta3) > 10 * capped.stderr
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    assert emit("10", ok, "drift bias separates the means; capped values converge off zeta(3)",
                f"separation={separation:.1f} sigma, capped={capped.estimate:.5f} "
                f"vs {finite_target:.5f}, {elapsed:.1f}s")


def test_criterion_11_manifest_determinism(tmp_path):
    started = time.perf_counter()

    def run(name, workers):
        out = tmp_path / name
        manifest = RunManifest(
            run_id="det",
            configs=[
                ExperimentConfig(variant="pi", master_seed=7, trials=200_000),
                ExperimentConfig(variant="zeta", master_seed=8, trials=100_000,
                                 variant_params={"m": 2}),
            ],
            output_dir=out, formats=("jsonl", "csv"), workers=workers)
        run_experiment(manifest)
        return (out / "det.jsonl").read_bytes(), (out / "det.csv").read_bytes()

    first = run("a", workers=1)
    second = run("b", workers=1)
    third = run("c", workers=3)
    elapsed = time.perf_counter() - started
    ok = first == second == third and elapsed < 60.0
    assert emit("11", ok, "manifest reruns byte-identical across worker counts",
                f"{elapsed:.1f}s")
