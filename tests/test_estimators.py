import argparse
import concurrent.futures
import copy
import dataclasses
import importlib
import math
import re
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blockmonte import cli, estimators, expr
from blockmonte.combinatorics import derangement_count, zigzag_count
from blockmonte.errors import (
    DegenerateCourseError,
    DegenerateRegionError,
    DegenerateResultError,
    DegenerateSampleError,
)
from blockmonte.estimators import (
    ExperimentConfig,
    collect_pi_outcomes,
    parse_function,
    run_config,
)
from blockmonte.mechanics import Dropper, dropper_rank_block
from blockmonte.numtheory import coprime_probability_exact
from blockmonte.rng import StreamId, derive_stream
from blockmonte.runner import RunManifest
from blockmonte.stats import CONSTANTS

SQRT2 = CONSTANTS.sqrt2
PI = CONSTANTS.pi
E = CONSTANTS.e
ZETA3 = CONSTANTS.zeta3

# Exact antiderivative of x^2 sin(x) + cbrt(x) evaluated over [0, 8]:
# [-x^2 cos x + 2x sin x + 2 cos x + (3/4) x^(4/3)].
SHOWCASE_INTEGRAL = -62 * math.cos(8) + 16 * math.sin(8) + 10

# A valid recorded tally per replayable variant.
REPLAY_COUNTS = {"sqrt2": "99,70", "pi": "508,619", "e": "647,238", "zeta": "70,58"}


def config(variant, seed=0, trials=10_000, **params):
    return ExperimentConfig(variant=variant, master_seed=seed, trials=trials,
                            variant_params=params)


class TestConfigValidation:
    def test_unknown_variant_names_the_field(self):
        with pytest.raises(ValueError, match="variant"):
            ExperimentConfig(variant="tau")

    def test_zero_trials_names_the_field(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(variant="pi", trials=0)

    @pytest.mark.parametrize("bad", [2.5, 1000.0, True, "1000", None])
    def test_non_integer_trials_names_the_field(self, bad):
        with pytest.raises(ValueError, match="'trials'"):
            ExperimentConfig(variant="pi", trials=bad)

    @pytest.mark.parametrize("bad", [7.0, False, "7", None])
    def test_non_integer_seed_names_the_field(self, bad):
        with pytest.raises(ValueError, match="'seed'"):
            ExperimentConfig(variant="pi", master_seed=bad)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_names_the_field(self, workers):
        with pytest.raises(ValueError, match="'workers'"):
            run_config(config("pi", trials=100), workers=workers)

    @pytest.mark.parametrize("workers", [2.5, True, "2", 0])
    def test_workers_is_checked_as_an_integer_by_both_entry_points(self, workers, monkeypatch,
                                                                  tmp_path):
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: 4)
        cfg = config("e", trials=5 * estimators.BLOCK_TRIALS)
        with pytest.raises(ValueError, match="'workers'"):
            run_config(cfg, workers=workers)
        with pytest.raises(ValueError, match="'workers'"):
            RunManifest(run_id="w", configs=[cfg], output_dir=tmp_path, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
    @pytest.mark.parametrize("variant", ["sqrt2", "pi", "e", "zeta", "sec_tan", "integral"])
    def test_every_estimate_name_checks_workers(self, variant, workers, monkeypatch):
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: 4)
        with pytest.raises(ValueError, match="'workers'"):
            run_config(config(variant, trials=100), workers=workers)

    def test_numpy_integers_are_taken_for_seed_trials_and_workers(self, tmp_path):
        given = ExperimentConfig("pi", master_seed=np.int64(3), trials=np.int64(100))
        assert given == ExperimentConfig("pi", master_seed=3, trials=100)
        assert type(given.master_seed) is int and type(given.trials) is int
        assert run_config(given, workers=np.int64(2)) == run_config(given)
        manifest = RunManifest(run_id="w", configs=[given], output_dir=tmp_path,
                               workers=np.int64(2))
        assert type(manifest.workers) is int

    @pytest.mark.parametrize("field, values", [
        ("seed", {"master_seed": -1}),
        ("seed", {"master_seed": 1 << 64}),
        ("trials", {"trials": -5}),
    ])
    def test_out_of_range_seed_and_trials_name_the_field(self, field, values):
        with pytest.raises(ValueError, match=f"'{field}'"):
            ExperimentConfig("pi", **values)
        assert ExperimentConfig("pi", master_seed=(1 << 64) - 1).master_seed == (1 << 64) - 1

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="wobble"):
            run_config(config("pi", wobble=3))

    def test_bad_sampler_mode_named(self):
        with pytest.raises(ValueError, match="sampler_mode"):
            run_config(config("pi", sampler_mode="dart_board"))

    def test_drift_only_for_drift_mode(self):
        with pytest.raises(ValueError, match="drift"):
            run_config(config("pi", drift="0.3,-0.3"))

    @pytest.mark.parametrize("variant, params, field", [
        ("pi", {"radius": 2.9}, "radius"),
        ("pi", {"radius": True}, "radius"),
        ("pi", {"sampler_mode": "slime_walk_drift", "drift": "nan,0"}, "drift"),
        ("pi", {"step_cells": "inf"}, "step_cells"),
        ("sqrt2", {"period": "inf"}, "period"),
        ("pi", {"counts": [508.9, 619.2]}, "counts"),
        ("e", {"counts": "647,238", "m": "5"}, "m"),
        ("pi", {"counts": "508,619", "reported_decimals": "-1"}, "reported_decimals"),
        ("pi", {"counts": "508,619", "reported_decimals": "three"}, "reported_decimals"),
        ("sqrt2", {"speed": 1e-300}, "speed"),
        ("sqrt2", {"leg_blocks": 10 ** 400}, "speed"),
        ("zeta", {"value_bound": 2 ** 70}, "value_bound"),
        ("zeta", {"m": 65}, "m"),
        ("pi", {"sampler_mode": "slime_walk", "kill_probability": 1e-4}, "kill_probability"),
        ("pi", {"radius": 2 ** 30 + 1}, "radius"),
        ("zeta", {"sampler_mode": "random_tick", "growth_prob": 1e-300}, "growth_prob"),
        ("zeta", {"sampler_mode": "random_tick", "speed_multiplier": 2000}, "speed_multiplier"),
        ("integral", {"raster_mode": "rasterized", "b": 10 ** 9}, "b"),
        ("e", {"counts": (10.7, 5)}, "counts"),
        ("e", {"counts": (True, True)}, "counts"),
        ("pi", {"counts": (508, 619), "reported_decimals": -1}, "reported_decimals"),
        ("pi", {"counts": "508,619", "reported_decimals": "18"}, "reported_decimals"),
        ("pi", {"sampler_mode": "slime_walk", "step_cells": 100, "radius": 1}, "step_cells"),
        ("pi", {"counts": (700, 619)}, "counts"),
        ("e", {"counts": (5, 10)}, "counts"),
        ("integral", {"a": -10 ** 400}, "a"),
        ("pi", {"counts": (5, 10 ** 400)}, "counts"),
        ("e", {"counts": (10 ** 400, 3)}, "counts"),
    ])
    def test_bad_value_names_its_field(self, variant, params, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            run_config(config(variant, trials=100, **params))
        if "counts" in params:
            # A counts config coerces through the same table whatever its trials.
            with pytest.raises(ValueError, match=f"'{field}'"):
                run_config(config(variant, **params))

    @pytest.mark.parametrize("variant, params, field", [
        ("pi", {"wobble": 3}, "wobble"),
        ("zeta", {"m": 65}, "m"),
        ("integral", {"function_spec": "sinc(x)"}, "function_spec"),
        ("sec_tan", {"counts": "70,58"}, "variant"),
        ("integral", {"function_spec": "1/0"}, "function_spec"),
        ("integral", {"function_spec": "sin()"}, "function_spec"),
        ("integral", {"function_spec": "(lambda: ().__class__.__base__.__subclasses__()"
                                       ".__len__())()"}, "function_spec"),
        ("integral", {"function_spec": "1j*x"}, "function_spec"),
        ("integral", {"function_spec": "x[0]", "raster_mode": "rasterized"}, "function_spec"),
        ("integral", {"function_spec": "9**9**9"}, "function_spec"),
        ("integral", {"function_spec": "x" + "**x" * 3000}, "function_spec"),
        ("integral", {"function_spec": "(-1)**0.5*x"}, "function_spec"),
        ("integral", {"function_spec": "sin(x, x)"}, "function_spec"),
    ])
    def test_config_is_checked_when_built(self, variant, params, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            ExperimentConfig(variant=variant, variant_params=params)

    def test_string_params_are_coerced(self):
        record = run_config(config("pi", trials=1000, radius="11",
                                   raster_mode="raster", sampler_mode="uniform_ideal"))
        assert record.params["radius"] == 11

    def test_config_keeps_only_its_resolved_params(self):
        given_text, given_int = config("pi", radius="50"), config("pi", radius=50)
        assert given_text == given_int
        assert repr(given_text) == repr(given_int)
        assert "variant_params" not in vars(given_text)

    @pytest.mark.parametrize("sampler_mode, drift", [
        ("uniform_ideal", [0.0, 0.0]),
        ("slime_walk", [0.0, 0.0]),
        ("slime_walk_drift", [0.3, -0.3]),
    ])
    def test_unset_drift_is_filled_by_the_sampler(self, sampler_mode, drift):
        assert config("pi", sampler_mode=sampler_mode).params["drift"] == drift
        assert config("pi", sampler_mode=sampler_mode, drift="0,0").params["drift"] == [0.0, 0.0]


class TestRegistry:
    def test_dispatch_replay_and_cli_read_the_registry(self):
        assert list(estimators._ESTIMATORS) == list(estimators.VARIANTS)
        assert all(fn is estimators._sample for fn in estimators._ESTIMATORS.values())
        replayable = {name for name, variant in estimators.VARIANTS.items() if variant.replay}
        assert replayable == {"sqrt2", "pi", "e", "zeta"}
        for name in replayable:
            replay = estimators.VARIANTS[name].replay
            assert isinstance(replay, estimators.Variant) and replay.replay is None
        [commands] = [action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        [choice] = [action for action in commands.choices["estimate"]._actions
                    if action.dest == "variant"]
        assert list(choice.choices) == list(estimators.VARIANTS)

    def test_sampled_configs_and_no_replay_run_through_the_dispatch_table(self, monkeypatch):
        seen = []
        for name, sampler in list(estimators._ESTIMATORS.items()):
            def wrapper(cfg, workers=1, sampler=sampler):
                seen.append(cfg)
                return sampler(cfg, workers=workers)
            monkeypatch.setitem(estimators._ESTIMATORS, name, wrapper)
        sampled = [config(name, trials=100) for name in estimators.VARIANTS]
        for cfg in sampled:
            assert run_config(cfg).variant == cfg.variant
        assert [id(cfg) for cfg in seen] == [id(cfg) for cfg in sampled]
        for name, counts in REPLAY_COUNTS.items():
            assert run_config(config(name, counts=counts)).variant == name
        assert len(seen) == len(sampled)

    def test_a_replay_runs_no_block(self, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("a counts replay ran a block")
        monkeypatch.setattr(estimators, "_map_blocks", no_block)
        for name, counts in REPLAY_COUNTS.items():
            record = run_config(config(name, seed=9, counts=counts))
            assert record.variant == name and record.seed is None

    def test_a_counts_config_resolves_through_its_replay_entry(self, monkeypatch):
        sentinel = estimators.Run([], lambda totals: None)
        built = []

        def build(params, trials):
            built.append((params, trials))
            return sentinel
        table = {"counts": estimators.Param("pair", item="int"),
                 "scale": estimators.Param("int", 1)}
        monkeypatch.setitem(estimators.VARIANTS, "e", dataclasses.replace(
            estimators.VARIANTS["e"], replay=estimators.Variant(table, build)))
        cfg = config("e", trials=7, counts="3,2", scale="4")
        assert cfg.model is sentinel
        assert cfg.params == {"counts": [3, 2], "scale": 4}
        assert built == [({"counts": [3, 2], "scale": 4}, 7)]
        with pytest.raises(ValueError, match="unknown parameter 'reported_decimals'"):
            config("e", counts="3,2", reported_decimals=2)

    def test_collect_pi_outcomes_without_scatter_cells_names_the_variant(self):
        for cfg in (ExperimentConfig("e"), config("pi", counts=REPLAY_COUNTS["pi"])):
            with pytest.raises(ValueError, match="'variant'"):
                collect_pi_outcomes(cfg)

    def test_only_a_sampled_pi_config_has_scatter_cells(self):
        for sampler_mode in ("uniform_ideal", "slime_walk", "slime_walk_drift"):
            assert callable(config("pi", sampler_mode=sampler_mode).model.cells)
        for name in estimators.VARIANTS:
            if name != "pi":
                assert config(name).model.cells is None
        for name, counts in REPLAY_COUNTS.items():
            replay = config(name, counts=counts)
            assert replay.model.cells is None and replay.model.jobs == []

    def test_readme_parameter_table_matches_the_registry(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Parameters\n", 1)[1].split("\n## ", 1)[0]
        table = section.split("\n\n| variant |", 1)[1].split("\n\n", 1)[0]
        rows, variant = [], None
        for line in table.splitlines()[2:]:
            cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            variant = cells[0] or variant
            rows.append((variant, *cells[1:4]))
        expected = [(variant, key) for variant, entry in estimators.VARIANTS.items()
                    for key in entry.params]
        assert [row[:2] for row in rows] == expected
        for variant, key, kind, default in rows:
            param = estimators.VARIANTS[variant].params[key]
            assert kind == (f"pair of {param.item}s" if param.kind == "pair" else param.kind)
            default = default.split(" (")[0]
            if default == "unset":
                assert param.default is None, key
            elif param.kind == "float":
                assert float(Fraction(default)) == param.default, key
            else:
                assert param.coerce(key, default) == param.default, key

    def test_readme_replay_table_matches_the_registry(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = text.split("\n| key | kind | default | bounds |\n", 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()[1:]]
        keys = [row[0].split()[0].strip("`") for row in rows]
        assert keys == ["counts", "reported_decimals", "m"]
        defaults = dict(part.split() for part in rows[1][2].split(", "))
        assert defaults == {"sqrt2": "4", "pi": "3", "e": "5", "zeta": "4"}
        for name, default in defaults.items():
            replay = estimators.VARIANTS[name].replay.params
            assert list(replay) == keys[:2] + keys[2:] * (name == "zeta")
            assert [f"pair of {param.item}s" if param.kind == "pair" else param.kind
                    for param in replay.values()] == [row[1] for row in rows[:len(replay)]]
            assert replay["reported_decimals"].default == int(default)
        assert estimators.VARIANTS["zeta"].replay.params["m"].default == int(rows[2][2])

    def test_readme_names_exist(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        owners = {name: importlib.import_module(f"blockmonte.{name}")
                  for name in ("estimators", "mechanics", "geometry", "combinatorics",
                               "numtheory", "runner", "rng", "stats", "expr", "cli")}
        owners.update(RngStream=owners["rng"].RngStream,
                      CircleRaster=owners["geometry"].CircleRaster,
                      EstimateRecord=estimators.EstimateRecord)
        named = set(re.findall(rf"`({'|'.join(owners)})\.(\w+)", text))
        assert {owner for owner, _ in named} >= {"estimators", "RngStream", "CircleRaster",
                                                 "EstimateRecord"}
        assert [f"{owner}.{name}" for owner, name in sorted(named)
                if not hasattr(owners[owner], name)] == []


class TestFromCounts:
    def test_sqrt2_line(self):
        record = run_config(config("sqrt2", counts=(57, 41)))
        assert record.estimate == pytest.approx(57 / 41, rel=0)
        assert record.params["reported_estimate"] == "1.3902"
        assert record.params["reported_error_pct"] == "1.70"

    def test_pi_line(self):
        record = run_config(config("pi", counts=(508, 619)))
        assert record.estimate == pytest.approx(4 * 508 / 619, rel=0)
        assert record.params["reported_estimate"] == "3.283"
        assert record.params["reported_error_pct"] == "4.49"
        assert record.ci_low < record.estimate < record.ci_high

    def test_e_line(self):
        record = run_config(config("e", counts=(647, 238)))
        assert record.params["reported_estimate"] == "2.71849"
        assert record.params["reported_error_pct"] == "0.00766"
        assert abs(record.estimate - E) < 3 * record.stderr

    def test_zeta_line(self):
        record = run_config(config("zeta", counts=(70, 58)))
        assert record.params["reported_estimate"] == "1.2069"
        assert record.relative_error_percent == pytest.approx(0.403)
        assert abs(record.estimate - ZETA3) < 3 * record.stderr

    def test_figure_counts_at_five_decimals(self):
        record = run_config(config("pi", counts=(33943, 43270), reported_decimals=5))
        assert record.params["reported_estimate"] == "3.13779"
        assert record.params["reported_decimals"] == 5

    def test_zero_denominator_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            run_config(config("e", counts=(100, 0)))

    def test_inside_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            run_config(config("pi", counts=(700, 619)))

    @pytest.mark.parametrize("variant, params, counts", [
        ("e", {"permutation_size": 2}, (1, 0)),
        ("sqrt2", {"leg_blocks": 1, "speed": 100}, (0, 0)),
    ])
    def test_sampling_and_replay_fail_alike_on_the_same_tally(self, variant, params, counts):
        # Seed 1's one size-2 order is the identity: no derangement.  A
        # one-block leg at speed 100 ends before the timer's first item.
        with pytest.raises(DegenerateResultError) as sampled:
            run_config(config(variant, seed=1, trials=1, **params))
        with pytest.raises(DegenerateResultError) as replayed:
            run_config(config(variant, counts=counts))
        assert ((type(replayed.value), str(replayed.value))
                == (type(sampled.value), str(sampled.value)))

    @pytest.mark.parametrize("variant, params", [
        ("sqrt2", {}),
        ("sqrt2", {"random_start_phase": True}),
        ("pi", {}),
        ("pi", {"raster_mode": "raster", "sampler_mode": "slime_walk", "radius": 6}),
        ("e", {}),
        ("e", {"permutation_size": 4}),
        ("zeta", {"m": 2}),
        ("zeta", {"m": 3, "sampler_mode": "random_tick"}),
    ])
    def test_replay_of_a_sampled_records_counts_is_float_identical(self, variant, params):
        sampled = run_config(config(variant, seed=29, trials=3000, **params))
        if variant == "sqrt2":
            counts = (sampled.params["hyp_items"], sampled.params["leg_items"])
        elif variant == "pi":
            counts = (sampled.success_count, sampled.trials_used)
        else:
            counts = (sampled.trials_used, sampled.success_count)
        replay_params = {"m": params["m"]} if variant == "zeta" else {}
        replayed = run_config(config(variant, counts=counts, **replay_params))
        fields = ("estimate", "trials_used", "success_count", "stderr", "ci_low", "ci_high",
                  "reference", "relative_error_percent")
        assert [getattr(replayed, f) for f in fields] == [getattr(sampled, f) for f in fields]

    @pytest.mark.parametrize("variant, extra", [
        ("sqrt2", {}), ("pi", {}), ("e", {}), ("zeta", {"m": 3}),
    ])
    def test_a_replay_echoes_each_count_once_and_the_decimals_it_used(self, variant, extra):
        record = run_config(config(variant, counts=REPLAY_COUNTS[variant]))
        assert list(record.params) == ["counts", "reported_decimals", *extra,
                                       "reported_estimate", "reported_error_pct"]
        assert record.params["counts"] == [int(c) for c in REPLAY_COUNTS[variant].split(",")]
        decimals = record.params["reported_decimals"]
        assert decimals == estimators.VARIANTS[variant].replay.params["reported_decimals"].default
        assert record.params["reported_estimate"] == f"{record.estimate:.{decimals}f}"
        assert {key: record.params[key] for key in extra} == extra

    @pytest.mark.parametrize("m", [2, 3])
    def test_a_zeta_replay_echoes_no_key_its_sampled_record_adds(self, m):
        sampled = run_config(config("zeta", seed=29, trials=3000, m=m))
        replayed = run_config(config("zeta", counts=(sampled.trials_used, sampled.success_count),
                                     m=m))
        added = {"value_distribution"}
        if m % 2 == 0:
            added |= {"pi_power", "pi_power_estimate", "pi_power_stderr", "pi_power_reference"}
        assert added <= set(sampled.params)
        assert not added & set(replayed.params)
        assert replayed.params["m"] == sampled.params["m"] == m

    @pytest.mark.parametrize("variant", ["sec_tan", "integral"])
    def test_unreplayable_variant_gives_one_message(self, variant):
        message = "counts replay supports sqrt2, pi, e, zeta$"
        with pytest.raises(ValueError, match=message):
            run_config(config(variant, counts="70,58"))
        with pytest.raises(ValueError, match=message):
            run_config(config(variant, counts=(70, 58)))

    def test_counts_mode_via_run_config(self):
        record = run_config(config("zeta", trials=1, counts="70,58", m="3"))
        assert record.estimate == pytest.approx(70 / 58, rel=0)


class TestSqrt2:
    def test_exact_course_reproduces_quoted_counts(self):
        # period 0.25 s and speed 4 make the leg exactly 41 periods, all in
        # exactly representable binary floats; the hypotenuse then spans
        # 57.98 periods, so the counts replay the quoted 57/41 ratio.
        record = run_config(config("sqrt2", leg_blocks=41, speed=4, period=0.25))
        assert record.params["leg_items"] == 41
        assert record.params["hyp_items"] == 57
        assert record.estimate == pytest.approx(57 / 41, rel=0)

    def test_long_leg_converges(self):
        # 10^4 periods: quantization error at most one item per count.
        record = run_config(config("sqrt2", leg_blocks=10_000, speed=2.5))
        assert abs(record.estimate - SQRT2) < 2e-4

    @pytest.mark.parametrize("leg_blocks", [10, 100, 1000, 10_000])
    def test_quantization_error_bound(self, leg_blocks):
        record = run_config(config("sqrt2", leg_blocks=leg_blocks))
        leg_time = leg_blocks / 4.317
        assert abs(record.estimate - SQRT2) <= SQRT2 * 0.4 / leg_time

    def test_degenerate_course(self):
        with pytest.raises(DegenerateCourseError):
            run_config(config("sqrt2", leg_blocks=1, speed=100.0))

    def test_random_phase_is_deterministic_per_seed(self):
        first = run_config(config("sqrt2", seed=9, random_start_phase=True))
        second = run_config(config("sqrt2", seed=9, random_start_phase=True))
        assert first == second

    def test_phase_shifts_counts_by_at_most_one(self):
        base = run_config(config("sqrt2"))
        for seed in range(10):
            phased = run_config(config("sqrt2", seed=seed, random_start_phase=True))
            assert abs(phased.params["leg_items"] - base.params["leg_items"]) <= 1
            assert abs(phased.params["hyp_items"] - base.params["hyp_items"]) <= 1


class TestPi:
    def test_uniform_ideal_exact_disc_hits_pi(self):
        record = run_config(config("pi", seed=3, trials=1_000_000))
        assert abs(record.estimate - PI) < 4 * record.stderr
        assert record.ci_low < record.estimate < record.ci_high

    def test_raster_membership_mode_runs(self):
        record = run_config(config("pi", seed=4, trials=50_000, radius=11,
                                   raster_mode="raster"))
        assert 3.0 < record.estimate < 3.3

    def test_raster_mode_builds_nothing_quadratic_in_the_radius(self):
        # The disc at r = 400 holds about 500,000 cells; a short run must
        # not pay for a table of them.
        cfg = config("pi", seed=4, trials=1_000, radius=400, raster_mode="raster")
        start = time.perf_counter()
        run_config(cfg)
        assert time.perf_counter() - start < 0.5
        tracemalloc.start()
        try:
            run_config(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_largest_radius_runs_in_both_modes(self):
        for raster_mode in ("raster", "exact_disc"):
            record = run_config(config("pi", seed=4, trials=20_000, radius=2 ** 30,
                                       raster_mode=raster_mode))
            assert abs(record.estimate - PI) < 4 * record.stderr

    def test_slime_walk_mode_runs(self):
        record = run_config(config("pi", seed=5, trials=5_000, radius=15,
                                   sampler_mode="slime_walk", raster_mode="raster"))
        assert 2.5 < record.estimate < 3.3
        assert record.success_count <= 5_000

    def test_drift_mode_biases_low(self):
        plain = run_config(config("pi", seed=6, trials=20_000, radius=20,
                                  sampler_mode="slime_walk"))
        drifted = run_config(config("pi", seed=6, trials=20_000, radius=20,
                                    sampler_mode="slime_walk_drift"))
        combined = math.hypot(plain.stderr, drifted.stderr)
        assert plain.estimate - drifted.estimate > 3 * combined

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("sampler_mode", ["slime_walk", "slime_walk_drift"])
    def test_death_cells_count_alike_in_raster_and_exact_disc(self, sampler_mode, seed):
        # a death cell is in the raster iff its center is in the exact disc
        counts = {run_config(config("pi", seed=seed, trials=3_000, radius=9,
                                    sampler_mode=sampler_mode, raster_mode=mode)).success_count
                  for mode in ("raster", "exact_disc")}
        assert len(counts) == 1

    def test_outcome_collection(self):
        xs, zs = collect_pi_outcomes(config("pi", trials=500, radius=11), limit=1000)
        assert len(xs) == len(zs) == 500
        assert all(-11 <= x <= 11 and -11 <= z <= 11 for x, z in zip(xs.tolist(), zs.tolist()))

    def test_outcome_collection_caps_at_its_default_limit(self):
        # the scatter plot of a report relies on this default for its dot cap
        xs, zs = collect_pi_outcomes(config("pi", trials=10_001, radius=11))
        assert len(xs) == len(zs) == 10_000


class TestE:
    def test_size_nine_within_four_stderr_of_ratio_target(self):
        record = run_config(config("e", seed=1, trials=1_000_000))
        target = math.factorial(9) / derangement_count(9)
        assert abs(record.estimate - target) < 4 * record.stderr

    def test_small_size_bias_is_visible(self):
        # Size 2 converges to 2!/D(2) = 2, not e: the small-n bias dominates.
        record = run_config(config("e", seed=2, trials=200_000, permutation_size=2))
        assert abs(record.estimate - 2.0) < 4 * record.stderr
        assert abs(record.estimate - E) > 10 * record.stderr

    def test_degenerate_when_no_derangements(self):
        seed = next(
            s for s in range(100)
            if dropper_rank_block(Dropper(2), derive_stream(s, StreamId("e", 0)), 1)[0] == 0)
        with pytest.raises(DegenerateSampleError):
            run_config(ExperimentConfig(variant="e", master_seed=seed, trials=1,
                                        variant_params={"permutation_size": 2}))

    def test_size_bounds(self):
        for bad in (10, 9.99, True):
            with pytest.raises(ValueError, match="permutation_size"):
                run_config(config("e", permutation_size=bad))


class TestZeta:
    def test_apery_within_four_stderr(self):
        record = run_config(config("zeta", seed=1, trials=400_000))
        assert abs(record.estimate - ZETA3) < 4 * record.stderr

    def test_even_m_reports_pi_square(self):
        record = run_config(config("zeta", seed=2, trials=400_000, m=2))
        assert record.params["pi_power"] == 2
        derived = record.params["pi_power_estimate"]
        assert derived == pytest.approx(6 * record.estimate, rel=0)
        assert abs(derived - PI ** 2) < 4 * record.params["pi_power_stderr"]

    def test_finite_universe_bias_is_visible(self):
        # With values capped at 10 the estimator converges to the exact
        # finite-universe reciprocal, not to zeta(3).
        record = run_config(config("zeta", seed=3, trials=400_000, value_bound=10))
        finite_target = 1 / float(coprime_probability_exact(3, 10))
        assert abs(record.estimate - finite_target) < 4 * record.stderr
        assert abs(finite_target - ZETA3) > 10 * record.stderr

    def test_random_tick_sampler_is_flagged(self):
        record = run_config(config("zeta", seed=4, trials=30_000,
                                   sampler_mode="random_tick"))
        assert record.params["value_distribution"] == "negative_binomial_non_uniform"
        assert record.estimate > 1.0

    def test_largest_m_runs(self):
        record = run_config(config("zeta", seed=6, trials=1_000, m=64))
        assert record.estimate == 1.0
        assert record.reference == 1.0

    def test_counts_replay_keeps_an_unbounded_m(self):
        record = run_config(config("zeta", trials=1, counts="70,58", m=str(10 ** 9)))
        assert record.reference == 1.0
        assert record.params["m"] == 10 ** 9

    def test_m_validation(self):
        for bad in (1, 3.5, True):
            with pytest.raises(ValueError, match="'m'"):
                run_config(config("zeta", m=bad))

    def test_largest_value_bound_draws_int64_values(self):
        record = run_config(config("zeta", seed=5, trials=20_000, value_bound=2 ** 63 - 1))
        assert abs(record.estimate - ZETA3) < 4 * record.stderr


def chained_int64_gcd_coprime(values):
    """Reference: the plain int64 gcd chain over the columns."""
    common = values[:, 0]
    for column in range(1, values.shape[1]):
        common = np.gcd(common, values[:, column])
    return int(np.count_nonzero(common == 1))


def gcd_block(kind, m):
    """Random rows plus edge rows of one size class.

    The rows led by 2**32 + 3 and 2**32 + 3093 are coprime, but cut to 32
    bits they read as (3, 3, ...) and (3093, 3093, ...).
    """
    rng = np.random.default_rng(m)
    small = np.vstack([rng.integers(1, 1024, (3000, m)),
                       np.ones((5, m), dtype=np.int64),
                       np.full((5, m), 1023),
                       np.resize([1023, 341], (5, m)),
                       np.resize([1023, 1022], (5, m))])
    large = np.vstack([rng.integers(1024, 2 ** 40, (3000, m)),
                       np.full((5, m), 1024),
                       np.resize([2 ** 32 + 3093, 3093], (5, m)),
                       np.resize([2 ** 31 + 2048, 2 ** 31, 1024], (5, m))])
    mixed = np.vstack([small, large,
                       np.resize([2 ** 32 + 3, 3], (5, m)),
                       np.resize([1024, 2], (5, m)),
                       np.resize([1, 2 ** 40], (5, m))])
    block = {"small": small, "large": large, "mixed": mixed}[kind].astype(np.int64)
    return rng.permutation(block)


class TestGcdKernels:
    def test_table_is_the_gcd_outer_product(self):
        side = np.arange(1024)
        assert np.array_equal(estimators._gcd_table(), np.gcd.outer(side, side))

    @pytest.mark.parametrize("kind", ["small", "large", "mixed"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_coprime_rows_match_the_int64_chain(self, m, kind, monkeypatch):
        values = gcd_block(kind, m)
        expected = chained_int64_gcd_coprime(values)
        table = estimators._gcd_table()
        assert estimators._coprime_rows(values, table) == expected
        monkeypatch.setattr(estimators, "GCD_TABLE_SIDE", 1)  # every block takes np.gcd
        assert estimators._coprime_rows(values, table) == expected

    @pytest.mark.parametrize("largest", [estimators.GCD_TABLE_SIDE - 1,
                                         estimators.GCD_TABLE_SIDE])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_coprime_rows_at_the_table_side(self, m, largest):
        rng = np.random.default_rng(m)
        values = np.vstack([rng.integers(1, largest + 1, (3000, m)),
                            np.full((1, m), largest),
                            np.resize([largest, 2], (5, m))]).astype(np.int64)
        assert values.max() == largest
        expected = chained_int64_gcd_coprime(values)
        assert estimators._coprime_rows(values, estimators._gcd_table()) == expected

    @pytest.mark.parametrize("params", [
        {"value_bound": 100},
        {"value_bound": 1024},
        {"value_bound": 10 ** 6},
        {"value_bound": 2 ** 40},
        {"sampler_mode": "random_tick"},
    ], ids=["bound_100", "bound_1024", "bound_1e6", "bound_2pow40", "random_tick"])
    def test_every_zeta_block_counts_through_coprime_rows(self, params, monkeypatch):
        cfg = config("zeta", trials=2 * estimators.BLOCK_TRIALS + 5, **params)
        unpatched = run_config(cfg)
        counted = []
        coprime_rows = estimators._coprime_rows

        def recorder(values, table):
            counted.append((len(values), coprime_rows(values, table)))
            return counted[-1][1]
        monkeypatch.setattr(estimators, "_coprime_rows", recorder)
        assert run_config(cfg) == unpatched
        assert [rows for rows, _ in counted] == [estimators.BLOCK_TRIALS] * 2 + [5]
        assert sum(coprime for _, coprime in counted) == unpatched.success_count

    def test_uniform_points_are_the_two_former_draws(self):
        count, radius = 5000, 12
        old = derive_stream(7, StreamId("pi", 0))
        xs = 0.5 + (2.0 * old.float_block(count) - 1.0) * radius
        zs = 0.5 + (2.0 * old.float_block(count) - 1.0) * radius
        points = estimators._uniform_points(derive_stream(7, StreamId("pi", 0)), count, radius)
        assert np.array_equal(points[0], xs) and np.array_equal(points[1], zs)

        inside = estimators._disc_mask(derive_stream(7, StreamId("pi", 0)), count, radius)
        assert np.array_equal(inside, (xs - 0.5) ** 2 + (zs - 0.5) ** 2 <= float(radius) ** 2)
        cells = config("pi", radius=radius).model.cells
        cx, cz = cells(derive_stream(7, StreamId("pi", 0)), count)
        assert np.array_equal(cx, np.floor(xs).astype(np.int64))
        assert np.array_equal(cz, np.floor(zs).astype(np.int64))


class TestSecTan:
    def test_trivial_sizes_are_exact(self):
        record = run_config(config("sec_tan", trials=10, max_size=1))
        assert record.estimate == 2.0
        assert record.stderr == 0.0

    def test_against_oracle_partial_sum(self):
        record = run_config(config("sec_tan", seed=5, trials=100_000))
        oracle = float(sum(Fraction(zigzag_count(n), math.factorial(n)) for n in range(10)))
        assert abs(record.estimate - oracle) < 3 * record.stderr

    def test_reference_is_the_constant(self):
        record = run_config(config("sec_tan", trials=100, max_size=3))
        assert record.reference == CONSTANTS.sec1_plus_tan1


class TestIntegral:
    def test_flat_zero_curve_is_exactly_zero(self):
        record = run_config(config("integral", function_spec="0*x", a=0, b=1))
        assert record.estimate == 0.0
        assert record.stderr == 0.0

    @pytest.mark.parametrize("raster_mode", ["continuous", "rasterized"])
    def test_a_flat_zero_curve_builds_no_block(self, raster_mode):
        assert config("integral", function_spec="0*x", raster_mode=raster_mode).model.jobs == []

    def test_no_hits_on_a_tall_box_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            run_config(config("integral", trials=100, function_spec="1/(x-0.3)"))

    @pytest.mark.parametrize("function_spec, raster_mode", [
        ("log(x)", "continuous"),  # -inf at the grid's first point, x = 0
        ("1/(x-4.5)", "rasterized"),  # a pole at one column's midpoint
    ])
    def test_function_not_finite_on_its_points_is_rejected_when_built(
            self, function_spec, raster_mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="'function_spec'"):
                config("integral", function_spec=function_spec, raster_mode=raster_mode)

    def test_pole_at_a_quadrature_node_is_named_without_a_warning(self):
        # The grid misses x = 4; the middle node of the first Kronrod rule
        # on [0, 8] does not, and the quadrature runs when the config is built.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="'function_spec': not finite at x = 4.0"):
                config("integral", trials=100, function_spec="1/(x-4)")

    def test_box_area_past_the_largest_float_is_degenerate(self):
        with pytest.raises(DegenerateRegionError, match="box area"):  # before any trial
            run_config(config("integral", trials=1000, function_spec="1e307*sin(x)", b=100))

    def test_interval_past_the_largest_float_is_degenerate(self):
        # The box (about 1.6e308) is finite; with one hit above the axis
        # and one below, estimate +- 1.96 stderr is not.
        with pytest.raises(DegenerateRegionError, match="interval"):
            run_config(config("integral", seed=0, trials=2, function_spec="1.3e306*sin(x)",
                              b=60))

    def test_linear_function(self):
        record = run_config(config("integral", seed=1, trials=1_000_000,
                                   function_spec="x", a=0, b=1))
        assert abs(record.estimate - 0.5) < 3 * record.stderr

    def test_showcase_continuous_against_antiderivative(self):
        record = run_config(config("integral", seed=2, trials=1_000_000))
        assert record.reference == pytest.approx(SHOWCASE_INTEGRAL, abs=1e-9)
        assert abs(record.estimate - SHOWCASE_INTEGRAL) < 4 * record.stderr

    def test_continuous_record_echoes_its_quadrature(self):
        record = run_config(config("integral", trials=1_000))
        assert record.params["reference_converged"] is True
        abserr = record.params["reference_abserr"]
        assert 0 < abserr < 1e-11
        assert abs(record.reference - SHOWCASE_INTEGRAL) <= abserr

    @pytest.mark.parametrize("function_spec, a, b", [
        ("x", -3, 3), ("sin(x)", -3, 3), ("x**3 - x", -2, 2),
    ])
    def test_no_relative_error_against_a_reference_zero_within_its_error(
            self, function_spec, a, b):
        # Each quadrature reference is about 1e-16, below its abserr of about 1e-13.
        record = run_config(config("integral", trials=20_000, function_spec=function_spec,
                                   a=a, b=b))
        assert 0 < abs(record.reference) <= record.params["reference_abserr"]
        assert record.relative_error_percent is None

    def test_unconverged_reference_is_flagged(self):
        record = run_config(config("integral", trials=1_000,
                                   function_spec="abs(sin(300*x))"))
        assert record.params["reference_converged"] is False
        # 763 whole arches of area 2/300, then the start of the next one
        exact = (2 * 763 + 1 - math.cos(2400 - 763 * math.pi)) / 300
        assert abs(record.reference - exact) <= record.params["reference_abserr"]

    def test_showcase_rasterized_against_column_sum(self):
        from blockmonte.geometry import rasterize_curve

        record = run_config(config("integral", seed=3, trials=1_000_000,
                                   raster_mode="rasterized"))
        f = parse_function("x**2*sin(x) + cbrt(x)")
        column_sum = rasterize_curve(f, 0, 8).signed_column_area()
        assert record.reference == float(column_sum)
        assert abs(record.estimate - column_sum) < 4 * record.stderr

    def test_negative_region_counts_subtract(self):
        record = run_config(config("integral", seed=4, trials=400_000,
                                   function_spec="-1 + 0*x", a=0, b=2))
        assert abs(record.estimate - (-2.0)) < 4 * max(record.stderr, 1e-12)

    @pytest.mark.parametrize("x", [-1.0, np.array([-1.0])])
    def test_a_value_that_is_not_a_real_number_is_named_for_scalars_and_arrays(self, x):
        with pytest.raises(ValueError, match="'function_spec': not finite at x = -1.0"):
            parse_function("x**0.5")(x)

    def test_the_function_returns_a_float_array_of_the_shape_of_x(self):
        f = parse_function("x**2*sin(x) + cbrt(x)")
        x = np.linspace(0, 8, 12).reshape(3, 4)
        assert f(x).dtype == np.float64 and f(x).shape == (3, 4)
        assert f(2.0).shape == ()
        assert f(2.0) == pytest.approx(4 * math.sin(2.0) + np.cbrt(2.0), rel=1e-15)
        assert parse_function("2")(np.arange(3)).tolist() == [2.0, 2.0, 2.0]

    def test_the_estimators_module_reexports_the_expression_parser(self):
        assert estimators.parse_function is expr.parse_function

    def test_bad_syntax_rejected(self):
        with pytest.raises(ValueError, match="function_spec"):
            run_config(config("integral", function_spec="x +* 2"))

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="function_spec"):
            run_config(config("integral", function_spec="__import__('os')"))

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError, match="'b'"):
            run_config(config("integral", a=3, b=3))


# One spec per enclosure rule: x, numbers, pi and e, unary and binary
# arithmetic, whole and other powers, // and %, and every function.
ENCLOSURE_SPECS = [
    "x", "3.5", "-2", "pi", "e", "2**3", "-x", "+x", "x + 2", "x - 2*x", "x*x", "2*x - x*x",
    "x/3", "3/x", "1/(x-4.5)", "x**2", "(x-3)**4", "x**3", "x**-2", "x**-1", "x**0", "x**0.5",
    "x**x", "x//2", "x % 3", "sin(x)", "cos(x)", "tan(x)", "arcsin(x/10)", "arccos(x/10)",
    "arctan(x)", "sinh(x)", "cosh(x)", "tanh(x)", "exp(x)", "log(x)", "log2(x)", "log10(x)",
    "sqrt(x)", "cbrt(x)", "abs(x)", "floor(x)", "ceil(x)", "x**2*sin(x) + cbrt(x)",
    "exp(-x/3)*cos(2*x)", "sqrt(x)*(1 + sin(x))", "sin(300*x)", "tan(x)**2 - 1/cos(x)",
    "arctan(log(x))",
]

# The default integrand and the other continuous integrands of the benchmark
CONTINUOUS_INTEGRANDS = [
    ("x**2*sin(x) + cbrt(x)", 0, 8),
    ("exp(-x/3)*cos(2*x)", 0, 9),
    ("sqrt(x)*(1 + sin(x))", 0, 7),
]


def _assert_encloses(f, lower, upper, xs):
    """f at each row of xs lies in that row's [lower, upper]; a row where f
    is not finite has no bound at all."""
    bound_low, bound_high = f.enclose(lower, upper)
    assert bound_low.shape == bound_high.shape == lower.shape
    for row, (least, most) in enumerate(zip(bound_low, bound_high)):
        assert np.isfinite(least) == np.isfinite(most)
        try:
            values = f(xs[row])
        except ValueError:
            assert (least, most) == (-np.inf, np.inf)
            continue
        assert (least <= values).all() and (values <= most).all(), (row, least, most)


def _points_in(lower, upper, rng, per_interval=40):
    """Both ends and random points of each [lower, upper]."""
    inner = lower[:, None] + (upper - lower)[:, None] * rng.random((len(lower), per_interval))
    return np.hstack([lower[:, None], np.clip(inner, lower[:, None], upper[:, None]),
                      upper[:, None]])


class TestEnclosure:
    @pytest.mark.parametrize("spec", ENCLOSURE_SPECS)
    @pytest.mark.parametrize("centre, scale", [(0.0, 10.0), (0.0, 1e-3), (2.0 ** 53, 1e3),
                                               (-(2.0 ** 53), 1e3), (0.0, 2.0 ** 53)])
    def test_every_value_f_computes_lies_in_its_interval(self, spec, centre, scale):
        rng = np.random.default_rng(ENCLOSURE_SPECS.index(spec))
        f = parse_function(spec)
        ends = np.sort(centre + scale * rng.uniform(-1, 1, (2, 150)), axis=0)
        # wide, narrow and single-point intervals
        widths = scale * 10.0 ** rng.uniform(-12, 0, 150)
        lower = np.concatenate([ends[0], ends[0], ends[0]])
        upper = np.concatenate([ends[1], np.minimum(ends[0] + widths, ends[1]), ends[0]])
        _assert_encloses(f, lower, upper, _points_in(lower, upper, rng))

    @pytest.mark.parametrize("spec, lower, upper", [
        ("tan(x)", math.pi / 2 - 1e-3, math.pi / 2 + 1e-3),
        ("tan(x)", -3 * math.pi / 2 - 1e-12, -3 * math.pi / 2 + 1e-12),
        ("tan(x)", 1e15, 1e15 + 4),
        ("log(x)", 0.0, 1e-300),
        ("log(x)", -1.0, 1.0),
        ("1/(x-4.5)", 4.0, 5.0),
        ("1/(x-4.5)", 4.5, 4.5),
        ("sqrt(x)", -1e-300, 1.0),
        ("arcsin(x)", 0.5, 1.0 + 1e-15),
        ("exp(x)", 700.0, 710.0),
        ("x % 3", 0.0, 1.0),
        ("2**x", 0.0, 1.0),
    ])
    def test_a_pole_an_edge_of_the_domain_or_a_rule_missing_bounds_nothing(
            self, spec, lower, upper):
        bounds = parse_function(spec).enclose(np.array([lower]), np.array([upper]))
        assert [bound.tolist() for bound in bounds] == [[-math.inf], [math.inf]]

    @pytest.mark.parametrize("spec, lower, upper", [
        ("tan(x)", math.pi / 2 - 1e-6, math.pi / 2 - 1e-9),  # beside the pole, huge
        ("log(x)", 1e-300, 1e-200),
        ("1/(x-4.5)", 4.5 + 1e-12, 5.0),
        ("sqrt(x)", 0.0, 1e-300),
    ])
    def test_beside_a_pole_the_bounds_hold_the_values(self, spec, lower, upper):
        rng = np.random.default_rng(7)
        lower, upper = np.array([lower]), np.array([upper])
        f = parse_function(spec)
        assert np.isfinite(f.enclose(lower, upper)).all()
        _assert_encloses(f, lower, upper, _points_in(lower, upper, rng, 2000))

    def test_bounds_are_tight_on_small_intervals(self):
        f = parse_function("x**2*sin(x) + cbrt(x)")
        lower = np.linspace(0, 8, 4097)
        least, most = f.enclose(lower[:-1], lower[1:])
        assert (most - least).max() < 0.2

    def test_a_tree_too_deep_to_walk_bounds_nothing(self, monkeypatch):
        def too_deep(*_):
            raise RecursionError

        f = parse_function("x + 1")
        monkeypatch.setattr(expr, "_enclosure", too_deep)
        bounds = f.enclose(np.zeros(2), np.ones(2))
        assert [bound.tolist() for bound in bounds] == [[-math.inf] * 2, [math.inf] * 2]

    @pytest.mark.parametrize("spec, a, b", CONTINUOUS_INTEGRANDS + [
        ("sin(x)", 2 ** 53 - 10, 2 ** 53),
        ("x*sin(x)", -(2 ** 53), -(2 ** 53) + 3),
        ("cos(x)/(x - 0.5)", -(2 ** 53), 2 ** 53),
        ("tan(x)", 0, 8),
    ])
    def test_each_bin_holds_f_at_the_samplers_points(self, spec, a, b):
        f = parse_function(spec)
        bands = estimators._bin_bounds(f, a, b)
        u = derive_stream(0, StreamId("enclosure-test", 0)).float_block(1 << 16)
        bins = np.arange(estimators.ENCLOSURE_BINS)
        edge_u = np.concatenate([bins, bins + 1 - 2.0 ** -40]) / estimators.ENCLOSURE_BINS
        u = np.concatenate([u, edge_u])
        xs = a + u * (b - a)
        values = f(xs)
        index = np.multiply(u, estimators.ENCLOSURE_BINS).astype(np.intp)
        assert (bands[0][index] <= values).all() and (values <= bands[1][index]).all()


class TestBandedHits:
    @pytest.mark.parametrize("spec, a, b", CONTINUOUS_INTEGRANDS)
    def test_the_counts_equal_those_of_f_on_every_point(self, spec, a, b):
        f = parse_function(spec)
        bands = estimators._bin_bounds(f, a, b)
        # the build's box: spanning 0 and f on its _EXTREMA_SAMPLES grid
        grid = f(np.linspace(a, b, estimators._EXTREMA_SAMPLES))
        y_low, y_high = min(0.0, float(grid.min())), max(0.0, float(grid.max()))
        blocks, count, undecided = 300, estimators.BLOCK_TRIALS, 0
        for index in range(blocks):
            stream = derive_stream(index, StreamId("integral", index))
            u = stream.float_block(count)
            ys = y_low + stream.float_block(count) * (y_high - y_low)
            curve = f(a + u * (b - a))
            expected = [np.count_nonzero((ys > 0) & (ys <= curve)),
                        np.count_nonzero((ys < 0) & (ys >= curve))]
            assert estimators._banded_hits(f, bands, a, b, u, ys).tolist() == expected
            bins = (u * estimators.ENCLOSURE_BINS).astype(int)
            undecided += np.count_nonzero((bands[0][bins] <= ys) & (ys <= bands[1][bins]))
        assert undecided < 0.01 * blocks * count  # f runs on few points

    @pytest.mark.parametrize("spec", ["x**2*sin(x) + cbrt(x)", "tan(x)", "exp(x)*sin(x)**3",
                                      "floor(x) - x", "x % 3"])
    def test_f_on_a_subset_computes_the_same_bits(self, spec):
        rng = np.random.default_rng(3)
        xs = 8 * rng.random(1 << 16)
        index = np.flatnonzero(rng.random(len(xs)) < 0.01)
        f = parse_function(spec)
        assert np.array_equal(f(xs)[index].view(np.int64), f(xs[index]).view(np.int64))

    def test_a_value_that_is_not_finite_is_named_as_when_f_ran_on_every_point(self):
        # nan only on (3.7, 3.7002): between grid points and off the first
        # Kronrod nodes, so the config builds; a block of 65,536 points hits it.
        spec = "1 + 0*log(abs(x - 3.7001) - 0.0001)"
        trials = estimators.BLOCK_TRIALS
        u = derive_stream(0, StreamId("integral", 0)).float_block(trials)
        with pytest.raises(ValueError) as every_point:
            parse_function(spec)(0 + u * (8 - 0))
        assert "not finite at x = 3.70" in str(every_point.value)
        with pytest.raises(ValueError) as banded:
            run_config(config("integral", seed=0, trials=trials, function_spec=spec))
        assert str(banded.value) == str(every_point.value)


ORACLE_SEC_TAN_9 = float(sum(Fraction(zigzag_count(n), math.factorial(n)) for n in range(10)))


class TestCalibration:
    @pytest.mark.parametrize("variant,params,truth", [
        ("pi", {}, PI),
        ("e", {}, E),
        ("zeta", {}, ZETA3),
        ("sec_tan", {}, ORACLE_SEC_TAN_9),
        ("integral", {}, SHOWCASE_INTEGRAL),
    ])
    def test_95_percent_interval_coverage(self, variant, params, truth):
        # Over 100 independent seeds the 95% CI must cover the estimand at
        # least 88 times (binomial slack below the nominal 95).
        covered = 0
        for seed in range(100):
            record = run_config(ExperimentConfig(
                variant=variant, master_seed=seed, trials=4000, variant_params=params))
            if record.ci_low <= truth <= record.ci_high:
                covered += 1
        assert covered >= 88

    @pytest.mark.parametrize("variant,params,truth", [
        ("pi", {}, PI),
        ("e", {}, E),
        ("zeta", {"m": 2}, PI ** 2 / 6),
    ])
    def test_mean_absolute_error_shrinks_with_trials(self, variant, params, truth):
        errors = []
        for trials in (1000, 10_000, 100_000):
            total = 0.0
            for seed in range(20):
                record = run_config(ExperimentConfig(
                    variant=variant, master_seed=seed, trials=trials, variant_params=params))
                total += abs(record.estimate - truth)
            errors.append(total / 20)
        assert errors[0] > errors[1] > errors[2]


class TestDeterminism:
    @pytest.mark.parametrize("variant,params", [
        ("pi", {}),
        ("e", {}),
        ("zeta", {"m": 2}),
        ("sec_tan", {"max_size": 5}),
        ("integral", {}),
    ])
    def test_identical_configs_identical_records(self, variant, params):
        cfg = ExperimentConfig(variant=variant, master_seed=77, trials=30_000,
                               variant_params=dict(params))
        assert run_config(cfg) == run_config(cfg)

    @pytest.mark.parametrize("variant, params", [
        ("sqrt2", {"random_start_phase": "true"}),
        ("pi", {"sampler_mode": "slime_walk_drift", "radius": "6", "raster_mode": "raster"}),
        ("e", {"permutation_size": "5"}),
        ("zeta", {"m": "2", "sampler_mode": "random_tick"}),
        ("sec_tan", {"max_size": "4"}),
        ("integral", {"raster_mode": "rasterized"}),
        ("zeta", {"counts": "70,58", "m": "4"}),
        ("integral", {}),
        ("pi", {"sampler_mode": "slime_walk", "radius": "8"}),
    ])
    def test_one_config_run_twice_keeps_its_resolved_params(self, variant, params,
                                                            monkeypatch):
        cfg = config(variant, seed=5, trials=2000, **params)
        resolved = copy.deepcopy(cfg.params)
        # the params were resolved and the devices built when the config
        # was built; running it resolves and builds nothing again
        for name in ("resolve_params", "parse_function", "gauss_kronrod", "rasterize_curve",
                     "SlimeArena", "TriangleCourse", "traversal_seconds", "HopperTimer",
                     "Dropper", "derangement_flags", "alternating_flags",
                     "RandomTickScheduler", "_gcd_table"):
            monkeypatch.setattr(estimators, name, None)
        first = run_config(cfg)
        assert cfg.params == resolved
        assert run_config(cfg) == first
        assert cfg.params == resolved
        if variant == "pi":
            collect_pi_outcomes(cfg, 100)

    def test_worker_count_does_not_change_results(self):
        cfg = config("pi", seed=11, trials=200_000)
        assert run_config(cfg, workers=1) == run_config(cfg, workers=4)
        cfg_e = config("e", seed=11, trials=200_000)
        assert run_config(cfg_e, workers=1) == run_config(cfg_e, workers=3)


class TestWorkerPool:
    """The pool is clamped to min(workers, cores, blocks); a stand-in pool
    records the size asked for, so no large thread count is ever started."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("workers, cpus, blocks, expected", [
        (10 ** 6, 2, 5, [2]),     # cores bound a huge request
        (64, 128, 3, [3]),        # blocks bound it on a big machine
        (3, 8, 5, [3]),           # a modest request is kept as asked
        (10 ** 6, None, 5, []),   # unknown core count: run serially
        (8, 8, 1, []),            # one block: no pool at all
    ])
    def test_pool_size_is_clamped(self, pool_sizes, monkeypatch, workers, cpus, blocks, expected):
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: cpus)
        trials = (blocks - 1) * estimators.BLOCK_TRIALS + 7
        totals = estimators._map_blocks(0, [("clamp", trials, lambda stream, count: count)],
                                        workers)
        assert totals == [trials]
        assert pool_sizes == expected

    def test_clamped_pool_keeps_the_record(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: 2)
        cfg = config("e", seed=5, trials=3 * estimators.BLOCK_TRIALS)
        assert run_config(cfg, workers=10 ** 6) == run_config(cfg, workers=1)
        assert pool_sizes == [2]

    def test_sec_tan_sizes_share_one_pool(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: 2)
        cfg = config("sec_tan", seed=6, trials=estimators.BLOCK_TRIALS + 9)
        assert run_config(cfg, workers=2) == run_config(cfg, workers=1)
        assert pool_sizes == [2]


class TestExecutor:
    """``_map_blocks`` is the one executor: it runs and folds blocks a
    bounded chunk at a time, and every sampler draws through it."""

    def test_blocks_run_one_bounded_chunk_at_a_time(self, monkeypatch):
        lengths = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                lengths.append(len(items))
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: 2)
        blocks = 2 * estimators.CHUNK_BLOCKS * 2 + 5
        trials = blocks * estimators.BLOCK_TRIALS
        totals = estimators._map_blocks(0, [("chunks", trials, lambda stream, count: count)], 2)
        assert totals == [trials]
        assert sum(lengths) == blocks
        assert max(lengths) <= estimators.CHUNK_BLOCKS * 2

    @pytest.mark.parametrize("variant, params", [
        ("sqrt2", {}),
        ("sqrt2", {"random_start_phase": True}),
        *[("pi", {"sampler_mode": sampler, "raster_mode": raster})
          for sampler in ("uniform_ideal", "slime_walk", "slime_walk_drift")
          for raster in ("raster", "exact_disc")],
        ("e", {}),
        ("zeta", {"value_bound": 10 ** 6}),
        ("zeta", {"value_bound": 100}),
        ("zeta", {"sampler_mode": "random_tick"}),
        ("sec_tan", {"max_size": 4}),
        ("integral", {"raster_mode": "continuous"}),
        ("integral", {"raster_mode": "rasterized"}),
    ])
    def test_every_sampler_draws_through_the_executor(self, variant, params, monkeypatch):
        labels, mapped, derived = [], [], []
        map_blocks, derive = estimators._map_blocks, estimators.derive_stream

        def recording_map_blocks(seed, jobs, workers=1):
            labels.extend(label for label, _, _ in jobs)
            mapped.extend(jobs)
            return map_blocks(seed, jobs, workers)

        def recording_derive(seed, stream_id):
            derived.append(stream_id.experiment_label)
            return derive(seed, stream_id)

        monkeypatch.setattr(estimators, "_map_blocks", recording_map_blocks)
        monkeypatch.setattr(estimators, "derive_stream", recording_derive)
        run = config(variant, seed=3, trials=2000, **params)
        run_config(run)
        assert labels
        assert derived and set(derived) <= set(labels)
        # the build picked every job; the sampler only maps them
        assert all(any(job is built for built in run.model.jobs) for job in mapped)
