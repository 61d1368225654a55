import csv
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blockmonte
from blockmonte import cli, estimators, runner
from blockmonte.estimators import ExperimentConfig, run_config
from blockmonte.geometry import rasterize_circle
from blockmonte.runner import (
    RunManifest,
    emit_scatter,
    load_manifest,
    report_row,
    run_experiment,
)


def child_env() -> dict:
    """The environment of a child interpreter that imports this blockmonte,
    with no default seed."""
    src = str(Path(blockmonte.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop(cli.SEED_ENV_VAR, None)
    return env


def write_manifest(path, body):
    path.write_text(body, encoding="utf-8")
    return path


BASIC_MANIFEST = """\
[run]
run_id = demo
output_dir = {out}
formats = jsonl,csv,txt

[pi_small]
variant = pi
trials = 10000
seed = 7

[e_small]
variant = e
trials = 8000
seed = 3
"""


# 121 characters, 241 bytes in UTF-8: one byte past the run id limit
LONG_RUN_ID = "é" * 120 + "a"


def no_trial(*args, **kwargs):
    raise AssertionError("a trial ran")


class TestManifest:
    def test_load_parses_sections(self, tmp_path):
        path = write_manifest(tmp_path / "demo.ini", BASIC_MANIFEST.format(out=tmp_path / "out"))
        manifest = load_manifest(path)
        assert manifest.run_id == "demo"
        assert [c.variant for c in manifest.configs] == ["pi", "e"]
        assert manifest.configs[0].master_seed == 7
        assert manifest.formats == ("jsonl", "csv", "txt")

    def test_missing_variant_is_named(self, tmp_path):
        path = write_manifest(tmp_path / "bad.ini", "[exp]\ntrials = 10\n")
        with pytest.raises(ValueError, match="variant"):
            load_manifest(path)

    def test_default_seed_applies(self, tmp_path):
        path = write_manifest(tmp_path / "d.ini", "[exp]\nvariant = pi\ntrials = 100\n")
        manifest = load_manifest(path, default_seed=lambda: 99)
        assert manifest.configs[0].master_seed == 99

    def test_run_id_must_be_non_empty(self):
        with pytest.raises(ValueError, match="run_id"):
            RunManifest(run_id="", configs=[], output_dir="x")

    @pytest.mark.parametrize("run_id", [".", "..", "a/b", "/abs", "a\0b"])
    def test_run_id_must_be_a_file_name(self, run_id):
        with pytest.raises(ValueError, match="'run_id'"):
            RunManifest(run_id=run_id, configs=[], output_dir="x")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="formats"):
            RunManifest(run_id="r", configs=[], output_dir="x", formats=("pdf",))


class TestReports:
    def run_demo(self, tmp_path, name):
        out = tmp_path / name
        path = write_manifest(tmp_path / f"{name}.ini", BASIC_MANIFEST.format(out=out))
        records = run_experiment(load_manifest(path))
        return out, records

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, _ = self.run_demo(tmp_path, "first")
        out2, _ = self.run_demo(tmp_path, "second")
        for suffix in (".jsonl", ".csv", ".txt"):
            assert (out1 / "demo").with_suffix(suffix).read_bytes() == \
                   (out2 / "demo").with_suffix(suffix).read_bytes()

    def test_jsonl_round_trip(self, tmp_path):
        out, records = self.run_demo(tmp_path, "rt")
        lines = (out / "demo.jsonl").read_text().splitlines()
        assert len(lines) == len(records)
        for line, record in zip(lines, records):
            row = json.loads(line)
            assert row["wall_ms"] is None
            assert row == report_row("demo", record)

    def test_csv_and_jsonl_numbers_agree_at_six_digits(self, tmp_path):
        out, _ = self.run_demo(tmp_path, "agree")
        rows = [json.loads(line) for line in (out / "demo.jsonl").read_text().splitlines()]
        with open(out / "demo.csv", newline="") as handle:
            csv_rows = list(csv.DictReader(handle))
        numeric = ("estimate", "stderr", "ci_low", "ci_high", "reference", "rel_error_pct")

        def six_sig(v):
            return float(f"{v:.6g}")

        for json_row, csv_row in zip(rows, csv_rows):
            for column in numeric:
                assert six_sig(float(csv_row[column])) == six_sig(json_row[column])

    def test_counts_only_manifest(self, tmp_path):
        body = ("[run]\nrun_id = counts\noutput_dir = {out}\nformats = jsonl\n\n"
                "[apery]\nvariant = zeta\ntrials = 1\ncounts = 70,58\nm = 3\n").format(
                    out=tmp_path / "out")
        records = run_experiment(load_manifest(write_manifest(tmp_path / "c.ini", body)))
        line = (tmp_path / "out" / "counts.jsonl").read_text().splitlines()[0]
        assert round(json.loads(line)["estimate"], 4) == 1.2069
        assert records[0].params["reported_estimate"] == "1.2069"

    def test_degenerate_config_marks_record_failed(self, tmp_path):
        body = ("[run]\nrun_id = bad\noutput_dir = {out}\nformats = jsonl\n\n"
                "[course]\nvariant = sqrt2\ntrials = 1\nleg_blocks = 1\nspeed = 100\n"
                "\n[fine]\nvariant = pi\ntrials = 1000\n").format(out=tmp_path / "out")
        records = run_experiment(load_manifest(write_manifest(tmp_path / "b.ini", body)))
        assert records[0].estimate is None
        assert "failed" in records[0].params
        assert records[1].estimate is not None

    @pytest.mark.parametrize("section, drawn", [
        ("variant = sqrt2\ntrials = 5000\nleg_blocks = 1\nspeed = 100", 1),
        ("variant = integral\ntrials = 700\nfunction_spec = 1e307*sin(x)\nb = 100", 700),
    ], ids=["one-read", "no-jobs"])
    def test_a_failed_row_reports_the_trials_its_jobs_drew(self, tmp_path, section, drawn):
        # sqrt2 reads its timer once whatever trials says, as its
        # successful rows report; a config that runs no job keeps its trials.
        body = ("[run]\nrun_id = bad\noutput_dir = {out}\nformats = jsonl\n\n"
                "[only]\n{section}\n").format(out=tmp_path / "out", section=section)
        [record] = run_experiment(load_manifest(write_manifest(tmp_path / "f.ini", body)))
        assert record.estimate is None and "failed" in record.params
        assert record.trials_used == drawn
        row = json.loads((tmp_path / "out" / "bad.jsonl").read_text())
        assert row["trials"] == drawn

    def test_a_failed_replay_row_reports_no_seed(self, tmp_path, capsys):
        # A replay draws nothing, so like a successful replay row it has no seed.
        out = tmp_path / "out"
        assert cli.main(["estimate", "pi", "--from-counts", "0,0", "--seed", "9",
                         "--out", str(out)]) == 1
        row = json.loads((out / "pi.jsonl").read_text())
        assert row["estimate"] is None and "failed" in row["params"]
        assert row["seed"] is None and row["trials"] == 10_000

    def test_failed_row_echoes_the_resolved_params(self, tmp_path):
        body = ("[run]\nrun_id = bad\noutput_dir = {out}\nformats = jsonl\n\n"
                "[e]\nvariant = e\nseed = 1\ntrials = 1\npermutation_size = 2\n").format(
                    out=tmp_path / "out")
        run_experiment(load_manifest(write_manifest(tmp_path / "e.ini", body)))
        row = json.loads((tmp_path / "out" / "bad.jsonl").read_text())
        assert row["params"] == {
            "permutation_size": 2,
            "failed": "no derangements observed; cannot form trials/derangements"}

    def test_svg_written_for_pi_configs(self, tmp_path):
        out = tmp_path / "sv"
        manifest = RunManifest(
            run_id="svgdemo",
            configs=[ExperimentConfig(variant="pi", master_seed=1, trials=500,
                                      variant_params={"radius": 11})],
            output_dir=out, formats=("jsonl", "svg"))
        run_experiment(manifest)
        svg = (out / "svgdemo_00_pi.svg").read_text()
        assert svg.count("<circle") == 500


def dot_by_dot_scatter(outcomes, raster) -> str:
    """The scatter SVG rendered one dot at a time, each dot's membership
    looked up in the raster's cell set."""
    r = raster.radius
    scale = max(4, 600 // (2 * r + 3))
    size = (2 * r + 3) * scale

    def sx(world_x):
        return (world_x + r + 1) * scale

    def sy(world_z):
        return (r + 2 - world_z) * scale

    inside = sum(1 for cell in outcomes if cell in raster)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 2 * scale}" '
        f'viewBox="0 0 {size} {size + 2 * scale}">',
        f'<rect x="0" y="0" width="{size}" height="{size + 2 * scale}" fill="white"/>',
        f'<rect x="{sx(-r)}" y="{sy(r + 1)}" width="{(2 * r + 1) * scale}" '
        f'height="{(2 * r + 1) * scale}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for x, z in sorted(raster.outline_cells()):
        lines.append(f'<rect x="{sx(x)}" y="{sy(z + 1)}" width="{scale}" '
                     f'height="{scale}" fill="#bbbbbb"/>')
    for x, z in outcomes:
        color = "#1f77b4" if (x, z) in raster else "#d62728"
        lines.append(f'<circle cx="{sx(x + 0.5):g}" cy="{sy(z + 0.5):g}" '
                     f'r="{max(1.0, 0.3 * scale):.2f}" fill="{color}"/>')
    value = f"{4.0 * inside / len(outcomes):.5f}"
    while value.endswith("0") and len(value.split(".")[1]) > 3:
        value = value[:-1]
    lines.append(f'<text x="{scale}" y="{size + scale}" font-family="monospace" '
                 f'font-size="{max(10, scale)}">4 · {inside}/{len(outcomes)} = {value}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cell_arrays(cells):
    """The x and z int64 rows ``emit_scatter`` takes, from (x, z) cells."""
    return tuple(np.array(cells, dtype=np.int64).reshape(-1, 2).T)


class TestScatter:
    @pytest.mark.parametrize("radius", [5, 20])
    def test_bytes_match_a_dot_by_dot_rendering(self, tmp_path, radius):
        # Repeated cells, cells on the square's edges +-r and its corners,
        # and a spread of random cells in and around the disc.
        r = radius
        edges = [(r, 0), (-r, 0), (0, r), (0, -r), (r, r), (-r, -r), (r, -r), (-r, r)]
        rng = np.random.default_rng(radius)
        spread = [(int(x), int(z)) for x, z in rng.integers(-r, r + 1, size=(400, 2))]
        outcomes = edges + spread + edges[::-1] + spread[:50] + [(0, 0)] * 3
        path = tmp_path / "dots.svg"
        emit_scatter(*cell_arrays(outcomes), rasterize_circle(r), path)
        assert path.read_bytes() == dot_by_dot_scatter(outcomes, rasterize_circle(r)).encode("utf-8")

    def test_single_dot_caption(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_scatter(*cell_arrays([(0, 0)]), rasterize_circle(11), path)
        svg = path.read_text()
        assert svg.count("<circle") == 1
        assert "4 · 1/1 = 4.000" in svg

    def test_uniform_dot_field_colors_match_area(self, tmp_path):
        from blockmonte.estimators import collect_pi_outcomes

        cfg = ExperimentConfig(variant="pi", master_seed=12, trials=10_000,
                               variant_params={"radius": 50})
        xs, zs = collect_pi_outcomes(cfg, 10_000)
        path = tmp_path / "field.svg"
        emit_scatter(xs, zs, rasterize_circle(50), path)
        inside = path.read_text().count('fill="#1f77b4"')
        expected = math.pi / 4 * 10_000
        assert abs(inside - expected) < 3 * math.sqrt(10_000 * 0.785 * 0.215)

    def test_empty_outcomes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_scatter(*cell_arrays([]), rasterize_circle(5), tmp_path / "no.svg")


class TestCommandLine:
    def test_estimate_from_counts(self, capsys):
        assert cli.main(["estimate", "pi", "--from-counts", "508,619"]) == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert row["params"]["reported_estimate"] == "3.283"
        assert row["params"]["reported_error_pct"] == "4.49"

    def test_estimate_writes_reports(self, tmp_path, capsys):
        code = cli.main(["estimate", "pi", "--seed", "4", "--trials", "2000",
                         "--out", str(tmp_path), "--format", "jsonl,csv"])
        assert code == 0
        assert (tmp_path / "pi.jsonl").exists()
        assert (tmp_path / "pi.csv").exists()

    def test_zero_trials_exits_two_and_names_field(self, capsys):
        assert cli.main(["estimate", "pi", "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_exits_two_with_or_without_out(self, tmp_path, capsys, workers):
        base = ["estimate", "pi", "--trials", "100", "--workers", workers]
        assert cli.main(base) == 2
        assert "'workers'" in capsys.readouterr().err
        assert cli.main(base + ["--out", str(tmp_path)]) == 2
        assert "'workers'" in capsys.readouterr().err

    def test_unknown_param_exits_two(self, capsys):
        assert cli.main(["estimate", "pi", "--param", "wobble=1"]) == 2
        assert "wobble" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["pi", "--param", "sampler_mode=slime_walk_drift", "--param", "drift=nan,0"], "drift"),
        (["sqrt2", "--param", "period=inf"], "period"),
        (["e", "--from-counts", "647,238", "--param", "m=5"], "m"),
        (["pi", "--from-counts", "508,619", "--param", "reported_decimals=-1"],
         "reported_decimals"),
        (["pi", "--from-counts", "508,619", "--param", "reported_decimals=x"],
         "reported_decimals"),
        (["sqrt2", "--param", "speed=1e-300"], "speed"),
        (["zeta", "--param", "value_bound=1180591620717411303424"], "value_bound"),
        (["zeta", "--param", "m=65"], "m"),
        (["pi", "--param", "sampler_mode=slime_walk", "--param", "kill_probability=1e-4"],
         "kill_probability"),
        (["pi", "--param", "radius=1073741825"], "radius"),
        (["zeta", "--param", "sampler_mode=random_tick", "--param", "growth_prob=1e-300"],
         "growth_prob"),
        (["zeta", "--param", "sampler_mode=random_tick", "--param", "speed_multiplier=2000"],
         "speed_multiplier"),
        (["integral", "--param", "raster_mode=rasterized", "--param", "b=1000000000"], "b"),
        (["pi", "--from-counts", "508,619", "--param", "reported_decimals=100000"],
         "reported_decimals"),
        (["pi", "--from-counts", "700,619"], "counts"),
        (["e", "--from-counts", "5,10"], "counts"),
        (["integral", "--param", "function_spec=1/(x-4.5)", "--param", "raster_mode=rasterized"],
         "function_spec"),
        (["integral", "--param",
          "function_spec=(lambda: ().__class__.__base__.__subclasses__().__len__())()"],
         "function_spec"),
        (["integral", "--param", "function_spec=1j*x"], "function_spec"),
        (["integral", "--param", "function_spec=x[0]", "--param", "raster_mode=rasterized"],
         "function_spec"),
        (["integral", "--param", "function_spec=9**9**9"], "function_spec"),
        (["integral", "--param", "a=-1" + "0" * 400], "a"),
        (["pi", "--from-counts", "5,1" + "0" * 400], "counts"),
        (["e", "--from-counts", "1" + "0" * 400 + ",3"], "counts"),
    ])
    def test_bad_param_exits_two_and_names_field(self, capsys, argv, field):
        assert cli.main(["estimate", *argv, "--trials", "100"]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_counts_replay_with_svg_skips_the_plot(self, tmp_path, capsys):
        code = cli.main(["estimate", "pi", "--from-counts", "508,619",
                         "--out", str(tmp_path), "--format", "jsonl,svg"])
        assert code == 0
        assert [path.name for path in tmp_path.iterdir()] == ["pi.jsonl"]

    def test_svg_past_the_scatter_radius_limit_exits_two_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "run_config", None)  # any trial would fail loudly
        code = cli.main(["estimate", "pi", "--trials", "100", "--out", str(tmp_path),
                         "--param", f"radius={runner.SCATTER_RADIUS_LIMIT + 1}",
                         "--param", "raster_mode=raster", "--format", "jsonl,svg"])
        assert code == 2
        assert "'radius'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("formats", ["bogus", "jsonl"])
    def test_format_without_out_exits_two(self, capsys, formats):
        assert cli.main(["estimate", "pi", "--trials", "100", "--format", formats]) == 2
        captured = capsys.readouterr()
        assert "'format'" in captured.err
        assert captured.out == ""

    def test_bad_format_with_out_exits_two_before_sampling(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(runner, "run_config", None)  # any trial would fail loudly
        code = cli.main(["estimate", "pi", "--trials", "100", "--out", str(tmp_path),
                         "--format", "bogus"])
        assert code == 2
        assert "'formats'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_exits_one(self, capsys):
        code = cli.main(["estimate", "sqrt2", "--param", "leg_blocks=1",
                         "--param", "speed=100"])
        assert code == 1
        assert "degenerate" in capsys.readouterr().err

    def test_integral_box_past_the_largest_float_exits_one(self, capsys):
        code = cli.main(["estimate", "integral", "--trials", "1000",
                         "--param", "function_spec=1e307*sin(x)", "--param", "b=100"])
        captured = capsys.readouterr()
        assert code == 1
        assert "degenerate" in captured.err
        assert "Infinity" not in captured.out and "NaN" not in captured.out

    def test_integral_with_no_hits_exits_one(self, capsys):
        # The pole stretches the sampling box until no point lands between
        # the curve and the axis; zero hits must not read as a zero stderr.
        code = cli.main(["estimate", "integral", "--trials", "100",
                         "--param", "function_spec=1/(x-0.3)"])
        captured = capsys.readouterr()
        assert code == 1
        assert "degenerate" in captured.err
        assert captured.out == ""

    def test_env_seed_default_and_flag_override(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        cli.main(["estimate", "pi", "--trials", "100"])
        assert json.loads(capsys.readouterr().out.strip())["seed"] == 123
        cli.main(["estimate", "pi", "--trials", "100", "--seed", "5"])
        assert json.loads(capsys.readouterr().out.strip())["seed"] == 5

    def test_bad_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        assert cli.main(["estimate", "pi", "--trials", "100"]) == 2

    @pytest.mark.parametrize("raw", ["-1", str(1 << 64)])
    def test_an_out_of_range_env_seed_names_the_variable(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(cli.SEED_ENV_VAR, raw)
        monkeypatch.setattr(cli, "run_config", no_trial)
        assert cli.main(["estimate", "pi", "--trials", "100"]) == 2
        assert "'BLOCKMONTE_SEED'" in capsys.readouterr().err

    def test_a_counts_replay_reads_no_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        assert cli.main(["estimate", "e", "--from-counts", "647,238"]) == 0
        assert json.loads(capsys.readouterr().out.strip())["seed"] is None

    def test_a_manifest_that_sets_every_seed_reads_no_env_seed(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        body = ("[run]\nrun_id = seeded\noutput_dir = {out}\n\n"
                "[e]\nvariant = e\nseed = 3\ntrials = 500\n\n"
                "[replay]\nvariant = e\ncounts = 647,238\n").format(out=tmp_path / "out")
        assert cli.main(["run", str(write_manifest(tmp_path / "s.ini", body))]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["seed"] for row in rows] == [3, None]

    def test_a_manifest_section_without_seed_checks_the_env_seed(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        monkeypatch.setattr(runner, "run_config", no_trial)
        body = ("[run]\nrun_id = unseeded\noutput_dir = {out}\n\n"
                "[e]\nvariant = e\ntrials = 500\n").format(out=tmp_path / "out")
        assert cli.main(["run", str(write_manifest(tmp_path / "u.ini", body))]) == 2
        assert "'BLOCKMONTE_SEED'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, key", [
        (["pi", "--param", "radius=5", "--param", "radius=7"], "radius"),
        (["e", "--from-counts", "647,238", "--param", "counts=1,1"], "counts"),
    ], ids=["repeated_param", "from_counts_and_counts_param"])
    def test_a_key_given_twice_exits_two_before_any_trial(self, capsys, monkeypatch, argv, key):
        monkeypatch.setattr(cli, "run_config", no_trial)
        assert cli.main(["estimate", *argv, "--trials", "100"]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_run_command(self, tmp_path, capsys):
        path = write_manifest(tmp_path / "m.ini", BASIC_MANIFEST.format(out=tmp_path / "o"))
        assert cli.main(["run", str(path)]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 2

    def test_run_manifest_with_zero_trials_exits_two(self, tmp_path, capsys):
        path = write_manifest(tmp_path / "z.ini",
                              "[exp]\nvariant = pi\ntrials = 0\n")
        assert cli.main(["run", str(path)]) == 2
        assert "trials" in capsys.readouterr().err

    def test_a_percent_in_a_manifest_value_is_read_literally(self, tmp_path, capsys):
        path = write_manifest(tmp_path / "mod.ini", f"[run]\noutput_dir = {tmp_path / 'o'}\n\n"
                              "[modulo]\nvariant = integral\nseed = 4\ntrials = 2000\n"
                              "function_spec = x % 3 + 1\n")
        assert cli.main(["run", str(path)]) == 0
        row = json.loads(capsys.readouterr().out)
        config = ExperimentConfig("integral", master_seed=4, trials=2000,
                                  variant_params={"function_spec": "x % 3 + 1"})
        assert row == report_row("mod", run_config(config))

    def test_a_manifest_error_names_its_section(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "run_config", None)  # any trial would fail loudly
        path = write_manifest(tmp_path / "m.ini", "[first]\nvariant = pi\ntrials = 100\n\n"
                              "[second]\nvariant = pi\nradius = 0\n")
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[second]" in err and "'radius'" in err

    @pytest.mark.parametrize("last, field", [
        ("variant = pi\nwobble = 1", "wobble"),
        ("variant = zeta\nm = 65", "m"),
        ("variant = integral\nfunction_spec = sinc(x)", "function_spec"),
        ("variant = pi\nRadius = 7", "Radius"),  # keys keep their case, as --param's do
    ])
    def test_bad_last_section_exits_two_before_the_first_trial(
            self, tmp_path, capsys, monkeypatch, last, field):
        monkeypatch.setattr(runner, "run_config", None)  # any trial would fail loudly
        out = tmp_path / "out"
        path = write_manifest(tmp_path / "m.ini", f"[run]\noutput_dir = {out}\n\n"
                              f"[first]\nvariant = zeta\ntrials = 3000000\n\n[last]\n{last}\n")
        assert cli.main(["run", str(path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("last, field", [
        ("variant = pi\nsampler_mode = slime_walk\nstep_cells = 100\nradius = 1", "step_cells"),
        ("variant = integral\nfunction_spec = log(x)", "function_spec"),
    ])
    def test_device_rules_of_the_last_section_run_before_the_first_trial(
            self, tmp_path, capsys, monkeypatch, last, field):
        monkeypatch.setattr(runner, "run_config", None)  # any trial would fail loudly
        out = tmp_path / "out"
        path = write_manifest(tmp_path / "m.ini", f"[run]\noutput_dir = {out}\n\n"
                              f"[first]\nvariant = e\ntrials = 200000\n\n[last]\n{last}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # log(0) must not warn
            assert cli.main(["run", str(path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_pole_at_a_quadrature_node_exits_two_before_the_first_trial(
            self, tmp_path, capsys, monkeypatch):
        # The 10,000-point grid misses x = 4; the first Kronrod rule on
        # [0, 8] does not, and the quadrature runs when the manifest loads.
        calls = []
        monkeypatch.setitem(estimators._ESTIMATORS, "e", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        path = write_manifest(tmp_path / "m.ini", f"[run]\noutput_dir = {out}\n\n"
                              "[first]\nvariant = e\ntrials = 200000\n\n"
                              "[last]\nvariant = integral\nfunction_spec = 1/(x-4)\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'function_spec'" in err
        assert "Traceback" not in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("spec, reference", [
        ("4503599627370497+0*x", 4503599627370497.0),
        ("0.49999999999999994+0*x", 0.0),
    ])
    def test_rasterized_reference_rounds_from_the_exact_fraction(self, capsys, spec, reference):
        # Adding 0.5 before the floor rounded these columns to 4503599627370498 and 1.
        code = cli.main(["estimate", "integral", "--param", "raster_mode=rasterized",
                         "--param", f"function_spec={spec}", "--param", "b=1"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["reference"] == reference
        assert row["estimate"] == reference

    def test_unknown_run_key_exits_two_and_names_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "run_config", None)
        out = tmp_path / "out"
        # `Workers` is not `workers`: keys keep their case, as --param's do.
        for keys, named in [("worker = 0\nformat = svg\n", "worker"), ("Workers = 2\n", "Workers")]:
            path = write_manifest(tmp_path / "m.ini", f"[run]\noutput_dir = {out}\n{keys}\n"
                                  "[pi]\nvariant = pi\n")
            assert cli.main(["run", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"'{named}'" in err
            assert all(key in err for key in runner.RUN_KEYS)
            assert not out.exists()

    @pytest.mark.parametrize("run_section", ["[run]\nrun_id = d\n\n", ""],
                             ids=["with-run", "without-run"])
    def test_a_default_section_exits_two_before_the_first_trial(
            self, tmp_path, capsys, monkeypatch, run_section):
        # configparser would merge [DEFAULT] keys into every section, [run] too.
        monkeypatch.setattr(runner, "run_config", no_trial)
        monkeypatch.chdir(tmp_path)
        path = write_manifest(tmp_path / "m.ini", f"[DEFAULT]\ntrials = 500\n\n{run_section}"
                              "[pi]\nvariant = pi\n")
        assert cli.main(["run", str(path)]) == 2
        assert "[DEFAULT]" in capsys.readouterr().err
        assert [child.name for child in tmp_path.iterdir()] == ["m.ini"]

    def test_report_files_keep_every_dot_of_the_run_id(self, tmp_path, capsys):
        code = cli.main(["estimate", "pi", "--trials", "2000", "--run-id", "v1.2",
                         "--out", str(tmp_path), "--format", "jsonl,csv,svg,txt"])
        assert code == 0
        assert sorted(child.name for child in tmp_path.iterdir()) == [
            "v1.2.csv", "v1.2.jsonl", "v1.2.txt", "v1.2_00_pi.svg"]

    def test_a_manifest_named_with_a_dot_names_its_files_by_its_run_id(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_manifest(tmp_path / "runs.v2.ini", f"[run]\noutput_dir = {out}\n"
                              "formats = jsonl,csv\n\n[e]\nvariant = e\ntrials = 100\n")
        assert cli.main(["run", str(path)]) == 0
        assert sorted(child.name for child in out.iterdir()) == ["runs.v2.csv", "runs.v2.jsonl"]
        row = json.loads((out / "runs.v2.jsonl").read_text(encoding="utf-8"))
        assert row["run_id"] == "runs.v2"

    @pytest.mark.parametrize("run_id", ["a/b", ".", "..", "",
                                        pytest.param(LONG_RUN_ID, id="241-bytes")])
    def test_a_run_id_that_is_not_a_file_name_exits_two_before_the_first_trial(
            self, tmp_path, capsys, monkeypatch, run_id):
        monkeypatch.setattr(runner, "run_config", no_trial)
        out = tmp_path / "out"
        code = cli.main(["estimate", "pi", "--trials", "100", "--run-id", run_id,
                         "--out", str(out)])
        assert code == 2
        assert "'run_id'" in capsys.readouterr().err
        path = write_manifest(tmp_path / "m.ini", f"[run]\nrun_id = {run_id}\n"
                              f"output_dir = {out}\n\n[pi]\nvariant = pi\n")
        assert cli.main(["run", str(path)]) == 2
        assert "'run_id'" in capsys.readouterr().err
        assert [child.name for child in tmp_path.iterdir()] == ["m.ini"]

    @pytest.mark.parametrize("run_id", ["", ".", "..", "a/b", "a\0b",
                                        pytest.param(LONG_RUN_ID, id="241-bytes")])
    def test_a_run_id_that_is_not_a_file_name_exits_two_without_out(
            self, capsys, monkeypatch, run_id):
        monkeypatch.setattr(runner, "run_config", no_trial)
        monkeypatch.setattr(cli, "run_config", no_trial)
        assert cli.main(["estimate", "e", "--trials", "100", "--run-id", run_id]) == 2
        captured = capsys.readouterr()
        assert "'run_id'" in captured.err
        assert captured.out == ""

    def test_a_run_id_of_240_bytes_names_every_report(self, tmp_path, capsys):
        run_id = LONG_RUN_ID[:-1]
        assert cli.main(["estimate", "pi", "--trials", "2000", "--run-id", run_id,
                         "--out", str(tmp_path), "--format", "jsonl,svg"]) == 0
        assert sorted(child.name for child in tmp_path.iterdir()) == [
            f"{run_id}.jsonl", f"{run_id}_00_pi.svg"]

    def test_a_workers_override_is_checked_before_the_output_dir_is_made(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "run_config", no_trial)
        out = tmp_path / "out"
        path = write_manifest(tmp_path / "m.ini", f"[run]\noutput_dir = {out}\n\n"
                              "[pi]\nvariant = pi\n")
        assert cli.main(["run", str(path), "--workers", "0"]) == 2
        assert "'workers'" in capsys.readouterr().err
        assert not out.exists()

    def test_an_output_dir_that_is_a_file_exits_one_before_the_first_trial(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "run_config", no_trial)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert cli.main(["estimate", "pi", "--trials", "100", "--out", str(taken)]) == 1
        assert "filesystem error" in capsys.readouterr().err
        path = write_manifest(tmp_path / "m.ini", f"[run]\noutput_dir = {taken}\n\n"
                              "[pi]\nvariant = pi\n")
        assert cli.main(["run", str(path)]) == 1
        assert "filesystem error" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == ""

    def test_raster_circle_text(self, capsys):
        assert cli.main(["raster", "circle", "--radius", "2", "--txt"]) == 0
        assert capsys.readouterr().out == "..#..\n.###.\n#####\n.###.\n..#..\n"

    def test_raster_circle_past_the_radius_limit_exits_two_before_building(
            self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "rasterize_circle", None)  # any raster would fail loudly
        radius = str(runner.SCATTER_RADIUS_LIMIT + 1)
        assert cli.main(["raster", "circle", "--radius", radius]) == 2
        assert "'radius'" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["0", "-5"])
    def test_raster_circle_below_one_exits_two_naming_radius(self, capsys, monkeypatch, radius):
        monkeypatch.setattr(cli, "rasterize_circle", None)  # any raster would fail loudly
        assert cli.main(["raster", "circle", "--radius", radius]) == 2
        assert "'radius'" in capsys.readouterr().err

    def test_raster_outline(self, capsys):
        assert cli.main(["raster", "circle", "--radius", "2", "--outline"]) == 0
        out = capsys.readouterr().out
        # Interior cells whose 4-neighbours are all inside disappear.
        assert out == "..#..\n.#.#.\n#...#\n.#.#.\n..#..\n"

    @pytest.mark.parametrize("argv,expected", [
        (["oracle", "derangement_count", "9"], "133496"),
        (["oracle", "zigzag_count", "4"], "5"),
        (["oracle", "coprime_probability_exact", "3", "10"], "841/1000"),
    ])
    def test_oracle_values(self, capsys, argv, expected):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_oracle_archimedes(self, capsys):
        assert cli.main(["oracle", "archimedes_bounds", "4"]) == 0
        lower, upper = (float(v) for v in capsys.readouterr().out.split())
        assert 3.1408 <= lower < math.pi < upper <= 3.1429

    def test_oracle_zeta_partial(self, capsys):
        assert cli.main(["oracle", "zeta_partial", "3", "100000"]) == 0
        assert abs(float(capsys.readouterr().out) - 1.20205) < 1e-4

    def test_oracle_arity_check(self, capsys):
        assert cli.main(["oracle", "derangement_count"]) == 2

    @pytest.mark.parametrize("args", [
        ["derangement_count", "21"],  # past 64 bits: the library's OverflowError
        ["zigzag_count", "21"],
        ["euler_product_partial", "2", "100000000000"],  # a 100 GB sieve
        ["euler_product_partial", "2", "10000001"],  # one past the bound
        ["zeta_partial", "3", "10000001"],
        ["coprime_probability_exact", "65", "1"],  # m past zeta's maximum
    ])
    def test_oracle_out_of_range_exits_two_naming_args(self, capsys, args):
        assert cli.main(["oracle", *args]) == 2
        assert "'args'" in capsys.readouterr().err


def test_report_row_round_trip_without_files():
    record = run_config(ExperimentConfig(variant="e", master_seed=2, trials=5000))
    assert json.loads(json.dumps(report_row("x", record))) == report_row("x", record)


# Runs each CLI call in one fresh interpreter, then lists every scipy module
# that any of them imported.
NO_SCIPY_SCRIPT = """
import sys
from blockmonte import cli
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_commands_import_no_scipy(tmp_path):
    calls = [
        "estimate integral --trials 2000",
        "estimate zeta --trials 2000 --param m=4",
        "estimate zeta --trials 2000 --param m=5",
        f"estimate pi --trials 2000 --param raster_mode=raster --out {tmp_path} "
        "--format txt,svg",
    ]
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *calls], env=child_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


# Runs one CLI call in a fresh interpreter, then prints which of the
# modules that only some commands need it imported.
IMPORT_BUDGET_SCRIPT = """
import json, sys
from blockmonte import cli
assert cli.main(sys.argv[1].split()) == 0, sys.argv[1]
print(json.dumps(sorted({"concurrent.futures", "configparser"} & set(sys.modules))))
"""

# A thread pool is built only when more than one core and block are in play.
POOLED = ["concurrent.futures"] if (os.cpu_count() or 1) > 1 else []


@pytest.mark.parametrize("argv, imported", [
    ("estimate pi --workers 1", []),
    ("estimate e --workers 1", []),
    ("estimate zeta --workers 1", []),
    ("estimate pi --out {out} --format txt,svg", []),
    ("estimate e --workers 2 --trials 200000", POOLED),
    ("run {manifest}", ["configparser"]),
])
def test_cli_commands_import_the_pool_and_manifest_parser_only_on_their_path(
        tmp_path, argv, imported):
    manifest = write_manifest(tmp_path / "m.ini", f"[run]\noutput_dir = {tmp_path / 'runs'}\n\n"
                              "[e]\nvariant = e\ntrials = 2000\n")
    argv = argv.format(out=tmp_path / "out", manifest=manifest)
    result = subprocess.run([sys.executable, "-c", IMPORT_BUDGET_SCRIPT, argv], env=child_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == imported


def test_the_process_entry_writes_what_run_experiment_writes(tmp_path):
    params = {"sampler_mode": "slime_walk_drift", "raster_mode": "raster"}
    formats = ("jsonl", "csv", "svg", "txt")
    argv = ["estimate", "pi", "--out", str(tmp_path / "cli"), "--format", ",".join(formats),
            "--workers", "2"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    result = subprocess.run([sys.executable, "-m", "blockmonte.cli", *argv], env=child_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    config = ExperimentConfig("pi", master_seed=0, trials=10_000, variant_params=params)
    records = run_experiment(RunManifest(run_id="pi", configs=[config],
                                         output_dir=tmp_path / "lib", formats=formats))
    assert result.stdout == json.dumps(report_row("pi", records[0])) + "\n"
    names = sorted(child.name for child in (tmp_path / "lib").iterdir())
    assert names == ["pi.csv", "pi.jsonl", "pi.txt", "pi_00_pi.svg"]
    assert sorted(child.name for child in (tmp_path / "cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


class TestProcessEntry:
    """``run()`` freezes the heap, then exits with ``main()``'s code."""

    @pytest.fixture(autouse=True)
    def unfreeze(self):
        yield
        gc.unfreeze()

    @pytest.mark.parametrize("argv, code, message", [
        (["estimate", "sqrt2", "--param", "leg_blocks=1", "--param", "speed=100"], 1,
         "degenerate"),
        (["estimate", "pi", "--param", "wobble=1"], 2, "'wobble'"),
    ], ids=["degenerate", "bad-param"])
    def test_exit_code_is_mains(self, capsys, monkeypatch, argv, code, message):
        monkeypatch.setattr(sys, "argv", ["blockmonte", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == code
        assert message in capsys.readouterr().err
        assert gc.get_freeze_count() > 0

    def test_main_does_not_freeze(self, capsys):
        gc.unfreeze()
        assert cli.main(["estimate", "e", "--trials", "100"]) == 0
        assert gc.get_freeze_count() == 0
