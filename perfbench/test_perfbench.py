"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from layers import Tracer, layer_metrics, raw_sums  # noqa: E402
from workloads import WORKLOADS, Request, gate_requests  # noqa: E402

from blockmonte import estimators, geometry, rng, runner  # noqa: E402
from blockmonte.estimators import ExperimentConfig  # noqa: E402
from blockmonte.runner import RunManifest, run_experiment  # noqa: E402


def _small_e(trials=2 * (1 << 16) + 10):
    return Request(kind="e9", variant="e", seed=12345, trials=trials, params={})


def test_correct_request_passes_and_wrong_estimate_is_counted(tmp_path, monkeypatch):
    client = run.Client(WORKLOADS["bulk_kernels"], seed=1, scratch=tmp_path)
    _, trials, _ = client.run_in_process(_small_e())
    assert (client.attempted, client.failed) == (1, 0) and trials == _small_e().trials

    honest = estimators._ESTIMATORS["e"]

    def three_percent_short(config, workers=1):
        # Self-consistent record whose derangement count is 3% low (~8 stderr).
        record = honest(config, workers=workers)
        record.success_count = int(record.success_count * 0.97)
        record.estimate = record.trials_used / record.success_count
        return record

    monkeypatch.setitem(estimators._ESTIMATORS, "e", three_percent_short)
    _, trials, _ = client.run_in_process(_small_e())
    assert (client.attempted, client.failed) == (2, 1) and trials == 0
    assert len(client.failures) == 1 and "stderr from exact" in client.failures[0]


def test_reordered_report_byte_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "gate_requests", lambda seed: [_small_e()])
    client = run.Client(WORKLOADS["bulk_kernels"], seed=1, scratch=tmp_path)
    client.determinism_gate()
    assert (client.attempted, client.failed) == (1, 0)

    honest = runner.write_reports

    def swap_two_bytes(manifest, records):
        written = honest(manifest, records)
        if manifest.workers == 2:
            path = next(p for p in written if p.suffix == ".csv")
            data = bytearray(path.read_bytes())
            i = next(i for i in range(len(data) - 1) if data[i] != data[i + 1])
            data[i], data[i + 1] = data[i + 1], data[i]
            path.write_bytes(bytes(data))
        return written

    monkeypatch.setattr(runner, "write_reports", swap_two_bytes)
    client.determinism_gate()
    assert (client.attempted, client.failed) == (2, 1)
    assert "differ" in client.failures[0]


def test_bytes_differ_names_each_changed_or_missing_file():
    a = {"r.jsonl": b"ab", "r.csv": b"x"}
    assert run.bytes_differ(a, dict(a)) == []
    assert run.bytes_differ(a, {"r.jsonl": b"ba", "r.csv": b"x"}) == ["r.jsonl"]
    assert run.bytes_differ(a, {"r.jsonl": b"ab"}) == ["r.csv"]


@pytest.mark.parametrize("n, rank, percentile", [
    (11, 1, 100 / 11), (20, 10, 50.0), (100, 90, 90.0), (128, 118, 100 * 118 / 128),
    (1000, 990, 99.0)])
def test_tail_is_highest_percentile_with_ten_samples_above(n, rank, percentile):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    value, pct = run.tail_percentile(samples)
    assert value == float(rank) and pct == pytest.approx(percentile)
    assert sum(1 for s in samples if s > value) == run.TAIL_ABOVE


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_every_gate_config_passes_its_oracle():
    from oracles import check_row

    for request in gate_requests(7):
        row = runner.report_row("gate", estimators.run_config(request.config()))
        assert check_row(row, request) == [], request.kind


def _report_bytes(out_dir: Path) -> dict:
    configs = [ExperimentConfig("pi", 3, 2000, {"sampler_mode": "slime_walk", "radius": "12",
                                               "raster_mode": "raster"}),
               ExperimentConfig("e", 4, 70_000),
               ExperimentConfig("zeta", 5, 70_000, {"sampler_mode": "random_tick"}),
               ExperimentConfig("integral", 6, 5000, {"raster_mode": "rasterized"}),
               ExperimentConfig("sec_tan", 7, 500),
               ExperimentConfig("sqrt2", 8, 1)]
    run_experiment(RunManifest("t", configs, out_dir, ("jsonl", "csv", "svg", "txt"), workers=2))
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_wrapping_and_unwrapping_leaves_report_bytes_unchanged(tmp_path):
    originals = (estimators.derive_stream, estimators.slime_death_cells,
                 rng.RngStream.float_block, geometry.CircleRaster.contains_cells,
                 runner.write_reports, dict(estimators._ESTIMATORS))
    before = _report_bytes(tmp_path / "before")
    tracer = Tracer()
    with tracer:
        assert estimators.derive_stream is not originals[0]
        traced = _report_bytes(tmp_path / "traced")
    after = _report_bytes(tmp_path / "after")
    assert before == traced == after
    assert (estimators.derive_stream, estimators.slime_death_cells, rng.RngStream.float_block,
            geometry.CircleRaster.contains_cells, runner.write_reports,
            estimators._ESTIMATORS) == originals
    assert tracer.missing == []

    metrics = layer_metrics(raw_sums(tracer.spans))
    for name in ("rng.derive_stream.busy_s", "rng.permutation_block.values",
                 "mechanics.slime_death_cells.rng_calls", "geometry.contains_cells.busy_s",
                 "estimators.sqrt2.busy_s", "runner.emit_scatter.busy_s", "stats.busy_s"):
        assert metrics[name] > 0, name
    assert metrics["runner.bytes_written"] == sum(len(b) for b in traced.values())
    assert 0 < metrics["estimators.parallel_eff"] <= 1


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
