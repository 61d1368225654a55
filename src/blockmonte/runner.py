"""Manifest execution and report emission.

A run manifest lists experiment configs; running it produces one report row
per config in config order, written as JSON Lines and optionally CSV, plain
text, and SVG scatter plots.  Report files contain nothing non-deterministic,
so re-running a manifest with the same seeds reproduces them byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DegenerateResultError
from .estimators import (
    COUNT,
    ExperimentConfig,
    EstimateRecord,
    Param,
    collect_pi_outcomes,
    run_config,
)
from .geometry import CircleRaster, rasterize_circle

REPORT_FORMATS = ("jsonl", "csv", "svg", "txt")
RUN_KEYS = ("run_id", "output_dir", "formats", "workers")  # a manifest's [run] section

# Column order of every report row.  wall_ms is always null in report files:
# wall-clock timing would break byte-identical reruns, so it goes to stderr
# in the CLI instead.
REPORT_COLUMNS = ("run_id", "variant", "seed", "trials", "success_count",
                  "estimate", "stderr", "ci_low", "ci_high", "reference",
                  "rel_error_pct", "params", "wall_ms")

# The scatter plot draws one <rect> per outline cell, about 5.65 per unit of
# radius: about 23k rects at this radius, and an unbounded file beyond it.
# `raster circle` takes the same bound: its text is (2r + 1)^2 = 67M bytes at it.
SCATTER_RADIUS_LIMIT = 4096

# A run id names `<run_id>.jsonl` and `<run_id>_NN_pi.svg`, so this many
# bytes keeps every report name under the usual 255-byte file-name limit.
RUN_ID_MAX_BYTES = 240


@dataclass
class RunManifest:
    run_id: str
    configs: list[ExperimentConfig]
    output_dir: Path
    formats: tuple[str, ...] = ("jsonl",)
    workers: int = 1

    def __post_init__(self) -> None:
        check_run_id(self.run_id)
        if not self.formats:
            raise ValueError("invalid value for 'formats': at least one required")
        for fmt in self.formats:
            if fmt not in REPORT_FORMATS:
                raise ValueError(f"invalid value for 'formats': {fmt!r} "
                                 f"(expected subset of {', '.join(REPORT_FORMATS)})")
        self.workers = COUNT.coerce("workers", self.workers)
        self.output_dir = Path(self.output_dir)
        if "svg" in self.formats:
            for config in self.configs:
                if (config.model.cells is not None
                        and config.params["radius"] > SCATTER_RADIUS_LIMIT):
                    raise ValueError(f"invalid value for 'radius': svg scatter plots "
                                     f"take radii up to {SCATTER_RADIUS_LIMIT}")


def check_run_id(run_id: str) -> None:
    """A run id names its report files, so it must be a plain file name."""
    if run_id in ("", ".", "..") or "/" in run_id or "\0" in run_id:
        raise ValueError(f"invalid value for 'run_id': {run_id!r} is not a file name")
    # surrogatepass measures, rather than refuses, an id from undecodable argv bytes
    if len(run_id.encode("utf-8", "surrogatepass")) > RUN_ID_MAX_BYTES:
        raise ValueError(f"invalid value for 'run_id': longer than {RUN_ID_MAX_BYTES} bytes")


def load_manifest(path, default_seed: Callable[[], int] = lambda: 0) -> RunManifest:
    """Parse a flat key=value manifest: one [run] section plus one section
    per experiment, all variant params as strings.  Each config resolves its
    params as it is built, so every section is checked before any trial.
    A section without ``seed`` takes ``default_seed()``, called only for a
    section that samples: a ``counts`` replay draws nothing.
    Keys keep their case, as with --param, values are read literally (no %
    interpolation), an error in an experiment section names it, and a
    [DEFAULT] section is refused."""
    import configparser  # only `run` reads a manifest

    path = Path(path)
    # No section is the parser's default one (a header cannot name ""), so
    # [DEFAULT] stays a section of its own rather than entering every other.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # the default lower-cases every key
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ValueError(f"invalid manifest {path}: {exc}") from None
    if parser.has_section("DEFAULT"):
        raise ValueError(f"invalid manifest {path}: a [DEFAULT] section is not supported; "
                         "give each key in the section it applies to")

    run = dict(parser["run"]) if parser.has_section("run") else {}
    for key in run:
        if key not in RUN_KEYS:
            raise ValueError(f"unknown key '{key}' in [run] (expected {', '.join(RUN_KEYS)})")
    workers = Param("int").coerce("workers", run.get("workers", 1))

    configs = []
    for name in parser.sections():
        if name == "run":
            continue
        section = dict(parser[name])
        if "variant" not in section:
            raise ValueError(f"invalid value for 'variant': section [{name}] has none")
        variant = section.pop("variant")
        try:
            if "seed" not in section:
                section["seed"] = 0 if "counts" in section else default_seed()
            seed = Param("int").coerce("seed", section.pop("seed"))
            trials = Param("int").coerce("trials", section.pop("trials", 10_000))
            configs.append(ExperimentConfig(variant=variant, master_seed=seed,
                                            trials=trials, variant_params=section))
        except ValueError as exc:
            raise ValueError(f"[{name}] {exc}") from None
    return RunManifest(run_id=run.get("run_id", path.stem), configs=configs,
                       output_dir=Path(run.get("output_dir", "runs")),
                       formats=parse_formats(run.get("formats", "jsonl")), workers=workers)


def parse_formats(raw: str) -> tuple[str, ...]:
    """A manifest's ``formats`` or the CLI's ``--format``: comma-separated."""
    return tuple(f.strip() for f in raw.split(",") if f.strip())


def run_experiment(manifest: RunManifest) -> list[EstimateRecord]:
    """Execute every config and write one report row per record.

    Degenerate samples do not abort the run: the record is marked failed
    (estimate null) and the remaining configs still execute.  The output
    directory is made before the first trial.
    """
    manifest.output_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for config in manifest.configs:
        try:
            record = run_config(config, workers=manifest.workers)
        except DegenerateResultError as exc:
            record = _failed_record(config, str(exc))
        records.append(record)
    write_reports(manifest, records)
    return records


def _failed_record(config: ExperimentConfig, reason: str) -> EstimateRecord:
    """A failed row reports the trials its jobs drew and the seed they were
    drawn with, as a successful row of the config would; a config with no
    jobs reports its own trials, and a counts replay no seed."""
    drawn = sum(trials for _, trials, _ in config.model.jobs) or config.trials
    return EstimateRecord(
        variant=config.variant, estimate=None, trials_used=drawn,
        success_count=None, stderr=None, ci_low=None, ci_high=None, reference=None,
        params={**config.params, "failed": reason},
        seed=None if "counts" in config.params else config.master_seed)


def report_row(run_id: str, record: EstimateRecord) -> dict:
    return dict(zip(REPORT_COLUMNS, (
        run_id, record.variant, record.seed, record.trials_used, record.success_count,
        record.estimate, record.stderr, record.ci_low, record.ci_high, record.reference,
        record.relative_error_percent, record.params, None), strict=True))


def write_reports(manifest: RunManifest, records: list[EstimateRecord]) -> list[Path]:
    """Write ``<run_id>.<format>`` per table format, and one scatter plot per
    sampled pi row for svg, into the existing output directory."""
    rows = [report_row(manifest.run_id, record) for record in records]
    written = []
    for fmt, render in (("jsonl", lambda: "".join(json.dumps(row) + "\n" for row in rows)),
                        ("csv", lambda: _render_csv(rows)),
                        ("txt", lambda: "".join(_summary_line(row) + "\n" for row in rows))):
        if fmt in manifest.formats:
            path = manifest.output_dir / f"{manifest.run_id}.{fmt}"
            path.write_text(render(), encoding="utf-8")
            written.append(path)
    if "svg" in manifest.formats:
        for index, (config, record) in enumerate(zip(manifest.configs, records)):
            # Only a sampled pi run has cells; a counts replay kept no dots to draw.
            if config.model.cells is None or record.estimate is None:
                continue
            path = manifest.output_dir / f"{manifest.run_id}_{index:02d}_pi.svg"
            xs, zs = collect_pi_outcomes(config)
            emit_scatter(xs, zs, rasterize_circle(record.params["radius"]), path)
            written.append(path)
    return written


def _render_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow([
            json.dumps(row[col], sort_keys=True) if col == "params"
            else ("" if row[col] is None else row[col])
            for col in REPORT_COLUMNS])
    return buffer.getvalue()


def _summary_line(row: dict) -> str:
    if row["estimate"] is None:
        return f"{row['run_id']} {row['variant']}: FAILED ({row['params'].get('failed', '?')})"
    parts = [f"{row['run_id']} {row['variant']}: estimate={row['estimate']:.6g}"]
    if row["stderr"] is not None:
        parts.append(f"stderr={row['stderr']:.3g}")
    parts.append(f"reference={row['reference']:.6g}")
    if row["rel_error_pct"] is not None:
        parts.append(f"rel_error={row['rel_error_pct']:#.3g}%")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# scatter plots


_INSIDE_COLOR = "#1f77b4"
_OUTSIDE_COLOR = "#d62728"


def emit_scatter(xs: np.ndarray, zs: np.ndarray, raster: CircleRaster, path) -> Path:
    """Write an SVG: arena square, raster circle outline, one dot per death
    cell (xs[i], zs[i]) colored by raster membership, and a caption with
    the 4*inside/total arithmetic."""
    if len(xs) == 0:
        raise ValueError("xs and zs must be non-empty")
    path = Path(path)
    r = raster.radius
    scale = max(4, 600 // (2 * r + 3))
    size = (2 * r + 3) * scale

    def sx(world_x: float) -> float:
        return (world_x + r + 1) * scale

    def sy(world_z: float) -> float:
        return (r + 2 - world_z) * scale

    # one membership pass, and one <circle> per distinct cell: cells are
    # keyed by their row-major index in the box the dots span
    x0, z0 = xs.min(), zs.min()
    width = zs.max() - z0 + 1
    keys, slot = np.unique((xs - x0) * width + (zs - z0), return_inverse=True)
    cells_x, cells_z = np.divmod(keys, width)
    cells_x += x0
    cells_z += z0
    inside = raster.contains_cells(cells_x, cells_z)
    inside_count = int(inside[slot].sum())
    estimate = 4.0 * inside_count / len(xs)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 2 * scale}" '
        f'viewBox="0 0 {size} {size + 2 * scale}">',
        f'<rect x="0" y="0" width="{size}" height="{size + 2 * scale}" fill="white"/>',
        f'<rect x="{sx(-r)}" y="{sy(r + 1)}" width="{(2 * r + 1) * scale}" '
        f'height="{(2 * r + 1) * scale}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for x, z in sorted(raster.outline_cells()):
        parts.append(f'<rect x="{sx(x)}" y="{sy(z + 1)}" width="{scale}" '
                     f'height="{scale}" fill="#bbbbbb"/>')
    dot_radius = max(1.0, 0.3 * scale)
    dots = [f'<circle cx="{sx(x + 0.5):g}" cy="{sy(z + 0.5):g}" r="{dot_radius:.2f}" '
            f'fill="{_INSIDE_COLOR if hit else _OUTSIDE_COLOR}"/>'
            for x, z, hit in zip(cells_x.tolist(), cells_z.tolist(), inside.tolist())]
    parts.extend(dots[i] for i in slot.tolist())
    caption = f"4 · {inside_count}/{len(xs)} = {_caption_value(estimate)}"
    parts.append(f'<text x="{scale}" y="{size + scale}" font-family="monospace" '
                 f'font-size="{max(10, scale)}">{caption}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path


def _caption_value(value: float) -> str:
    """Five decimals, trimmed to no fewer than three ('4.000', '3.13779')."""
    text = f"{value:.5f}"
    while text.endswith("0") and len(text.split(".")[1]) > 3:
        text = text[:-1]
    return text
