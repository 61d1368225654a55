"""Command-line experiment runner.

Exit codes: 0 success, 1 degenerate result (a run produced no usable
estimate), 2 invalid input.  BLOCKMONTE_SEED provides the default master
seed; an explicit --seed or manifest seed wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction

from .combinatorics import derangement_count, zigzag_count
from .errors import DegenerateResultError
from .estimators import SEED, VARIANTS, ExperimentConfig, Param, run_config
from .geometry import archimedes_bounds, raster_to_text, rasterize_circle
from .numtheory import coprime_probability_exact, euler_product_partial, zeta_partial
from .runner import (SCATTER_RADIUS_LIMIT, RunManifest, check_run_id, load_manifest,
                     parse_formats, report_row, run_experiment)

SEED_ENV_VAR = "BLOCKMONTE_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmonte",
        description="Simulated block-game experiments that estimate mathematical constants.")
    commands = parser.add_subparsers(dest="command", required=True)

    estimate = commands.add_parser("estimate", help="run one experiment")
    estimate.add_argument("variant", choices=VARIANTS)
    estimate.add_argument("--seed", type=int, default=None,
                          help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    estimate.add_argument("--trials", type=int, default=10_000)
    estimate.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                          help="variant parameter, repeatable")
    estimate.add_argument("--out", default=None, metavar="DIR",
                          help="directory for report files")
    estimate.add_argument("--format", default=None,
                          help="comma-separated subset of jsonl,csv,svg,txt (needs --out)")
    estimate.add_argument("--from-counts", default=None, metavar="A,B",
                          help="replay recorded counts instead of sampling")
    estimate.add_argument("--run-id", default=None)
    estimate.add_argument("--workers", type=int, default=1)
    estimate.set_defaults(handler=_cmd_estimate)

    run = commands.add_parser("run", help="run every experiment in a manifest")
    run.add_argument("manifest")
    run.add_argument("--workers", type=int, default=None,
                     help="override the manifest worker count")
    run.set_defaults(handler=_cmd_run)

    raster = commands.add_parser("raster", help="rasterization utilities")
    raster_kind = raster.add_subparsers(dest="shape", required=True)
    circle = raster_kind.add_parser("circle")
    circle.add_argument("--radius", type=int, required=True)
    circle.add_argument("--txt", action="store_true",
                        help="plain-text output (the default and only format)")
    circle.add_argument("--outline", action="store_true",
                        help="draw only the ring of boundary cells")
    circle.add_argument("--out", default=None, metavar="FILE")
    circle.set_defaults(handler=_cmd_raster)

    oracle = commands.add_parser("oracle", help="exact reference computations")
    oracle.add_argument("name", choices=sorted(_ORACLES))
    oracle.add_argument("args", nargs="*", type=int)
    oracle.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DegenerateResultError as exc:
        print(f"degenerate result: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"filesystem error: {exc}", file=sys.stderr)
        return 1


def _default_seed() -> int:
    """$BLOCKMONTE_SEED, else 0; read only for a sampling config that sets no seed."""
    raw = os.environ.get(SEED_ENV_VAR)
    return 0 if raw is None else dataclasses.replace(SEED, text=True).coerce(SEED_ENV_VAR, raw)


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"invalid value for '--param': {pair!r} is not KEY=VALUE")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key in params:
            raise ValueError(f"invalid value for '{key}': given twice")
        params[key] = value.strip()
    return params


def _cmd_estimate(args) -> int:
    run_id = args.variant if args.run_id is None else args.run_id
    check_run_id(run_id)
    counts = [] if args.from_counts is None else [f"counts={args.from_counts}"]
    params = _parse_params(args.param + counts)
    seed = args.seed
    if seed is None:  # a counts replay draws nothing
        seed = 0 if "counts" in params else _default_seed()
    config = ExperimentConfig(variant=args.variant, master_seed=seed,
                              trials=args.trials, variant_params=params)
    started = time.perf_counter()
    if args.out is not None:
        formats = parse_formats("jsonl" if args.format is None else args.format)
        manifest = RunManifest(run_id=run_id, configs=[config], output_dir=args.out,
                               formats=formats, workers=args.workers)
        records = run_experiment(manifest)
    elif args.format is not None:
        raise ValueError("invalid value for 'format': report formats need --out DIR")
    else:
        records = [run_config(config, workers=args.workers)]
    return _print_records(run_id, records, started)


def _cmd_run(args) -> int:
    manifest = load_manifest(args.manifest, default_seed=_default_seed)
    if args.workers is not None:
        manifest = dataclasses.replace(manifest, workers=args.workers)
    started = time.perf_counter()
    records = run_experiment(manifest)
    return _print_records(manifest.run_id, records, started, f" -> {manifest.output_dir}")


def _print_records(run_id: str, records: list, started: float, where: str = "") -> int:
    """Print the report rows and the elapsed time (stderr); 1 if any record failed."""
    elapsed_ms = 1000 * (time.perf_counter() - started)
    for record in records:
        print(json.dumps(report_row(run_id, record)))
    print(f"{run_id}: {len(records)} record(s) in {elapsed_ms:.0f} ms{where}", file=sys.stderr)
    return 1 if any(record.estimate is None for record in records) else 0


def _cmd_raster(args) -> int:
    radius = Param("int", minimum=1, maximum=SCATTER_RADIUS_LIMIT).coerce("radius", args.radius)
    text = raster_to_text(rasterize_circle(radius), outline_only=args.outline)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _oracle_archimedes(doublings: int) -> str:
    lower, upper = archimedes_bounds(doublings)
    return f"{lower} {upper}"


def _oracle_coprime(m: int, bound: int) -> str:
    probability: Fraction = coprime_probability_exact(m, bound)
    return f"{probability.numerator}/{probability.denominator}"


_ORACLES = {
    "derangement_count": (1, lambda n: str(derangement_count(n))),
    "zigzag_count": (1, lambda n: str(zigzag_count(n))),
    "zeta_partial": (2, lambda s, terms: repr(zeta_partial(s, terms))),
    "euler_product_partial": (2, lambda s, bound: repr(euler_product_partial(s, bound))),
    "archimedes_bounds": (1, _oracle_archimedes),
    "coprime_probability_exact": (2, _oracle_coprime),
}


def _cmd_oracle(args) -> int:
    arity, fn = _ORACLES[args.name]
    if len(args.args) != arity:
        raise ValueError(f"invalid value for 'args': {args.name} takes {arity} integer(s)")
    try:
        print(fn(*args.args))
    except (ValueError, OverflowError) as exc:  # the library's own range checks
        raise ValueError(f"invalid value for 'args': {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
