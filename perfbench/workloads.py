"""Workload definitions: the requests each workload sends, made from its seed.

A workload is a cycle of request kinds.  Every cycle sends each kind once,
in an order shuffled from the workload seed, and every request gets its own
master seed (and, where the kind varies it, radius or leg length) from the
same seed.  Runs measure whole cycles, so every kind contributes the same
number of samples to the request-time percentiles.

The bulk_kernels request sizes are chosen so that its kinds take roughly
the same time at this commit; a cycle then has no single kind that decides
the median, and a kind that gets faster moves the percentiles smoothly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

# Trials per kind in the setup probe's one minimal call (sec_tan: all sizes).
SETUP_TRIALS = 1000


@dataclass
class Request:
    kind: str
    variant: str
    seed: int
    trials: int
    params: dict = field(default_factory=dict)
    counts: tuple[int, int] | None = None
    # Formats for a CLI request run with --out; None prints the row only.
    out_formats: tuple[str, ...] | None = None

    def config(self):
        """The ExperimentConfig an in-process request runs; params are passed
        as strings, as a manifest or the CLI would pass them."""
        from blockmonte.estimators import ExperimentConfig

        return ExperimentConfig(variant=self.variant, master_seed=self.seed, trials=self.trials,
                                variant_params={k: str(v) for k, v in self.params.items()})

    def cli_args(self, workers: int, out_dir=None, run_id: str | None = None) -> list[str]:
        args = ["estimate", self.variant, "--workers", str(workers)]
        if self.counts is not None:
            args += ["--from-counts", f"{self.counts[0]},{self.counts[1]}"]
        else:
            args += ["--seed", str(self.seed), "--trials", str(self.trials)]
        for key, value in self.params.items():
            args += ["--param", f"{key}={value}"]
        if out_dir is not None:
            args += ["--out", str(out_dir), "--format", ",".join(self.out_formats or ("jsonl",))]
            if run_id is not None:
                args += ["--run-id", run_id]
        return args


@dataclass(frozen=True)
class Kind:
    name: str
    make: Callable[[random.Random], Request]


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    workers: int
    # Report formats of in-process requests (CLI requests name their own).
    formats: tuple[str, ...]
    kinds: tuple[Kind, ...]
    # Wall time of one cycle at the commit that defined the benchmark; the
    # traced run sends round(seconds / 2 / nominal_cycle_s) cycles, a count
    # fixed by the workload so that per-layer totals compare across commits.
    nominal_cycle_s: float

    def requests(self, seed: int, cycles: int):
        """The first ``cycles`` cycles of the request sequence for ``seed``
        (an endless generator when ``cycles`` is None)."""
        rng = random.Random(f"{self.name}/{seed}")
        cycle = 0
        while cycles is None or cycle < cycles:
            order = list(self.kinds)
            rng.shuffle(order)
            for kind in order:
                yield kind.make(rng)
            cycle += 1

    def setup_calls(self, seed: int, out_dir) -> list[list[str]]:
        """One minimal CLI call per distinct kind, for the setup probe."""
        rng = random.Random(f"{self.name}/setup/{seed}")
        calls = []
        for kind in self.kinds:
            request = kind.make(rng)
            if request.variant == "sec_tan":
                request.trials = max(1, SETUP_TRIALS // 8)
            elif request.counts is None:
                request.trials = min(request.trials, SETUP_TRIALS)
            if self.in_process:
                request.out_formats = self.formats
            calls.append(request.cli_args(self.workers, out_dir if (
                self.in_process or request.out_formats) else None, f"setup_{kind.name}"))
        return calls


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _kind(name, variant, trials, params=None, **extra) -> Kind:
    def make(rng):
        resolved = {key: (value(rng) if callable(value) else value)
                    for key, value in (params or {}).items()}
        return Request(kind=name, variant=variant, seed=_seed(rng), trials=trials,
                       params=resolved, **extra)

    return Kind(name, make)


def _replay_e(rng: random.Random) -> Request:
    # A plausible dropper tally: about trials/e derangements.
    trials = rng.randint(500, 5000)
    derangements = max(1, round(trials / 2.718281828459045) + rng.randint(-20, 20))
    return Request(kind="e_replay", variant="e", seed=0, trials=trials,
                   counts=(trials, derangements))


def _uniform_int(lo, hi):
    return lambda rng: rng.randint(lo, hi)


# Per-trial work dominates: bulk draws, device kernels, gcd and predicate
# reductions and the thread executor.  Permutation draws are about half of a
# cycle, so rank-table and gcd changes must show here.
BULK_KERNELS = Workload(
    name="bulk_kernels",
    in_process=True,
    workers=2,
    formats=("jsonl", "csv"),
    nominal_cycle_s=2.8,
    kinds=(
        _kind("e9", "e", 3_400_000, {"permutation_size": 9}),
        _kind("sec_tan9", "sec_tan", 600_000, {"max_size": 9}),
        _kind("zeta3_uniform", "zeta", 3_600_000, {"m": 3}),
        _kind("zeta3_tick", "zeta", 4_400_000, {"m": 3, "sampler_mode": "random_tick"}),
        _kind("pi_uniform_disc", "pi", 18_000_000,
              {"sampler_mode": "uniform_ideal", "raster_mode": "exact_disc",
               "radius": _uniform_int(20, 60)}),
        _kind("pi_uniform_raster", "pi", 12_000_000,
              {"sampler_mode": "uniform_ideal", "raster_mode": "raster",
               "radius": _uniform_int(20, 60)}),
        _kind("integral_continuous", "integral", 10_000_000, {"raster_mode": "continuous"}),
        _kind("integral_rasterized", "integral", 18_000_000, {"raster_mode": "rasterized"}),
    ),
)

# Fixed cost dominates: interpreter start, imports, parameter resolution and
# the lazy scipy imports of integral continuous and zeta m=4.  Work moved into
# import or first use to speed up bulk_kernels shows here as a regression.
CLI_COLD = Workload(
    name="cli_cold",
    in_process=False,
    workers=1,
    formats=(),
    nominal_cycle_s=5.5,
    kinds=(
        _kind("sqrt2", "sqrt2", 1,
              {"leg_blocks": _uniform_int(60, 160), "random_start_phase": "true"}),
        _kind("pi_uniform", "pi", 20_000),
        _kind("pi_slime", "pi", 20_000,
              {"sampler_mode": "slime_walk", "radius": _uniform_int(12, 20)}),
        _kind("pi_slime_drift_out", "pi", 20_000,
              {"sampler_mode": "slime_walk_drift", "raster_mode": "raster",
               "radius": _uniform_int(12, 20)}, out_formats=("txt", "svg")),
        _kind("e9", "e", 20_000),
        _kind("zeta3", "zeta", 20_000, {"m": 3}),
        _kind("zeta4", "zeta", 20_000, {"m": 4}),
        _kind("sec_tan9", "sec_tan", 2_500, {"max_size": 9}),
        # Three integrands, so that the slowest group of requests (the ones
        # that import scipy.integrate) holds well over the 10 samples that
        # request_s.tail leaves above it, whatever the cycle count.
        _kind("integral_continuous", "integral", 20_000),
        _kind("integral_continuous_exp", "integral", 20_000,
              {"function_spec": "exp(-x/3)*cos(2*x)", "a": 0, "b": 9}),
        _kind("integral_continuous_sqrt", "integral", 20_000,
              {"function_spec": "sqrt(x)*(1 + sin(x))", "a": 0, "b": 7}),
        _kind("integral_rasterized", "integral", 20_000, {"raster_mode": "rasterized"}),
        Kind("e_replay", _replay_e),
    ),
)

WORKLOADS = {w.name: w for w in (BULK_KERNELS, CLI_COLD)}


def gate_requests(seed: int) -> list[Request]:
    """One small config of every variant and sampler for the determinism
    gate.  Randomized configs span at least two blocks of trials, so
    workers=2 really runs blocks on two threads."""
    rng = random.Random(f"gate/{seed}")
    two_blocks = 2 * (1 << 16) + 1000
    specs = [
        ("sqrt2", "sqrt2", 1, {"random_start_phase": "true"}),
        ("pi_uniform_raster", "pi", two_blocks, {"raster_mode": "raster", "radius": 30}),
        ("pi_slime_drift", "pi", (1 << 16) + 500, {"sampler_mode": "slime_walk_drift",
                                                   "raster_mode": "raster", "radius": 14}),
        ("e9", "e", two_blocks, {}),
        ("zeta3_uniform", "zeta", two_blocks, {"m": 3}),
        ("zeta3_tick", "zeta", two_blocks, {"m": 3, "sampler_mode": "random_tick"}),
        ("sec_tan9", "sec_tan", (1 << 16) + 500, {"max_size": 9}),
        ("integral_continuous", "integral", two_blocks, {}),
        ("integral_rasterized", "integral", two_blocks, {"raster_mode": "rasterized"}),
    ]
    return [Request(kind=name, variant=variant, seed=_seed(rng), trials=trials, params=params)
            for name, variant, trials, params in specs]
