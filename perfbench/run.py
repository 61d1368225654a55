"""blockmonte benchmark: one closed-loop client, one workload, one seed.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` (and the CLI run as ``python -m blockmonte.cli`` with ``src`` on
PYTHONPATH), so nothing needs installing.  Every request's config comes
from the workload seed.  Every report row is checked against the
program's exact oracles, and a determinism gate replays one small config of
every variant at workers=1 and workers=2 and compares the report bytes.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs a fixed number of request cycles twice, untraced and then
traced, and prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files go under
``.bench_out/`` in the checkout and are removed at exit; the run record
(samples, versions, spans) is kept there as ``<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from layers import Tracer, layer_metrics, merge, raw_sums
from oracles import check_row
from workloads import WORKLOADS, Request, Workload, gate_requests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

# Fresh interpreters timed for setup_s, half before and half after the timed
# phase so that one slow stretch of a shared machine moves fewer of them.
# The first probe of a run warms the file cache and compiles bytecode and is
# not counted.
SETUP_PROBES = 6
TRACE_SETUP_PROBES = 3
# request_s.tail is the highest percentile with at least this many samples above it.
TAIL_ABOVE = 10
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


LAYER_UNITS = {
    name: ("count" if name.endswith((".calls", ".values", ".rng_calls"))
           else "B" if name == "runner.bytes_written"
           else "ratio" if name.endswith(("parallel_eff", "overhead_frac"))
           else "s")
    for name in list(layer_metrics({})) + ["cli.import_s", "cli.main_s", "cli.process_s",
                                           "trace.overhead_s", "trace.overhead_frac"]
}


def tail_percentile(samples) -> tuple[float, float]:
    """(value, percentile): the nearest-rank percentile with TAIL_ABOVE
    samples above it, i.e. the (n - TAIL_ABOVE)-th smallest of n samples.
    With TAIL_ABOVE samples or fewer there is no such percentile and the
    maximum is returned as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0
    rank = n - TAIL_ABOVE
    return ordered[rank - 1], 100.0 * rank / n


def bytes_differ(first: dict[str, bytes], second: dict[str, bytes]) -> list[str]:
    """Names of report files that are missing on one side or differ in any byte."""
    return sorted(name for name in first.keys() | second.keys()
                  if first.get(name) != second.get(name))


def take_reports(out_dir: Path, run_id: str) -> dict[str, bytes]:
    """Read and delete the report files of one run id, by file name."""
    files = {path.name: path.read_bytes() for path in sorted(out_dir.glob(f"{run_id}*"))}
    for name in files:
        (out_dir / name).unlink()
    return files


def check_report_files(run_id: str, request: Request, formats, files: dict) -> list[str]:
    """Problems with the csv, txt and svg reports of one request."""
    problems = []
    if "csv" in formats and not files.get(f"{run_id}.csv", b"").startswith(b"run_id,variant,"):
        problems.append("csv report missing or without header")
    if "txt" in formats and not files.get(f"{run_id}.txt", b"").startswith(
            f"{run_id} {request.variant}: estimate=".encode()):
        problems.append("txt report missing or malformed")
    if "svg" in formats and request.variant == "pi":
        svg = files.get(f"{run_id}_00_pi.svg", b"")
        if svg.count(b"<circle ") != min(request.trials, 10_000):
            problems.append("svg scatter missing or with the wrong dot count")
    return problems


class Client:
    """The single closed-loop client: sends one request, checks it, then
    sends the next."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.env = dict(os.environ)
        self.env.pop("BLOCKMONTE_SEED", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_child_rss_mb = 0.0
        self._serial = 0

    # -- bookkeeping ------------------------------------------------------

    def _record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            self.failures.append(f"{label}: {problem}")
            print(f"perfbench: FAILED {label}: {problem}", file=sys.stderr)
        return not problems

    def _next_id(self, prefix: str) -> str:
        self._serial += 1
        return f"{prefix}{self._serial:05d}"

    # -- child processes --------------------------------------------------

    def spawn(self, argv: list[str], tag: str) -> tuple[float, int, float, bytes, bytes]:
        """Run one child to completion: (wall_s, exit code, peak RSS MB,
        stdout, stderr).  Wall time runs from spawn to reaped exit."""
        out_path = self.scratch / f"{tag}.out"
        err_path = self.scratch / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - started
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr

    def probe(self, calls: list[list[str]], trace: bool, tag: str) -> dict:
        """Run calls in one fresh interpreter through probe.py."""
        result_path = self.scratch / f"{tag}.json"
        argv = [sys.executable, str(Path(__file__).with_name("probe.py")), str(result_path),
                "1" if trace else "0"] + [json.dumps(call) for call in calls]
        wall, code, rss, _, stderr = self.spawn(argv, tag)
        if code != 0 or not result_path.is_file():
            raise RuntimeError(f"probe exited {code}: {stderr.decode(errors='replace')[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        result["wall_s"] = wall
        result["rss_mb"] = rss
        return result

    # -- setup --------------------------------------------------------------

    def measure_setup(self, probes: int, warm_up: bool = True) -> list[dict]:
        setup_dir = self.scratch / "setup"
        calls = self.workload.setup_calls(self.seed, setup_dir)
        results = []
        for index in range(probes + warm_up):
            result = self.probe(calls, trace=False, tag=f"setup{index}")
            bad = [(call, code) for call, code in zip(calls, result["codes"]) if code != 0]
            if bad:
                raise RuntimeError(f"setup call failed: {bad[0][0]} exited {bad[0][1]}")
            if index or not warm_up:
                results.append(result)
        shutil.rmtree(setup_dir, ignore_errors=True)
        return results

    # -- requests -------------------------------------------------------------

    def run_in_process(self, request: Request) -> tuple[float, int, bytes]:
        """One run_experiment call: (wall_s, trials_used, report bytes)."""
        from blockmonte.runner import RunManifest, run_experiment

        run_id = self._next_id("req")
        out_dir = self.scratch / "reports"
        manifest = RunManifest(run_id=run_id, configs=[request.config()], output_dir=out_dir,
                               formats=self.workload.formats, workers=self.workload.workers)
        label = f"{run_id} {request.kind}"
        try:
            started = time.perf_counter()
            records = run_experiment(manifest)
            wall = time.perf_counter() - started
        except Exception:
            self._record(label, [traceback.format_exc(limit=3)])
            return 0.0, 0, b""
        files = take_reports(out_dir, run_id)
        jsonl = files.get(f"{run_id}.jsonl")
        if jsonl is None:
            problems = ["no jsonl report"]
        else:
            row, record = json.loads(jsonl), records[0]
            problems = check_row(row, request)
            if row.get("estimate") != record.estimate or row.get("trials") != record.trials_used:
                problems.append("jsonl row does not match the returned record")
            problems += check_report_files(run_id, request, self.workload.formats, files)
        self._record(label, problems)
        trials = records[0].trials_used if not problems else 0
        return wall, trials, b"".join(files[name] for name in sorted(files))

    def run_cli(self, request: Request, trace: bool) -> tuple[float, int, bytes, dict | None]:
        """One CLI process: (wall_s, trials_used, report bytes, probe result).

        Untraced requests run ``python -m blockmonte.cli``; traced ones run
        the same arguments through probe.py with the tracer installed.
        """
        run_id = self._next_id("cli")
        label = f"{run_id} {request.kind}"
        out_dir = self.scratch / "reports"
        args = request.cli_args(self.workload.workers,
                                out_dir if request.out_formats else None, run_id)
        probe_result, stderr = None, b""
        if trace:
            probe_result = self.probe([args], trace=True, tag=run_id)
            wall, rss = probe_result["wall_s"], probe_result["rss_mb"]
            code, stdout = probe_result["codes"][0], probe_result["stdout"][0].encode()
        else:
            wall, code, rss, stdout, stderr = self.spawn(
                [sys.executable, "-m", "blockmonte.cli"] + args, run_id)
        self.max_child_rss_mb = max(self.max_child_rss_mb, rss)
        if code != 0:
            return self._cli_failed(label, f"exit {code}: {stderr.decode(errors='replace')}")
        report = stdout
        try:
            row = json.loads(stdout)
        except ValueError:
            return self._cli_failed(label, f"stdout is not one report row: {stdout[:200]!r}")
        problems = check_row(row, request)
        if request.out_formats:
            files = take_reports(out_dir, run_id)
            problems += check_report_files(run_id, request, request.out_formats, files)
            report += b"".join(files[name] for name in sorted(files))
        ok = self._record(label, problems)
        return wall, (row["trials"] if ok else 0), report, probe_result

    def _cli_failed(self, label, problem):
        self._record(label, [problem])
        return 0.0, 0, b"", None

    # -- determinism gate ---------------------------------------------------

    def determinism_gate(self) -> None:
        """Replay one small config of every variant at workers=1 and 2 with
        all four formats; any byte difference or oracle miss is a failure."""
        from blockmonte.runner import RunManifest, run_experiment

        for request in gate_requests(self.seed):
            config = request.config()
            outputs = []
            try:
                for workers in (1, 2):
                    out_dir = self.scratch / f"gate_w{workers}"
                    run_experiment(RunManifest(run_id=f"gate_{request.kind}", configs=[config],
                                               output_dir=out_dir,
                                               formats=("jsonl", "csv", "svg", "txt"),
                                               workers=workers))
                    outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
                    shutil.rmtree(out_dir)
            except Exception:
                self._record(f"gate {request.kind}", [traceback.format_exc(limit=3)])
                continue
            problems = [f"workers=1 and workers=2 reports differ: {name}"
                        for name in bytes_differ(*outputs)]
            row = json.loads(outputs[0][f"gate_{request.kind}.jsonl"])
            problems += check_row(row, request)
            self._record(f"gate {request.kind}", problems)


class Benchmark:
    def __init__(self, workload: Workload, seed: int, seconds: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.client = Client(workload, seed, scratch)
        self.info: dict = {}

    def _send(self, request: Request, trace: bool = False):
        if self.workload.in_process:
            wall, trials, report = self.client.run_in_process(request)
            return wall, trials, report, None
        return self.client.run_cli(request, trace)

    def _warm_up(self) -> None:
        """Run one cycle untimed so that caches fill and lazy imports finish
        before timing (setup_s measures that cost in fresh interpreters)."""
        if not self.workload.in_process:
            return
        for request in self.workload.requests(self.seed ^ 0x5EED, cycles=1):
            self.client.run_in_process(request)

    def timed_phase(self, requests, *, seconds: float | None = None,
                    trace: bool = False) -> dict:
        """Send requests in order; with ``seconds``, stop at the first cycle
        boundary after the request walls add up to that."""
        per_cycle = len(self.workload.kinds)
        samples, kinds, cycle_rates, digest_bytes, probes = [], [], [], [], []
        cycle_trials = cycle_wall = 0
        for index, request in enumerate(requests):
            if seconds is not None and index % per_cycle == 0 and sum(samples) >= seconds:
                break
            wall, used, report, probe_result = self._send(request, trace)
            if used:
                samples.append(wall)
                kinds.append(request.kind)
                cycle_trials += used
                cycle_wall += wall
            if index % per_cycle == per_cycle - 1 and cycle_wall:
                cycle_rates.append(cycle_trials / cycle_wall)
                cycle_trials = cycle_wall = 0
            if index < per_cycle:
                digest_bytes.append(report)
            if probe_result is not None:
                probes.append(probe_result)
        return {"samples": samples, "kinds": kinds, "cycle_rates": cycle_rates,
                "digest": hashlib.sha256(b"".join(digest_bytes)).hexdigest(),
                "probes": probes}

    # -- modes ------------------------------------------------------------

    def end_to_end(self) -> dict:
        setup = self.client.measure_setup(SETUP_PROBES // 2)
        self._warm_up()
        phase = self.timed_phase(self.workload.requests(self.seed, None), seconds=self.seconds)
        if self.workload.in_process:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak_rss = self.client.max_child_rss_mb
        setup += self.client.measure_setup(SETUP_PROBES - SETUP_PROBES // 2, warm_up=False)
        self.client.determinism_gate()
        samples = phase["samples"]
        if not samples:
            raise RuntimeError("no request completed")
        tail, tail_pct = tail_percentile(samples)
        self.info.update(requests=len(samples), cycle_rates=phase["cycle_rates"],
                         tail_percentile=tail_pct, report_digest=phase["digest"],
                         setup_samples_s=[r["wall_s"] for r in setup],
                         request_samples=list(zip(phase["kinds"], samples)))
        return {
            # Median over cycles: every cycle sends the same mix of kinds, so a
            # slow stretch of a shared machine moves only the cycles it covers.
            "trials_per_s": statistics.median(phase["cycle_rates"]),
            "request_s.p50": statistics.median(samples),
            "request_s.tail": tail,
            "setup_s": statistics.median(r["wall_s"] for r in setup),
            "peak_rss_mb": peak_rss,
        }

    def traced(self) -> tuple[dict, list]:
        setup = self.client.measure_setup(TRACE_SETUP_PROBES)
        self._warm_up()
        cycles = max(1, round(self.seconds / 2 / self.workload.nominal_cycle_s))
        requests = list(self.workload.requests(self.seed, cycles))
        per_cycle = len(self.workload.kinds)
        tracer = Tracer()
        untraced_s = traced_s = 0.0
        probes = []
        # Each cycle runs untraced and then traced, so that a slow stretch of
        # a shared machine falls on both sides of the overhead alike.
        for start in range(0, len(requests), per_cycle):
            cycle = requests[start:start + per_cycle]
            untraced_s += sum(self.timed_phase(cycle)["samples"])
            with tracer:
                traced = self.timed_phase(cycle, trace=True)
            traced_s += sum(traced["samples"])
            probes += traced["probes"]
        with tracer:
            self.client.determinism_gate()
        raw = raw_sums(tracer.spans)
        spans = [["parent"] + list(span) for span in tracer.spans if span is not None]
        for index, result in enumerate(probes):
            merge(raw, result["raw"])
            spans += [[f"child{index}"] + list(span) for span in result["spans"] if span]
        metrics = layer_metrics(raw)
        processes = probes if not self.workload.in_process else setup
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in processes)
        metrics["cli.main_s"] = statistics.median(p["main_s"] for p in processes)
        metrics["cli.process_s"] = statistics.median(
            p["wall_s"] - p["import_s"] - p["main_s"] for p in processes)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        missing = sorted(set(tracer.missing).union(*(p["missing"] for p in probes)))
        self.info.update(trace_cycles=cycles, untraced_s=untraced_s, traced_s=traced_s,
                         requests=len(requests), missing_call_sites=missing)
        return metrics, spans


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def _baseline_digest(workload: str, seed: int):
    if not BASELINE.is_file():
        return None
    stored = json.loads(BASELINE.read_text(encoding="utf-8")).get("report_digests", {})
    return stored.get(workload, {}).get(str(seed))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="blockmonte benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockmonte" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'blockmonte'}; run from a "
              f"blockmonte checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blockmonte

    if Path(blockmonte.__file__).resolve().parent != (SRC / "blockmonte").resolve():
        print(f"perfbench: imported blockmonte from {blockmonte.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    bench = Benchmark(workload, args.seed, args.seconds, scratch)
    try:
        if args.trace:
            metrics, spans = bench.traced()
        else:
            metrics, spans = bench.end_to_end(), None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    client = bench.client
    units = END_TO_END_UNITS if not args.trace else LAYER_UNITS
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "client": "closed loop, 1 client", **_versions(), **bench.info}
    digest = info.get("report_digest")
    if digest is not None:
        stored = _baseline_digest(workload.name, args.seed)
        info["report_digest_vs_baseline"] = ("no stored digest" if stored is None
                                             else "same" if stored == digest else "differs")
    failed = client.failed
    info["failed_frac"] = failed / client.attempted if client.attempted else 1.0
    info["failures"] = client.failures

    record = {"info": info, "metrics": metrics}
    if spans is not None:
        record["spans"] = spans
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    print(f"# {workload.name} seed={args.seed} trace={args.trace} client=closed loop, 1 client "
          f"nproc={info['nproc']} python={info['python']} numpy={info['numpy']} "
          f"scipy={info['scipy']}")
    for name, value in metrics.items():
        note = ""
        if name == "request_s.tail":
            note = f"  (p{info['tail_percentile']:.1f} of {info['requests']} requests)"
        elif name == "request_s.p50":
            note = f"  ({info['requests']} requests)"
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"failed_frac = {failed}/{client.attempted} = {info['failed_frac']:.6g}")
    if digest is not None:
        print(f"report_digest = {digest} ({info['report_digest_vs_baseline']}; information only)")
    if not all(math.isfinite(v) for v in metrics.values()):
        print("perfbench: non-finite metric", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
