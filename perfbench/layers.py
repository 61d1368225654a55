"""Per-layer tracing of blockmonte from outside the package.

``Tracer.install()`` replaces the public functions of each ``blockmonte``
module with timing wrappers, at the place where the calling module looks
the name up: ``blockmonte.estimators`` binds ``derive_stream`` and the
``mechanics`` kernels by ``from ... import``, so those wrappers go into the
estimators namespace; draws are wrapped on the ``RngStream`` class; the six
estimators are wrapped in the dispatch table ``run_config`` reads.
``uninstall()`` puts every original back.

Spans are kept in memory as tuples and are per thread: a span opened on a
worker thread with no open span of its own is parented to the estimator
span that is running (the benchmark is a single closed-loop client, so at
most one estimator runs at a time).
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

VARIANTS = ("sqrt2", "pi", "e", "zeta", "sec_tan", "integral")
DRAWS = ("permutation_block", "int_below_block", "float_block", "geometric_block")
KERNELS = ("dropper_permutation_block", "ticks_until_growth_block", "slime_death_cells")

# Span tuple fields.
NAME, THREAD, START, END, PARENT, COUNT, WORKERS = range(7)


def _size(result) -> int:
    return int(result.size)


def _bytes_written(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _sites():
    """(layer, owner, attribute, count_fn) for every wrapped call site.

    ``owner`` is a module, a class or a dict; the wrapper replaces
    ``owner.attribute`` (or ``owner[attribute]``).
    """
    from blockmonte import estimators, geometry, rng, runner

    sites = [("rng.derive_stream", estimators, "derive_stream", None)]
    for draw in DRAWS:
        sites.append((f"rng.{draw}", rng.RngStream, draw, _size))
    for kernel in KERNELS:
        sites.append((f"mechanics.{kernel}", estimators, kernel, None))
    sites += [
        ("geometry.rasterize_circle", estimators, "rasterize_circle", None),
        ("geometry.rasterize_circle", runner, "rasterize_circle", None),
        ("geometry.contains_cells", geometry.CircleRaster, "contains_cells", None),
        ("geometry.rasterize_curve", estimators, "rasterize_curve", None),
        ("stats.wilson_ci", estimators, "wilson_ci", None),
        ("stats.ratio_stderr", estimators, "ratio_stderr", None),
        ("stats.relative_error", estimators, "relative_error", None),
        ("runner.write_reports", runner, "write_reports", _bytes_written),
        ("runner.emit_scatter", runner, "emit_scatter", None),
        ("runner.collect_pi_outcomes", runner, "collect_pi_outcomes", None),
    ]
    for variant in VARIANTS:
        sites.append((f"estimators.{variant}", estimators._ESTIMATORS, variant, None))
    return sites


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._estimator = None
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for layer, owner, attr, count_fn in _sites():
            is_dict = isinstance(owner, dict)
            original = owner.get(attr) if is_dict else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{layer} ({attr})")
                continue
            wrapper = self._wrap(layer, original, count_fn)
            if is_dict:
                owner[attr] = wrapper
            else:
                setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, original, is_dict))
        if self.missing:
            print(f"perfbench: not traced, call site missing: {', '.join(self.missing)}",
                  file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._saved):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: str, fn, count_fn):
        is_estimator = layer.startswith("estimators.")
        spans, lock, local = self.spans, self._lock, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._estimator
            with lock:
                index = len(spans)
                spans.append(None)
            stack.append(index)
            if is_estimator:
                self._estimator = index
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_estimator:
                    self._estimator = parent
            count = count_fn(result) if count_fn is not None else 0
            workers = kwargs.get("workers", 1) if is_estimator else 0
            spans[index] = (layer, threading.get_ident(), start, end, parent, count, workers)
            return result

        traced.__wrapped__ = fn
        return traced


def raw_sums(spans) -> dict:
    """Additive per-layer totals; sums from several processes can be added
    key by key before ``layer_metrics`` turns them into metrics."""
    raw: dict[str, float] = {}

    def add(key, value):
        raw[key] = raw.get(key, 0.0) + value

    children: dict[int, list] = {}
    for span in spans:
        if span is not None and span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    for index, span in enumerate(spans):
        if span is None:
            continue
        name = span[NAME]
        duration = span[END] - span[START]
        add(f"{name}.busy_s", duration)
        add(f"{name}.calls", 1)
        add(f"{name}.values", span[COUNT])
        if name.startswith("stats."):
            add("stats.busy_s", duration)
        if name == "mechanics.slime_death_cells":
            add("mechanics.slime_death_cells.rng_calls",
                sum(1 for child in children.get(index, ()) if child[NAME].startswith("rng.")))
        if name.startswith("estimators."):
            kids = children.get(index, ())
            covered = _union_length([(max(k[START], span[START]), min(k[END], span[END]))
                                     for k in kids])
            add("estimators.self_s", duration - covered)
            add("estimators.child_busy_s", sum(k[END] - k[START] for k in kids))
            add("estimators.capacity_s", span[WORKERS] * duration)
    return raw


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values from (merged) ``raw_sums``."""

    def get(key):
        return float(raw.get(key, 0.0))

    out = {
        "rng.derive_stream.calls": get("rng.derive_stream.calls"),
        "rng.derive_stream.busy_s": get("rng.derive_stream.busy_s"),
    }
    for draw in DRAWS:
        out[f"rng.{draw}.busy_s"] = get(f"rng.{draw}.busy_s")
        out[f"rng.{draw}.values"] = get(f"rng.{draw}.values")
    for kernel in KERNELS:
        out[f"mechanics.{kernel}.busy_s"] = get(f"mechanics.{kernel}.busy_s")
    out["mechanics.slime_death_cells.rng_calls"] = get("mechanics.slime_death_cells.rng_calls")
    for name in ("rasterize_circle", "contains_cells", "rasterize_curve"):
        out[f"geometry.{name}.busy_s"] = get(f"geometry.{name}.busy_s")
    out["stats.busy_s"] = get("stats.busy_s")
    for variant in VARIANTS:
        out[f"estimators.{variant}.busy_s"] = get(f"estimators.{variant}.busy_s")
    out["estimators.self_s"] = get("estimators.self_s")
    capacity = get("estimators.capacity_s")
    out["estimators.parallel_eff"] = get("estimators.child_busy_s") / capacity if capacity else 0.0
    for name in ("write_reports", "emit_scatter", "collect_pi_outcomes"):
        out[f"runner.{name}.busy_s"] = get(f"runner.{name}.busy_s")
    out["runner.bytes_written"] = get("runner.write_reports.values")
    return out


def merge(into: dict, raw: dict) -> None:
    for key, value in raw.items():
        into[key] = into.get(key, 0.0) + value
