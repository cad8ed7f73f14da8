"""In-memory spans around the package's public functions, and per-layer sums.

Nothing inside ``src/`` is instrumented.  ``installed`` replaces each traced
function at the name its caller looks it up (a module attribute, or an entry
of the shared ``ESTIMATORS`` dict) with a wrapper that records a span, and
puts every original back when the block ends.  Spans are kept in memory and
written out once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = ("cli", "records", "counting", "estimators", "inference", "simulation")

# Estimator spans that count as one estimator call (the denominator of
# counting.builds_per_estimate); artificial_censoring is a transform, not one.
ESTIMATOR_CALLS = ("check", "check_variance", "mm", "mm-stute", "aj")


def _rows(args, kwargs, result):
    return len(args[0])


def _rows_returned(args, kwargs, result):
    return len(result)


def _grid_points(args, kwargs, result):
    return len(result.times)


def _excluded_cells(args, kwargs, result):
    return sum(row.n_excluded for row in result.rows)


# (module, attribute, layer, span name, count taken from the call)
TARGETS = (
    ("illnessdeath.cli", "read_cohort", "records", "read_cohort", _rows_returned),
    ("illnessdeath.cli", "write_cohort", "records", "write_cohort", _rows),
    ("illnessdeath.cli", "artificial_censoring", "estimators", "artificial_censoring", None),
    ("illnessdeath.cli", "p01_landmark_variance", "estimators", "check_variance", None),
    ("illnessdeath.cli", "bootstrap_ci", "inference", "bootstrap_ci", None),
    ("illnessdeath.cli", "run_monte_carlo", "simulation", "run_monte_carlo", _excluded_cells),
    ("illnessdeath.estimators", "build_counting", "counting", "build_counting", _grid_points),
    ("illnessdeath.simulation", "simulate_cohort", "simulation", "simulate_cohort", None),
)
# the registry dict the CLI, the bootstrap and the Monte-Carlo harness share
ESTIMATOR_DICT = ("illnessdeath.cli", "ESTIMATORS")


class Span:
    __slots__ = ("op", "name", "layer", "parent", "start", "end", "child", "error", "count")

    def __init__(self, op, name, layer, parent, start):
        self.op = op
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.error = None
        self.count = None

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def to_json(self, index: dict) -> str:
        parent = None if self.parent is None else index[id(self.parent)]
        return json.dumps(
            {
                "op": self.op,
                "name": self.name,
                "layer": self.layer,
                "parent": parent,
                "start": self.start,
                "end": self.end,
                "error": self.error,
                "count": self.count,
            }
        )


class Tracer:
    """Collects spans; the span open when another opens becomes its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self.op, name, layer, parent, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, layer: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(args, kwargs, result)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)

        return traced

    def write(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(span.to_json(index) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore them.

    A target the package no longer has is reported on stderr and skipped, so
    its per-layer figures read 0 instead of the run failing.
    """
    saved = []
    registry = getattr(importlib.import_module(ESTIMATOR_DICT[0]), ESTIMATOR_DICT[1], None)
    originals = dict(registry) if registry is not None else {}
    try:
        for module_name, attr, layer, name, count in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, layer, count))
        if registry is None:
            print("trace: ESTIMATORS registry not found, not traced", file=sys.stderr)
        for key, fn in originals.items():
            registry[key] = tracer.wrap(fn, key, "estimators")
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
        if registry is not None:
            registry.clear()
            registry.update(originals)
    for module, attr, fn in saved:
        if getattr(module, attr) is not fn:
            raise RuntimeError(f"{module.__name__}.{attr} was not restored")


# Per-op figures the traced run reports, with their units.  Times are the
# inclusive duration of the named spans; ``<layer>.self_s`` is a layer's
# span durations minus the time their child spans cover.  What each should
# move (registry/montecarlo/bootstrap workloads; op = op_ref_s):
#   records.*     registry op (transform and estimate calls read/write CSV)
#   counting.*    op on all three; builds_per_estimate is 0.8 on registry
#   estimators.*  op on all three
#   inference.*   bootstrap op only
#   simulation.*  montecarlo op, and setup_s on registry and bootstrap
#   cli.self_s    registry op (formatting, input SHA-256, manifest)
SPAN_METRICS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.estimate_s": "s",
    "cli.transform_s": "s",
    "cli.simulate_s": "s",
    "records.read_cohort_s": "s",
    "records.rows_read": "count",
    "records.write_cohort_s": "s",
    "records.rows_written": "count",
    "counting.build_counting_s": "s",
    "counting.build_counting_calls": "count",
    "counting.grid_points": "count",
    "counting.builds_per_estimate": "ratio",
    **{f"estimators.{name}_s": "s" for name in ESTIMATOR_CALLS + ("artificial_censoring",)},
    "estimators.calls": "count",
    "estimators.errors": "count",
    "inference.bootstrap_ci_s": "s",
    "inference.resamples": "count",
    "inference.failed_resamples": "count",
    "simulation.simulate_cohort_s": "s",
    "simulation.cohorts": "count",
    "simulation.run_monte_carlo_s": "s",
    "simulation.excluded_cells": "count",
}
_COUNTED = {
    "read_cohort": "records.rows_read",
    "write_cohort": "records.rows_written",
    "build_counting": "counting.grid_points",
    "run_monte_carlo": "simulation.excluded_cells",
}
_CALLS = {
    "build_counting": "counting.build_counting_calls",
    "simulate_cohort": "simulation.cohorts",
}


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op averages of the SPAN_METRICS over the traced ops."""
    totals = dict.fromkeys(SPAN_METRICS, 0.0)

    def add(key: str, value: float) -> None:
        if key in totals:
            totals[key] += value

    point_estimated: set[int] = set()
    for span in spans:
        add(f"{span.layer}.self_s", span.self_time)
        add(f"{span.layer}.{span.name}_s", span.end - span.start)
        if span.name in _COUNTED:
            add(_COUNTED[span.name], span.count or 0)
        if span.name in _CALLS:
            add(_CALLS[span.name], 1)
        if span.layer != "estimators" or span.name not in ESTIMATOR_CALLS:
            continue
        add("estimators.calls", 1)
        add("estimators.errors", span.error is not None)
        parent = span.parent
        if parent is not None and parent.name == "bootstrap_ci":
            # the first estimator call inside bootstrap_ci is its point estimate
            if id(parent) not in point_estimated:
                point_estimated.add(id(parent))
                continue
            add("inference.resamples", 1)
            add("inference.failed_resamples", span.error is not None)

    out = {key: value / n_ops for key, value in totals.items()}
    calls = totals["estimators.calls"]
    out["counting.builds_per_estimate"] = (
        totals["counting.build_counting_calls"] / calls if calls else 0.0
    )
    return out


def self_time_by_op(spans: list[Span]) -> dict[int, float]:
    """Sum of every span's self time, per op."""
    out: dict[int, float] = {}
    for span in spans:
        out[span.op] = out.get(span.op, 0.0) + span.self_time
    return out
