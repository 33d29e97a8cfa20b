"""Spans around threshsel's public functions, patched at their import sites.

A span records a name, a start, an end and the span that caused it. Spans
opened on a worker thread with nothing open on that thread are parented to
the active fan-out span (``run_scenario``), so replications running on the
pool link back to the call that started them. Spans stay in memory; the
per-layer metrics are computed from them when the traced phase ends.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import threshsel.cli
import threshsel.simulation
import threshsel.thresholding


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _workers(args, kwargs, result):
    return {"workers": kwargs.get("workers", args[5] if len(args) > 5 else 1)}


def _ladder(args, kwargs, result):
    return {"k": len(result)}


def _cells(args, kwargs, result):
    return {"cells": result.n_obs * (result.n_features + 1)}


def _bytes(args, kwargs, result):
    return {"bytes": Path(args[1]).stat().st_size}


# (module, attribute, span name, attribute recorder, fan-out)
SITES = (
    (threshsel.cli, "run_scenario", "simulation.run_scenario", _workers, True),
    (threshsel.simulation, "run_replication", "simulation.run_replication", None, False),
    (threshsel.simulation, "generate_dataset", "simulation.generate_dataset", None, False),
    (threshsel.simulation, "fit_ols", "estimators.fit.ols", None, False),
    (threshsel.simulation, "fit_adaptive_ridge", "estimators.fit.ar", None, False),
    (threshsel.simulation, "build_empirical_path", "thresholding.build_empirical_path",
     None, False),
    (threshsel.cli, "build_empirical_path", "thresholding.build_empirical_path", None, False),
    (threshsel.simulation, "select_threshold", "thresholding.select_threshold", None, False),
    (threshsel.cli, "select_threshold", "thresholding.select_threshold", None, False),
    (threshsel.thresholding, "risk_profile", "thresholding.risk_profile", _ladder, False),
    (threshsel.thresholding, "least_squares_on_support",
     "thresholding.least_squares_on_support", None, False),
    (threshsel.simulation, "metrics_fnr_tnr", "thresholding.metrics_fnr_tnr", None, False),
    (threshsel.cli, "load_csv", "data.load_csv", _cells, False),
    (threshsel.cli, "standardize", "data.standardize", None, False),
    (threshsel.cli, "write_report", "reports.write_report", _bytes, False),
)


class Tracer:
    """Records spans while installed; ``restore`` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout: int | None = None
        self._undo: list[tuple] = []
        self._active = True

    def install(self) -> None:
        self.missing = []
        for module, attr, name, recorder, fanout in SITES:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, recorder, fanout))
            self._undo.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the output checks) record no spans."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _wrap(self, fn, name, recorder, fanout):
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, recorder, fanout)

        return traced

    def call(self, name, fn, args=(), kwargs=None, recorder=None, fanout=False):
        kwargs = kwargs or {}
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._fanout
        sid = next(self._ids)
        stack.append(sid)
        outer = self._fanout
        if fanout:
            self._fanout = sid
        attrs = {}
        cpu = time.process_time() if fanout else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if recorder is not None:
                attrs = recorder(args, kwargs, result)
            return result
        finally:
            end = time.perf_counter()
            if fanout:
                attrs["cpu_s"] = time.process_time() - cpu
                self._fanout = outer
            stack.pop()
            self.spans.append(Span(name, sid, parent, start, end, attrs))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on pool threads overlap)."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.sid: s.duration - _covered(children[s.sid]) for s in spans}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the tail of a latency sample.

    The tail is the highest percentile that still has ten samples beyond it
    (the eleventh-largest value), but never below the median: with fewer
    than 21 samples there is no such percentile and the upper median is
    reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def layer_metrics(spans: list[Span], ops: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics (units as in BENCHMARK.json) and tail details.

    ``ops`` is the number of traced operations the spans come from; call
    counts are per operation, so they measure work per operation and not
    how many operations fitted in the run.
    """
    selfs = self_times(spans)
    busy = sum(selfs.values()) or 1.0
    groups = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)

    def calls(name):
        return len(groups[name]) / ops if ops else 0.0

    def self_ms(name):
        group = groups[name]
        return 1e3 * sum(selfs[s.sid] for s in group) / len(group) if group else 0.0

    def share(name):
        return sum(selfs[s.sid] for s in groups[name]) / busy

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in groups[name])

    def attr_mean(name, key):
        return attr_sum(name, key) / len(groups[name]) if groups[name] else 0.0

    m = {}
    reps = [s.duration for s in groups["simulation.run_replication"]]
    rep_tail = tail(reps) if reps else (0.0, 0.0, 0)
    m["simulation.run_replication.calls"] = calls("simulation.run_replication")
    m["simulation.run_replication.p50_ms"] = 1e3 * statistics.median(reps) if reps else 0.0
    m["simulation.run_replication.tail_ms"] = 1e3 * rep_tail[0]
    m["simulation.generate_dataset.self_ms"] = self_ms("simulation.generate_dataset")
    m["simulation.generate_dataset.share"] = share("simulation.generate_dataset")
    scen = groups["simulation.run_scenario"]
    wall = sum(s.duration for s in scen)
    capacity = sum(s.duration * s.attrs.get("workers", 1) for s in scen)
    cpu = attr_sum("simulation.run_scenario", "cpu_s")
    m["simulation.run_scenario.cpu_util"] = cpu / wall if wall else 0.0
    m["simulation.run_scenario.parallel_eff"] = sum(reps) / capacity if capacity else 0.0
    for name in ("estimators.fit.ols", "estimators.fit.ar", "thresholding.risk_profile",
                 "thresholding.least_squares_on_support"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
        m[f"{name}.share"] = share(name)
    m["thresholding.ladder_len"] = attr_mean("thresholding.risk_profile", "k")
    for name in ("thresholding.build_empirical_path", "thresholding.select_threshold",
                 "thresholding.metrics_fnr_tnr", "data.load_csv", "data.standardize",
                 "reports.write_report", "cli.main"):
        m[f"{name}.self_ms"] = self_ms(name)
    load_s = sum(selfs[s.sid] for s in groups["data.load_csv"])
    m["data.load_csv.share"] = share("data.load_csv")
    m["data.load_csv.cells_per_s"] = attr_sum("data.load_csv", "cells") / load_s if load_s else 0.0
    m["reports.write_report.bytes"] = attr_mean("reports.write_report", "bytes")
    details = {
        "spans": len(spans),
        "run_replication_tail": {"percentile": rep_tail[1], "samples": len(reps),
                                 "beyond": rep_tail[2]},
    }
    return m, details
