"""Run one `outprop mine` invocation with spans at the package's layer boundaries.

Usage::

    PYTHONPATH=src python3 perfbench/trace_mine.py --spans OUT.json [--memory] mine ARGS...

The public functions each layer calls into are wrapped from here, in the
benchmark's own files; nothing under ``src/`` is edited. Per-row scalar
helpers (``parzen_density``, ``categorical_pmf``, ``StepCDF.evaluate``) are
never wrapped: at millions of calls the wrapper would dwarf the work.

A timing pass records one span per wrapped call: name, start, end, parent
span and the work counts read from its arguments and result. Spans stay in
memory and are aggregated into OUT.json when the invocation ends, with the
tracing cost: the span count times the cost of one span on a no-op, plus
the aggregation time. With
``--memory`` the pass instead records the tracemalloc peak of every
``parse_csv`` and ``em_fit`` call, which would distort the timings.

A wrapped name that no longer exists is listed under ``absent`` in OUT.json
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from pathlib import Path


def _cells(args, db):
    return {"cells": db.n_rows * db.n_attributes}


def _mixture(args, state):
    return {"iterations": state.iterations, "components": state.components}


# span name -> (module, attribute path, counts read from (args, result) or None)
TARGETS = {
    "cli.main": ("outprop.cli", "main", None),
    "dataset.parse_csv": ("outprop.cli", "parse_csv", _cells),
    "miner.mine": ("outprop.cli", "mine", lambda args, result: {"pairs": len(result.pairs)}),
    "intervals.em_fit": ("outprop.miner", "em_fit", _mixture),
    "intervals.natural_interval": ("outprop.miner", "natural_interval", None),
    "outlierness.outlierness": ("outprop.miner", "outlierness", lambda args, score: {"rows": len(args[0])}),
    "dataset.column": ("outprop.dataset", "SelectionView.column", lambda args, col: {"rows": len(col)}),
    "density.fit_numeric": ("outprop.density", "fit_numeric", None),
    "density.fit_categorical": ("outprop.density", "fit_categorical", None),
    "density.parzen_densities": ("outprop.density", "parzen_densities", None),
    "density.categorical_pmfs": ("outprop.density", "categorical_pmfs", None),
    "density.density_cdf": ("outprop.density", "density_cdf", None),
    "density.area_above": ("outprop.density", "StepCDF.area_above", None),
    "density.area_below": ("outprop.density", "StepCDF.area_below", None),
}

MEMORY_TARGETS = ("dataset.parse_csv", "intervals.em_fit")


class Tracer:
    """Collects spans as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s[i]
            for key, value in (counts or {}).items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, timed on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap("probe", noop, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _peak_wrapper(name, fn, peaks):
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.setdefault(name, []).append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return measured


def _resolve(module_name, path):
    """(owner object, attribute name) for a dotted path, or None if gone."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: trace_mine.py --spans OUT.json [--memory] mine ARGS...", file=sys.stderr)
        return 2
    out_path, rest = argv[1], argv[2:]
    memory = rest[:1] == ["--memory"]
    if memory:
        rest = rest[1:]

    tracer = Tracer()
    peaks: dict[str, list[int]] = {}
    absent = []
    for name, (module_name, path, count) in TARGETS.items():
        if memory and name not in MEMORY_TARGETS:
            continue
        found = _resolve(module_name, path)
        if found is None:
            absent.append(name)
            continue
        owner, attr = found
        fn = getattr(owner, attr)
        wrapped = _peak_wrapper(name, fn, peaks) if memory else tracer.wrap(name, fn, count)
        setattr(owner, attr, wrapped)

    cli = importlib.import_module("outprop.cli")
    code = cli.main(rest)
    record = {"absent": absent}
    if memory:
        record["peak_bytes"] = {name: max(values) for name, values in peaks.items()}
    else:
        t0 = time.perf_counter()
        record["spans"] = tracer.summary()
        # tracing cost: every span recorded, plus aggregating them
        record["overhead_s"] = len(tracer.spans) * span_cost_s() + time.perf_counter() - t0
    Path(out_path).write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
