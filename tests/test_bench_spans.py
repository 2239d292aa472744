"""The benchmark's traced metrics still find the package functions they wrap.

``perfbench/trace_mine.py`` wraps package functions by name, and
``perfbench/run.py`` leaves a per-layer metric out of a traced run's result
line once every span it reads is absent. A rename or deletion in the package
would silently drop metrics from the benchmark; this test fails first. It
only reads the benchmark's files.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_keeps_a_span_that_resolves(monkeypatch):
    # run.py imports its sibling workloads.py as a top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    had_workloads = "workloads" in sys.modules
    try:
        run, trace = _load("run", monkeypatch), _load("trace_mine", monkeypatch)
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)

    def resolves(span):
        return span in trace.TARGETS and trace._resolve(*trace.TARGETS[span][:2]) is not None

    lost = [
        metric
        for metric, (_, spans, _) in run.PER_LAYER.items()
        if spans and not any(resolves(span) for span in spans)
    ]
    assert lost == []
