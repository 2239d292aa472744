"""The benchmark's traced metrics still find the package functions they wrap.

``perfbench/trace_mine.py`` wraps package functions by name, and
``perfbench/run.py`` leaves a per-layer metric out of a traced run's result
line once every span it reads is absent. A rename or deletion in the package
would silently drop metrics from the benchmark; this test fails first. A
traced ``mine`` run, timed and with ``--memory``, must also finish and write
span records that parse. The tests only read and run the benchmark's files.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import outprop

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


def _mixed_csv(path):
    # two numeric columns with clusters and one categorical column
    rng = np.random.default_rng(3)
    n = 300
    x = np.concatenate([rng.normal(0.0, 0.1, n // 2), rng.normal(3.0, 0.2, n // 2)])
    y = rng.uniform(-1.0, 1.0, n)
    c = rng.choice(["a", "b", "c"], n)
    rows = "".join(f"{a!r},{b!r},{t}\n" for a, b, t in zip(x.tolist(), y.tolist(), c))
    path.write_text("x,y,c\n" + rows, encoding="utf-8")


@pytest.mark.parametrize("memory", [False, True], ids=["timing", "memory"])
def test_traced_mine_runs_and_counts_the_mixture_fits(tmp_path, memory):
    data, spans = tmp_path / "mixed.csv", tmp_path / "spans.json"
    _mixed_csv(data)
    src = str(Path(outprop.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(BENCH / "trace_mine.py"), "--spans", str(spans), *(["--memory"] if memory else [])]
    argv += ["mine", "--data", str(data), "--outlier", "0", "--omega", "0.5", "--out", str(tmp_path / "r.jsonl")]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    record = json.loads(spans.read_text(encoding="utf-8"))
    assert "intervals.em_fit" not in record["absent"]
    if memory:
        assert record["peak_bytes"]["intervals.em_fit"] > 0
    else:
        assert "intervals.natural_interval" not in record["absent"]
        fits = record["spans"]["intervals.em_fit"]
        assert fits["calls"] == 2
        assert fits["counts"]["iterations"] > 0
        assert fits["counts"]["components"] > 0
