"""Benchmark of `outprop mine` on one seeded workload.

Usage::

    python3 perfbench/run.py --workload mixed|wide|tall --seed N --seconds S --trace 0|1

Run from the repository root. The workload's CSV is drawn from ``--seed``;
`outprop` only ever sees the CSV. A *job* mines each designated row of the
workload once, one fresh ``outprop mine`` process per row, one after the
other: a closed loop with one client. ``--trace 0`` repeats jobs for about
``--seconds`` seconds and reports the end-to-end metrics over those jobs
(job and CPU time as means, the rest as medians). ``--trace 1`` instead
runs rounds of one traced and one memory-traced invocation per row and
reports per-layer metrics (see trace_mine.py). Either way every report is checked, and mine is compared
against the exhaustive oracle on a 300-row draw of the same generator.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (versions, machine, workload, thresholds, every metric with its unit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import ORDINARY_ROW, PLANTED_ROW, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# what the installed `outprop` console script runs
ENTRY = "import sys; from outprop.cli import main; sys.exit(main())"
SETUP_PROBE = "import outprop.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
SETUP_SPAWNS = 7
MIN_JOBS = 2
INVOCATION_TIMEOUT_S = 90
EM_SEED = 0
# at most 500, the enumeration guard of outprop.oracle.exhaustive_mine; 300
# keeps the cross-check on `wide` to a few seconds
ORACLE_ROWS = 300
ORACLE_TOLERANCE = 1e-9
DESIGNATED = (PLANTED_ROW, ORDINARY_ROW)

END_TO_END_UNITS = {
    "job_s": "s",
    "cpu_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Invocation:
    row: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    report: bytes | None


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OUTPROP_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list[str], stderr_path: Path) -> tuple[float, float, float, int]:
    """Run argv to completion: (wall s, user+system cpu s, max RSS MB, exit code)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=_env(), cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


class Runner:
    """Spawns `outprop mine` invocations on one workload table."""

    def __init__(self, workload: Workload, csv_path: Path, work: Path):
        self.workload = workload
        self.csv_path = csv_path
        self.work = work
        self.invocations: list[Invocation] = []
        self._serial = 0

    def _mine_args(self, row: int, out: Path) -> list[str]:
        return ["mine", "--data", str(self.csv_path), "--outlier", str(row),
                *self.workload.flags(), "--seed", str(EM_SEED), "--out", str(out)]

    def invoke(self, row: int, prefix: list[str] | None = None) -> Invocation:
        """One `outprop mine` process for row; prefix replaces the plain entry point."""
        self._serial += 1
        out = self.work / f"report-{self._serial}.jsonl"
        err = self.work / f"stderr-{self._serial}.txt"
        head = prefix or ["-c", ENTRY]
        wall, cpu, rss, code = _spawn([sys.executable, *head, *self._mine_args(row, out)], err)
        report = out.read_bytes() if out.exists() else None
        if code != 0:
            sys.stderr.write(f"row {row}: exit {code}\n{err.read_text(errors='replace')[-2000:]}")
        inv = Invocation(row, wall, cpu, rss, code, report)
        self.invocations.append(inv)
        return inv

    def traced(self, row: int, memory: bool) -> tuple[Invocation, dict]:
        self._serial += 1
        spans = self.work / f"spans-{self._serial}.json"
        prefix = [str(BENCH / "trace_mine.py"), "--spans", str(spans)]
        inv = self.invoke(row, prefix + (["--memory"] if memory else []))
        record = json.loads(spans.read_text()) if spans.exists() else {"absent": [], "spans": {}}
        return inv, record


def setup_time() -> float:
    """Seconds from spawning an interpreter until `import outprop.cli` returns."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=INVOCATION_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if code != 0 or line != b"ready\n":
        raise RuntimeError(f"importing outprop.cli failed with exit {code}")
    return elapsed


def timed_jobs(runner: Runner, seconds: float) -> tuple[list[list[Invocation]], list[float]]:
    """Run jobs back to back while the next one still fits in the window.

    A set-up probe precedes each job, so the set-up samples are spread over
    the same stretch of host load as the jobs; probes are added after the
    window until there are SETUP_SPAWNS of them.
    """
    jobs: list[list[Invocation]] = []
    setups: list[float] = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(jobs) >= MIN_JOBS and elapsed + elapsed / len(jobs) > seconds:
            break
        setups.append(setup_time())
        jobs.append([runner.invoke(row) for row in DESIGNATED])
    setups += [setup_time() for _ in range(SETUP_SPAWNS - len(setups))]
    return jobs, setups


def end_to_end_metrics(workload: Workload, jobs: list[list[Invocation]], setups: list[float]) -> dict:
    # job and CPU time are means over the run's jobs: the host's load drifts
    # over tens of seconds, and a mean averages the whole window where a
    # median of a handful of jobs follows whichever stretch most of them hit
    job_s = statistics.fmean(sum(i.wall_s for i in job) for job in jobs)
    return {
        "job_s": job_s,
        "cpu_s": statistics.fmean(sum(i.cpu_s for i in job) for job in jobs),
        "rows_per_s": workload.rows * len(DESIGNATED) / job_s,
        "peak_rss_mb": statistics.median(max(i.rss_mb for i in job) for job in jobs),
        "setup_s": statistics.median(setups),
    }


class LayerJob:
    """Span summaries and memory peaks of one traced job, both rows merged."""

    def __init__(self, records: list[dict], peaks: list[dict], wall_s: float):
        self.spans: dict[str, dict] = {}
        for record in records:
            for name, agg in record["spans"].items():
                into = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
                for key in ("calls", "total_s", "self_s"):
                    into[key] += agg[key]
                for key, value in agg["counts"].items():
                    into["counts"][key] = into["counts"].get(key, 0) + value
        self.peak_bytes: dict[str, int] = {}
        for record in peaks:
            for name, value in record.get("peak_bytes", {}).items():
                self.peak_bytes[name] = max(value, self.peak_bytes.get(name, 0))
        self.wall_s = wall_s
        self.overhead_s = sum(record.get("overhead_s", 0.0) for record in records)

    def self_s(self, *names):
        return sum(self.spans.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(self, name):
        return self.spans.get(name, {}).get("total_s", 0.0)

    def calls(self, name):
        return self.spans.get(name, {}).get("calls", 0)

    def count(self, name, key):
        return self.spans.get(name, {}).get("counts", {}).get(key, 0)

    def peak_mb(self, name):
        return self.peak_bytes.get(name, 0) / 2**20


def _ratio(num, den):
    """num / den, or 0.0 when a failed invocation left nothing to divide by."""
    return num / den if den else 0.0


# metric name -> (unit, spans it reads, value from one LayerJob)
PER_LAYER = {
    "cli.self_s": ("s", ("cli.main",), lambda j: j.self_s("cli.main")),
    "dataset.parse_s": ("s", ("dataset.parse_csv",), lambda j: j.self_s("dataset.parse_csv")),
    "dataset.parse_cells_per_s": ("cells/s", ("dataset.parse_csv",),
                                  lambda j: _ratio(j.count("dataset.parse_csv", "cells"), j.total_s("dataset.parse_csv"))),
    "dataset.parse_peak_mb": ("MB", ("dataset.parse_csv",), lambda j: j.peak_mb("dataset.parse_csv")),
    "dataset.gather_s": ("s", ("dataset.column",), lambda j: j.self_s("dataset.column")),
    "dataset.gather_rows": ("count", ("dataset.column",), lambda j: j.count("dataset.column", "rows")),
    "intervals.em_s": ("s", ("intervals.em_fit",), lambda j: j.self_s("intervals.em_fit")),
    "intervals.em_fits": ("count", ("intervals.em_fit",), lambda j: j.calls("intervals.em_fit")),
    "intervals.em_iterations": ("count", ("intervals.em_fit",), lambda j: j.count("intervals.em_fit", "iterations")),
    "intervals.em_components": ("count", ("intervals.em_fit",), lambda j: j.count("intervals.em_fit", "components")),
    "intervals.em_peak_mb": ("MB", ("intervals.em_fit",), lambda j: j.peak_mb("intervals.em_fit")),
    "intervals.interval_s": ("s", ("intervals.natural_interval",), lambda j: j.self_s("intervals.natural_interval")),
    "density.fit_s": ("s", ("density.fit_numeric", "density.fit_categorical"),
                      lambda j: j.self_s("density.fit_numeric", "density.fit_categorical")),
    "density.eval_s": ("s", ("density.parzen_densities", "density.categorical_pmfs"),
                       lambda j: j.self_s("density.parzen_densities", "density.categorical_pmfs")),
    "density.cdf_s": ("s", ("density.density_cdf", "density.area_above", "density.area_below"),
                      lambda j: j.self_s("density.density_cdf", "density.area_above", "density.area_below")),
    "outlierness.self_s": ("s", ("outlierness.outlierness",), lambda j: j.self_s("outlierness.outlierness")),
    "outlierness.calls": ("count", ("outlierness.outlierness",), lambda j: j.calls("outlierness.outlierness")),
    "outlierness.rows": ("count", ("outlierness.outlierness",), lambda j: j.count("outlierness.outlierness", "rows")),
    "outlierness.rows_per_s": ("rows/s", ("outlierness.outlierness",),
                               lambda j: _ratio(j.count("outlierness.outlierness", "rows"), j.total_s("outlierness.outlierness"))),
    "miner.self_s": ("s", ("miner.mine",), lambda j: j.self_s("miner.mine")),
    "miner.candidates": ("count", ("outlierness.outlierness",), lambda j: j.calls("outlierness.outlierness")),
    "miner.pairs": ("count", ("miner.mine",), lambda j: j.count("miner.mine", "pairs")),
    "miner.accept_ratio": ("ratio", ("miner.mine", "outlierness.outlierness"),
                           lambda j: _ratio(j.count("miner.mine", "pairs"), j.calls("outlierness.outlierness"))),
    "trace.overhead_s": ("s", (), lambda j: j.overhead_s),
}


SELF_TIMES = ("cli.self_s", "dataset.parse_s", "dataset.gather_s", "intervals.em_s",
              "intervals.interval_s", "density.fit_s", "density.eval_s", "density.cdf_s",
              "outlierness.self_s", "miner.self_s")
SCORING_SELF_TIMES = ("density.fit_s", "density.eval_s", "density.cdf_s",
                      "outlierness.self_s", "miner.self_s")


def _largest_self_time(metrics: dict) -> str:
    return max(SELF_TIMES, key=lambda name: metrics.get(name, 0.0))


# workload -> why it exists, as a test on its median per-layer metrics and
# the median time spent inside `mine`
REASONS = {
    "mixed": ("intervals.em_s is the largest self time",
              lambda m, mine_s: _largest_self_time(m) == "intervals.em_s"),
    "wide": ("density, outlierness and miner self time exceed half of the time in mine",
             lambda m, mine_s: sum(m.get(name, 0.0) for name in SCORING_SELF_TIMES) > mine_s / 2),
    "tall": ("dataset.parse_s is the largest self time and no EM fit runs",
             lambda m, mine_s: _largest_self_time(m) == "dataset.parse_s"
             and m.get("intervals.em_fits", 0) == 0),
}


def traced_rounds(runner: Runner, seconds: float) -> tuple[list[LayerJob], set[str]]:
    """Rounds of one traced and one memory-traced invocation of every row."""
    rounds: list[LayerJob] = []
    absent: set[str] = set()
    t0 = time.perf_counter()
    while not rounds or (time.perf_counter() - t0) * (len(rounds) + 1) / len(rounds) <= seconds:
        records, peaks, wall_s = [], [], 0.0
        for row in DESIGNATED:
            inv, record = runner.traced(row, memory=False)
            records.append(record)
            wall_s += inv.wall_s
            _, peak = runner.traced(row, memory=True)
            peaks.append(peak)
            absent.update(record["absent"], peak["absent"])
        rounds.append(LayerJob(records, peaks, wall_s))
    return rounds, absent


def layer_metrics(rounds: list[LayerJob], absent: set[str]) -> tuple[dict, list[str]]:
    """Median over rounds of every per-layer metric that can still be read."""
    values, missing = {}, []
    for name, (_, spans, value) in PER_LAYER.items():
        if spans and all(s in absent for s in spans):
            missing.append(name)
            continue
        values[name] = statistics.median(value(job) for job in rounds)
    return values, missing


# ---------------------------------------------------------------- checks

def _load_table(csv_path: Path):
    from outprop import parse_csv

    with open(csv_path, encoding="utf-8", newline="") as fh:
        return parse_csv(fh)


def _rescore(db, workload: Workload, row: int, pair: dict) -> bool:
    """explain_one on the reported pair reproduces its raw score exactly."""
    from outprop import Condition, Explanation, MiningConfig, explain_one

    conds = []
    for c in pair["explanation"]:
        index = db.attribute(c["attribute"]).index
        if "value" in c:
            conds.append(Condition.equality(index, c["value"]))
        else:
            conds.append(Condition.interval(index, c["lower"], c["upper"]))
    cfg = MiningConfig(outlier_index=row, min_support=workload.sigma, min_score=workload.omega,
                       max_conditions=max(1, len(conds)))
    evaluation = explain_one(db, cfg, Explanation.of(*conds), db.attribute(pair["property"]).index)
    return (evaluation.score.raw == pair["raw"] and evaluation.score.value == pair["score"]
            and evaluation.support == pair["support"])


def report_problems(report: bytes, workload: Workload, row: int, db) -> list[str]:
    """Reasons the report of one invocation is wrong; empty when it is right."""
    try:
        records = [json.loads(line) for line in report.decode("utf-8").splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    if [r.get("record") for r in records[:2]] != ["meta", "conditions"]:
        problems.append("report does not open with meta and conditions records")
    pairs = [r for r in records if r.get("record") == "pair"]
    scores = [p["score"] for p in pairs]
    if scores != sorted(scores, reverse=True):
        problems.append("pairs are not sorted by descending score")
    for p in pairs:
        if not (0.0 <= p["score"] <= 1.0 and p["score"] >= workload.omega
                and p["support"] >= workload.sigma):
            problems.append(f"pair out of bounds: {p}")
        elif not _rescore(db, workload, row, p):
            problems.append(f"explain_one does not reproduce pair {p}")
    if row == PLANTED_ROW:
        found = {(tuple(sorted(c["attribute"] for c in p["explanation"])), p["property"]) for p in pairs}
        if workload.planted_pair not in found:
            problems.append(f"planted pair {workload.planted_pair} missing")
    return problems


def check_invocations(invocations: list[Invocation], workload: Workload, csv_path: Path) -> int:
    """Number of failed invocations: non-zero exit, wrong report, or differing bytes."""
    db = _load_table(csv_path)
    verdicts: dict[bytes, list[str]] = {}
    first: dict[int, bytes] = {}
    failed = 0
    for inv in invocations:
        if inv.exit_code != 0 or inv.report is None:
            failed += 1
            continue
        if inv.report not in verdicts:
            verdicts[inv.report] = report_problems(inv.report, workload, inv.row, db)
            for problem in verdicts[inv.report]:
                sys.stderr.write(f"row {inv.row}: {problem}\n")
        expected = first.setdefault(inv.row, inv.report)
        if verdicts[inv.report] or inv.report != expected:
            failed += 1
    if len(verdicts) > len(first):
        sys.stderr.write("reports differ between runs with the same seed\n")
    return failed


def oracle_check(workload: Workload, seed: int) -> dict:
    """mine against exhaustive_mine on a small draw of the workload's generator."""
    from outprop import Dataset, EMConfig, MiningConfig, mine
    from outprop.oracle import exhaustive_mine

    cols = workload.table(seed, rows=ORACLE_ROWS)
    kinds = ["numeric" if c.dtype.kind == "f" else "categorical" for c in cols.values()]
    db = Dataset.from_arrays(list(cols), kinds, list(cols.values()))
    result = {"rows": ORACLE_ROWS, "pairs": 0, "worst_gap": 0.0, "match": True}
    for row in DESIGNATED:
        cfg = MiningConfig(outlier_index=row, min_support=workload.sigma, min_score=workload.omega,
                           max_conditions=workload.kmax, em=EMConfig(seed=EM_SEED))
        fast = {(p.explanation.attributes, p.property.index): p.score.value for p in mine(db, cfg).pairs}
        slow = {(frozenset(p.explanation_attributes), p.property_index): p.score
                for p in exhaustive_mine(db, cfg)}
        if set(fast) != set(slow):
            result["match"] = False
            sys.stderr.write(f"oracle: pair sets differ for row {row}\n")
            continue
        result["pairs"] += len(fast)
        for key, value in fast.items():
            result["worst_gap"] = max(result["worst_gap"], abs(value - slow[key]))
    result["match"] = result["match"] and result["worst_gap"] <= ORACLE_TOLERANCE
    return result


# ---------------------------------------------------------------- record

def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(workload: Workload, seed: int, trace: bool, metrics: dict, extra: dict) -> dict:
    import numpy
    import scipy

    return {
        "record": "run",
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "rows": workload.rows,
        "designated_rows": {"planted": PLANTED_ROW, "ordinary": ORDINARY_ROW},
        "planted_pair": {"explanation": list(workload.planted_pair[0]), "property": workload.planted_pair[1]},
        "thresholds": {"sigma": workload.sigma, "omega": workload.omega, "kmax": workload.kmax,
                       "em_seed": EM_SEED},
        "metrics": metrics,
        **extra,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "outprop" / "cli.py").is_file():
        print(f"error: no outprop sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        csv_path = work / f"{workload.name}.csv"
        workload.write_csv(str(csv_path), args.seed)
        runner = Runner(workload, csv_path, work)
        # a first import writes the byte-code caches, which users pay once
        setup_time()
        if args.trace:
            rounds, absent = traced_rounds(runner, args.seconds)
            metrics, missing = layer_metrics(rounds, absent)
            units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
            reason, holds = REASONS[workload.name]
            mine_s = statistics.median(job.total_s("miner.mine") for job in rounds)
            extra = {"rounds": len(rounds),
                     "traced_job_s": statistics.median(job.wall_s for job in rounds),
                     "mine_s": mine_s, "reason": reason, "reason_holds": holds(metrics, mine_s),
                     "absent_spans": sorted(absent), "absent_metrics": missing}
        else:
            jobs, setups = timed_jobs(runner, args.seconds)
            metrics = end_to_end_metrics(workload, jobs, setups)
            units = END_TO_END_UNITS
            extra = {"jobs": len(jobs),
                     "job_s_each": [sum(i.wall_s for i in job) for job in jobs],
                     "setup_s_each": setups}
        failed = check_invocations(runner.invocations, workload, csv_path)
        oracle = oracle_check(workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.invocations)
    error_rate = failed / attempted
    with_units = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    record = run_record(workload, args.seed, bool(args.trace), with_units,
                        {**extra, "attempted": attempted, "failed": failed,
                         "error_rate": error_rate, "oracle": oracle})
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    print(f"{workload.name} error_rate = {error_rate:.6g} ratio ({failed}/{attempted} invocations)")
    print(f"{workload.name} oracle = {'match' if oracle['match'] else 'MISMATCH'} "
          f"({oracle['pairs']} pairs on {oracle['rows']} rows)")
    if args.trace:
        print(f"{workload.name} reason: {extra['reason']}: {'holds' if extra['reason_holds'] else 'FAILS'}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and oracle["match"],
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
