"""Command-line interface: subcommands, exit codes, report format."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import outprop
from outprop import Condition, Explanation, MiningConfig, explain_one, parse_csv
from outprop.cli import build_parser, main


def run(argv):
    return main(argv)


def gen_benchmark(tmp_path, name="bench.csv", size=200, seed=3, aux=1):
    path = tmp_path / name
    args = ["gen-unif2", "--out", str(path), "--size", str(size), "--seed", str(seed)]
    if aux != 1:
        args += ["--aux", str(aux)]
    assert run(args) == 0
    return path


def test_gen_writes_the_expected_layout(tmp_path, capsys):
    path = gen_benchmark(tmp_path, size=60, aux=2)
    assert capsys.readouterr().out.strip() == "59"
    with open(path, encoding="utf-8") as fh:
        db = parse_csv(fh)
    assert db.n_rows == 60
    assert [a.name for a in db.schema] == ["A", "u1", "u2"]
    a = db.columns[0]
    assert np.all((a[:29] >= -1.1) & (a[:29] <= -0.1))
    assert np.all((a[29:59] >= 0.1) & (a[29:59] <= 1.1))
    assert a[59] == 0.0
    for col in db.columns[1:]:
        assert np.all((col >= 0.0) & (col < 1.0))


def test_gen_is_deterministic(tmp_path):
    p1 = gen_benchmark(tmp_path, "one.csv", size=80, seed=9)
    p2 = gen_benchmark(tmp_path, "two.csv", size=80, seed=9)
    assert p1.read_bytes() == p2.read_bytes()
    p3 = gen_benchmark(tmp_path, "three.csv", size=80, seed=10)
    assert p1.read_bytes() != p3.read_bytes()


def test_gen_rejects_odd_or_tiny_sizes(tmp_path):
    for bad in ("7", "2", "0"):
        with pytest.raises(SystemExit) as err:
            run(["gen-unif2", "--out", str(tmp_path / "x.csv"), "--size", bad])
        assert err.value.code == 2


def test_mine_report_records(tmp_path):
    data = gen_benchmark(tmp_path, size=200)
    out = tmp_path / "report.jsonl"
    code = run([
        "mine", "--data", str(data), "--outlier", "199", "--omega", "0.0",
        "--sigma", "0.2", "--kmax", "2", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    meta, conditions = records[0], records[1]
    assert meta["record"] == "meta"
    assert meta["version"] == 2
    assert meta["dataset"] == {"rows": 200, "attributes": 2}
    assert meta["config"]["omega"] == 0.0
    assert meta["config"]["sigma"] == 0.2
    assert meta["config"]["seed"] == 3
    assert meta["config"]["kmax"] == 2
    assert meta["config"]["data"] == "bench.csv"
    assert conditions["record"] == "conditions"
    assert len(conditions["items"]) == 2
    assert {i["attribute"] for i in conditions["items"]} == {"A", "u1"}
    assert all("lower" in i and "upper" in i for i in conditions["items"])
    assert [r["attribute"] for r in conditions["intervals"]] == ["A", "u1"]
    assert conditions["intervals"][0]["seed"] == [3, 0]
    for r in conditions["intervals"]:
        assert r["stop_reason"] in ("tol", "max_iter")
        assert "fell_back" not in r and "annihilation" not in r
        assert r["location_spread"] >= 0.0
    pairs = records[2:]
    assert pairs, "omega 0 must report at least the empty-explanation pairs"
    assert all(r["record"] == "pair" for r in pairs)
    assert all(
        set(r) == {"record", "property", "score", "raw", "support", "query_density", "explanation"}
        for r in pairs
    )
    scores = [r["score"] for r in pairs]
    assert scores == sorted(scores, reverse=True)


def python(*args, env=(), **kwargs):
    """Run a Python child process that imports this package's sources.

    The child does not inherit OPENBLAS_NUM_THREADS, which importing
    outprop.cli sets in this process; ``env`` adds variables of its own.
    """
    src = str(Path(outprop.__file__).resolve().parent.parent)
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=child_env, capture_output=True, text=True, **kwargs)


def probe_output(code, **kwargs):
    out = python("-c", code, **kwargs)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_does_not_load_scipy():
    probe = "import sys, outprop.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert probe_output(probe) == "[]"


def test_cli_import_loads_neither_concurrent_futures_nor_logging():
    # the EM's worker is a plain thread; concurrent.futures would import logging
    probe = "import sys, outprop.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    assert probe_output(probe) == "[]"


@pytest.mark.parametrize("preset, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_import_sets_blas_threads_unless_preset(preset, expected):
    probe = "import os, outprop.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert probe_output(probe, env=preset) == expected


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="counts the threads in /proc/self/task, where a BLAS pool needs two CPUs",
)
def test_cli_import_leaves_the_process_one_thread():
    probe = "import os, outprop.cli; print(len(os.listdir('/proc/self/task')))"
    assert probe_output(probe) == "1"


def test_package_import_loads_no_numpy():
    assert probe_output("import sys, outprop; print('numpy' in sys.modules)") == "False"


def test_every_export_is_its_defining_modules_object():
    probe = (
        "import importlib, outprop\n"
        "for name in outprop.__all__:\n"
        "    value = getattr(outprop, name)\n"
        "    # the attribute kinds are plain strings, defined in outprop.dataset\n"
        "    home = importlib.import_module(getattr(value, '__module__', 'outprop.dataset'))\n"
        "    assert getattr(home, name) is value, name\n"
        "    assert name in dir(outprop), name\n"
        "print(len(outprop.__all__))"
    )
    assert probe_output(probe) == str(len(outprop.__all__))


@pytest.mark.parametrize("first", ["", "import outprop.cli", "import outprop.miner", "import outprop.scoring"])
def test_package_outlierness_is_the_function(first):
    probe = (
        f"import sys, outprop; {first or 'pass'}\n"
        "print(outprop.outlierness is sys.modules['outprop.scoring'].outlierness)"
    )
    assert probe_output(probe) == "True"


def test_blas_pool_size_does_not_change_reports(tmp_path):
    rng = np.random.default_rng(8)
    xs = np.concatenate([rng.normal(0.0, 0.1, 60), rng.normal(3.0, 0.1, 60)])
    xs[0] = 1.5
    tokens = rng.choice(["ant", "bee", "cat"], xs.size)
    data = tmp_path / "mixed.csv"
    data.write_text("x,g\n" + "".join(f"{x!r},{t}\n" for x, t in zip(xs.tolist(), tokens)))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        mine = ["-m", "outprop.cli", "mine", "--data", str(data), "--outlier", "0", "--omega", "0.0",
                "--kmax", "2", "--seed", "4"]
        blas = {"OPENBLAS_NUM_THREADS": threads}
        assert python(*mine, "--out", str(out / "r.jsonl"), "--curves", str(out / "curves"), env=blas).returncode == 0
        assert python(*mine, "--tsv", "--out", str(out / "r.tsv"), env=blas).returncode == 0
        reports.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    one, two = reports
    assert one == two
    assert len(one) > 3  # both reports and at least two curves
    assert b'"record":"pair"' in one[Path("r.jsonl")]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="pins a child to one of two or more CPUs",
)
def test_one_cpu_and_all_cpus_write_the_same_reports(tmp_path):
    # no report may depend on the CPUs the process may run on
    rng = np.random.default_rng(12)
    n = 20000
    xs = np.where(rng.random(n) < 0.5, rng.uniform(-3.0, -1.0, n), rng.uniform(1.0, 3.0, n))
    ys = rng.normal(0.0, 1.0, n)
    xs[0], ys[0] = 0.0, 4.5
    tokens = rng.choice(["ant", "bee", "cat"], n)
    data = tmp_path / "table.csv"
    rows = zip(xs.tolist(), ys.tolist(), tokens)
    data.write_text("x,y,g\n" + "".join(f"{x!r},{y!r},{t}\n" for x, y, t in rows))
    one_cpu = min(os.sched_getaffinity(0))
    reports = []
    for pin in (lambda: os.sched_setaffinity(0, {one_cpu}), None):
        out = tmp_path / ("pinned" if pin else "unpinned")
        out.mkdir()
        mine = ["-m", "outprop.cli", "mine", "--data", str(data), "--outlier", "0", "--omega", "0.0",
                "--kmax", "2", "--seed", "3"]
        runs = [
            python(*mine, "--out", str(out / "r.jsonl"), "--curves", str(out / "curves"), preexec_fn=pin),
            python(*mine, "--tsv", "--out", str(out / "r.tsv"), preexec_fn=pin),
        ]
        assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
        reports.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    pinned, unpinned = reports
    assert pinned == unpinned
    assert len(pinned) > 3  # both reports and at least two curves
    assert b'"record":"pair"' in pinned[Path("r.jsonl")]


def test_mine_stdout_equals_file_output(tmp_path, capsys):
    data = gen_benchmark(tmp_path, size=120)
    argv = ["mine", "--data", str(data), "--outlier", "119", "--omega", "0.5",
            "--seed", "1", "--kmax", "2"]
    out = tmp_path / "r.jsonl"
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert "outlierness computation" in captured.err


def test_mine_summary_line_counts_the_scores_the_bound_skipped(tmp_path, capsys):
    data = gen_benchmark(tmp_path, size=400, seed=1)
    assert run(["mine", "--data", str(data), "--outlier", "399", "--omega", "0.2",
                "--seed", "1", "--kmax", "2", "--out", str(tmp_path / "r.jsonl")]) == 0
    with open(data, encoding="utf-8") as fh:
        db = parse_csv(fh)
    skips = outprop.mine(db, MiningConfig(outlier_index=399, min_score=0.2, max_conditions=2,
                                          em=outprop.EMConfig(seed=1))).bound_skips
    assert skips > 0
    assert f"  skipped by bound: {skips}  " in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_main_freezes_the_collector_s_objects_and_keeps_it_on_or_off(tmp_path, enabled):
    data = gen_benchmark(tmp_path, size=120)
    probe = (
        "import gc\n"
        "from outprop.cli import main\n"
        f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
        "before = gc.isenabled()\n"
        f"code = main(['mine', '--data', {str(data)!r}, '--outlier', '119', '--omega', '0.5', "
        f"'--out', {str(tmp_path / 'r.jsonl')!r}])\n"
        "print(code, gc.get_freeze_count() > 0, gc.isenabled() == before)\n"
    )
    assert probe_output(probe) == "0 True True"


def test_mine_reports_are_byte_identical(tmp_path):
    # two main calls in one process: the second freezes the first's objects
    data = gen_benchmark(tmp_path, size=150, seed=6)
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert run([
            "mine", "--data", str(data), "--outlier", "149", "--omega", "0.2",
            "--sigma", "0.1", "--seed", "11", "--kmax", "2", "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_mine_tsv_format(tmp_path):
    data = gen_benchmark(tmp_path, size=100)
    out = tmp_path / "report.tsv"
    assert run([
        "mine", "--data", str(data), "--outlier", "99", "--omega", "0.0",
        "--seed", "2", "--kmax", "2", "--tsv", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "score\traw\tsupport\tproperty\texplanation"
    assert len(lines) >= 2
    first = lines[1].split("\t")
    assert 0.0 <= float(first[0]) <= 1.0


def test_mine_tsv_quotes_odd_fields_and_prints_plain_floats(tmp_path):
    # a tab in a header name and a newline in a token; at omega 0.3 both
    # reported pairs have a one-condition explanation
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(0.0, 0.1, 30), rng.normal(5.0, 0.1, 30)])
    x[0] = 5.0
    data = tmp_path / "odd.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x\ty", "g"])
        writer.writerows([repr(float(v)), "g\n2" if i < 30 else "h"] for i, v in enumerate(x))
    argv = ["mine", "--data", str(data), "--outlier", "0", "--omega", "0.3", "--sigma", "0"]
    tsv, jsonl = tmp_path / "report.tsv", tmp_path / "report.jsonl"
    assert run(argv + ["--tsv", "--out", str(tsv)]) == 0
    assert run(argv + ["--out", str(jsonl)]) == 0
    pairs = [r for r in map(json.loads, jsonl.read_text().splitlines()) if r["record"] == "pair"]
    assert pairs and all(pair["explanation"] for pair in pairs)
    with open(tsv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    assert rows[0] == ["score", "raw", "support", "property", "explanation"]
    assert len(rows) == 1 + len(pairs)
    for row, pair in zip(rows[1:], pairs):
        assert len(row) == 5
        assert [float(v) for v in row[:3]] == [pair["score"], pair["raw"], pair["support"]]
        assert row[3] == pair["property"]
    assert ["x\ty", "g = g\n2"] in [row[3:] for row in rows[1:]]


def test_mine_writes_curve_files(tmp_path):
    data = gen_benchmark(tmp_path, size=100)
    curves = tmp_path / "curves"
    assert run([
        "mine", "--data", str(data), "--outlier", "99", "--omega", "0.0", "--seed", "2",
        "--kmax", "2", "--out", str(tmp_path / "r.jsonl"), "--curves", str(curves),
    ]) == 0
    files = sorted(curves.iterdir())
    assert files
    assert files[0].name.startswith("pair_000_")
    text = files[0].read_text()
    assert text.startswith("density\tcumulative\n")
    last = float(text.strip().splitlines()[-1].split("\t")[1])
    assert last == 1.0


def test_score_matches_mine(tmp_path, capsys):
    data = gen_benchmark(tmp_path, size=200, seed=4)
    out = tmp_path / "r.jsonl"
    assert run([
        "mine", "--data", str(data), "--outlier", "199", "--omega", "0.0",
        "--seed", "1", "--kmax", "2", "--out", str(out),
    ]) == 0
    pair = next(
        json.loads(line)
        for line in out.read_text().splitlines()
        if json.loads(line)["record"] == "pair"
        and json.loads(line)["property"] == "A"
        and json.loads(line)["explanation"] == []
    )
    capsys.readouterr()
    assert run([
        "score", "--data", str(data), "--outlier", "199", "--property", "A",
    ]) == 0
    lines = dict(
        line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["property"] == "A"
    assert lines["explanation"] == "(empty)"
    assert float(lines["score"]) == pair["score"]
    assert float(lines["raw"]) == pair["raw"]
    assert float(lines["support"]) == 1.0
    assert lines["accepted"] == "true"


def test_score_with_conditions(tmp_path, capsys):
    data = gen_benchmark(tmp_path, size=200, seed=4)
    capsys.readouterr()
    assert run([
        "score", "--data", str(data), "--outlier", "199", "--property", "u1",
        "--cond", "A:-0.5:0.5", "--omega", "0.9",
    ]) == 0
    lines = dict(
        line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert "A in" in lines["explanation"]
    assert lines["accepted"] == "false"
    with open(data, encoding="utf-8") as fh:
        db = parse_csv(fh)
    expl = Explanation.of(Condition.interval(0, -0.5, 0.5))
    cfg = MiningConfig(outlier_index=199, min_support=0.2, min_score=0.9, max_conditions=1)
    expected = explain_one(db, cfg, expl, 1)
    assert float(lines["score"]) == expected.score.value
    assert float(lines["support"]) == expected.support


def test_score_writes_curve(tmp_path):
    data = gen_benchmark(tmp_path, size=100)
    curve = tmp_path / "curve.tsv"
    assert run([
        "score", "--data", str(data), "--outlier", "99", "--property", "A",
        "--curve", str(curve),
    ]) == 0
    assert curve.read_text().startswith("density\tcumulative\n")


def test_score_usage_errors(tmp_path):
    data = gen_benchmark(tmp_path, size=60)
    base = ["score", "--data", str(data), "--outlier", "59"]
    with pytest.raises(SystemExit) as err:
        run(base + ["--property", "A", "--cond", "A:zzz"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(base + ["--property", "A", "--cond", "A:-1.0:1.0"])
    assert err.value.code == 2  # property inside the conditions


def test_out_of_range_threshold_is_a_usage_error(tmp_path):
    data = gen_benchmark(tmp_path, size=60)
    with pytest.raises(SystemExit) as err:
        run(["mine", "--data", str(data), "--outlier", "59", "--omega", "1.5"])
    assert err.value.code == 2


def test_runtime_errors_exit_one(tmp_path, capsys):
    assert run([
        "mine", "--data", str(tmp_path / "missing.csv"), "--outlier", "0", "--omega", "0.5",
    ]) == 1
    assert "error:" in capsys.readouterr().err
    data = gen_benchmark(tmp_path, size=60)
    capsys.readouterr()
    assert run([
        "mine", "--data", str(data), "--outlier", "60", "--omega", "0.5", "--kmax", "2",
    ]) == 1
    assert "out of range" in capsys.readouterr().err
    # the default kmax 3 is past the 1 condition a 2-attribute table can
    # apply; the search stops there and reports what --kmax 1 reports
    reports = {}
    for kmax in ([], ["--kmax", "1"]):
        out = tmp_path / f"kmax{len(kmax)}.jsonl"
        assert run([
            "mine", "--data", str(data), "--outlier", "59", "--omega", "0.1", *kmax, "--out", str(out),
        ]) == 0
        reports[len(kmax)] = [json.loads(line) for line in out.read_text().splitlines()]
    assert reports[0][0]["config"]["kmax"] == 3
    assert reports[0][1:] == reports[2][1:]
    assert any(r["record"] == "pair" for r in reports[0])


def test_equality_condition_on_numeric_attribute_fails_cleanly(tmp_path, capsys):
    data = gen_benchmark(tmp_path, size=60)
    code = run([
        "score", "--data", str(data), "--outlier", "59", "--property", "u1",
        "--cond", "A=0.0",
    ])
    assert code == 1
    assert "equality condition" in capsys.readouterr().err


def test_schema_sidecar_forces_categorical(tmp_path):
    csv = tmp_path / "coded.csv"
    rows = ["code,x"] + [f"{i % 3},{0.01 * i}" for i in range(30)]
    csv.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "schema.txt"
    schema.write_text("code:categorical\n")
    out = tmp_path / "r.jsonl"
    assert run([
        "mine", "--data", str(csv), "--outlier", "0", "--omega", "0.0",
        "--schema", str(schema), "--kmax", "1", "--out", str(out),
    ]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    items = {i["attribute"]: i for i in records[1]["items"]}
    assert items["code"] == {"attribute": "code", "value": "0"}
    assert "lower" in items["x"]


def test_schema_file_may_start_with_a_bom(tmp_path, capsys):
    csv = tmp_path / "coded.csv"
    rows = ["c,x"] + [f"{i % 3},{0.01 * i}" for i in range(30)]
    csv.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "schema.txt"
    schema.write_bytes(b"\xef\xbb\xbfc:categorical\n")
    assert run([
        "score", "--data", str(csv), "--outlier", "0", "--property", "x",
        "--cond", "c=0", "--schema", str(schema),
    ]) == 0
    out = capsys.readouterr().out
    # the hint made c categorical, so the equality condition applies
    assert "explanation: c = 0" in out
    assert "support: 0.3333333333333333" in out


def test_mine_reads_no_seed_from_the_environment(tmp_path, monkeypatch):
    # the seed comes from --seed alone, default 0
    data = gen_benchmark(tmp_path, size=120)
    argv = ["mine", "--data", str(data), "--outlier", "119", "--omega", "0.5", "--kmax", "2", "--out"]
    assert run(argv + [str(tmp_path / "plain.jsonl")]) == 0
    expected = (tmp_path / "plain.jsonl").read_bytes()
    assert b'"seed":0' in expected
    for value in ("42", "abc"):
        monkeypatch.setenv("OUTPROP_SEED", value)
        out = tmp_path / f"{value}.jsonl"
        assert run(argv + [str(out)]) == 0
        assert out.read_bytes() == expected


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    for argv in (
        ["mine", "--data", "d.csv", "--outlier", "0", "--omega", "0.5", "--seed=-1"],
        ["gen-unif2", "--out", str(tmp_path / "gen.csv"), "--seed=-1"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert "seed must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "gen.csv").exists()


def mine_process(*args):
    """Exit code and stderr of a child `outprop mine` process."""
    out = python("-m", "outprop.cli", "mine", "--outlier", "0", "--omega", "0.5", "--kmax", "1", *args)
    return out.returncode, out.stderr


def test_data_file_that_is_not_utf8_exits_one(tmp_path):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"x,y\n1,caf\xe9\n2,b\n")
    code, err = mine_process("--data", str(data))
    assert code == 1
    assert "error: input is not valid UTF-8" in err
    assert "Traceback" not in err


def test_schema_file_that_is_not_utf8_exits_one(tmp_path):
    data = tmp_path / "ok.csv"
    data.write_text("x,y\n1,a\n2,b\n")
    schema = tmp_path / "schema.txt"
    schema.write_bytes(b"y:categorical\n\xff\n")
    code, err = mine_process("--data", str(data), "--schema", str(schema))
    assert code == 1
    assert "error: schema file is not valid UTF-8" in err
    assert "Traceback" not in err


def test_cell_past_the_csv_field_limit_exits_one(tmp_path):
    data = tmp_path / "long.csv"
    data.write_text("x,y\n1,a\n2," + "b" * 200_000 + "\n")
    code, err = mine_process("--data", str(data))
    assert code == 1
    assert "error: malformed CSV: field larger than field limit" in err
    assert "(row 1)" in err
    assert "Traceback" not in err


OUT_OF_RANGE_COLUMNS = {
    "squared span overflows": [1e308, -1e308, 0.0, 5.0],
    "subnormal values": [1e-320, 0.0, 0.0, 2e-320],
    "variance floor underflows": np.random.default_rng(0).uniform(-1e-155, 1e-155, 2000).tolist(),
    # 22 row blocks, so the squares overflow on the worker thread as well
    "squares overflow on both threads": np.random.default_rng(0).uniform(-1e200, 1e200, 20000).tolist(),
}


@pytest.mark.parametrize("values", OUT_OF_RANGE_COLUMNS.values(), ids=OUT_OF_RANGE_COLUMNS.keys())
def test_mixture_fit_out_of_float_range_exits_one(tmp_path, capsys, values):
    data = tmp_path / "extreme.csv"
    data.write_text("spread\n" + "".join(f"{v!r}\n" for v in values))
    assert run(["mine", "--data", str(data), "--outlier", "0", "--omega", "0.5", "--kmax", "1"]) == 1
    captured = capsys.readouterr()
    # numpy's own overflow warnings would add lines before the error
    (line,) = captured.err.splitlines()
    assert line.startswith("error: attribute 'spread': mixture fit left the float64 range")
    assert captured.out == ""


def test_score_with_an_overflowing_window_exits_one(tmp_path, capsys):
    data = tmp_path / "extreme.csv"
    values = OUT_OF_RANGE_COLUMNS["squared span overflows"]
    data.write_text("spread\n" + "".join(f"{v!r}\n" for v in values))
    curve = tmp_path / "curve.tsv"
    argv = ["score", "--data", str(data), "--outlier", "0", "--property", "spread", "--curve", str(curve)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: density window width left the float64 range")
    assert captured.out == ""
    assert not curve.exists()


def tall_column(tmp_path, rows=300_000):
    """A numeric column of 300,000 rows; a fit starts it at isqrt(n) = 547 components."""
    xs = np.random.default_rng(5).normal(0.0, 1.0, rows)
    data = tmp_path / "tall.csv"
    data.write_text("x\n" + "\n".join(map(repr, xs.tolist())) + "\n", encoding="utf-8")
    return xs, data


def test_a_fit_whose_matrix_would_pass_the_address_space_limit_runs(tmp_path):
    # one n x k matrix of the column would be 1.22 GiB, past the child's
    # 1 GiB address space; the fit holds two GROUPS x k matrices instead.
    # The limit is set in the child only.
    resource = pytest.importorskip("resource")
    xs, data = tall_column(tmp_path)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    child = python("-m", "outprop.cli", "mine", "--data", str(data), "--outlier", "0",
                   "--omega", "0.5", preexec_fn=limit_address_space, timeout=120)
    assert child.returncode == 0, child.stderr
    meta, conditions = map(json.loads, child.stdout.splitlines()[:2])
    assert meta["dataset"] == {"attributes": 1, "rows": 300_000}
    assert conditions["record"] == "conditions"
    (fit,) = conditions["intervals"]
    assert (fit["attribute"], fit["components"], fit["stop_reason"]) == ("x", 547, "tol")
    (item,) = conditions["items"]
    assert item["lower"] <= xs[0] <= item["upper"]


def test_a_million_row_column_mines_within_a_cpu_limit(tmp_path):
    # the fit runs on 1,024 groups of the sorted column, so its iterations
    # cost the same at 1M rows as at 20,000; a fit over the rows took 40 s
    # of CPU here. The limits are set in the child only.
    resource = pytest.importorskip("resource")
    xs, data = tall_column(tmp_path, rows=1_000_000)

    def limit_address_space_and_cpu():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (15, 15))

    child = python("-m", "outprop.cli", "mine", "--data", str(data), "--outlier", "0",
                   "--omega", "0.5", preexec_fn=limit_address_space_and_cpu, timeout=120)
    assert child.returncode == 0, child.stderr
    meta, conditions = map(json.loads, child.stdout.splitlines()[:2])
    assert meta["dataset"] == {"attributes": 1, "rows": 1_000_000}
    (fit,) = conditions["intervals"]
    assert (fit["attribute"], fit["components"]) == ("x", 1000)
    (item,) = conditions["items"]
    assert item["lower"] <= xs[0] <= item["upper"]


# Runs mine on a tiny table first, so that every module mine loads is
# mapped, then limits the process's address space to what it maps plus
# 8 MiB (Linux: /proc/self/statm) and mines the tall table
_OUT_OF_MEMORY_CHILD = """
import os, resource, sys
from outprop.cli import main
tiny, tall = sys.argv[1:]
assert main(["mine", "--data", tiny, "--outlier", "0", "--omega", "0.5"]) == 0
with open("/proc/self/statm") as fh:
    limit = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (8 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(["mine", "--data", tall, "--outlier", "0", "--omega", "0.5"]))
"""


def test_out_of_memory_exits_one_with_an_error_line(tmp_path):
    # mine on the tall table needs more than 8 MiB past what the process
    # has mapped, for the parsed column, the grouping's n-vectors and the
    # fit's two matrices
    pytest.importorskip("resource")
    if not Path("/proc/self/statm").exists():
        pytest.skip("reads the mapped size from /proc")
    _, tall = tall_column(tmp_path)
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("x\n1.0\n2.0\n3.5\n4.0\n", encoding="utf-8")
    child = python("-c", _OUT_OF_MEMORY_CHILD, str(tiny), str(tall), timeout=120)
    assert child.returncode == 1, child.stderr
    assert child.stderr.splitlines()[-1].startswith("error: out of memory")
    assert "Traceback" not in child.stderr
