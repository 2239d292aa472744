"""Command-line interface: subcommands, exit codes, report format."""

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


def python(*args, **kwargs):
    """Run a Python child process that imports this package's sources."""
    src = str(Path(outprop.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


def test_cli_import_does_not_load_scipy():
    probe = "import sys, outprop.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = python("-c", probe)
    assert out.returncode == 0
    assert out.stdout.strip() == "[]"


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


def test_mine_reports_are_byte_identical(tmp_path):
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


def test_seed_env_variable_sets_the_default(monkeypatch):
    monkeypatch.setenv("OUTPROP_SEED", "42")
    args = build_parser().parse_args(["mine", "--data", "d.csv", "--outlier", "0", "--omega", "0.5"])
    assert args.seed == 42
    monkeypatch.delenv("OUTPROP_SEED")
    args = build_parser().parse_args(["mine", "--data", "d.csv", "--outlier", "0", "--omega", "0.5"])
    assert args.seed == 0


def test_malformed_seed_env_variable_is_a_usage_error(monkeypatch, capsys):
    mine_args = ["mine", "--data", "d.csv", "--outlier", "0", "--omega", "0.5"]
    for value in ("abc", "-1"):
        monkeypatch.setenv("OUTPROP_SEED", value)
        with pytest.raises(SystemExit) as err:
            run(mine_args)
        assert err.value.code == 2
        assert "OUTPROP_SEED" in capsys.readouterr().err
    # an explicit --seed does not read the environment
    assert build_parser().parse_args(mine_args + ["--seed", "5"]).seed == 5


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
}


@pytest.mark.parametrize("values", OUT_OF_RANGE_COLUMNS.values(), ids=OUT_OF_RANGE_COLUMNS.keys())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow it meets
def test_mixture_fit_out_of_float_range_exits_one(tmp_path, capsys, values):
    data = tmp_path / "extreme.csv"
    data.write_text("spread\n" + "".join(f"{v!r}\n" for v in values))
    assert run(["mine", "--data", str(data), "--outlier", "0", "--omega", "0.5", "--kmax", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: attribute 'spread': mixture fit left the float64 range" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow it meets
def test_score_with_an_overflowing_window_exits_one(tmp_path, capsys):
    data = tmp_path / "extreme.csv"
    values = OUT_OF_RANGE_COLUMNS["squared span overflows"]
    data.write_text("spread\n" + "".join(f"{v!r}\n" for v in values))
    curve = tmp_path / "curve.tsv"
    argv = ["score", "--data", str(data), "--outlier", "0", "--property", "spread", "--curve", str(curve)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "error: density window width left the float64 range" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not curve.exists()


def test_out_of_memory_exits_one_with_an_error_line(tmp_path):
    # 300,000 rows start the fit at isqrt(n) = 547 components, and one
    # n x k buffer of them is 1.22 GiB, past the child's 1 GiB address
    # space. A fit on bins, which holds no n x k buffer, will run this to
    # exit 0 instead. The limit is set in the child only; never run this
    # case without it.
    resource = pytest.importorskip("resource")
    xs = np.random.default_rng(5).normal(0.0, 1.0, 300_000)
    data = tmp_path / "tall.csv"
    data.write_text("x\n" + "\n".join(map(repr, xs.tolist())) + "\n", encoding="utf-8")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    child = python("-m", "outprop.cli", "mine", "--data", str(data), "--outlier", "0",
                   "--omega", "0.5", preexec_fn=limit_address_space, timeout=120)
    assert child.returncode == 1
    assert child.stderr.startswith("error: out of memory: Unable to allocate 1.22 GiB")
    assert "Traceback" not in child.stderr
