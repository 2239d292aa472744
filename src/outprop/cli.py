"""Command-line interface.

Three subcommands:

``mine``       find minimal explanation-property pairs for one row of a CSV.
``score``      evaluate one explanation-property pair given explicitly.
``gen-unif2``  write a synthetic benchmark CSV: one numeric attribute split
               into two uniform clusters with a single row in the gap.

Reports are deterministic for a fixed seed: ``mine`` writes one JSON record
per line (or a TSV table with --tsv), and wall-clock timings go to stderr so
they never perturb the report bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import re
import sys

if "numpy" not in sys.modules:
    # outprop makes no BLAS call, yet numpy's OpenBLAS starts a pool of
    # worker threads when numpy loads; a value the user set still wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .dataset import Condition, Dataset, Explanation, parse_csv, read_schema_file, select
from .density import density_curve
from .errors import Error
from .intervals import ANNIHILATION, MAX_ITER, TOL, EMConfig
from .miner import MiningConfig, MiningResult, explain_one, mine

REPORT_VERSION = 2


def _report_records(db: Dataset, config: dict, result: MiningResult) -> list[dict]:
    """The JSON records of one mine report: meta, conditions, then each pair."""
    records: list[dict] = [
        {
            "record": "meta",
            "version": REPORT_VERSION,
            "dataset": {"rows": db.n_rows, "attributes": db.n_attributes},
            "config": config,
        },
        {
            "record": "conditions",
            "items": [_condition_record(db, result.conditions[i]) for i in sorted(result.conditions)],
            "intervals": [dataclasses.asdict(r) for r in result.interval_reports],
        },
    ]
    for pair in result.pairs:
        records.append(
            {
                "record": "pair",
                "property": pair.property.name,
                "score": pair.score.value,
                "raw": pair.score.raw,
                "support": pair.support,
                "query_density": pair.score.query_density,
                "explanation": [_condition_record(db, c) for c in pair.explanation],
            }
        )
    return records


def _condition_record(db: Dataset, condition: Condition) -> dict:
    name = db.schema[condition.attribute].name
    if condition.is_interval:
        return {"attribute": name, "lower": condition.lower, "upper": condition.upper}
    return {"attribute": name, "value": condition.value}


def _format_json(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


def _tsv_field(text: str) -> str:
    # quoted as csv.writer quotes, and on a bare carriage return too, which
    # Python 3.11's csv module leaves unquoted under a "\n" line end
    if any(c in text for c in '\t\n\r"'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_tsv(db: Dataset, result: MiningResult) -> str:
    rows = [("score", "raw", "support", "property", "explanation")]
    for pair in result.pairs:
        rows.append((
            repr(pair.score.value), repr(pair.score.raw), repr(pair.support),
            pair.property.name, pair.explanation.describe(db.schema),
        ))
    return "".join("\t".join(map(_tsv_field, row)) + "\n" for row in rows)


def _load_dataset(args) -> Dataset:
    hint = read_schema_file(args.schema) if args.schema else None
    with open(args.data, encoding="utf-8-sig", newline="") as fh:
        return parse_csv(fh, hint=hint)


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text)


def _write_curves(db: Dataset, result: MiningResult, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for i, pair in enumerate(result.pairs):
        path = os.path.join(directory, f"pair_{i:03d}_{_safe_name(pair.property.name)}.tsv")
        curve = density_curve(select(db, pair.explanation), pair.property)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(curve.to_tsv())


def _cmd_mine(args) -> int:
    db = _load_dataset(args)
    cfg = MiningConfig(
        outlier_index=args.outlier,
        min_support=args.sigma,
        min_score=args.omega,
        max_conditions=args.kmax,
        em=EMConfig(seed=args.seed),
    )
    result = mine(db, cfg)
    config = {
        "data": os.path.basename(args.data),
        "outlier": args.outlier,
        "sigma": args.sigma,
        "omega": args.omega,
        "kmax": args.kmax,
        "seed": args.seed,
        "annihilation": ANNIHILATION,
        "em_tol": TOL,
        "em_max_iter": MAX_ITER,
    }
    text = _format_tsv(db, result) if args.tsv else _format_json(_report_records(db, config, result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.curves:
        _write_curves(db, result, args.curves)
    print(
        f"pairs: {len(result.pairs)}  "
        f"skipped by bound: {result.bound_skips}  "
        f"condition building: {result.condition_seconds:.3f} s  "
        f"outlierness computation: {result.scoring_seconds:.3f} s",
        file=sys.stderr,
    )
    return 0


_COND_RE = re.compile(r"^(?P<name>[^:=]+)(?::(?P<lo>[^:]+):(?P<hi>[^:]+)|=(?P<value>.*))$")


def _parse_condition(db: Dataset, text: str) -> Condition:
    match = _COND_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse condition {text!r}; use attr:lo:hi or attr=value")
    attr = db.attribute(match.group("name"))
    if match.group("value") is not None:
        return Condition.equality(attr.index, match.group("value"))
    return Condition.interval(attr.index, float(match.group("lo")), float(match.group("hi")))


def _cmd_score(args, parser: argparse.ArgumentParser) -> int:
    db = _load_dataset(args)
    try:
        conds = [_parse_condition(db, text) for text in args.cond]
        explanation = Explanation.of(*conds)
    except ValueError as exc:
        parser.error(str(exc))
    prop = db.attribute(args.property)
    if prop.index in explanation.attributes:
        parser.error("the property may not appear in the conditions")
    cfg = MiningConfig(
        outlier_index=args.outlier,
        min_support=args.sigma,
        min_score=args.omega,
    )
    evaluation = explain_one(db, cfg, explanation, prop.index)
    print(f"property: {prop.name}")
    print(f"explanation: {explanation.describe(db.schema)}")
    print(f"support: {evaluation.support!r}")
    print(f"raw: {evaluation.score.raw!r}")
    print(f"score: {evaluation.score.value!r}")
    print(f"accepted: {'true' if evaluation.accepted else 'false'}")
    if args.curve:
        curve = density_curve(select(db, explanation), prop)
        with open(args.curve, "w", encoding="utf-8") as fh:
            fh.write(curve.to_tsv())
    return 0


def _cmd_gen_unif2(args) -> int:
    # Cluster sizes: size/2 - 1 rows in [-1.1, -0.1], size/2 rows in
    # [0.1, 1.1], and the final row sits at exactly 0 on attribute A.
    rng = np.random.default_rng(args.seed)
    size = args.size
    first = rng.uniform(-1.1, -0.1, size // 2 - 1)
    second = rng.uniform(0.1, 1.1, size // 2)
    a = np.concatenate([first, second, [0.0]])
    aux = [rng.random(size) for _ in range(args.aux)]
    names = ["A"] + [f"u{i + 1}" for i in range(args.aux)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for r in range(size):
            cells = [repr(float(a[r]))] + [repr(float(col[r])) for col in aux]
            fh.write(",".join(cells) + "\n")
    print(size - 1)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outprop",
        description="Mine explanation-property pairs that set one row of a table apart.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def bounded_float(name, lo, hi):
        def convert(text):
            value = float(text)
            if not lo <= value <= hi:
                raise argparse.ArgumentTypeError(f"{name} must lie in [{lo}, {hi}]")
            return value

        return convert

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be a positive integer")
        return value

    def seed(text):
        try:
            value = int(text)
            if value < 0:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}") from None
        return value

    def even_size(text):
        value = int(text)
        if value < 4 or value % 2:
            raise argparse.ArgumentTypeError("size must be an even integer >= 4")
        return value

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True, help="input CSV file")
    common.add_argument("--outlier", type=int, required=True, help="0-based row index of the designated outlier")
    common.add_argument("--sigma", type=bounded_float("sigma", 0.0, 1.0), default=0.2, help="minimum support (default 0.2)")
    common.add_argument("--schema", help="sidecar schema file, one name:kind line per attribute")

    p_mine = sub.add_parser("mine", parents=[common], help="search for all minimal pairs")
    p_mine.add_argument("--omega", type=bounded_float("omega", 0.0, 1.0), required=True, help="minimum outlierness score")
    p_mine.add_argument("--kmax", type=positive_int, default=3, help="largest explanation size (default 3)")
    p_mine.add_argument("--seed", type=seed, default=0, help="seed for interval discovery (default 0)")
    p_mine.add_argument("--out", help="write the report here instead of stdout")
    p_mine.add_argument("--curves", help="directory for per-pair density cdf TSV files")
    p_mine.add_argument("--tsv", action="store_true", help="tabular report instead of JSON records")
    p_mine.set_defaults(func=lambda a: _cmd_mine(a))

    p_score = sub.add_parser("score", parents=[common], help="score one explanation-property pair")
    p_score.add_argument("--property", required=True, help="attribute to score")
    p_score.add_argument("--cond", action="append", default=[], metavar="COND",
                         help="condition attr:lo:hi or attr=value; repeatable")
    p_score.add_argument("--omega", type=bounded_float("omega", 0.0, 1.0), default=0.0, help="acceptance threshold for the score")
    p_score.add_argument("--curve", help="write the density cdf of the selection as TSV")
    p_score.set_defaults(func=lambda a: _cmd_score(a, parser))

    p_gen = sub.add_parser("gen-unif2", help="generate the two-cluster benchmark CSV")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--size", type=even_size, default=20000, help="row count, even, >= 4 (default 20000)")
    p_gen.add_argument("--seed", type=seed, default=0, help="generator seed (default 0)")
    p_gen.add_argument("--aux", type=positive_int, default=1, help="number of uniform noise attributes (default 1)")
    p_gen.set_defaults(func=lambda a: _cmd_gen_unif2(a))

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand on argv (default ``sys.argv[1:]``); the exit code.

    It first moves every object the collector tracks, numpy's and outprop's
    import-time objects among them, into ``gc.freeze``'s permanent
    generation, so neither the run's full collections nor the one at
    interpreter exit scan them again. For a caller in the same process:
    reference counting still frees a frozen object, but cyclic garbage that
    exists at the call is kept until the process exits.
    """
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the fit's and the window's finite checks report a value out of range
        with np.errstate(all="ignore"):
            return args.func(args)
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError has no text
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
