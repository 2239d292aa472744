"""Fuzz of the command line: any CSV, schema and flags end in exit 0, 1 or 2.

Inputs are generated in-process: raw CSV bytes (invalid UTF-8, NUL, quotes,
ragged rows, empty cells, cells past the csv field limit, extreme and
subnormal numbers), schema sidecar lines, and the ``mine`` and ``score``
flags. The contract is that ``outprop.cli.main`` returns 0 or 1, or exits
2 on a usage error, and never lets an exception escape. A JSON ``mine``
report that exits 0 must be strict JSON, with no NaN or Infinity; a TSV one
must parse back into rows of five fields that start with three numbers. One
draw in four is a well-formed numeric-and-categorical table mined for TSV
pair rows. A warning fails the run, as the test suite's warning filters
make it.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from outprop.cli import main

NAMES = ("a", "b", "c", "d", "", "a b", '"q"', "x:y")

NUMBERS = st.one_of(
    st.floats(-3, 3).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e308", "-1e308", "1e-320", "5e-324", "2e-320", "-0.0", "1e309", "1_0", " 1", "0x10"]),
    st.integers(-10, 10).map(str),
)
TOKENS = st.one_of(
    st.sampled_from(["a", "b", "tok"]),
    st.sampled_from(['"', '""', ",", "\n", "\r\n", "\x00", "é", "\ufeff", "nan", "1"]),
    st.text(min_size=1, max_size=6),
)
ODD_CELLS = st.sampled_from(["", "z" * 131_073, "inf", "-", "1e", "١"])
ENCODING_FAULTS = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b'"', b"\xef\xbb\xbf", b"\r"])


def mostly(usual, rare):
    """Draws from usual nine times in ten, else from rare."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 9 else usual)


def _needs_quotes(cell: str) -> bool:
    return any(c in cell for c in ',"\r\n')


@st.composite
def csv_bytes(draw):
    width = draw(st.integers(1, 4))
    header = draw(mostly(
        st.lists(st.sampled_from(NAMES), min_size=width, max_size=width, unique=True),
        st.lists(st.sampled_from(NAMES), min_size=width, max_size=width),
    ))
    # each column holds numbers or tokens; some files get one odd cell
    kinds = draw(st.lists(st.sampled_from([NUMBERS, NUMBERS, TOKENS]), min_size=width, max_size=width))
    rows = [header]
    for _ in range(draw(mostly(st.integers(3, 12), st.integers(0, 2)))):
        n_cells = draw(mostly(st.just(width), st.integers(0, width + 1)))
        rows.append([draw(kinds[j % width]) for j in range(n_cells)])
    if len(rows) > 1 and draw(mostly(st.just(False), st.just(True))):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
    # cells are quoted where they need it, apart from a few files
    quote = draw(mostly(st.just(_needs_quotes), st.just(lambda cell: draw(st.booleans()))))
    text = "\n".join(",".join('"' + c.replace('"', '""') + '"' if quote(c) else c for c in row) for row in rows)
    data = (text + draw(st.sampled_from(["", "\n", "\r\n"]))).encode("utf-8")
    fault = draw(mostly(st.just(b""), ENCODING_FAULTS))
    at = draw(st.integers(0, len(data)))
    return data[:at] + fault + data[at:], header, len(rows) - 1


@st.composite
def schema_bytes(draw, header):
    names = mostly(st.sampled_from(header), st.sampled_from(NAMES))
    kinds = mostly(st.sampled_from(["numeric", "categorical"]), st.sampled_from(["text", ""]))
    lines = draw(st.lists(st.tuples(names, kinds).map(":".join), max_size=4))
    lines += draw(mostly(st.just([]), st.lists(st.sampled_from(["", "   ", "nocolon", ":"]), max_size=2)))
    return "\n".join(lines).encode("utf-8") + draw(mostly(st.just(b""), ENCODING_FAULTS))


BAD_NUMBERS = st.sampled_from(["-1", "2", "nan", "inf", "x", "", "1e-300"])
BAD_INTS = st.sampled_from(["-1", "0", "", "x", "1.5", "99999999999999999999"])


@st.composite
def pair_table(draw):
    """A well-formed table of one numeric and one categorical column.

    Mined with ``--sigma 0``, a low ``--omega`` and ``--tsv``, it usually
    reports pairs, so the TSV rows are parsed, not only the header.
    """
    n_rows = draw(st.integers(3, 12))
    xs = draw(st.lists(st.floats(-3, 3), min_size=n_rows, max_size=n_rows))
    tokens = draw(st.lists(st.sampled_from(["a", "b", "tok"]), min_size=n_rows, max_size=n_rows))
    data = "x,t\n" + "".join(f"{x!r},{t}\n" for x, t in zip(xs, tokens))
    flags = ["--outlier", str(draw(st.integers(0, n_rows - 1))), "--sigma", "0"]
    flags += ["--omega", draw(st.sampled_from(["0", "0.01", "0.1"])), "--tsv"]
    return "mine", data.encode("utf-8"), None, flags, draw(st.booleans())


@st.composite
def invocations(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(pair_table())
    data, header, n_rows = draw(csv_bytes())
    schema = draw(st.none() | schema_bytes(header))
    command = draw(st.sampled_from(["mine", "score"]))
    unit = st.floats(0, 1).map(repr)

    def option(name, usual, rare):
        present = draw(st.booleans())
        return [name, draw(mostly(usual, rare))] if present else []

    flags = ["--outlier", draw(mostly(st.integers(0, max(n_rows - 1, 0)).map(str), BAD_INTS))]
    flags += option("--sigma", st.sampled_from(["0", "0.1", "0.5"]), BAD_NUMBERS)
    if command == "mine":
        flags += ["--omega", draw(mostly(unit, BAD_NUMBERS))]
        flags += option("--kmax", st.integers(1, max(len(header) - 1, 1)).map(str), BAD_INTS)
        flags += option("--seed", st.integers(-3, 5).map(str), BAD_INTS)
        flags += draw(st.sampled_from([[], ["--tsv"]]))
    else:
        flags += ["--property", draw(mostly(st.sampled_from(header), st.just("missing")))]
        flags += option("--omega", unit, BAD_NUMBERS)
        bound = draw(mostly(st.floats(-3, 3).map(repr), BAD_NUMBERS))
        cond = st.one_of(
            st.tuples(st.sampled_from(header), st.just(bound), st.floats(-3, 3).map(repr)).map(":".join),
            st.tuples(st.sampled_from(header), TOKENS).map("=".join),
            st.text(max_size=6),
        )
        for c in draw(st.lists(cond, max_size=3)):
            flags += ["--cond", c]
    return command, data, schema, flags, draw(st.booleans())


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@given(invocations())
@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_cleanly_on_any_input(invocation):
    command, data, schema, flags, curves = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "data.csv").write_bytes(data)
        argv = [command, "--data", str(root / "data.csv"), *flags]
        if schema is not None:
            (root / "schema.txt").write_bytes(schema)
            argv += ["--schema", str(root / "schema.txt")]
        if curves:
            argv += ["--curves" if command == "mine" else "--curve", str(root / "curves")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().strip(), "a failing exit must say why"
    elif command == "mine" and "--tsv" in flags:
        header, *rows = csv.reader(io.StringIO(out.getvalue(), newline=""), delimiter="\t")
        assert header == ["score", "raw", "support", "property", "explanation"]
        for row in rows:
            assert len(row) == 5
            for number in row[:3]:
                float(number)
    elif command == "mine":
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)
