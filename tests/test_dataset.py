"""Dataset model, CSV parsing, conditions, explanations, selection."""

import contextlib
import csv
import io
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outprop import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    Condition,
    Dataset,
    Explanation,
    SelectionView,
    parse_csv,
    read_schema_file,
    select,
)
from outprop.dataset import _NUMBER, _PARSE_ROWS, _parse_cells
from outprop.errors import Error, MissingValueError, ParseError, PreconditionError, SchemaError

CSV = "x,label,y\n1.5,on,0.25\n2.5,off,0.5\n9.0,on,0.75\n"

# tiny chunks put a table's rows, and its faults, in different chunks
CHUNK_ROWS = (1, 2, 3)


def contents(db):
    """Everything a parse decides: kinds, float bits, tokens, codes, vocabularies."""
    out = []
    for a, col, codes in zip(db.schema, db.columns, db.codes):
        if a.kind == NUMERIC:
            out.append((a, col.dtype.str, col.tobytes()))
        else:
            vocabulary = sorted(set(col.tolist()), key=lambda t: db.code(a.index, t))
            out.append((a, [(type(t), t) for t in col], codes.dtype.str, codes.tobytes(),
                        [(t, db.code(a.index, t)) for t in vocabulary]))
    return out


def parse_in_chunks(source, hint=None):
    """parse_csv(source, hint), once chunks of a few rows have given the same
    Dataset or the same error (type, message, row, column) as the default size."""
    stream = not isinstance(source, str)
    text = source.read() if stream else source

    def parse():
        return parse_csv(io.StringIO(text) if stream else text, hint=hint)

    def outcome():
        try:
            return contents(parse())
        except Error as exc:
            return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)

    expected = outcome()
    for rows in CHUNK_ROWS:
        with mock.patch("outprop.dataset._PARSE_ROWS", rows):
            assert outcome() == expected, f"{rows}-row chunks"
    return parse()


def small_db():
    return parse_in_chunks(CSV)


def test_parse_infers_kinds_and_values():
    db = small_db()
    assert db.n_rows == 3
    assert db.n_attributes == 3
    assert [a.kind for a in db.schema] == [NUMERIC, CATEGORICAL, NUMERIC]
    assert db.columns[0].dtype == np.float64
    assert list(db.columns[1]) == ["on", "off", "on"]
    assert [col[1] for col in db.columns] == [2.5, "off", 0.5]


def test_parse_accepts_stream_input():
    db = parse_in_chunks(io.StringIO(CSV))
    assert db.n_rows == 3


def test_parse_rejects_duplicate_header():
    with pytest.raises(ParseError):
        parse_in_chunks("x,x\n1,2\n")


def test_parse_rejects_ragged_row():
    with pytest.raises(ParseError) as err:
        parse_in_chunks("x,y\n1,2\n3\n")
    assert err.value.row == 1


def test_parse_rejects_missing_cell():
    with pytest.raises(MissingValueError) as err:
        parse_in_chunks("x,y\n1,\n")
    assert err.value.row == 0
    assert err.value.column == "y"


def test_parse_rejects_non_finite_numeric():
    with pytest.raises(ParseError):
        parse_in_chunks("x\n1.0\nnan\n")
    with pytest.raises(ParseError):
        parse_in_chunks("x\ninf\n2.0\n")


def test_parse_accepts_only_plain_number_literals():
    db = parse_in_chunks('grouped,padded,plain\n1_000," 2 ",+.5e-3\n3,4,7.\n')
    assert [a.kind for a in db.schema] == [CATEGORICAL, CATEGORICAL, NUMERIC]
    assert db.columns[0][0] == "1_000"
    assert db.columns[1][0] == " 2 "
    np.testing.assert_array_equal(db.columns[2], [0.0005, 7.0])
    for text, column in (("x,y\n1,2\n3,4_0\n", "y"), ("x,y\n1,2\n3, 4\n", "y")):
        with pytest.raises(ParseError) as err:
            parse_in_chunks(text, hint={column: NUMERIC})
        assert (err.value.row, err.value.column) == (1, column)


@given(st.lists(st.text(alphabet="019.eE+-_ \u0663infINa", min_size=1, max_size=6), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_whole_column_number_parse_agrees_with_the_literal_pattern(tokens):
    literal = [float(t) if _NUMBER.fullmatch(t) else None for t in tokens]
    # only the rows before the first non-literal are parsed
    expected = literal[: literal.index(None)] if None in literal else literal
    assert list(map(repr, _parse_cells(tokens))) == list(map(repr, expected))


@pytest.mark.parametrize("char", ["_"] + [c for c in map(chr, range(128)) if c.isspace()], ids=repr)
def test_padding_or_grouping_character_makes_a_cell_a_non_number(char):
    # every ASCII character [\s_] matches; float() alone takes most of them
    # as padding or digit grouping
    token = "1_0" if char == "_" else f"{char}3"
    out = io.StringIO()
    csv.writer(out).writerows([["x", "y"], ["1", "2"], ["3", token], ["5", "6"]])
    text = out.getvalue()
    db = parse_in_chunks(text)
    assert [a.kind for a in db.schema] == [NUMERIC, CATEGORICAL]
    assert db.columns[1][1] == token
    with pytest.raises(ParseError) as err:
        parse_in_chunks(text, hint={"y": NUMERIC})
    assert (err.value.row, err.value.column) == (1, "y")


@pytest.mark.parametrize(
    ("cells", "row", "message"),
    [(["1", "inf", "x1", "4"], 1, "non-finite"), (["1", "x1", "nan", "4"], 1, "cannot parse")],
)
def test_numeric_hint_names_the_first_bad_row(cells, row, message):
    with pytest.raises(ParseError) as err:
        parse_in_chunks("x,y\n" + "".join(f"0,{c}\n" for c in cells), hint={"y": NUMERIC})
    assert (err.value.row, err.value.column) == (row, "y")
    assert message in str(err.value)


@pytest.mark.parametrize("bad", ["x1", " 3", "1_0"])
@pytest.mark.parametrize("k", [0, 1, 6, 11])
def test_numeric_hint_reports_the_row_of_the_first_bad_cell(k, bad):
    # the cells after row k hold more faults, a non-finite value among them
    cells = ["2.5"] * k + [bad] + ["zz", "nan", "7"][: 11 - k]
    with pytest.raises(ParseError) as err:
        parse_in_chunks("x,y\n" + "".join(f"0,{c}\n" for c in cells), hint={"y": NUMERIC})
    assert (err.value.row, err.value.column) == (k, "y")
    assert f"cannot parse {bad!r} as a number" in str(err.value)


def test_parse_rejects_empty_and_header_only():
    with pytest.raises(ParseError):
        parse_in_chunks("")
    with pytest.raises(ParseError):
        parse_in_chunks("x,y\n")


def test_schema_hint_forces_categorical():
    db = parse_in_chunks("code\n1\n2\n1\n", hint={"code": CATEGORICAL})
    assert db.schema[0].kind == CATEGORICAL
    assert list(db.columns[0]) == ["1", "2", "1"]


def test_schema_hint_unknown_name_rejected():
    with pytest.raises(SchemaError):
        parse_in_chunks(CSV, hint={"nope": NUMERIC})
    with pytest.raises(SchemaError):
        parse_in_chunks(CSV, hint={"x": "fancy"})


def table(*columns, header=None):
    header = header or [f"c{j}" for j in range(len(columns))]
    return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*columns))


def test_a_word_in_a_later_chunk_makes_a_numeric_column_categorical_with_its_tokens():
    tokens = ["1.50", "+2", "3e0", ".5", "7.", "010", "word", "1.50"]
    text = table([str(i) for i in range(len(tokens))], tokens)
    for rows in (2, 3):
        with mock.patch("outprop.dataset._PARSE_ROWS", rows):
            db = parse_csv(text)
        assert [a.kind for a in db.schema] == [NUMERIC, CATEGORICAL]
        # the original strings, not the reprs of their floats
        assert db.columns[1].tolist() == tokens
        assert db.codes[1].tolist() == [0, 1, 2, 3, 4, 5, 6, 0]
    assert contents(parse_in_chunks(text)) == contents(db)


@pytest.mark.parametrize(("bad", "message"), [("x1", "cannot parse"), ("-inf", "non-finite"), ("1_0", "cannot parse")])
def test_numeric_hint_names_a_bad_row_in_a_later_chunk(bad, message):
    text = table(["1", "2", "3", "4", "5", bad, "7", "zz"])
    for rows in (2, 3):
        with mock.patch("outprop.dataset._PARSE_ROWS", rows), pytest.raises(ParseError) as err:
            parse_csv(text, hint={"c0": NUMERIC})
        assert (err.value.row, err.value.column) == (5, "c0")
        assert message in str(err.value)


def test_a_non_finite_value_in_chunk_one_wins_over_a_word_in_chunk_three():
    cells = ["1", "inf", "2", "3", "x", "4"]
    with mock.patch("outprop.dataset._PARSE_ROWS", 2), pytest.raises(ParseError) as err:
        parse_csv(table(cells), hint={"c0": NUMERIC})
    assert (err.value.row, err.value.column) == (1, "c0")
    assert "non-finite numeric value 'inf'" in str(err.value)
    # without a hint the word makes the column categorical, inf a token
    with mock.patch("outprop.dataset._PARSE_ROWS", 2):
        assert parse_csv(table(cells)).columns[0].tolist() == cells


@pytest.mark.parametrize(
    ("last", "error"),
    [("7", ParseError), ("7,8,9", ParseError), ("", MissingValueError)],
    ids=["short row", "long row", "empty cell"],
)
def test_a_reading_fault_in_a_later_chunk_wins_over_an_earlier_column_fault(last, error):
    # rows 0 and 1 hold column faults: a word under a numeric hint, and nan
    text = "x,y\nword,nan\n1,2\n3,4\n5,6\n" + ("7," if last == "" else last) + "\n"
    for rows in (1, 2, 3):
        with mock.patch("outprop.dataset._PARSE_ROWS", rows), pytest.raises(ParseError) as err:
            parse_csv(text, hint={"x": NUMERIC})
        assert type(err.value) is error
        assert err.value.row == 4
    with pytest.raises(error):
        parse_in_chunks(text, hint={"x": NUMERIC})


def test_csv_error_names_its_row_across_chunks():
    long_cell = "b" * (csv.field_size_limit() + 1)
    text = table(["1", "2", "3", "4", "5"], ["a", "a", "a", "a", long_cell])
    with pytest.raises(ParseError) as err:
        parse_in_chunks(text)
    assert err.value.row == 4
    assert "malformed CSV: field larger than field limit" in str(err.value)


CELLS = st.one_of(
    st.integers(-30, 30).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=16).map(repr),
    st.sampled_from(["a", "bb", "inf", "-inf", "nan", " 1", "2 ", "1_0", "1_000.5", "+.5", "7.", "1e3"]),
)


@given(
    rows=st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=1, max_size=8),
    hints=st.lists(st.sampled_from([None, NUMERIC, CATEGORICAL]), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_a_parse_in_tiny_chunks_equals_a_parse_in_one(rows, hints):
    out = io.StringIO()
    csv.writer(out).writerows([["x", "y", "z"], *rows])
    hint = {name: kind for name, kind in zip("xyz", hints) if kind is not None}
    # parse_in_chunks compares the outcomes; an error is an outcome too
    with contextlib.suppress(ParseError):
        parse_in_chunks(out.getvalue(), hint=hint)


def test_a_parsed_categorical_column_holds_one_str_per_distinct_token():
    # one-character strings are shared singletons in CPython, so none here
    tokens = ["bee", "ant", "bee", "cat", "ant", "ant", "bee"]
    text = table(tokens, [f"r{i}" for i in range(len(tokens))])
    for rows in (2, 8192):
        with mock.patch("outprop.dataset._PARSE_ROWS", rows):
            db = parse_csv(text, hint={"c1": CATEGORICAL})
        for col in db.columns:
            assert len({id(t) for t in col}) == len(set(col.tolist()))
        assert db.columns[0].tolist() == tokens
        # numbered by first appearance
        assert db.codes[0].tolist() == [0, 1, 0, 2, 1, 1, 0]
        assert [db.code(0, t) for t in ("bee", "cat", "ant", "elk")] == [0, 2, 1, -1]
        assert db.codes[1].tolist() == list(range(len(tokens)))


def test_from_arrays_keeps_the_objects_it_is_given():
    values = [1, True, 1.0, "1"]
    db = Dataset.from_arrays(["c"], [CATEGORICAL], [values])
    assert all(kept is given for kept, given in zip(db.columns[0], values))
    # equal tokens share a code
    assert db.codes[0].tolist() == [0, 0, 0, 1]
    assert db.code(0, 1.0) == db.code(0, True) == 0


def test_parse_peak_memory_is_the_dataset_arrays_and_one_chunk_of_rows(tmp_path):
    n, m = 100_000, 8
    bits = np.random.default_rng(0).integers(0, 2, (n, m))
    path = tmp_path / "tokens.csv"
    path.write_text(table(*np.where(bits, "t1", "t0").T.tolist()))
    # the dataset keeps an 8-byte code and an 8-byte object pointer a cell;
    # while reading, one chunk of rows is held as csv row lists of str
    row = next(csv.reader([",".join(["t0"] * m)]))
    chunk_bytes = _PARSE_ROWS * (sys.getsizeof(row) + sum(map(sys.getsizeof, row)))
    bound = 2 * 8 * n * m + chunk_bytes
    with open(path, newline="") as fh:
        tracemalloc.start()
        try:
            db = parse_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert db.n_rows == n
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > bound {bound / 2**20:.1f} MiB"


def test_schema_file_round_trip(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("code:categorical\nx:numeric\n")
    hint = read_schema_file(str(path))
    assert hint == {"code": "categorical", "x": "numeric"}
    with pytest.raises(ParseError):
        bad = tmp_path / "bad.txt"
        bad.write_text("code=categorical\n")
        read_schema_file(str(bad))


def test_from_arrays_validates():
    with pytest.raises(SchemaError):
        Dataset.from_arrays(["x", "x"], [NUMERIC, NUMERIC], [[1.0], [2.0]])
    with pytest.raises(SchemaError):
        Dataset.from_arrays(["x", "y"], [NUMERIC, NUMERIC], [[1.0, 2.0], [3.0]])
    with pytest.raises(SchemaError):
        Dataset.from_arrays(["x"], [NUMERIC], [[np.inf]])
    with pytest.raises(SchemaError):
        Attribute(0, "x", "fancy")


def test_attribute_lookup_by_name():
    db = small_db()
    assert db.attribute("label").index == 1
    with pytest.raises(SchemaError):
        db.attribute("nope")


def test_condition_interval_is_inclusive():
    db = small_db()
    cond = Condition.interval(0, 1.5, 2.5)
    view = select(db, Explanation.of(cond))
    assert list(np.flatnonzero(view.mask)) == [0, 1]
    assert view.fraction == pytest.approx(2 / 3)


def test_condition_invalid_interval():
    with pytest.raises(ValueError):
        Condition.interval(0, 2.0, 1.0)


def test_condition_kind_mismatch():
    db = small_db()
    with pytest.raises(SchemaError):
        select(db, Explanation.of(Condition.equality(0, "on")))
    with pytest.raises(SchemaError):
        select(db, Explanation.of(Condition.interval(1, 0.0, 1.0)))
    with pytest.raises(SchemaError):
        select(db, Explanation.of(Condition.interval(7, 0.0, 1.0)))


def test_explanation_rejects_duplicate_attribute():
    with pytest.raises(ValueError):
        Explanation.of(Condition.interval(0, 0, 1), Condition.interval(0, 2, 3))


def test_explanation_orders_conditions_canonically():
    c2 = Condition.interval(2, 0.0, 1.0)
    c0 = Condition.interval(0, 0.0, 1.0)
    expl = Explanation.of(c2, c0)
    assert [c.attribute for c in expl] == [0, 2]
    assert expl.attributes == frozenset({0, 2})
    assert len(expl) == 2
    assert Explanation.of(c0, c2) == expl


def test_describe_is_readable():
    db = small_db()
    expl = Explanation.of(Condition.interval(0, 1.0, 2.0), Condition.equality(1, "on"))
    text = expl.describe(db.schema)
    assert "x in [1.0, 2.0]" in text
    assert "label = on" in text
    assert Explanation.empty().describe(db.schema) == "(empty)"


def test_select_empty_explanation_returns_all():
    db = small_db()
    view = select(db, Explanation.empty())
    assert list(np.flatnonzero(view.mask)) == [0, 1, 2]
    assert view.fraction == 1.0


def test_select_is_order_stable_and_idempotent():
    db = small_db()
    expl = Explanation.of(Condition.equality(1, "on"))
    first = select(db, expl)
    second = select(db, expl)
    assert list(np.flatnonzero(first.mask)) == list(np.flatnonzero(second.mask)) == [0, 2]
    assert np.all(np.diff(np.flatnonzero(first.mask)) > 0)


def test_selection_view_column():
    db = small_db()
    view = select(db, Explanation.of(Condition.equality(1, "on")))
    np.testing.assert_array_equal(view.column(0), [1.5, 9.0])
    assert len(view) == 2


@pytest.mark.parametrize("mask", [[True, False, True], np.array([1, 0, 1]), np.ones(2, dtype=bool)])
def test_hand_built_view_needs_one_bool_per_row(mask):
    with pytest.raises(PreconditionError):
        SelectionView(base=small_db(), mask=mask, explanation=Explanation.empty())


def test_select_can_be_empty():
    db = small_db()
    view = select(db, Explanation.of(Condition.interval(0, 100.0, 200.0)))
    assert len(view) == 0
    assert view.fraction == 0.0
    assert len(select(db, Explanation.of(Condition.equality(1, "absent")))) == 0


@given(
    lo=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    width=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_support_monotone_under_added_condition(lo, width):
    # support(C + {c}) <= support(C), for any added interval
    rng = np.random.default_rng(5)
    db = Dataset.from_arrays(
        ["x", "y"], [NUMERIC, NUMERIC], [rng.normal(0, 1, 60), rng.normal(0, 1, 60)]
    )
    base = Explanation.of(Condition.interval(0, -0.5, 0.7))
    extended = Explanation.of(base.conditions[0], Condition.interval(1, lo, lo + width))
    assert select(db, extended).fraction <= select(db, base).fraction <= 1.0


def test_duplicates_are_preserved():
    db = Dataset.from_arrays(["x"], [NUMERIC], [[1.0, 1.0, 1.0, 2.0]])
    assert db.n_rows == 4
    assert select(db, Explanation.of(Condition.interval(0, 1.0, 1.0))).fraction == 0.75
