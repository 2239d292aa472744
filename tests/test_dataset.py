"""Dataset model, CSV parsing, conditions, explanations, selection."""

import csv
import io

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
    parse_csv,
    read_schema_file,
    satisfies,
    select,
    support,
)
from outprop.dataset import _NUMBER, _parse_cells
from outprop.errors import MissingValueError, ParseError, SchemaError

CSV = "x,label,y\n1.5,on,0.25\n2.5,off,0.5\n9.0,on,0.75\n"


def small_db():
    return parse_csv(CSV)


def test_parse_infers_kinds_and_values():
    db = small_db()
    assert db.n_rows == 3
    assert db.n_attributes == 3
    assert [a.kind for a in db.schema] == [NUMERIC, CATEGORICAL, NUMERIC]
    assert db.columns[0].dtype == np.float64
    assert list(db.columns[1]) == ["on", "off", "on"]
    row = db.row(1)
    assert row.values == (2.5, "off", 0.5)
    assert row[1] == "off"


def test_parse_accepts_stream_input():
    db = parse_csv(io.StringIO(CSV))
    assert db.n_rows == 3


def test_parse_rejects_duplicate_header():
    with pytest.raises(ParseError):
        parse_csv("x,x\n1,2\n")


def test_parse_rejects_ragged_row():
    with pytest.raises(ParseError) as err:
        parse_csv("x,y\n1,2\n3\n")
    assert err.value.row == 1


def test_parse_rejects_missing_cell():
    with pytest.raises(MissingValueError) as err:
        parse_csv("x,y\n1,\n")
    assert err.value.row == 0
    assert err.value.column == "y"


def test_parse_rejects_non_finite_numeric():
    with pytest.raises(ParseError):
        parse_csv("x\n1.0\nnan\n")
    with pytest.raises(ParseError):
        parse_csv("x\ninf\n2.0\n")


def test_parse_accepts_only_plain_number_literals():
    db = parse_csv('grouped,padded,plain\n1_000," 2 ",+.5e-3\n3,4,7.\n')
    assert [a.kind for a in db.schema] == [CATEGORICAL, CATEGORICAL, NUMERIC]
    assert db.columns[0][0] == "1_000"
    assert db.columns[1][0] == " 2 "
    np.testing.assert_array_equal(db.columns[2], [0.0005, 7.0])
    for text, column in (("x,y\n1,2\n3,4_0\n", "y"), ("x,y\n1,2\n3, 4\n", "y")):
        with pytest.raises(ParseError) as err:
            parse_csv(text, hint={column: NUMERIC})
        assert (err.value.row, err.value.column) == (1, column)


@given(st.lists(st.text(alphabet="019.eE+-_ \u0663infINa", min_size=1, max_size=6), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_whole_column_number_parse_agrees_with_the_literal_pattern(tokens):
    expected = [float(t) if _NUMBER.fullmatch(t) else None for t in tokens]
    assert list(map(repr, _parse_cells(tokens))) == list(map(repr, expected))


@pytest.mark.parametrize("char", ["_"] + [c for c in map(chr, range(128)) if c.isspace()], ids=repr)
def test_padding_or_grouping_character_makes_a_cell_a_non_number(char):
    # every ASCII character [\s_] matches; float() alone takes most of them
    # as padding or digit grouping
    token = "1_0" if char == "_" else f"{char}3"
    out = io.StringIO()
    csv.writer(out).writerows([["x", "y"], ["1", "2"], ["3", token], ["5", "6"]])
    text = out.getvalue()
    db = parse_csv(text)
    assert [a.kind for a in db.schema] == [NUMERIC, CATEGORICAL]
    assert db.columns[1][1] == token
    with pytest.raises(ParseError) as err:
        parse_csv(text, hint={"y": NUMERIC})
    assert (err.value.row, err.value.column) == (1, "y")


@pytest.mark.parametrize(
    ("cells", "row", "message"),
    [(["1", "inf", "x1", "4"], 1, "non-finite"), (["1", "x1", "nan", "4"], 1, "cannot parse")],
)
def test_numeric_hint_names_the_first_bad_row(cells, row, message):
    with pytest.raises(ParseError) as err:
        parse_csv("x,y\n" + "".join(f"0,{c}\n" for c in cells), hint={"y": NUMERIC})
    assert (err.value.row, err.value.column) == (row, "y")
    assert message in str(err.value)


def test_parse_rejects_empty_and_header_only():
    with pytest.raises(ParseError):
        parse_csv("")
    with pytest.raises(ParseError):
        parse_csv("x,y\n")


def test_schema_hint_forces_categorical():
    db = parse_csv("code\n1\n2\n1\n", hint={"code": CATEGORICAL})
    assert db.schema[0].kind == CATEGORICAL
    assert list(db.columns[0]) == ["1", "2", "1"]


def test_schema_hint_unknown_name_rejected():
    with pytest.raises(SchemaError):
        parse_csv(CSV, hint={"nope": NUMERIC})
    with pytest.raises(SchemaError):
        parse_csv(CSV, hint={"x": "fancy"})


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


def test_row_index_bounds():
    db = small_db()
    with pytest.raises(IndexError):
        db.row(3)
    with pytest.raises(IndexError):
        db.row(-1)


def test_attribute_lookup_by_name():
    db = small_db()
    assert db.attribute("label").index == 1
    with pytest.raises(SchemaError):
        db.attribute("nope")


def test_condition_interval_is_inclusive():
    db = small_db()
    cond = Condition.interval(0, 1.5, 2.5)
    view = select(db, Explanation.of(cond))
    assert list(view.indices) == [0, 1]
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


def test_satisfies_matches_select():
    db = small_db()
    expl = Explanation.of(Condition.interval(0, 1.0, 3.0), Condition.equality(1, "on"))
    view = select(db, expl)
    selected = set(view.indices.tolist())
    for r in range(db.n_rows):
        assert (r in selected) == satisfies(db.row(r), expl)


def test_select_empty_explanation_returns_all():
    db = small_db()
    view = select(db, Explanation.empty())
    assert list(view.indices) == [0, 1, 2]
    assert view.fraction == 1.0


def test_select_is_order_stable_and_idempotent():
    db = small_db()
    expl = Explanation.of(Condition.equality(1, "on"))
    first = select(db, expl)
    second = select(db, expl)
    assert list(first.indices) == list(second.indices) == [0, 2]
    assert np.all(np.diff(first.indices) > 0)


def test_selection_view_column():
    db = small_db()
    view = select(db, Explanation.of(Condition.equality(1, "on")))
    np.testing.assert_array_equal(view.column(0), [1.5, 9.0])
    assert len(view) == 2


def test_select_can_be_empty():
    db = small_db()
    view = select(db, Explanation.of(Condition.interval(0, 100.0, 200.0)))
    assert len(view) == 0
    assert support(db, view.explanation) == 0.0
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
    assert support(db, extended) <= support(db, base) <= 1.0


def test_duplicates_are_preserved():
    db = Dataset.from_arrays(["x"], [NUMERIC], [[1.0, 1.0, 1.0, 2.0]])
    assert db.n_rows == 4
    assert support(db, Explanation.of(Condition.interval(0, 1.0, 1.0))) == 0.75
