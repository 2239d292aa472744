"""The outlierness score: squashing map, areas, preconditions, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outprop import (
    CATEGORICAL,
    NUMERIC,
    Condition,
    Dataset,
    Explanation,
    SelectionView,
    density_curve,
    omega,
    outlierness,
    select,
)
from outprop.dataset import condition_mask
from outprop.density import fit_numeric, parzen_densities
from outprop.errors import EmptySampleError, PreconditionError
from outprop.outlierness import _score_masks


def full_view(db):
    return select(db, Explanation.empty())


def one_column(values, kind=NUMERIC, name="x"):
    return Dataset.from_arrays([name], [kind], [values])


def test_omega_values():
    assert omega(0.0) == 0.0
    assert omega(-0.5) == 0.0
    assert omega(-1e300) == 0.0
    assert omega(3.06) == pytest.approx(0.91, abs=0.005)
    assert omega(1.07) == pytest.approx(0.49, abs=0.005)
    assert omega(1.0) == pytest.approx(math.tanh(0.5), abs=1e-15)


def test_omega_monotone_and_bounded():
    grid = np.linspace(0.0, 60.0, 4001)
    values = [omega(x) for x in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)
    assert omega(1e6) <= 1.0


def test_score_fields_are_consistent():
    rng = np.random.default_rng(2)
    db = one_column(rng.normal(0.0, 0.05, 60))
    view = full_view(db)
    score = outlierness(view, db.schema[0], 7)
    curve = density_curve(view, db.schema[0])
    above = curve.area_above(score.query_density)
    below = curve.area_below(score.query_density)
    assert score.value == omega(score.raw)
    # raw is the closed form, the areas are step sums: equal up to rounding
    assert abs(score.raw - (above - below)) <= 1e-12 * max(1.0, above)
    assert above >= 0.0
    assert below >= 0.0
    assert 0.0 <= score.value <= 1.0
    assert float(score) == score.value
    assert curve.cumulative[-1] == 1.0


# property kinds the closed form distinguishes; values on a 0.1 grid give
# ties and tight clusters as well as spread-out samples
_TENTHS = st.integers(-30, 30).map(lambda k: k / 10)
_PROPERTY_COLUMNS = {
    "numeric": lambda n: st.lists(_TENTHS, min_size=n, max_size=n),
    "categorical": lambda n: st.lists(st.sampled_from("abcd"), min_size=n, max_size=n),
    "constant": lambda n: _TENTHS.map(lambda v: [v] * n),
}


@given(kind=st.sampled_from(sorted(_PROPERTY_COLUMNS)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_closed_form_raw_matches_curve_area_difference(kind, data):
    n = data.draw(st.integers(1, 40), label="n")
    prop = data.draw(_PROPERTY_COLUMNS[kind](n), label="property")
    token = data.draw(st.lists(st.sampled_from("xy"), min_size=n, max_size=n), label="token")
    level = data.draw(st.lists(_TENTHS, min_size=n, max_size=n), label="level")
    db = Dataset.from_arrays(
        ["p", "t", "l"],
        [CATEGORICAL if kind == "categorical" else NUMERIC, CATEGORICAL, NUMERIC],
        [prop, token, level],
    )
    r = data.draw(st.integers(0, n - 1), label="row")
    conditions = []
    if data.draw(st.booleans(), label="condition on t"):
        conditions.append(Condition.equality(1, token[r]))
    if data.draw(st.booleans(), label="condition on l"):
        width = data.draw(st.integers(0, 20), label="width") / 10
        conditions.append(Condition.interval(2, level[r] - width, level[r] + width))
    view = select(db, Explanation.of(*conditions))
    score = outlierness(view, db.schema[0], r)
    curve = density_curve(view, db.schema[0])
    gap = curve.area_above(score.query_density) - curve.area_below(score.query_density)
    # each area sums at most n step segments, none wider than the largest density
    assert abs(score.raw - gap) <= 1e-12 * max(1.0, curve.max_density)
    if kind == "constant":
        assert score.raw == 0.0


@given(
    kind=st.sampled_from([*sorted(_PROPERTY_COLUMNS), "identical floats", "lone token"]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_mask_kernel_equals_outlierness_on_the_selection(kind, data):
    # one selector column per mask: mask j is the selection of s_j = "in"
    n = data.draw(st.integers(1, 30), label="n")
    r = data.draw(st.integers(0, n - 1), label="row")
    if kind == "identical floats":
        # the std of [0.1] * 3 rounds to 1.4e-17, not 0
        prop = [data.draw(st.sampled_from([0.1, 0.7]), label="value")] * n
    elif kind in ("categorical", "lone token"):
        # twelve tokens, coded by first appearance: a mask that misses the
        # highest codes counts fewer tokens, and the designated row's token
        # is at times the highest code
        prop = data.draw(st.lists(st.sampled_from("abcdefghijkl"), min_size=n, max_size=n),
                         label="property")
        if kind == "lone token":
            prop[r] = "z"  # the designated token is held by its own row only
    else:
        prop = data.draw(_PROPERTY_COLUMNS[kind](n), label="property")
    m = data.draw(st.integers(1, 6), label="masks")
    selectors = data.draw(
        st.lists(st.lists(st.sampled_from(["in", "out"]), min_size=n, max_size=n),
                 min_size=m, max_size=m),
        label="selectors",
    )
    for s in selectors:
        s[r] = "in"
    db = Dataset.from_arrays(
        ["p", *(f"s{j}" for j in range(m))],
        [CATEGORICAL if kind in ("categorical", "lone token") else NUMERIC] + [CATEGORICAL] * m,
        [prop, *selectors],
    )
    explanations = [Explanation.of(Condition.equality(j + 1, "in")) for j in range(m)]
    masks = [condition_mask(db, e.conditions[0]) for e in explanations]
    scores = _score_masks(db, db.schema[0], r, masks)
    assert len(scores) == m
    for e, (raw, density) in zip(explanations, scores):
        expected = outlierness(select(db, e), db.schema[0], r)
        assert raw == expected.raw
        assert density == expected.query_density


@pytest.mark.parametrize("kind", [NUMERIC, CATEGORICAL])
def test_mask_kernel_rejects_a_mask_without_the_designated_row(kind):
    db = one_column([0.0, 1.0, 2.0, 2.0] if kind == NUMERIC else list("abbb"), kind=kind)
    mask = np.array([True, True, True, False])
    assert _score_masks(db, db.schema[0], 2, [mask])
    with pytest.raises(PreconditionError):
        _score_masks(db, db.schema[0], 3, [mask, mask])


def test_raw_equals_mean_density_minus_query_density():
    # the two exact area integrals telescope to mean(f_i) - f_o
    rng = np.random.default_rng(4)
    for _ in range(20):
        xs = rng.normal(0.0, float(rng.choice([0.02, 0.2, 1.0])), int(rng.integers(5, 80)))
        db = one_column(xs)
        model = fit_numeric(xs)
        densities = parzen_densities(model, xs)
        idx = int(rng.integers(xs.size))
        score = outlierness(full_view(db), db.schema[0], idx)
        expected = float(densities.mean()) - float(parzen_densities(model, xs[idx]))
        assert score.raw == pytest.approx(expected, abs=1e-10)


def test_isolated_value_scores_high():
    values = np.concatenate([np.full(335, 1.0), [0.5]])
    db = one_column(values)
    score = outlierness(full_view(db), db.schema[0], 335)
    assert score.value >= 0.99


def test_common_value_scores_zero():
    # the densest value sits above the mean density: raw < 0 clips to 0
    xs = np.concatenate([np.full(50, 0.0) + np.linspace(-0.01, 0.01, 50), [3.0]])
    db = one_column(xs)
    score = outlierness(full_view(db), db.schema[0], 25)
    assert score.raw < 0.0
    assert score.value == 0.0


def test_constant_numeric_column_scores_exactly_zero():
    db = one_column(np.full(30, 2.5))
    score = outlierness(full_view(db), db.schema[0], 0)
    assert score.value == 0.0
    assert score.raw == 0.0


@pytest.mark.parametrize("values", [[0.1] * 3, [0.7] * 336])
def test_identical_floats_with_nonzero_rounded_std_are_constant(values):
    assert np.std(values, ddof=1) > 0.0
    db = one_column(values)
    score = outlierness(full_view(db), db.schema[0], 0)
    assert score.query_density == 1.0
    assert score.raw == 0.0
    assert score.value == 0.0
    curve = density_curve(full_view(db), db.schema[0])
    np.testing.assert_array_equal(curve.breakpoints, [1.0])
    np.testing.assert_array_equal(curve.cumulative, [1.0])


def test_constant_categorical_column_scores_exactly_zero():
    db = one_column(["t"] * 12, kind=CATEGORICAL)
    score = outlierness(full_view(db), db.schema[0], 3)
    assert score.value == 0.0


def test_categorical_rare_token():
    values = ["a"] * 99 + ["b"]
    db = one_column(values, kind=CATEGORICAL)
    score = outlierness(full_view(db), db.schema[0], 99)
    # mean pmf 0.99^2 + 0.01^2 = 0.9802, query pmf 0.01
    assert score.raw == pytest.approx(0.9702, abs=1e-12)
    assert score.value == pytest.approx(omega(0.9702), abs=1e-15)
    common = outlierness(full_view(db), db.schema[0], 0)
    assert common.value == 0.0


def test_score_monotone_in_query_density():
    rng = np.random.default_rng(9)
    for _ in range(5):
        xs = rng.normal(0.0, 0.1, 40)
        db = one_column(xs)
        view = full_view(db)
        scores = [outlierness(view, db.schema[0], r) for r in range(40)]
        by_density = sorted(scores, key=lambda s: s.query_density)
        values = [s.value for s in by_density]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_property_inside_explanation_is_rejected():
    rng = np.random.default_rng(1)
    db = Dataset.from_arrays(
        ["x", "y"], [NUMERIC, NUMERIC], [rng.random(20), rng.random(20)]
    )
    expl = Explanation.of(Condition.interval(0, 0.0, 1.0))
    view = select(db, expl)
    with pytest.raises(PreconditionError):
        outlierness(view, db.schema[0], 0)


def test_object_outside_selection_is_rejected():
    rng = np.random.default_rng(1)
    db = Dataset.from_arrays(
        ["x", "y"], [NUMERIC, NUMERIC], [np.linspace(0, 1, 20), rng.random(20)]
    )
    expl = Explanation.of(Condition.interval(0, 0.0, 0.4))
    view = select(db, expl)
    with pytest.raises(PreconditionError):
        outlierness(view, db.schema[1], 19)


@pytest.mark.parametrize("kind", [NUMERIC, CATEGORICAL])
def test_hand_built_view_rejects_a_row_it_does_not_hold(kind):
    # every row satisfies the empty explanation; only the view's indices
    # say that row 9 is not among its rows
    values = np.linspace(0.0, 1.0, 10) if kind == NUMERIC else list("aabbbccccd")
    db = one_column(values, kind=kind)
    view = SelectionView(base=db, indices=np.array([0, 1, 2]), explanation=Explanation.empty())
    with pytest.raises(PreconditionError):
        outlierness(view, db.schema[0], 9)
    # the indices of a hand-built view need not be sorted
    unsorted = SelectionView(base=db, indices=np.array([2, 0, 1]), explanation=Explanation.empty())
    assert 0.0 <= outlierness(unsorted, db.schema[0], 0).value <= 1.0


def test_empty_selection_is_rejected():
    db = Dataset.from_arrays(
        ["x", "y"], [NUMERIC, NUMERIC], [np.linspace(0, 1, 10), np.linspace(0, 1, 10)]
    )
    empty = select(db, Explanation.of(Condition.interval(0, 5.0, 6.0)))
    assert len(empty) == 0
    # the size check comes before the membership check
    with pytest.raises(EmptySampleError):
        outlierness(empty, db.schema[1], 0)


def test_conditioning_reveals_a_hidden_outlier():
    # o carries cluster 1's x but cluster 2's y: its y-value is common in
    # the full table yet isolated once the selection is narrowed to cluster 1
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.normal(-1.0, 0.05, 60), rng.normal(1.0, 0.05, 60), [-1.0]])
    y = np.concatenate([rng.normal(0.0, 0.04, 60), rng.normal(0.5, 0.04, 60), [0.5]])
    db = Dataset.from_arrays(["x", "y"], [NUMERIC, NUMERIC], [x, y])
    base = outlierness(full_view(db), db.schema[1], 120)
    view = select(db, Explanation.of(Condition.interval(0, -1.3, -0.7)))
    conditioned = outlierness(view, db.schema[1], 120)
    assert base.value <= 0.1
    assert conditioned.value >= 0.9
    # a row outside the selection cannot be scored against it
    with pytest.raises(PreconditionError):
        outlierness(view, db.schema[1], 70)
