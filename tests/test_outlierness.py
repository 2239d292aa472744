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
from outprop.oracle import area_above, area_below, max_density
from outprop import scoring
from outprop.scoring import _pack_rows, _score_masks, _token_score, _window_score


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
    above = area_above(curve, score.query_density)
    below = area_below(curve, score.query_density)
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
    gap = area_above(curve, score.query_density) - area_below(curve, score.query_density)
    # each area sums at most n step segments, none wider than the largest density
    assert abs(score.raw - gap) <= 1e-12 * max(1.0, max_density(curve))
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
    scores = _score_masks(db, db.schema[0], r, _pack_rows(np.array(masks)))
    assert len(scores) == m
    for e, (raw, density) in zip(explanations, scores):
        expected = outlierness(select(db, e), db.schema[0], r)
        assert raw == expected.raw
        assert density == expected.query_density


@pytest.mark.parametrize("kind", [NUMERIC, CATEGORICAL])
def test_mask_kernel_rejects_a_mask_without_the_designated_row(kind):
    db = one_column([0.0, 1.0, 2.0, 2.0] if kind == NUMERIC else list("abbb"), kind=kind)
    mask = np.array([True, True, True, False])
    assert _score_masks(db, db.schema[0], 2, _pack_rows(np.array([mask])))
    with pytest.raises(PreconditionError):
        _score_masks(db, db.schema[0], 3, _pack_rows(np.array([mask, mask])))


# row counts on both sides of a 64-row word, and designated rows at the
# first and last bit of a word
WORD_EDGE_ROWS = [
    (n, r) for n in (1, 63, 64, 65, 129) for r in sorted({0, 63, 64, n - 1}) if r < n
]


def word_edge_table(n, r, kind, tokens=4):
    """A property column plus four selector columns; selector j's "in" rows are mask j.

    The masks are every row, the designated row alone, and two random
    selections that hold it.
    """
    rng = np.random.default_rng([n, r, tokens])
    if kind == NUMERIC:
        prop = rng.integers(-5, 6, n) / 4
    else:
        # every token appears where n allows it
        codes = np.concatenate([np.arange(tokens), rng.integers(tokens, size=n)])[:n]
        prop = np.array([f"t{k}" for k in codes], dtype=object)
    masks = np.array([np.ones(n, bool), np.arange(n) == r, rng.random(n) < 0.5, rng.random(n) < 0.9])
    masks[:, r] = True
    selectors = [np.where(m, "in", "out").astype(object) for m in masks]
    db = Dataset.from_arrays(["p", *(f"s{j}" for j in range(4))], [kind] + [CATEGORICAL] * 4,
                             [prop, *selectors])
    return db, masks


def test_packed_rows_put_row_r_at_bit_r_mod_64_of_word_r_div_64_and_zero_the_padding():
    for n, _ in WORD_EDGE_ROWS:
        rows = np.random.default_rng(n).random((3, n)) < 0.5
        bits = _pack_rows(rows)
        assert bits.shape == (3, -(-n // 64)) and bits.dtype == np.dtype("<u8")
        for i, r in zip(*np.nonzero(rows)):
            assert int(bits[i, r >> 6]) >> int(r & 63) & 1
        np.testing.assert_array_equal(np.bitwise_count(bits).sum(axis=1), np.count_nonzero(rows, axis=1))
        full = _pack_rows(np.ones(n, bool))
        assert int(np.bitwise_count(full).sum()) == n
        assert int(full[-1]) == (1 << (n - 64 * (full.size - 1))) - 1


@pytest.mark.parametrize(("n", "r"), WORD_EDGE_ROWS)
@pytest.mark.parametrize("kind", [NUMERIC, CATEGORICAL])
def test_packed_kernel_at_word_edges_equals_outlierness_and_the_scorers(n, r, kind):
    db, masks = word_edge_table(n, r, kind)
    scores = _score_masks(db, db.schema[0], r, _pack_rows(masks))
    if kind == NUMERIC:
        col = db.columns[0]
        direct = [_window_score(col.compress(m), col[r]) for m in masks]
    else:
        codes = db.codes[0]
        direct = [_token_score(codes.compress(m), codes[r]) for m in masks]
    assert scores == direct
    for j, (raw, density) in enumerate(scores):
        view = select(db, Explanation.of(Condition.equality(j + 1, "in")))
        np.testing.assert_array_equal(view.mask, masks[j])
        expected = outlierness(view, db.schema[0], r)
        assert (raw, density) == (expected.raw, expected.query_density)


@pytest.mark.parametrize(("n", "r"), WORD_EDGE_ROWS)
def test_packed_kernel_checks_the_designated_row_s_own_bit(n, r):
    db, masks = word_edge_table(n, r, NUMERIC)
    masks[2, r] = False
    for row in (r, -1, n, 64 * -(-n // 64)):
        with pytest.raises(PreconditionError, match=f"row {row} is not in the selection"):
            _score_masks(db, db.schema[0], row, _pack_rows(masks))
    assert len(_score_masks(db, db.schema[0], r, _pack_rows(masks[[0, 1, 3]]))) == 3


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize(("n", "r"), [(65, 64), (129, 0), (129, 128)])
def test_token_counts_are_equal_on_both_sides_of_the_popcount_cut_off(n, r, extra, monkeypatch):
    tokens = scoring.TOKEN_POPCOUNT_MAX + extra
    db, masks = word_edge_table(n, r, CATEGORICAL, tokens=tokens)
    assert int(db.codes[0].max()) + 1 == tokens
    bits = _pack_rows(masks)
    codes = db.codes[0]
    direct = [_token_score(codes.compress(m), codes[r]) for m in masks]
    assert _score_masks(db, db.schema[0], r, bits) == direct
    # the same level through the other counter
    for cut_off in (tokens - 1, tokens):
        monkeypatch.setattr(scoring, "TOKEN_POPCOUNT_MAX", cut_off)
        assert _score_masks(db, db.schema[0], r, bits) == direct


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


def test_categorical_score_stays_below_tanh_of_one_half():
    # raw = sum(c^2)/m^2 - c_o/m < 1 with c_o >= 1, so omega(raw) < tanh(1/2)
    values = ["a"] * 9999 + ["b"]
    db = one_column(values, kind=CATEGORICAL)
    score = outlierness(full_view(db), db.schema[0], 9999)
    assert score.raw == pytest.approx(0.9997, abs=1e-7)
    assert round(score.value, 5) == 0.46200
    assert score.value < math.tanh(0.5) == pytest.approx(0.46212, abs=1e-5)


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
    # every row satisfies the empty explanation; only the view's mask says
    # that row 9 is not among its rows, and rows -1 and 10 are in no view
    values = np.linspace(0.0, 1.0, 10) if kind == NUMERIC else list("aabbbccccd")
    db = one_column(values, kind=kind)
    view = SelectionView(base=db, mask=np.arange(10) < 3, explanation=Explanation.empty())
    for row in (9, -1, 10):
        with pytest.raises(PreconditionError, match=f"row {row} is not in the selection"):
            outlierness(view, db.schema[0], row)
    assert 0.0 <= outlierness(view, db.schema[0], 0).value <= 1.0


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


# samples the bound's proof must hold on: ties, integer values, signed
# zeros, one isolated value, two distinct values, and a large magnitude
# with a spread near its rounding. The bound is proven only with fewer
# bins than rows, so most samples hold hundreds of rows, drawn from a seed.
def _seeded(draw):
    return st.tuples(st.integers(1, 600), st.integers(0, 2**32 - 1)).map(
        lambda a: list(map(float, draw(np.random.default_rng(a[1]), a[0])))
    )


_BOUND_SAMPLES = {
    "tenths": _seeded(lambda rng, n: rng.integers(-30, 31, n) / 10),
    "small tenths": st.lists(_TENTHS, min_size=1, max_size=40),
    "integers": _seeded(lambda rng, n: rng.integers(0, 5, n)),
    "signed zeros": _seeded(lambda rng, n: rng.choice([0.0, -0.0, 0.5, -0.5], n)),
    "one isolated": st.tuples(_seeded(lambda rng, n: rng.normal(0.0, 0.1, n)), st.floats(-1e3, 1e3)).map(
        lambda a: a[0] + [a[1]]
    ),
    "two values": st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(1, 300), st.integers(1, 300)).map(
        lambda a: [a[0]] * a[2] + [a[1]] * a[3]
    ),
    "normal": _seeded(lambda rng, n: rng.normal(0.0, 1.0, n)),
    "large magnitude": _seeded(lambda rng, n: 1e3 + 1e-6 * rng.normal(size=n)),
    "huge magnitude": _seeded(lambda rng, n: 1e6 + 1e-6 * rng.normal(size=n)),
}


@given(kind=st.sampled_from(sorted(_BOUND_SAMPLES)), data=st.data())
@settings(max_examples=400, deadline=None)
def test_window_bound_is_at_least_the_exact_raw_and_skips_only_failing_scores(kind, data):
    col = np.array(data.draw(_BOUND_SAMPLES[kind], label="sample"))
    v = col[data.draw(st.integers(0, col.size - 1), label="row")]
    raw, density = _window_score(col, v)
    h = fit_numeric(col).bandwidth
    if h > 0.0:
        assert scoring._window_bound(col, float(v), h) >= raw
    # the sample's own score is a threshold it must reach, unskipped
    min_score = data.draw(st.sampled_from([0.0, 0.35, 0.5, 0.9, 1.0, omega(raw)]) | st.floats(0.0, 1.0), label="omega")
    floored = _window_score(col, v, scoring.raw_floor(min_score))
    if floored is None:
        assert omega(raw) < min_score
    else:
        assert floored == (raw, density)


def test_window_bound_holds_where_its_proof_does_and_is_inf_elsewhere():
    rng = np.random.default_rng(5)
    col = rng.normal(0.0, 1.0, 500)
    h = fit_numeric(col).bandwidth
    assert scoring._window_bound(col, float(col[0]), h) < math.inf
    # |x| above 2**40 bins, and more bins than rows
    huge = 1e6 + 1e-6 * rng.normal(size=500)
    assert scoring._window_bound(huge, float(huge[0]), fit_numeric(huge).bandwidth) == math.inf
    spread = np.array([0.0, 0.0, 0.0, 1e6])
    assert scoring._window_bound(spread, 0.0, fit_numeric(spread).bandwidth) == math.inf


@given(st.floats(0.0, 1.0) | st.sampled_from([2.0**-48, 2.0**-47, 0.5, 1.0 - 2.0**-53, 1.0]))
@settings(max_examples=300, deadline=None)
def test_every_raw_below_the_floor_scores_below_the_threshold(min_score):
    floor = scoring.raw_floor(min_score)
    if min_score == 0.0:
        assert floor == -math.inf
        return
    assert math.isfinite(floor)
    below = [math.nextafter(floor, -math.inf), floor * (1 - 1e-9), floor - 1e-6, floor / 2.0, -1.0]
    assert all(omega(x) < min_score for x in below)
    # the floor gives up little, except where its margin of 2**-48 is a
    # large part of 1 - min_score
    if min_score < 1.0 - 2.0**-30:
        assert 2.0 * math.atanh(min_score) - floor <= 1e-6 * max(1.0, floor)


def test_the_floor_of_one_lies_below_the_raws_that_score_exactly_one():
    floor = scoring.raw_floor(1.0)
    assert floor < 37.0 and omega(37.5) == 1.0
