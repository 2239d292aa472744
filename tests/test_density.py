"""Counting-window density model, categorical density curve, and the step cdf."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from outprop import Dataset, Explanation, density_cdf, density_curve, global_bandwidth, select
from outprop.density import (
    DEGENERATE_BANDWIDTH,
    DensityModel,
    StepCDF,
    fit_numeric,
    parzen_densities,
)
from outprop.errors import DegenerateDensityError, EmptySampleError, InternalError


def window_model(xs, h):
    return DensityModel(sorted_values=np.sort(np.asarray(xs, float)), bandwidth=h)


def density_at(model, x):
    return float(parzen_densities(model, x))


def test_bandwidth_normal_reference_rule():
    rng = np.random.default_rng(3)
    xs = rng.normal(0, 1, 32)
    xs = (xs - xs.mean()) / xs.std(ddof=1)  # unit sample std
    expected = 1.06 * 32 ** (-0.2)
    assert global_bandwidth(xs) == pytest.approx(expected, rel=1e-9)


def test_bandwidth_degenerate_cases():
    assert global_bandwidth(np.array([4.2])) == DEGENERATE_BANDWIDTH
    assert global_bandwidth(np.full(10, 7.0)) == DEGENERATE_BANDWIDTH
    # the sample std of these identical floats rounds to about 1e-17, not 0
    assert global_bandwidth(np.full(3, 0.1)) == DEGENERATE_BANDWIDTH
    assert global_bandwidth(np.full(336, 0.7)) == DEGENERATE_BANDWIDTH
    with pytest.raises(EmptySampleError):
        global_bandwidth(np.array([]))


def test_window_density_worked_examples():
    # two points one window-width apart: each query point sees one neighbor
    m = window_model([0.0, 1.0], 1.0)
    assert density_at(m, 0.0) == 0.5
    assert density_at(m, 1.0) == 0.5
    # midpoint is exactly h/2 from both: closed window counts both
    assert density_at(m, 0.5) == 1.0
    m = window_model([0.0, 0.2, 0.4], 1.0)
    assert density_at(m, 0.2) == 1.0


def test_window_endpoints_are_closed():
    m = window_model([0.0], 2.0)
    assert density_at(m, -1.0) == 0.5
    assert density_at(m, 1.0) == 0.5
    assert density_at(m, 1.0000001) == 0.0


def test_density_query_on_constant_sample_raises():
    m = fit_numeric(np.full(5, 3.0))
    assert m.bandwidth == DEGENERATE_BANDWIDTH
    with pytest.raises(DegenerateDensityError):
        parzen_densities(m, 3.0)
    with pytest.raises(DegenerateDensityError):
        parzen_densities(m, np.array([3.0]))


def test_fit_numeric_empty_sample():
    with pytest.raises(EmptySampleError):
        fit_numeric(np.array([]))


def test_density_integrates_to_one():
    rng = np.random.default_rng(7)
    for xs in (rng.normal(0, 1, 300), rng.uniform(-2, 2, 120)):
        m = fit_numeric(xs)
        grid = np.linspace(xs.min() - m.bandwidth, xs.max() + m.bandwidth, 200001)
        total = parzen_densities(m, grid).sum() * (grid[1] - grid[0])
        assert total == pytest.approx(1.0, abs=1e-3)


def test_density_is_permutation_invariant():
    rng = np.random.default_rng(13)
    xs = rng.normal(0, 0.5, 80)
    shuffled = xs.copy()
    rng.shuffle(shuffled)
    a, b = fit_numeric(xs), fit_numeric(shuffled)
    assert a.bandwidth == b.bandwidth
    queries = rng.uniform(-2, 2, 100)
    np.testing.assert_array_equal(parzen_densities(a, queries), parzen_densities(b, queries))


def test_categorical_pmf():
    db = Dataset.from_arrays(["t"], ["categorical"], [["a", "b", "a", "a"]])
    curve = density_curve(select(db, Explanation.empty()), db.schema[0])
    # three rows at density 0.75 ("a"), one at 0.25 ("b")
    np.testing.assert_array_equal(curve.breakpoints, [0.25, 0.75])
    np.testing.assert_array_equal(curve.cumulative, [0.25, 1.0])


def test_density_cdf_structure():
    curve = density_cdf(np.array([0.2, 0.5, 0.2, 1.0]))
    np.testing.assert_array_equal(curve.breakpoints, [0.2, 0.5, 1.0])
    np.testing.assert_array_equal(curve.cumulative, [0.5, 0.75, 1.0])
    assert curve.cumulative[-1] == 1.0
    assert curve.max_density == 1.0


def test_density_cdf_rejects_bad_input():
    with pytest.raises(EmptySampleError):
        density_cdf(np.array([]))
    with pytest.raises(InternalError):
        density_cdf(np.array([0.5, -0.1]))


def test_cdf_evaluate_uses_closed_inequality():
    curve = density_cdf(np.array([0.2, 0.5, 0.2, 1.0]))
    assert curve.evaluate(0.1) == 0.0
    assert curve.evaluate(0.2) == 0.5  # ties count: f_i <= f
    assert curve.evaluate(0.3) == 0.5
    assert curve.evaluate(0.5) == 0.75
    assert curve.evaluate(1.0) == 1.0
    assert curve.evaluate(2.0) == 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_cdf_evaluate_monotone(densities):
    curve = density_cdf(np.array(densities))
    grid = np.linspace(-0.5, 5.5, 40)
    values = [curve.evaluate(f) for f in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert curve.evaluate(curve.max_density) == 1.0


def test_cdf_areas_match_quadrature():
    rng = np.random.default_rng(19)
    for _ in range(10):
        densities = rng.uniform(0.0, 3.0, rng.integers(2, 15))
        curve = density_cdf(densities)
        f = float(rng.uniform(0.0, curve.max_density))
        pts = curve.breakpoints.tolist()
        below, _ = quad(curve.evaluate, curve.breakpoints[0], max(f, curve.breakpoints[0]),
                        points=pts, limit=200)
        above, _ = quad(lambda t: 1.0 - curve.evaluate(t), min(f, curve.max_density),
                        curve.max_density, points=pts, limit=200)
        assert curve.area_below(f) == pytest.approx(below, abs=1e-10)
        assert curve.area_above(f) == pytest.approx(above, abs=1e-10)


def test_cdf_area_difference_telescopes_to_mean():
    # area_above(f) - area_below(f) == mean(densities) - f for f in range
    rng = np.random.default_rng(23)
    for _ in range(20):
        densities = rng.uniform(0.0, 2.0, rng.integers(1, 25))
        curve = density_cdf(densities)
        f = float(rng.uniform(0.0, curve.max_density))
        gap = curve.area_above(f) - curve.area_below(f)
        assert gap == pytest.approx(float(densities.mean()) - f, abs=1e-12)


def test_cdf_areas_outside_range():
    curve = density_cdf(np.array([0.5, 1.5]))
    assert curve.area_above(2.0) == 0.0
    assert curve.area_below(0.4) == 0.0
    assert curve.area_below(0.5) == 0.0


def test_cdf_tsv_export():
    text = density_cdf(np.array([0.25, 0.5])).to_tsv()
    lines = text.strip().split("\n")
    assert lines[0] == "density\tcumulative"
    assert lines[1] == "0.25\t0.5"
    assert lines[2] == "0.5\t1.0"
