"""Brute-force reference paths: naive densities, enumeration, analytic score."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outprop import CATEGORICAL, Dataset, Explanation, MiningConfig, outlierness, select
from outprop import density
from outprop.density import DensityModel, fit_numeric, parzen_densities, window_counts
from outprop.errors import OracleTooLargeError, PreconditionError
from outprop.oracle import (
    OracleConfig,
    _naive_densities,
    _score_column,
    analytic_gaussian_score,
    exhaustive_mine,
    naive_density,
)
from outprop.scoring import _closed_form, _window_score

from conftest import random_dataset


def test_naive_density_worked_examples():
    assert naive_density([0.0, 1.0], 1.0, 0.0) == 0.5
    assert naive_density([0.0, 1.0], 1.0, 0.5) == 1.0
    assert naive_density([0.0, 0.2, 0.4], 1.0, 0.2) == 1.0
    assert naive_density([0.0], 2.0, 1.0) == 0.5
    assert naive_density([0.0], 2.0, 1.1) == 0.0


def test_naive_density_rejects_bad_bandwidth():
    with pytest.raises(PreconditionError):
        naive_density([0.0], 0.0, 0.0)
    with pytest.raises(PreconditionError):
        naive_density([0.0], -1.0, 0.0)


def test_naive_matches_fast_path_exactly():
    rng = np.random.default_rng(29)
    for _ in range(20):
        xs = rng.normal(0.0, float(rng.choice([0.05, 1.0])), int(rng.integers(5, 60)))
        model = fit_numeric(xs)
        h = model.bandwidth
        # queries that put a sample point on a window edge, or one float off it
        edges = np.concatenate([xs - h / 2.0, xs + h / 2.0])
        edge_queries = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        queries = np.concatenate([rng.uniform(xs.min() - 0.1, xs.max() + 0.1, 50), edge_queries])
        for q in queries:
            assert float(parzen_densities(model, q)) == naive_density(list(xs), h, float(q))
        assert parzen_densities(model, xs).tobytes() == _naive_densities(xs, h).tobytes()


@st.composite
def edge_samples(draw):
    """A small sample with duplicates, a width h, and points on a +- h/2.

    Each edge point is fl(a - h/2) or fl(a + h/2) for a sample value a, or
    the float next to it on either side.
    """
    scale = 10.0 ** draw(st.integers(-3, 3))
    grid = st.integers(-8, 8).map(lambda k: scale * (1.0 + k / 8.0))
    loose = st.floats(-10.0, 10.0).map(lambda u: scale * u)
    xs = draw(st.lists(st.one_of(grid, loose), min_size=1, max_size=8))
    half = scale * draw(st.floats(1e-3, 2.0)) / 2.0
    for a in draw(st.lists(st.sampled_from(xs), min_size=1, max_size=4)):
        for edge in (a - half, a + half):
            xs.append(draw(st.sampled_from([edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)])))
    return np.array(draw(st.permutations(xs))), 2.0 * half


@given(edge_samples())
@settings(max_examples=300, deadline=None)
def test_window_rule_is_symmetric_and_exact_at_the_edges(sample):
    xs, h = sample
    for a in xs:
        for b in xs:
            # b is in a's window exactly when a is in b's
            assert naive_density([b], h, float(a)) == naive_density([a], h, float(b))
    model = DensityModel(sorted_values=np.sort(xs), bandwidth=h)
    fast = parzen_densities(model, xs)
    assert fast.tobytes() == _naive_densities(xs, h).tobytes()
    assert fast.tolist() == [naive_density(list(xs), h, float(q)) for q in xs]
    # the one-sided pair count equals the two-sided counts summed, at the
    # same width, so that the constructed points sit on the window edges
    with mock.patch.object(density, "global_bandwidth", return_value=h):
        m, sv = xs.size, np.sort(xs)
        pairs = int(window_counts(sv, sv, h).sum())
        for v in xs:
            own = int(window_counts(sv, float(v), h))
            assert _window_score(xs, v) == _closed_form(pairs, own, m, m * h)


def test_score_column_matches_production_scoring():
    rng = np.random.default_rng(31)
    for _ in range(15):
        xs = rng.normal(0.0, 0.08, int(rng.integers(5, 80)))
        db = Dataset.from_arrays(["x"], ["numeric"], [xs])
        idx = int(rng.integers(xs.size))
        fast = outlierness(select(db, Explanation.empty()), db.schema[0], idx)
        slow = _score_column(list(xs), "numeric", float(xs[idx]))
        assert fast.value == pytest.approx(slow, abs=1e-12)


def test_score_column_categorical_and_constant():
    assert _score_column(["a"] * 9 + ["b"], CATEGORICAL, "b") > 0.0
    assert _score_column([5.0] * 8, "numeric", 5.0) == 0.0


def test_exhaustive_mine_refuses_large_inputs():
    db, _ = random_dataset(67, min_rows=40, max_rows=40)
    cfg = MiningConfig(outlier_index=0, max_conditions=2)
    with pytest.raises(OracleTooLargeError):
        exhaustive_mine(db, cfg, OracleConfig(max_rows=39))


def test_exhaustive_pairs_are_minimal_and_within_thresholds():
    db, _ = random_dataset(71, min_rows=50, max_rows=80)
    cfg = MiningConfig(
        outlier_index=4, min_support=0.1, min_score=0.3, max_conditions=3,
    )
    pairs = exhaustive_mine(db, cfg)
    for pair in pairs:
        assert pair.support >= cfg.min_support
        assert pair.score >= cfg.min_score
        assert pair.property_index not in pair.explanation_attributes
        for other in pairs:
            assert not (
                other.property_index == pair.property_index
                and other.explanation_attributes < pair.explanation_attributes
            )


def test_analytic_score_at_the_mean_is_zero():
    assert analytic_gaussian_score(0.0, 0.1, 0.0) == 0.0
    assert analytic_gaussian_score(3.0, 2.0, 3.0) == 0.0


def test_analytic_score_is_symmetric_and_monotone():
    near = analytic_gaussian_score(0.0, 0.1, -0.12)
    far = analytic_gaussian_score(0.0, 0.1, -1.0)
    assert 0.0 < near < far <= 1.0
    mirrored = analytic_gaussian_score(0.0, 0.1, 0.12)
    assert near == pytest.approx(mirrored, abs=1e-9)


def test_analytic_score_is_translation_invariant():
    # only v - mu matters for a fixed sigma
    a = analytic_gaussian_score(0.0, 0.1, -0.25)
    b = analytic_gaussian_score(1.0, 0.1, 0.75)
    assert a == pytest.approx(b, abs=1e-9)


def test_analytic_quadrature_is_converged():
    coarse = analytic_gaussian_score(0.0, 0.1, -1.0, OracleConfig(step=1e-3))
    fine = analytic_gaussian_score(0.0, 0.1, -1.0, OracleConfig(step=5e-4))
    assert abs(coarse - fine) < 1e-4


def test_analytic_config_validation():
    with pytest.raises(PreconditionError):
        analytic_gaussian_score(0.0, -1.0, 0.5)
    with pytest.raises(PreconditionError):
        analytic_gaussian_score(0.0, 1.0, 0.5, OracleConfig(step=0.0))


def test_analytic_agrees_with_a_large_sample():
    # the sampled counting-window score converges on the analytic value
    rng = np.random.default_rng(73)
    xs = np.concatenate([rng.normal(0.0, 0.1, 20000), [-1.0]])
    db = Dataset.from_arrays(["x"], ["numeric"], [xs])
    sampled = outlierness(select(db, Explanation.empty()), db.schema[0], 20000)
    analytic = analytic_gaussian_score(0.0, 0.1, -1.0)
    assert sampled.value == pytest.approx(analytic, abs=0.05)
