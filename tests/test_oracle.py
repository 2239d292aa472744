"""Brute-force reference paths: naive densities, enumeration, analytic score."""

import numpy as np
import pytest

from outprop import CATEGORICAL, Dataset, Explanation, MiningConfig, outlierness, select
from outprop.density import fit_numeric, parzen_densities
from outprop.errors import OracleTooLargeError, PreconditionError
from outprop.oracle import (
    OracleConfig,
    _score_column,
    analytic_gaussian_score,
    exhaustive_mine,
    naive_density,
)

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
        for q in rng.uniform(xs.min() - 0.1, xs.max() + 0.1, 50):
            assert float(parzen_densities(model, q)) == naive_density(
                list(xs), model.bandwidth, float(q)
            )


def test_score_column_matches_production_scoring():
    rng = np.random.default_rng(31)
    for _ in range(15):
        xs = rng.normal(0.0, 0.08, int(rng.integers(5, 80)))
        db = Dataset.from_arrays(["x"], ["numeric"], [xs])
        idx = int(rng.integers(xs.size))
        fast = outlierness(select(db, Explanation.empty()), db.schema[0], db.row(idx))
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
    sampled = outlierness(select(db, Explanation.empty()), db.schema[0], db.row(20000))
    analytic = analytic_gaussian_score(0.0, 0.1, -1.0)
    assert sampled.value == pytest.approx(analytic, abs=0.05)
