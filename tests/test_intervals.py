"""Self-pruning mixture fit and the natural interval of a value."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from outprop import CATEGORICAL, Dataset, EMConfig, em_fit, natural_interval
from outprop.errors import ConfigError, DegenerateSampleError, PreconditionError
from outprop.intervals import _responsibilities, natural_condition_categorical


def two_clusters(seed=0, n=50, gap=5.0):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0.0, 0.1, n), rng.normal(gap, 0.1, n)])


def test_config_validation():
    with pytest.raises(ConfigError):
        EMConfig(components=0)
    with pytest.raises(ConfigError):
        EMConfig(tol=0.0)
    with pytest.raises(ConfigError):
        EMConfig(max_iter=0)
    with pytest.raises(ConfigError):
        EMConfig(annihilation=-0.1)


def test_degenerate_samples_raise():
    with pytest.raises(DegenerateSampleError):
        em_fit(np.array([1.0]), EMConfig())
    with pytest.raises(DegenerateSampleError):
        em_fit(np.full(20, 3.3), EMConfig())


def test_fit_shape_and_invariants():
    xs = two_clusters()
    state = em_fit(xs, EMConfig(seed=1))
    k = state.components
    assert k >= 1
    assert state.locations.shape == state.bandwidths.shape == state.weights.shape == (k,)
    assert state.responsibilities.shape == (xs.size, k)
    assert np.all(state.bandwidths > 0)
    assert state.weights.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(state.responsibilities.sum(axis=1), 1.0, atol=1e-9)
    assert np.isfinite(state.log_likelihood)
    assert 1 <= state.iterations <= 500
    assert state.stop_reason == "tol"
    assert state.location_spread == state.locations.max() - state.locations.min()


def test_invariants_hold_after_every_iteration():
    xs = two_clusters(seed=3)
    counts = []

    def hook(iteration, weights, gamma):
        counts.append(weights.size)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)

    em_fit(xs, EMConfig(seed=4), iteration_hook=hook)
    assert counts
    # annihilated components never come back
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_final_state_is_a_fixed_point_of_the_responsibilities():
    xs = two_clusters(seed=5)
    state = em_fit(xs, EMConfig(seed=6))
    gamma, ll = _responsibilities(xs, state.locations, state.bandwidths, state.weights)
    np.testing.assert_array_equal(gamma, state.responsibilities)
    assert ll == state.log_likelihood


def reference_responsibilities(x, locations, bandwidths, weights):
    # the E-step written out plainly: scaled deviations, the log joint as a
    # new matrix, scipy's log-sum-exp and a second exp pass
    z = (x[:, None] - locations[None, :]) / bandwidths[None, :]
    log_joint = (
        np.log(weights)[None, :]
        - np.log(bandwidths)[None, :]
        - 0.5 * (z * z + math.log(2.0 * math.pi))
    )
    log_norm = logsumexp(log_joint, axis=1)
    return np.exp(log_joint - log_norm[:, None]), float(np.sum(log_norm)), log_joint


def test_fused_e_step_matches_the_logsumexp_reference():
    rng = np.random.default_rng(21)
    for _ in range(40):
        k = int(rng.integers(1, 40))
        locations = rng.normal(0.0, 3.0, k)
        bandwidths = rng.uniform(0.5, 2.0, k)
        weights = rng.dirichlet(np.ones(k))
        x = rng.normal(0.0, 4.0, 300)
        # far enough out that every component's joint underflows to 0
        tails = rng.uniform(100.0, 150.0, 6) * np.array([1, -1, 1, -1, 1, -1])
        x = np.concatenate([x, tails])
        expected, expected_ll, log_joint = reference_responsibilities(x, locations, bandwidths, weights)
        assert np.all(np.exp(log_joint[-6:]) == 0.0)
        gamma, ll = _responsibilities(x, locations, bandwidths, weights)
        np.testing.assert_allclose(gamma, expected, rtol=0.0, atol=1e-12)
        assert ll == pytest.approx(expected_ll, rel=1e-12, abs=0.0)
        assert np.all(np.isfinite(gamma))
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_fit_peak_memory_is_within_three_n_by_k_matrices():
    n = 20000
    xs = np.random.default_rng(23).normal(0.0, 1.0, n)
    k0 = math.isqrt(n)
    tracemalloc.start()
    try:
        state = em_fit(xs, EMConfig(seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.responsibilities.shape[0] == n
    assert peak <= 3 * n * k0 * 8


def test_same_seed_same_fit():
    xs = two_clusters(seed=7)
    a = em_fit(xs, EMConfig(seed=42))
    b = em_fit(xs, EMConfig(seed=42))
    np.testing.assert_array_equal(a.responsibilities, b.responsibilities)
    np.testing.assert_array_equal(a.locations, b.locations)
    assert a.log_likelihood == b.log_likelihood
    assert a.iterations == b.iterations


def test_tuple_seed_is_accepted():
    xs = two_clusters(seed=8)
    state = em_fit(xs, EMConfig(seed=(3, 0)))
    assert state.components >= 1


def test_iteration_cap_is_respected():
    xs = two_clusters(seed=9)
    state = em_fit(xs, EMConfig(seed=1, max_iter=1))
    assert state.iterations == 1
    assert state.stop_reason == "max_iter"


def test_natural_interval_contains_the_value():
    rng = np.random.default_rng(11)
    for trial in range(200):
        xs = rng.normal(0.0, float(rng.choice([0.05, 0.5, 2.0])), int(rng.integers(10, 60)))
        if xs.max() == xs.min():
            continue
        state = em_fit(xs, EMConfig(seed=trial))
        value = float(xs[int(rng.integers(xs.size))])
        lo, hi = natural_interval(xs, value, state)
        assert lo <= value <= hi


def test_point_masses_separate_for_a_seed_that_escapes_the_saddle():
    # batch EM from near-symmetric random responsibilities can stall with
    # all components at the global moments; this seed breaks the symmetry
    rng = np.random.default_rng(1)
    xs = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0]) + rng.uniform(-0.01, 0.01, 6)
    state = em_fit(xs, EMConfig(seed=1))
    assert state.components == 2
    assert sorted(np.round(state.locations, 1)) == [0.0, 10.0]
    assignments = np.argmax(state.responsibilities, axis=1)
    assert len(set(assignments[:3])) == 1
    assert len(set(assignments[3:])) == 1
    assert assignments[0] != assignments[3]
    lo, hi = natural_interval(xs, float(xs[0]), state)
    assert -0.011 <= lo <= hi <= 0.011


def test_interval_containment_holds_even_for_saddle_fits():
    # other seeds stall with near-identical components; the interval can
    # then be wide, but containment still holds for every member
    xs = two_clusters(seed=13, n=60, gap=5.0)
    for seed in range(4):
        state = em_fit(xs, EMConfig(seed=seed))
        for idx in (0, 5, 60, 65):
            value = float(xs[idx])
            lo, hi = natural_interval(xs, value, state)
            assert lo <= value <= hi


def test_equal_values_share_an_interval():
    xs = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 5.0, 5.0, 5.0])
    state = em_fit(xs, EMConfig(seed=3))
    lo, hi = natural_interval(xs, 0.0, state)
    assert lo <= 0.0 <= hi


def test_natural_interval_preconditions():
    xs = two_clusters(seed=15)
    state = em_fit(xs, EMConfig(seed=1))
    with pytest.raises(PreconditionError):
        natural_interval(xs, 123.456, state)
    with pytest.raises(PreconditionError):
        natural_interval(xs[:-1], float(xs[0]), state)


def test_all_components_annihilated_falls_back():
    xs = two_clusters(seed=17, n=10)
    state = em_fit(xs, EMConfig(seed=1, annihilation=1e6))
    assert state.fell_back
    assert state.stop_reason == "fallback"
    assert state.location_spread == 0.0
    assert state.components == 1
    np.testing.assert_array_equal(state.weights, [1.0])
    lo, hi = natural_interval(xs, float(xs[0]), state)
    assert lo == xs.min() and hi == xs.max()


def test_explicit_component_count():
    xs = two_clusters(seed=19)
    state = em_fit(xs, EMConfig(seed=1, components=2, annihilation=0.0))
    assert state.components == 2


def test_categorical_natural_condition():
    db = Dataset.from_arrays(["c"], [CATEGORICAL], [["p", "q", "p"]])
    cond = natural_condition_categorical(db.schema[0], db.row(1))
    assert not cond.is_interval
    assert cond.value == "q"
    assert cond.attribute == 0
