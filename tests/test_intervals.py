"""Self-pruning mixture fit and the natural interval of a value."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import logsumexp

from outprop import EMConfig, em_fit, intervals, natural_interval
from outprop.errors import DegenerateSampleError, PreconditionError
from outprop.intervals import _in_row_blocks, _responsibilities, _squared_deviations


def two_clusters(seed=0, n=50, gap=5.0):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0.0, 0.1, n), rng.normal(gap, 0.1, n)])


def test_degenerate_samples_raise():
    with pytest.raises(DegenerateSampleError):
        em_fit(np.array([1.0]), EMConfig())
    with pytest.raises(DegenerateSampleError):
        em_fit(np.full(20, 3.3), EMConfig())
    # the variances of subnormal values underflow to 0
    with pytest.raises(DegenerateSampleError, match="float64 range"):
        em_fit(np.array([1e-320, 0.0, 0.0, 2e-320, 0.0]), EMConfig())


def fit_with_final_responsibilities(xs, cfg):
    """The fit and the responsibilities its last iteration handed the hook.

    Asserts that the state's assignments are their row argmax, bit for bit.
    """
    final = []

    def hook(iteration, weights, gamma):
        final[:] = [gamma]

    state = em_fit(xs, cfg, iteration_hook=hook)
    (gamma,) = final
    assert state.assignments.dtype == np.intp
    assert state.assignments.tobytes() == np.argmax(gamma, axis=1).tobytes()
    return state, gamma


def e_step(x, locations, bandwidths, weights):
    """Responsibilities and log-likelihood from a fresh squared-deviation buffer."""
    sq_dev = _squared_deviations(x, locations, np.empty((x.size, locations.size)))
    return _responsibilities(x, locations, bandwidths, weights, sq_dev)


def test_fit_shape_and_invariants():
    xs = two_clusters()
    state, gamma = fit_with_final_responsibilities(xs, EMConfig(seed=1))
    k = state.components
    assert k >= 1
    assert state.locations.shape == state.bandwidths.shape == state.weights.shape == (k,)
    assert gamma.shape == (xs.size, k)
    assert state.assignments.shape == (xs.size,)
    assert np.all(state.bandwidths > 0)
    assert state.weights.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
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
    state, final = fit_with_final_responsibilities(xs, EMConfig(seed=6))
    gamma, ll = e_step(xs, state.locations, state.bandwidths, state.weights)
    np.testing.assert_array_equal(gamma, final)
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
        gamma, ll = e_step(x, locations, bandwidths, weights)
        np.testing.assert_allclose(gamma, expected, rtol=0.0, atol=1e-12)
        assert ll == pytest.approx(expected_ll, rel=1e-12, abs=0.0)
        assert np.all(np.isfinite(gamma))
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def random_mixture(rng, n, k):
    x = rng.normal(0.0, 4.0, n)
    return x, rng.normal(0.0, 3.0, k), rng.uniform(0.5, 2.0, k), rng.dirichlet(np.ones(k))


def whole_matrix_e_step(x, locations, bandwidths, weights):
    # the same arithmetic as whole-matrix calls: the reference the row
    # blocks must match bit for bit
    sq_dev = np.square(x[:, None] - locations)
    gamma = sq_dev.copy()
    gamma *= -0.5 / (bandwidths * bandwidths)
    gamma += np.log(weights) - np.log(bandwidths) - 0.5 * math.log(2.0 * math.pi)
    peak = gamma.max(axis=1)
    gamma -= peak[:, None]
    np.exp(gamma, out=gamma)
    norm = gamma.sum(axis=1)
    gamma /= norm[:, None]
    return sq_dev, gamma, float(np.sum(np.log(norm)) + np.sum(peak))


@pytest.mark.parametrize("block_rows", [1000, 64, 7, 1])
def test_row_blocks_on_two_threads_are_bit_equal_to_whole_matrix_passes(monkeypatch, block_rows):
    # 1000 rows fit one block; 64 and 7 leave a partial last block
    x, locations, bandwidths, weights = random_mixture(np.random.default_rng(31), 1000, 13)
    expected_sq, expected_gamma, expected_ll = whole_matrix_e_step(x, locations, bandwidths, weights)
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 13 * block_rows)
    sq_dev = _squared_deviations(x, locations, np.empty((1000, 13)))
    assert sq_dev.tobytes() == expected_sq.tobytes()
    gamma, ll = _responsibilities(x, locations, bandwidths, weights, sq_dev)
    assert gamma.tobytes() == expected_gamma.tobytes()
    assert ll == expected_ll


class InlineExecutor:
    """Runs each submitted task at once on the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_fit_is_bit_equal_with_one_worker_and_with_two(monkeypatch):
    xs = np.random.default_rng(33).normal(0.0, 1.0, 20000)
    fits = []
    threads = threading.active_count()
    # the inline executor runs the worker's half of the blocks on the
    # calling thread, before the caller's half
    for executor_class in (InlineExecutor, ThreadPoolExecutor):
        monkeypatch.setattr(intervals, "ThreadPoolExecutor", executor_class)
        fits.append(fit_with_final_responsibilities(xs, EMConfig(seed=2)))
        assert threading.active_count() == threads
    (one, gamma_one), (two, gamma_two) = fits
    assert gamma_one.tobytes() == gamma_two.tobytes()
    for name in ("assignments", "locations", "bandwidths", "weights"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name
    assert (one.log_likelihood, one.iterations, one.stop_reason) == (
        two.log_likelihood, two.iterations, two.stop_reason,
    )


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    # ten blocks of ten rows; the worker takes the last five
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 80)

    def work(rows):
        if rows.start == 90:
            raise ValueError("last block")

    with pytest.raises(ValueError, match="last block"):
        _in_row_blocks(100, 1, work)


def test_the_worker_runs_under_the_caller_s_error_state(monkeypatch):
    # ten blocks of 100 rows; only the worker's half, the last 500 rows,
    # overflows when squared
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 13 * 100)
    x = np.concatenate([np.zeros(500), np.full(500, 1e200)])
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _squared_deviations(x, np.zeros(13), np.empty((1000, 13)))


def test_threaded_e_steps_under_fast_switching_are_bit_equal(monkeypatch):
    x, locations, bandwidths, weights = random_mixture(np.random.default_rng(35), 3000, 29)
    _, expected_gamma, expected_ll = whole_matrix_e_step(x, locations, bandwidths, weights)
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 29 * 50)
    results = []

    def repeat():
        for _ in range(50):
            gamma, ll = e_step(x, locations, bandwidths, weights)
            results.append(gamma.tobytes() == expected_gamma.tobytes() and ll == expected_ll)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=repeat, daemon=True)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert results == [True] * 50


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
    assert state.assignments.shape == (n,)
    assert peak <= 3 * n * k0 * 8


def test_same_seed_same_fit():
    xs = two_clusters(seed=7)
    a, gamma_a = fit_with_final_responsibilities(xs, EMConfig(seed=42))
    b, gamma_b = fit_with_final_responsibilities(xs, EMConfig(seed=42))
    np.testing.assert_array_equal(gamma_a, gamma_b)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.locations, b.locations)
    assert a.log_likelihood == b.log_likelihood
    assert a.iterations == b.iterations


def test_tuple_seed_is_accepted():
    xs = two_clusters(seed=8)
    state = em_fit(xs, EMConfig(seed=(3, 0)))
    assert state.components >= 1


def test_iteration_cap_is_respected(monkeypatch):
    xs = two_clusters(seed=9)
    monkeypatch.setattr(intervals, "MAX_ITER", 1)
    state = em_fit(xs, EMConfig(seed=1))
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
    state, _ = fit_with_final_responsibilities(xs, EMConfig(seed=1))
    assert state.components == 2
    assert sorted(np.round(state.locations, 1)) == [0.0, 10.0]
    assignments = state.assignments
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


def test_a_normal_tail_value_does_not_get_the_whole_column():
    # the widest component wins the argmax in both tails of a normal
    # column, so the span of all its rows is the whole column; the run
    # around the value stops at the first row of another component
    xs = np.random.default_rng(5).normal(0.0, 1.0, 20000)
    value = float(xs[np.argmin(np.abs(xs + 2.0))])
    lo, hi = natural_interval(xs, value, em_fit(xs, EMConfig(seed=2)))
    assert lo <= value <= hi
    assert np.count_nonzero((xs >= lo) & (xs <= hi)) < xs.size / 2


def test_the_interval_is_the_run_of_the_value_s_component():
    rng = np.random.default_rng(41)
    for trial in range(80):
        if trial % 10 == 0:
            # n in {2, 3} starts the fit from isqrt(n) = 1 component
            k, size = 1, (int(rng.integers(2, 4)), 1)
        else:
            k = int(rng.integers(1, 5))
            size = (int(rng.integers(5, 120)), k)
        xs = rng.normal(rng.uniform(-5.0, 5.0, k), rng.uniform(0.1, 2.0, k), size).ravel()
        if trial % 3 == 0:
            xs = np.round(xs, 1)  # ties
        if xs.max() == xs.min():
            continue
        state = em_fit(xs, EMConfig(seed=trial))
        assert state.stop_reason in ("tol", "max_iter")
        assert state.components >= 1
        for value in xs[rng.integers(xs.size, size=4)]:
            lo, hi = natural_interval(xs, float(value), state)
            assert lo <= value <= hi
            assert lo in xs and hi in xs
            component = state.assignments[np.flatnonzero(xs == value)[0]]
            assert np.all(state.assignments[(xs >= lo) & (xs <= hi)] == component)
            below, above = xs[xs < lo], xs[xs > hi]
            if below.size:
                assert np.all(state.assignments[xs == below.max()] != component)
            if above.size:
                assert np.all(state.assignments[xs == above.min()] != component)


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
