"""Self-pruning mixture fit and the natural interval of a value."""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from outprop import EMConfig, MixtureState, em_fit, intervals, natural_interval
from outprop.errors import DegenerateSampleError, PreconditionError
from outprop.intervals import _both, _in_row_blocks, _random_start, _responsibilities, _variance_sums


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
    """Responsibilities and log-likelihood, from squared deviations in a fresh n x k buffer."""
    gamma = np.square(x[:, None] - locations)
    return gamma, _responsibilities(bandwidths, weights, gamma)


def allow_cpus(monkeypatch, cpus):
    """Make the fit see the CPU set cpus, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


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
    gamma = np.square(x[:, None] - locations)
    gamma *= -0.5 / (bandwidths * bandwidths)
    gamma += np.log(weights) - np.log(bandwidths) - 0.5 * math.log(2.0 * math.pi)
    peak = gamma.max(axis=1)
    gamma -= peak[:, None]
    np.exp(gamma, out=gamma)
    norm = gamma.sum(axis=1)
    gamma /= norm[:, None]
    return gamma, float(np.sum(np.log(norm)) + np.sum(peak))


@pytest.mark.parametrize("block_rows", [1000, 64, 7, 1])
def test_row_blocks_on_two_threads_are_bit_equal_to_whole_matrix_passes(monkeypatch, block_rows):
    # 1000 rows fit one block; 64 and 7 leave a partial last block
    x, locations, bandwidths, weights = random_mixture(np.random.default_rng(31), 1000, 13)
    expected_gamma, expected_ll = whole_matrix_e_step(x, locations, bandwidths, weights)
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 13 * block_rows)
    allow_cpus(monkeypatch, {0, 1})
    gamma, ll = e_step(x, locations, bandwidths, weights)
    assert gamma.tobytes() == expected_gamma.tobytes()
    assert ll == expected_ll


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
@pytest.mark.parametrize("block_rows", [1000, 64, 7, 1])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 13, 141])
def test_carried_variance_sums_are_bit_equal_to_einsum(monkeypatch, k, block_rows, cpus):
    # from four columns on, each half of the columns is summed on a thread of its own
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * k * block_rows)
    allow_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(37)
    for n in (50, 150, 1000, 5000):
        x, locations, _, _ = random_mixture(rng, n, k)
        gamma = rng.random((n, k))
        gamma /= gamma.sum(axis=1, keepdims=True)
        sq_dev = np.square(x[:, None] - locations)
        expected = np.einsum("ij,ij->j", gamma, sq_dev)
        assert _variance_sums(x, locations, gamma).tobytes() == expected.tobytes(), n
        # the E-step starts from the squared deviations the pass leaves behind
        assert gamma.tobytes() == sq_dev.tobytes(), n


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
@pytest.mark.parametrize("n, k, block_rows", [
    (1000, 13, 64),  # a partial last block
    (1000, 13, 7),  # a partial last block in each half
    (1000, 13, 1000),  # a single block
    (9, 3, 1),  # one row a block
    (20000, 141, None),  # the benchmark's shape, at the default block size
])
@pytest.mark.parametrize("seed", [0, 5, (3, 4)])
def test_random_start_is_the_whole_matrix_draw_normalized(monkeypatch, n, k, block_rows, seed, cpus):
    if block_rows is not None:
        monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * k * block_rows)
    allow_cpus(monkeypatch, cpus)
    expected = np.random.default_rng(seed).random((n, k))
    expected /= expected.sum(axis=1, keepdims=True)
    assert _random_start(n, k, seed).tobytes() == expected.tobytes()


def two_buffer_em_fit(xs, cfg):
    """em_fit written as whole-matrix calls on a second n x k matrix.

    The squared deviations get their own matrix, a drop copies the kept
    columns into a new one, and the variance sum is one einsum. em_fit must
    match it bit for bit.
    """
    x = np.asarray(xs, dtype=np.float64)
    n = x.size
    span = float(x.max() - x.min())
    var_floor = intervals._VAR_FLOOR * span * span
    gamma = np.random.default_rng(cfg.seed).random((n, math.isqrt(n)))
    gamma /= gamma.sum(axis=1, keepdims=True)
    prev_ll = None
    stop_reason = "max_iter"
    for it in range(1, intervals.MAX_ITER + 1):
        mass = gamma.sum(axis=0)
        surplus = np.maximum(mass - intervals.ANNIHILATION, 0.0)
        keep = surplus > 0.0
        dropped = not keep.all()
        if dropped:
            gamma, surplus, mass = np.compress(keep, gamma, axis=1), surplus[keep], mass[keep]
        weights = surplus / surplus.sum()
        locations = np.einsum("i,ij->j", x, gamma) / mass
        sq_dev = np.square(x[:, None] - locations)
        variances = np.einsum("ij,ij->j", gamma, sq_dev) / mass
        bandwidths = np.sqrt(np.maximum(variances, var_floor))
        gamma, ll = whole_matrix_e_step(x, locations, bandwidths, weights)
        if prev_ll is not None and not dropped:
            rel = (ll - prev_ll) / max(abs(prev_ll), 1e-300)
            if 0.0 <= rel < intervals.TOL:
                stop_reason = "tol"
                break
        prev_ll = ll
    return MixtureState(
        locations=locations, bandwidths=bandwidths, weights=weights,
        assignments=np.argmax(gamma, axis=1), iterations=it,
        log_likelihood=ll, stop_reason=stop_reason,
    )


def mixed_gap_column():
    """A 20,000-row column shaped like the benchmark's x_gap2: two uniform clusters."""
    rng = np.random.default_rng(43)
    left = rng.random(20000) < 0.5
    return np.where(left, rng.uniform(-3.0, -1.0, 20000), rng.uniform(1.0, 3.0, 20000))


@pytest.mark.parametrize("column, seeds, block_bytes, components", [
    # every seed ends at one component, where einsum's variance sum has
    # rounding of its own
    pytest.param(lambda: np.random.default_rng(0).random(7), range(6), None, {1}, id="seven-rows"),
    # 70 components dropping to 62, 35 and 24, over blocks of 300 rows at k = 70
    pytest.param(lambda: np.random.default_rng(0).exponential(size=5000) ** 4, range(3), 8 * 70 * 300,
                 {62, 35, 24}, id="exponential-5000"),
    pytest.param(mixed_gap_column, [0], None, {141}, id="mixed-gap"),
    # 12 components dropping to 2 and 3, where the variance pass keeps its
    # columns whole: a one-column half would be summed pairwise
    pytest.param(lambda: np.random.default_rng(7).exponential(size=150) ** 20, range(8), None, {2, 3},
                 id="150-rows"),
])
def test_fit_is_bit_equal_to_the_two_buffer_fit(monkeypatch, column, seeds, block_bytes, components):
    if block_bytes is not None:
        monkeypatch.setattr(intervals, "_BLOCK_BYTES", block_bytes)
    allow_cpus(monkeypatch, {0, 1})
    xs = column()
    seen = set()
    for seed in seeds:
        got, expected = em_fit(xs, EMConfig(seed=seed)), two_buffer_em_fit(xs, EMConfig(seed=seed))
        for name in ("assignments", "locations", "bandwidths", "weights"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), (seed, name)
        assert (got.log_likelihood, got.iterations, got.stop_reason) == (
            expected.log_likelihood, expected.iterations, expected.stop_reason,
        ), seed
        seen.add(got.components)
    assert seen == components


def test_fit_is_bit_equal_with_one_worker_and_with_two(monkeypatch):
    xs = np.random.default_rng(33).normal(0.0, 1.0, 20000)
    fits = []
    threads = threading.active_count()
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    # on one CPU every block runs on the calling thread
    for cpus, workers in (({0}, False), ({0, 1}, True)):
        allow_cpus(monkeypatch, cpus)
        started.clear()
        fits.append(fit_with_final_responsibilities(xs, EMConfig(seed=2)))
        assert bool(started) == workers
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
    allow_cpus(monkeypatch, {0, 1})

    def work(blocks):
        if blocks[-1].start == 90:
            raise ValueError("last block")

    with pytest.raises(ValueError, match="last block"):
        _in_row_blocks(100, 1, work)


def test_the_worker_runs_under_the_caller_s_error_state(monkeypatch):
    # ten blocks of 100 rows; only the worker's half, the last 500 rows,
    # overflows when scaled
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 13 * 100)
    allow_cpus(monkeypatch, {0, 1})
    gamma = np.zeros((1000, 13))
    gamma[500:] = 1e300
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _responsibilities(np.full(13, 1e-5), np.full(13, 1 / 13), gamma)


def test_column_halves_raise_on_the_caller_under_its_error_state(monkeypatch):
    # six columns in three blocks: the worker takes the last three
    # columns, and only their deviations overflow when squared
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 6 * 100)
    allow_cpus(monkeypatch, {0, 1})
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    x = np.linspace(0.0, 1.0, 300)
    locations = np.array([0.0, 0.5, 1.0, 1e200, 2e200, 3e200])
    gamma = np.full((300, 6), 1 / 6)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _variance_sums(x, locations, gamma)
    assert len(started) == 1
    with np.errstate(over="ignore"):
        sums = _variance_sums(x, locations, np.full((300, 6), 1 / 6))
    assert np.all(np.isfinite(sums[:3])) and np.all(np.isinf(sums[3:]))


def test_both_runs_the_second_call_on_a_worker_for_two_blocks_on_two_cpus(monkeypatch):
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 10 * 100)
    caller = threading.current_thread()

    def on_caller():
        return threading.current_thread() is caller

    for cpus, n, inline in (({0, 1}, 101, False), ({0, 1}, 100, True), ({0}, 101, True)):
        allow_cpus(monkeypatch, cpus)
        assert _both(n, 10, lambda: 1, on_caller) == (1, inline), (cpus, n)


def test_threaded_e_steps_under_fast_switching_are_bit_equal(monkeypatch):
    x, locations, bandwidths, weights = random_mixture(np.random.default_rng(35), 3000, 29)
    expected_gamma, expected_ll = whole_matrix_e_step(x, locations, bandwidths, weights)
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 29 * 50)
    allow_cpus(monkeypatch, {0, 1})
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


@pytest.mark.parametrize("xs, components", [
    (np.random.default_rng(23).normal(0.0, 1.0, 20000), 141),
    # components die, so the buffer is squeezed in place
    (np.random.default_rng(0).exponential(size=20000) ** 4, 123),
], ids=["normal", "dropping"])
def test_fit_peak_memory_is_one_n_by_k_matrix_and_two_blocks(xs, components):
    n = xs.size
    k0 = math.isqrt(n)
    tracemalloc.start()
    try:
        state = em_fit(xs, EMConfig(seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.assignments.shape == (n,)
    assert state.components == components
    assert peak <= n * k0 * 8 + 2 * intervals._BLOCK_BYTES + 4 * n * 8


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
