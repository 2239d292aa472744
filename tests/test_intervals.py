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
from outprop.intervals import _e_step, _e_step_params, _log_likelihood, _Responsibilities, _sweep


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
    """Responsibilities and log-likelihood of the fit's E-step, in a fresh n x k buffer."""
    n = x.size
    gamma, peak, norm = np.empty((n, locations.size)), np.empty(n), np.empty(n)
    _e_step(x, _e_step_params(locations, bandwidths, weights), gamma, peak, norm)
    return gamma, _log_likelihood(peak, norm)


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
    # the responsibilities a hooked fit copies out of its row blocks after
    # its fifth iteration; 1000 rows fit one block at k0 = 31, 64 and 7
    # leave a partial last block
    x = np.random.default_rng(31).normal(0.0, 4.0, 1000)
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 31 * block_rows)
    monkeypatch.setattr(intervals, "MAX_ITER", 5)
    allow_cpus(monkeypatch, {0, 1})
    state, gamma = fit_with_final_responsibilities(x, EMConfig(seed=3))
    expected_gamma, expected_ll = whole_matrix_e_step(x, state.locations, state.bandwidths, state.weights)
    assert gamma.tobytes() == expected_gamma.tobytes()
    assert state.log_likelihood == expected_ll


def random_start(n, k, seed):
    gamma = np.random.default_rng(seed).random((n, k))
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
@pytest.mark.parametrize("block_rows", [1000, 64, 7, 1])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 13, 141])
def test_carried_column_sums_are_bit_equal_to_whole_matrix_sums(monkeypatch, k, block_rows, cpus):
    # the mass, location and variance sums carried from block to block,
    # from the random start and from an E-step, with and without a drop
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * k * block_rows)
    allow_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(37)
    for n in (50, 150, 1000, 5000):
        x, locations, bandwidths, weights = random_mixture(rng, n, k)
        gamma = _Responsibilities(x, k, seed=n)
        start = random_start(n, k, seed=n)
        mass, weighted = gamma.sums()
        assert mass.tobytes() == start.sum(axis=0).tobytes(), n
        assert weighted.tobytes() == np.einsum("i,ij->j", x, start).tobytes(), n
        sq_dev = np.square(x[:, None] - locations)
        expected = np.einsum("ij,ij->j", start, sq_dev)
        assert gamma.variance_sums(locations).tobytes() == expected.tobytes(), n

        resp, _ = whole_matrix_e_step(x, locations, bandwidths, weights)
        mass, weighted = gamma.sums(_e_step_params(locations, bandwidths, weights))
        assert mass.tobytes() == resp.sum(axis=0).tobytes(), n
        assert weighted.tobytes() == np.einsum("i,ij->j", x, resp).tobytes(), n
        assert gamma.assignments.tobytes() == np.argmax(resp, axis=1).tobytes(), n
        if k > 2:
            keep = np.arange(k) % 3 != 1
            kept = locations[keep] + 0.5
            expected = np.einsum("ij,ij->j", resp[:, keep], np.square(x[:, None] - kept))
            assert gamma.variance_sums(kept, keep).tobytes() == expected.tobytes(), n


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
@pytest.mark.parametrize("n, k, block_rows", [
    (1000, 13, 64),  # a partial last block
    (1000, 13, 7),  # a partial last block on each lane
    (1000, 13, 1000),  # a single block
    (9, 3, 1),  # one row a block
    (20000, 141, None),  # the benchmark's shape, at the default block size
])
@pytest.mark.parametrize("seed", [0, 5, (3, 4)])
def test_random_start_is_the_whole_matrix_draw_normalized(monkeypatch, n, k, block_rows, seed, cpus):
    # each lane's generator skips the other lane's blocks; the start is
    # drawn once for its sums and again when a drop leaves one column
    if block_rows is not None:
        monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * k * block_rows)
    allow_cpus(monkeypatch, cpus)
    expected = random_start(n, k, seed)
    gamma = _Responsibilities(np.zeros(n), k, seed)
    mass, _ = gamma.sums()
    assert mass.tobytes() == expected.sum(axis=0).tobytes()
    keep = np.arange(k) == k - 1
    assert gamma.hold_column(keep).tobytes() == expected[:, keep].tobytes()


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


# (id, column, seeds, components, block rows at the start: None for the
# default block size)
TWO_BUFFER_FITS = [
    # n < 4 starts from one component, held whole from the start
    ("three-rows", lambda: np.array([0.3, -1.2, 2.5]), range(3), {1}, [None]),
    # every seed ends at one component, where einsum's sums have rounding
    # of their own
    ("seven-rows", lambda: np.random.default_rng(0).random(7), range(6), {1}, [None, 7, 1]),
    # 70 components dropping to 62, 35 and 24 over 511 iterations, too
    # many for blocks of a few rows
    ("exponential-5000", lambda: np.random.default_rng(0).exponential(size=5000) ** 4, range(3),
     {62, 35, 24}, [None, 300]),
    ("mixed-gap", mixed_gap_column, [0], {141}, [None, 7]),
    # 12 components dropping to 2 and 3
    ("150-rows", lambda: np.random.default_rng(7).exponential(size=150) ** 20, range(8), {2, 3}, [None, 7, 1]),
]


@pytest.fixture(scope="module")
def two_buffer_fits():
    """The two-buffer fit of each column and seed, computed once for the module."""
    fits = {}

    def fit(name, column, seed):
        if (name, seed) not in fits:
            fits[name, seed] = two_buffer_em_fit(column(), EMConfig(seed=seed))
        return fits[name, seed]

    return fit


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("name, column, seeds, components, block_rows", [
    pytest.param(name, column, seeds, components, rows, id=f"{name}-{rows or 'default'}")
    for name, column, seeds, components, block_rows in TWO_BUFFER_FITS
    for rows in block_rows
])
def test_fit_is_bit_equal_to_the_two_buffer_fit(monkeypatch, two_buffer_fits, name, column, seeds, components,
                                                block_rows, cpus):
    xs = column()
    if block_rows is not None:
        # blocks of block_rows rows at the start; they grow as components die
        monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * math.isqrt(xs.size) * block_rows)
    allow_cpus(monkeypatch, cpus)
    seen = set()
    for seed in seeds:
        got, expected = em_fit(xs, EMConfig(seed=seed)), two_buffer_fits(name, column, seed)
        for field_name in ("assignments", "locations", "bandwidths", "weights"):
            assert getattr(got, field_name).tobytes() == getattr(expected, field_name).tobytes(), (seed, field_name)
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


def test_a_worker_exception_reaches_the_caller():
    # ten blocks: the worker takes the odd ones and fails on the last
    blocks = [slice(i, i + 10) for i in range(0, 100, 10)]
    threads = threading.active_count()
    folded = []

    def step(lane, rows):
        if rows.start == 90:
            raise ValueError("last block")
        return rows

    with pytest.raises(ValueError, match="last block"):
        _sweep(blocks, 2, step, folded.append)
    assert folded in (blocks[:8], blocks[:9])
    assert threading.active_count() == threads

    def step_on_caller(lane, rows):
        if rows.start == 40:
            raise ValueError("caller's block")
        return rows

    with pytest.raises(ValueError, match="caller's block"):
        _sweep(blocks, 2, step_on_caller, lambda rows: None)
    assert threading.active_count() == threads


def test_the_worker_runs_under_the_caller_s_error_state():
    # only block 1, one of the worker's, overflows
    blocks = [slice(i, i + 100) for i in range(0, 1000, 100)]
    caller = threading.current_thread()
    values = np.zeros(1000)
    values[100:200] = 1e300

    def step(lane, rows):
        assert (threading.current_thread() is caller) == (lane == 0)
        return np.square(values[rows])

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _sweep(blocks, 2, step, lambda block: None)


def test_variance_sweep_raises_on_the_caller_under_its_error_state(monkeypatch):
    # six columns over 300 rows, in blocks of 50 rows in the variance
    # sweep; the deviations from the last three locations overflow when
    # squared, on both lanes
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 6 * 100)
    allow_cpus(monkeypatch, {0, 1})
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    x = np.linspace(0.0, 1.0, 300)
    locations = np.array([0.0, 0.5, 1.0, 1e200, 2e200, 3e200])
    gamma = _Responsibilities(x, 6, seed=0)
    gamma.sums()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            gamma.variance_sums(locations)
    assert len(started) == 2
    with np.errstate(over="ignore"):
        sums = gamma.variance_sums(locations)
    assert np.all(np.isfinite(sums[:3])) and np.all(np.isinf(sums[3:]))


def test_sweeps_run_odd_blocks_on_a_worker_and_fold_in_block_order():
    caller = threading.current_thread()
    blocks = [slice(i, i + 10) for i in range(0, 70, 10)]
    for lanes, count, on_worker in ((2, 7, {10, 30, 50}), (2, 1, set()), (1, 7, set())):
        stepped, folded = {}, []

        def step(lane, rows):
            stepped[rows.start] = (lane, threading.current_thread() is caller)
            return rows.start

        _sweep(blocks[:count], lanes, step, folded.append)
        assert folded == [rows.start for rows in blocks[:count]]
        assert {start for start, (lane, _) in stepped.items() if lane == 1} == on_worker
        assert {start for start, (_, inline) in stepped.items() if not inline} == on_worker


def test_a_fit_runs_inline_where_no_thread_can_be_started(monkeypatch):
    xs = np.random.default_rng(33).normal(0.0, 1.0, 3000)
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 54 * 50)
    allow_cpus(monkeypatch, {0, 1})
    expected = em_fit(xs, EMConfig(seed=2))

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    got = em_fit(xs, EMConfig(seed=2))
    for name in ("assignments", "locations", "bandwidths", "weights"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert got.log_likelihood == expected.log_likelihood


def test_threaded_fits_under_fast_switching_are_bit_equal(monkeypatch):
    # 3000 rows start at 54 components, in 60 blocks of 50 rows
    xs = np.random.default_rng(35).normal(0.0, 4.0, 3000)
    expected = two_buffer_em_fit(xs, EMConfig(seed=4))
    monkeypatch.setattr(intervals, "_BLOCK_BYTES", 8 * 54 * 50)
    allow_cpus(monkeypatch, {0, 1})
    results = []

    def repeat():
        for _ in range(10):
            got = em_fit(xs, EMConfig(seed=4))
            results.append(all(
                getattr(got, name).tobytes() == getattr(expected, name).tobytes()
                for name in ("assignments", "locations", "bandwidths", "weights")
            ) and got.log_likelihood == expected.log_likelihood)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=repeat, daemon=True)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert results == [True] * 10


@pytest.mark.parametrize("xs, components", [
    (np.random.default_rng(23).normal(0.0, 1.0, 20000), 141),
    # components die, so the variance sweep compresses its blocks
    (np.random.default_rng(0).exponential(size=20000) ** 4, 123),
], ids=["normal", "dropping"])
def test_fit_peak_memory_is_a_few_blocks_and_n_vectors(xs, components):
    # no n x k matrix: two buffers of about a block for each of two
    # threads, and the fit's n-vectors
    n = xs.size
    tracemalloc.start()
    try:
        state = em_fit(xs, EMConfig(seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.assignments.shape == (n,)
    assert state.components == components
    assert peak <= 4 * intervals._BLOCK_BYTES + 8 * n * 8


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
