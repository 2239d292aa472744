"""Self-pruning mixture fit and the natural interval of a value."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import watch_e_steps
from outprop import EMConfig, MixtureState, em_fit, intervals, natural_interval
from outprop.errors import DegenerateSampleError, PreconditionError
from outprop.intervals import GROUPS, _group


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
    """The fit and the group responsibilities of its last E-step.

    Asserts that the state's assignments are their argmax, bit for bit.
    """
    final = []

    def keep(weights, gamma):
        final[:] = [gamma]

    with watch_e_steps(keep):
        state = em_fit(xs, cfg)
    (gamma,) = final
    assert state.assignments.dtype == np.intp
    assert state.assignments.tobytes() == np.argmax(gamma, axis=1).tobytes()
    return state, gamma


def e_step(x, locations, bandwidths, weights):
    """Responsibilities and log-likelihood of the fit's E-step on at most GROUPS rows."""
    gamma = np.empty((x.size, locations.size))
    ll = intervals._e_step(_group(x), locations, bandwidths, weights, gamma)
    return gamma, ll


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

    def check(weights, gamma):
        counts.append(weights.size)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)

    with watch_e_steps(check):
        em_fit(xs, EMConfig(seed=4))
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


def whole_matrix_e_step(x, locations, bandwidths, weights):
    # the E-step as whole-matrix calls on the rows
    gamma = np.square(x[:, None] - locations)
    gamma *= -0.5 / (bandwidths * bandwidths)
    gamma += np.log(weights) - np.log(bandwidths) - 0.5 * math.log(2.0 * math.pi)
    peak = gamma.max(axis=1)
    gamma -= peak[:, None]
    np.exp(gamma, out=gamma)
    norm = gamma.sum(axis=1)
    gamma /= norm[:, None]
    return gamma, float(np.sum(np.log(norm)) + np.sum(peak))


def random_mixture(rng, n, k):
    x = rng.normal(0.0, 4.0, n)
    return x, rng.normal(0.0, 3.0, k), rng.uniform(0.5, 2.0, k), rng.dirichlet(np.ones(k))


def random_start(g, k, seed):
    gamma = np.random.default_rng(seed).random((g, k))
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma


def weigh(groups, gamma):
    # c * gamma, as the fit computes it
    return np.multiply(gamma, groups.counts[:, None])


def group_mass(groups, gamma):
    # each component's sum of c * gamma
    return weigh(groups, gamma).sum(axis=0)


def group_of_rows(lows, xs):
    """Each row's group, from the groups' smallest values.

    A column of at most GROUPS rows is its own grouping in row order; a
    longer one's groups are sorted runs, so a row's group is the last
    whose smallest value is at most the row's.
    """
    if xs.size <= GROUPS:
        return np.arange(xs.size)
    return np.searchsorted(lows, xs, side="right") - 1


def row_components(xs, state):
    """Each row's component: its group's assignment."""
    return state.assignments[group_of_rows(state.lows, xs)]


# (id, column, groups): the start is G x floor(sqrt(n))
START_COLUMNS = [
    ("nine-rows", lambda: np.random.default_rng(1).normal(size=9), 9),
    ("1000-rows", lambda: np.random.default_rng(2).normal(size=1000), 1000),
    ("1024-rows", lambda: np.random.default_rng(3).normal(size=GROUPS), GROUPS),
    # one group of two rows
    ("1025-rows", lambda: np.random.default_rng(4).normal(size=GROUPS + 1), GROUPS),
    # the benchmark's shape: 1,024 groups and 141 components
    ("20000-rows", lambda: np.random.default_rng(5).normal(size=20000), GROUPS),
    # ties leave fewer groups than GROUPS
    ("rounded-ties-3000", lambda: np.round(np.random.default_rng(6).normal(0.0, 1.0, 3000), 2), 414),
    ("seven-values-5000", lambda: np.random.default_rng(7).integers(0, 7, 5000) * 0.5, 7),
]


@pytest.mark.parametrize("name, column, groups", START_COLUMNS, ids=[c[0] for c in START_COLUMNS])
@pytest.mark.parametrize("seed", [0, 5, (3, 4)])
def test_random_start_is_the_whole_matrix_draw_normalized(monkeypatch, name, column, groups, seed):
    # the responsibilities and masses the first M-step sees: one G x k0
    # draw, row-normalized, less the columns of mass at most ANNIHILATION
    xs = column()
    seen = []
    m_step = intervals._m_step

    def first_m_step(groups, gamma, weighted, mass):
        seen.append((groups, gamma.copy(), mass.copy()))
        assert weighted.tobytes() == weigh(groups, gamma).tobytes()
        return m_step(groups, gamma, weighted, mass)

    monkeypatch.setattr(intervals, "_m_step", first_m_step)
    monkeypatch.setattr(intervals, "MAX_ITER", 1)
    em_fit(xs, EMConfig(seed=seed))
    ((grouping, gamma, mass),) = seen
    assert grouping.counts.size == groups
    start = random_start(groups, math.isqrt(xs.size), seed)
    expected_mass = group_mass(grouping, start)
    keep = expected_mass > intervals.ANNIHILATION
    assert gamma.tobytes() == start[:, keep].tobytes()
    assert mass.tobytes() == expected_mass[keep].tobytes()


@pytest.mark.parametrize("n", [50, 1000, GROUPS])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 13, 141])
def test_m_step_on_groups_of_one_is_bit_equal_to_whole_matrix_sums(n, k):
    # einsum runs other inner loops for other k; with c = 1 and W = 0 each
    # product and sum is the row fit's, from the random start and from an
    # E-step
    rng = np.random.default_rng(37)
    x, locations, bandwidths, weights = random_mixture(rng, n, k)
    groups = _group(x)
    for gamma in (random_start(n, k, seed=n), whole_matrix_e_step(x, locations, bandwidths, weights)[0]):
        mass = group_mass(groups, gamma)
        assert mass.tobytes() == gamma.sum(axis=0).tobytes()
        got_locations, got_variances = intervals._m_step(groups, gamma, weigh(groups, gamma), mass)
        expected = np.einsum("i,ij->j", x, gamma) / mass
        assert got_locations.tobytes() == expected.tobytes()
        expected = np.einsum("ij,ij->j", gamma, np.square(x[:, None] - expected)) / mass
        assert got_variances.tobytes() == expected.tobytes()


def mixed_gap_column():
    """A 20,000-row column shaped like the benchmark's x_gap2: two uniform clusters."""
    rng = np.random.default_rng(43)
    left = rng.random(20000) < 0.5
    return np.where(left, rng.uniform(-3.0, -1.0, 20000), rng.uniform(1.0, 3.0, 20000))


# columns of more than GROUPS rows
GROUPED_COLUMNS = {
    # one group of two rows
    "1025-rows": lambda: np.random.default_rng(1).normal(size=GROUPS + 1),
    # one group of three rows, the others of two
    "2049-rows": lambda: np.random.default_rng(2).exponential(size=2 * GROUPS + 1) ** 4,
    "exponential-5000": lambda: np.random.default_rng(0).exponential(size=5000) ** 4,
    # 458 groups, some of a single value
    "rounded-ties-8000": lambda: np.round(np.random.default_rng(4).exponential(size=8000) ** 3, 2),
    # a group a value, each holding about 430 rows
    "seven-values-3000": lambda: np.random.default_rng(5).integers(0, 7, 3000) * 0.5,
    "mixed-gap": mixed_gap_column,
}
GROUPED_IDS = list(GROUPED_COLUMNS)


def row_m_step(xs, counts, gamma):
    """Mass, locations, variances and location scales of an M-step over the rows.

    The rows are sorted by value, group g holds the next counts[g] of them,
    and each row takes its group's responsibilities.
    """
    x = np.sort(xs)
    rows = np.repeat(gamma, counts.astype(np.intp), axis=0)
    mass = rows.sum(axis=0)
    locations = np.einsum("i,ij->j", x, rows) / mass
    variances = np.einsum("ij,ij->j", rows, np.square(x[:, None] - locations)) / mass
    # the location sums cancel where a component spans values of both
    # signs; their rounding is relative to the sums of |x| * gamma
    scale = np.einsum("i,ij->j", np.abs(x), rows) / mass
    return mass, locations, variances, scale


def grouped_mixture(xs, k, seed):
    # components at k values of the column, each narrower than the column,
    # so every component takes some mass
    rng = np.random.default_rng(seed)
    span = xs.max() - xs.min()
    return rng.choice(xs, k), rng.uniform(0.01, 0.1, k) * span, rng.dirichlet(np.ones(k))


@pytest.mark.parametrize("name", ["1025-rows", "exponential-5000", "rounded-ties-8000"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 13, 141])
def test_grouped_m_step_matches_the_m_step_over_the_rows(name, k):
    # the sums over groups against the rows, each taking its group's
    # responsibilities, from the random start and from an E-step
    xs = GROUPED_COLUMNS[name]()
    groups = _group(xs)
    g = groups.counts.size
    locations, bandwidths, weights = grouped_mixture(xs, k, seed=k)
    for gamma in (random_start(g, k, seed=k), whole_matrix_e_step(groups.means, locations, bandwidths, weights)[0]):
        mass = group_mass(groups, gamma)
        got_locations, got_variances = intervals._m_step(groups, gamma, weigh(groups, gamma), mass)
        want_mass, want_locations, want_variances, scale = row_m_step(xs, groups.counts, gamma)
        assert np.all(want_mass > 0.0)
        np.testing.assert_allclose(mass, want_mass, rtol=1e-12, atol=0.0)
        assert np.all(np.abs(got_locations - want_locations) <= 1e-12 * scale)
        np.testing.assert_allclose(got_variances, want_variances, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["1025-rows", "exponential-5000", "rounded-ties-8000"])
@pytest.mark.parametrize("k", [1, 2, 13, 141])
def test_grouped_e_step_is_the_row_e_step_at_the_group_means(name, k):
    # each group's responsibilities are the whole-matrix E-step at its
    # mean, and the log-likelihood counts each group once for each row
    xs = GROUPED_COLUMNS[name]()
    groups = _group(xs)
    locations, bandwidths, weights = grouped_mixture(xs, k, seed=k)
    gamma = np.empty((groups.counts.size, k))
    ll = intervals._e_step(groups, locations, bandwidths, weights, gamma)
    expected, _ = whole_matrix_e_step(groups.means, locations, bandwidths, weights)
    assert gamma.tobytes() == expected.tobytes()
    row_means = np.repeat(groups.means, groups.counts.astype(np.intp))
    _, expected_ll, _ = reference_responsibilities(row_means, locations, bandwidths, weights)
    assert ll == pytest.approx(expected_ll, rel=1e-12, abs=0.0)


def two_buffer_em_fit(xs, cfg):
    """em_fit over the rows, written as whole-matrix calls on a second n x k matrix.

    The squared deviations get their own matrix, a drop copies the kept
    columns into a new one, and the variance sum is one einsum. em_fit must
    match it bit for bit on a column of at most GROUPS rows.
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
        assignments=np.argmax(gamma, axis=1), lows=x, highs=x, rows=n,
        iterations=it, log_likelihood=ll, stop_reason=stop_reason,
    )


# (id, column, seeds, components): columns of at most GROUPS rows, each
# row a group of its own
TWO_BUFFER_FITS = [
    # n < 4 starts from one component
    ("three-rows", lambda: np.array([0.3, -1.2, 2.5]), range(3), {1}),
    # every seed ends at one component, where einsum's sums have rounding
    # of their own
    ("seven-rows", lambda: np.random.default_rng(0).random(7), range(6), {1}),
    # 12 components dropping to 2 and 3
    ("150-rows", lambda: np.random.default_rng(7).exponential(size=150) ** 20, range(8), {2, 3}),
    # the longest column that is its own grouping: 32 components dropping
    # to 15 and 19
    ("1024-rows", lambda: np.random.default_rng(0).exponential(size=GROUPS) ** 4, range(3), {15, 19}),
    ("two-rows", lambda: np.array([1.0, 2.0]), range(3), {1}),
    # ties among rows that are groups of their own
    ("rounded-ties-400", lambda: np.round(np.random.default_rng(4).normal(0.0, 1.0, 400), 1), range(4),
     {6, 12, 17, 19}),
    # a saddle: near-symmetric starts stop after 3 iterations, none dropped
    ("saddle-100", lambda: two_clusters(seed=2), range(2), {10}),
    # values a millionth of their magnitude apart
    ("offset-500", lambda: 1e6 + np.random.default_rng(8).exponential(size=500) ** 3 * 1e-3, range(3), {11, 12}),
    ("descending-1000", lambda: -np.sort(np.random.default_rng(6).exponential(size=1000) ** 2), range(2), {13, 14}),
    ("1023-rows", lambda: np.random.default_rng(3).normal(size=GROUPS - 1), range(3), {31}),
]


@pytest.mark.parametrize("name, column, seeds, components", TWO_BUFFER_FITS,
                         ids=[fit[0] for fit in TWO_BUFFER_FITS])
def test_fit_is_bit_equal_to_the_two_buffer_fit(name, column, seeds, components):
    xs = column()
    assert xs.size <= GROUPS
    seen = set()
    for seed in seeds:
        got, expected = em_fit(xs, EMConfig(seed=seed)), two_buffer_em_fit(xs, EMConfig(seed=seed))
        for field_name in ("assignments", "lows", "highs", "locations", "bandwidths", "weights"):
            assert getattr(got, field_name).tobytes() == getattr(expected, field_name).tobytes(), (seed, field_name)
        assert (got.rows, got.log_likelihood, got.iterations, got.stop_reason) == (
            expected.rows, expected.log_likelihood, expected.iterations, expected.stop_reason,
        ), seed
        seen.add(got.components)
    assert seen == components


# (id, seeds, components, groups): columns of GROUPED_COLUMNS
GROUPED_FITS = [
    # 70 components dropping to 26, 33 and 43
    ("exponential-5000", range(3), {26, 33, 43}, GROUPS),
    ("mixed-gap", [0], {141}, GROUPS),
    ("1025-rows", range(2), {32}, GROUPS),
    # 45 components dropping to 19 and 26
    ("2049-rows", range(2), {19, 26}, GROUPS),
    ("rounded-ties-8000", [0], {42}, 458),
]


@pytest.mark.parametrize("name, seeds, components, groups", GROUPED_FITS, ids=[fit[0] for fit in GROUPED_FITS])
def test_grouped_sums_match_an_m_step_over_the_rows(monkeypatch, name, seeds, components, groups):
    xs = GROUPED_COLUMNS[name]()
    m_step = intervals._m_step
    steps = []

    def checked_m_step(groups, gamma, weighted, mass):
        # the fit hands over c * gamma of the kept columns, whether or not
        # a column was dropped
        assert weighted.tobytes() == weigh(groups, gamma).tobytes()
        locations, variances = m_step(groups, gamma, weighted, mass)
        want_mass, want_locations, want_variances, scale = row_m_step(xs, groups.counts, gamma)
        np.testing.assert_allclose(mass, want_mass, rtol=1e-12, atol=0.0)
        assert np.all(np.abs(locations - want_locations) <= 1e-12 * scale)
        np.testing.assert_allclose(variances, want_variances, rtol=1e-12, atol=0.0)
        steps.append(groups)
        return locations, variances

    monkeypatch.setattr(intervals, "_m_step", checked_m_step)
    seen = set()
    for seed in seeds:
        steps.clear()
        state, gamma = fit_with_final_responsibilities(xs, EMConfig(seed=seed))
        assert len(steps) == state.iterations
        grouping = steps[-1]
        assert grouping.counts.size == groups
        # each row, sorted by value, takes the E-step at its group's mean,
        # and the log-likelihood counts every row there
        row_means = np.repeat(grouping.means, grouping.counts.astype(np.intp))
        expected, expected_ll, _ = reference_responsibilities(
            row_means, state.locations, state.bandwidths, state.weights,
        )
        rows = gamma[group_of_rows(grouping.lows, xs)]
        np.testing.assert_allclose(rows[np.argsort(xs, kind="stable")], expected, rtol=0.0, atol=1e-12)
        assert state.log_likelihood == pytest.approx(expected_ll, rel=1e-12, abs=0.0)
        seen.add(state.components)
    assert seen == components


@st.composite
def columns(draw):
    """Columns of up to 5,000 rows, from all-distinct to a handful of values."""
    n = draw(st.integers(2, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.sampled_from([1, 2, 7, 500, 3000, None]))
    if distinct is None:
        return rng.normal(0.0, draw(st.sampled_from([1e-6, 1.0, 1e6])), n)
    return rng.integers(0, distinct, n) * 0.1 - 3.0


@given(columns())
@settings(max_examples=200, deadline=None)
def test_groups_are_runs_of_the_sorted_column(xs):
    groups = _group(xs)
    counts, means, within = groups.counts, groups.means, groups.within
    n = xs.size
    assert counts.size == means.size == within.size <= GROUPS
    assert np.all(counts >= 1) and counts.sum() == n
    assert np.all(within >= 0.0)
    if n <= GROUPS:
        assert means is xs and groups.lows is xs and groups.highs is xs
        assert np.all(counts == 1) and np.all(within == 0.0)
        return
    x = np.sort(xs)
    ends = np.cumsum(counts.astype(np.intp))
    starts = ends - counts.astype(np.intp)
    assert groups.lows.tobytes() == x[starts].tobytes()
    assert groups.highs.tobytes() == x[ends - 1].tobytes()
    # equal values share a group: each group starts above the last one's end
    assert np.all(x[starts[1:] - 1] < x[starts[1:]])
    if np.unique(xs).size == n:
        # about n / GROUPS rows a group
        assert counts.size == GROUPS and set(counts) <= {n // GROUPS, n // GROUPS + 1}
    for g in range(0, counts.size, max(1, counts.size // 20)):
        run = x[starts[g]:ends[g]]
        assert means[g] == pytest.approx(run.mean(), rel=1e-12, abs=1e-300)
        assert within[g] == pytest.approx(np.sum((run - run.mean()) ** 2), rel=1e-9, abs=1e-12 * run.size)


# (id, column, counts): groupings whose row counts follow from the cuts
GROUP_EDGES = [
    # only the last group holds two rows
    ("1025-rows", lambda: np.arange(GROUPS + 1.0), [1] * (GROUPS - 1) + [2]),
    ("2048-rows", lambda: np.arange(2.0 * GROUPS), [2] * GROUPS),
    ("2049-rows", lambda: np.arange(2.0 * GROUPS + 1), [2] * (GROUPS - 1) + [3]),
    # the rows' order does not matter
    ("descending-2048", lambda: np.arange(2.0 * GROUPS)[::-1], [2] * GROUPS),
    ("three-values", lambda: np.repeat([2.0, -1.0, 0.5], [1000, 1500, 500]), [1500, 500, 1000]),
    # the last cut is row 1,998's, a zero, so the largest value shares
    # the zeros' group
    ("one-outlier", lambda: np.append(np.zeros(1999), 7.0), [2000]),
    # -0.0 == 0.0: the first 512 cuts fall on zeros of either sign and
    # move back to the first, leaving one group of 1,024 zeros
    ("signed-zeros", lambda: np.concatenate([np.full(512, -0.0), np.arange(1.0, GROUPS + 1), np.zeros(512)]),
     [GROUPS] + [2] * (GROUPS // 2)),
]


@pytest.mark.parametrize("name, column, counts", GROUP_EDGES, ids=[edge[0] for edge in GROUP_EDGES])
def test_groups_of_columns_with_known_cuts(name, column, counts):
    xs = column()
    groups = _group(xs)
    assert groups.counts.tolist() == counts
    x = np.sort(xs)
    starts = np.cumsum([0] + counts[:-1])
    assert groups.lows.tobytes() == x[starts].tobytes()
    assert groups.highs.tobytes() == x[np.cumsum(counts) - 1].tobytes()
    # sums of small integers are exact, so the means are too
    for g, (start, count) in enumerate(zip(starts, counts)):
        run = x[start:start + count]
        assert groups.means[g] == run.mean()
        assert groups.within[g] == pytest.approx(np.sum((run - run.mean()) ** 2), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["1025-rows", "2049-rows", "rounded-ties-8000", "seven-values-3000"])
def test_grouped_fit_invariants_hold_after_every_iteration(name, seed):
    # every row of a group, so every row of a value, takes the group's
    # responsibilities and assignment
    xs = GROUPED_COLUMNS[name]()
    order = np.argsort(xs, kind="stable")
    groups = _group(xs)
    group = group_of_rows(groups.lows, xs)
    assert np.all((groups.lows[group] <= xs) & (xs <= groups.highs[group]))
    group = group[order]
    same = group[1:] == group[:-1]
    assert np.all(same[xs[order][1:] == xs[order][:-1]])
    counts = []

    def check(weights, gamma):
        counts.append(weights.size)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
        assert gamma.shape == (groups.counts.size, weights.size)
        rows = gamma[group]
        assert np.array_equal(rows[1:][same], rows[:-1][same])

    with watch_e_steps(check):
        state = em_fit(xs, EMConfig(seed=seed))
    assert len(counts) == state.iterations
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assignments = row_components(xs, state)[order]
    assert np.array_equal(assignments[1:][same], assignments[:-1][same])


@pytest.mark.parametrize("name", GROUPED_IDS)
def test_a_grouped_fit_does_not_depend_on_the_row_order(name):
    # the groups are runs of the sorted column, so a shuffled column fits
    # the same mixture and groups bit for bit, with its rows' assignments
    # shuffled
    xs = GROUPED_COLUMNS[name]()
    shuffle = np.random.default_rng(9).permutation(xs.size)
    got, expected = em_fit(xs[shuffle], EMConfig(seed=1)), em_fit(xs, EMConfig(seed=1))
    for field_name in ("assignments", "lows", "highs", "locations", "bandwidths", "weights"):
        assert getattr(got, field_name).tobytes() == getattr(expected, field_name).tobytes(), field_name
    assert (got.log_likelihood, got.iterations, got.stop_reason) == (
        expected.log_likelihood, expected.iterations, expected.stop_reason,
    )
    assert row_components(xs[shuffle], got).tobytes() == row_components(xs, expected)[shuffle].tobytes()


@pytest.mark.parametrize("xs, components", [
    (np.random.default_rng(23).normal(0.0, 1.0, 20000), 141),
    # components die, so the responsibilities move between the two buffers
    (np.random.default_rng(0).exponential(size=20000) ** 4, 118),
], ids=["normal", "dropping"])
def test_fit_peak_memory_is_two_group_matrices_and_a_few_n_vectors(xs, components):
    # two GROUPS x floor(sqrt(n)) matrices, and the grouping's n-vectors
    n = xs.size
    tracemalloc.start()
    try:
        state = em_fit(xs, EMConfig(seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.assignments.shape == (GROUPS,)
    assert state.components == components
    assert peak <= 2 * 8 * GROUPS * math.isqrt(n) + 2 * 8 * n
    # the row-block fit it replaced peaked at 2.64 MB on these columns
    assert peak <= 2.64e6


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


def assert_the_interval_is_the_run(xs, value, state):
    lo, hi = natural_interval(xs, value, state)
    assert lo <= value <= hi
    assert lo in xs and hi in xs
    components = row_components(xs, state)
    component = components[np.flatnonzero(xs == value)[0]]
    assert np.all(components[(xs >= lo) & (xs <= hi)] == component)
    below, above = xs[xs < lo], xs[xs > hi]
    if below.size:
        assert np.all(components[xs == below.max()] != component)
    if above.size:
        assert np.all(components[xs == above.min()] != component)


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
            assert_the_interval_is_the_run(xs, float(value), state)

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", GROUPED_IDS)
def test_the_interval_on_a_grouped_column_is_the_run_of_the_value_s_component(name, seed):
    xs = GROUPED_COLUMNS[name]()
    state = em_fit(xs, EMConfig(seed=seed))
    rng = np.random.default_rng(seed)
    for value in np.concatenate([[xs.min(), xs.max()], xs[rng.integers(xs.size, size=6)]]):
        assert_the_interval_is_the_run(xs, float(value), state)


def row_natural_interval(xs, value, components):
    """The natural interval worked out on the rows; components[i] is row i's component.

    The run ends, on each side, just before the nearest row of another
    component, and spans the rows strictly between those two. A zero bound
    is 0.0, as natural_interval writes it.
    """
    other = components != components[np.flatnonzero(xs == value)[0]]
    lo_cut = np.max(xs, where=other & (xs < value), initial=-np.inf)
    hi_cut = np.min(xs, where=other & (xs > value), initial=np.inf)
    inside = (xs > lo_cut) & (xs < hi_cut)
    lo = np.min(xs, where=inside, initial=np.inf)
    hi = np.max(xs, where=inside, initial=-np.inf)
    return float(lo + 0.0), float(hi + 0.0)


INTERVAL_COLUMNS = {
    "two-clusters-100": two_clusters,
    "rounded-ties-400": lambda: np.round(np.random.default_rng(4).normal(0.0, 1.0, 400), 1),
    "signed-zeros-300": lambda: np.concatenate([np.full(50, -0.0), np.arange(1.0, 201.0), np.zeros(50)]),
    "1024-rows": lambda: np.random.default_rng(0).exponential(size=GROUPS) ** 4,
    **GROUPED_COLUMNS,
    **{name: column for name, column, _ in GROUP_EDGES if name in ("one-outlier", "signed-zeros")},
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(INTERVAL_COLUMNS))
def test_the_interval_over_the_groups_is_the_interval_over_the_rows(name, seed):
    # each row takes its group's component; the interval over the rows is
    # then the one natural_interval finds over the groups
    xs = INTERVAL_COLUMNS[name]()
    state = em_fit(xs, EMConfig(seed=seed))
    components = row_components(xs, state)
    rng = np.random.default_rng(seed)
    values = np.concatenate([[xs.min(), xs.max()], xs[rng.integers(xs.size, size=20)]])
    if np.any(xs == 0.0):
        values = np.append(values, [0.0, -0.0])
    for value in values:
        got, want = natural_interval(xs, float(value), state), row_natural_interval(xs, float(value), components)
        # bit for bit: both write a zero bound as 0.0
        assert np.array(got).tobytes() == np.array(want).tobytes(), value


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["signed-zeros-300", "signed-zeros"])
def test_a_zero_bound_is_positive_zero(name, seed):
    # np.sort leaves open which zero of a run of -0.0 and 0.0 sits at a
    # group's edge; the bound is 0.0 either way
    xs = INTERVAL_COLUMNS[name]()
    state = em_fit(xs, EMConfig(seed=seed))
    for value in (0.0, -0.0):
        bounds = natural_interval(xs, value, state)
        assert 0.0 in bounds, value
        assert all(math.copysign(1.0, bound) == 1.0 for bound in bounds if bound == 0.0), (value, bounds)


@pytest.mark.parametrize("name, groups", [("20000-rows", GROUPS), ("rounded-ties-3000", 414)])
def test_a_fitted_state_holds_only_per_group_arrays(name, groups):
    xs = {start[0]: start[1] for start in START_COLUMNS}[name]()
    state = em_fit(xs, EMConfig(seed=0))
    assert state.rows == xs.size
    assert state.assignments.size == state.lows.size == state.highs.size == groups
    for array in (state.locations, state.bandwidths, state.weights):
        assert array.size == state.components
    assert state.lows.tobytes() == _group(xs).lows.tobytes()
    assert state.highs.tobytes() == _group(xs).highs.tobytes()


def test_the_interval_of_a_million_row_column_reads_the_rows_once():
    xs = np.random.default_rng(29).normal(size=1_000_000)
    state = em_fit(xs, EMConfig(seed=0))
    assert state.assignments.size == state.lows.size == state.highs.size == GROUPS
    value = float(xs[12345])
    tracemalloc.start()
    try:
        lo, hi = natural_interval(xs, value, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lo <= value <= hi
    # one n-byte comparison of the rows with the value; the row formula's
    # masks peaked at 11 MB
    assert peak <= 1.1e6


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
