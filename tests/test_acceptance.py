"""End-to-end acceptance checks.

Each test evaluates one numbered contract item at its stated tolerance and
prints a single PASS/FAIL line (echoed in the terminal summary) before
asserting, so a red run still reports every measured value.

Criteria 1 and 2a-2c score known distributions. Their expected values are
the closed forms the score definition gives (raw = mean member density
minus the query density), derived in each test, and each tolerance is a
stated error term: the quadrature step for the analytic oracle, and a
number of standard errors of the sampling, plus the window's smoothing
bias where it applies, for the sampled scores. The README's "Known
results" section gives the derivations.
"""

import math
import os
import time

import numpy as np
import pytest

import conftest
from conftest import random_instance
from outprop import (
    CATEGORICAL,
    NUMERIC,
    Dataset,
    EMConfig,
    Explanation,
    MiningConfig,
    density_curve,
    em_fit,
    explain_one,
    mine,
    natural_interval,
    omega,
    outlierness,
    parse_csv,
    select,
)
from outprop.cli import main as cli_main
from outprop.density import fit_numeric, parzen_densities
from outprop.oracle import (
    analytic_gaussian_score,
    area_above,
    area_below,
    evaluate,
    exhaustive_mine,
    max_density,
    naive_density,
)


def report(name, passed, detail):
    line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def unif2_dataset(tmp_path, size, seed):
    path = tmp_path / f"unif2_{size}_{seed}.csv"
    assert cli_main(["gen-unif2", "--out", str(path), "--size", str(size), "--seed", str(seed)]) == 0
    with open(path, encoding="utf-8") as fh:
        return parse_csv(fh)


def empty_score(db, outlier_index, property_index):
    cfg = MiningConfig(
        outlier_index=outlier_index, min_support=0.0, min_score=0.0, max_conditions=1,
    )
    return explain_one(db, cfg, Explanation.empty(), property_index).score


# standard errors a sampled raw score may stray from its closed form
Z = 4.0

# step-halving bound of the analytic oracle's quadrature, as asserted by
# test_oracle.test_analytic_quadrature_is_converged
QUADRATURE_TOL = 1e-4


def window_width(col):
    """The documented window width 1.06 * std * n**(-1/5), computed here."""
    return 1.06 * float(np.std(col, ddof=1)) * col.size ** (-0.2)


def mean_density_se(sd_f, n):
    """Standard error of the mean member density.

    The mean of the window counts over all members is a U-statistic over
    pairs of rows, so its standard error is 2 sd(f(X)) / sqrt(n), with f
    the window-smoothed density of the sample's distribution.
    """
    return 2.0 * sd_f / math.sqrt(n)


def test_criterion_1_two_cluster_benchmark(tmp_path):
    # gen-unif2 puts n/2 - 1 and n/2 rows into two uniform clusters of
    # width 1, [-1.1, -0.1] and [0.1, 1.1], and the planted 0.0 in the gap.
    # With h/2 < 0.1 the planted row's window holds only itself, so
    # f_o = 1/(n h) exactly. Every member's window also counts the member
    # itself once, which adds the same 1/(n h) to the mean member density,
    # so raw is the distinct-pair term alone: two rows of one cluster lie
    # within h/2 of each other with probability h (1 - h/4), which gives
    # raw = (1 - h/4) * sum m (m - 1) / n^2, about 0.5 (1 - h/4).
    t0 = time.perf_counter()
    db = unif2_dataset(tmp_path, size=20000, seed=1)
    score = empty_score(db, 19999, 0)
    elapsed = time.perf_counter() - t0
    n = db.n_rows
    h = window_width(db.columns[0])
    sizes = np.array([n // 2 - 1, n // 2])
    expected = (1.0 - h / 4.0) * float(np.sum(sizes * (sizes - 1))) / n**2
    # f(X) = 0.5 * coverage, where coverage is the share of a member's window
    # inside its cluster: 1 in the interior, uniform on [1/2, 1] within h/2
    # of an edge, so var(coverage) = h/12 - h^2/16
    se = mean_density_se(0.5 * math.sqrt(h / 12.0 - h * h / 16.0), n)
    tol = Z * se
    query_ok = score.query_density == 1.0 / (n * h)
    ok = query_ok and abs(score.raw - expected) <= tol and elapsed < 10.0
    report(
        "criterion 1, two-cluster benchmark",
        ok,
        f"f_o={score.query_density:.6g} expected 1/(n h)={1.0 / (n * h):.6g} exactly; "
        f"raw={score.raw:.6f} expected (1-h/4)*sum m(m-1)/n^2={expected:.6f} "
        f"± {tol:.2e} ({Z:g} × mean-density se {se:.2e}), h={h:.5f}, "
        f"score={score.value:.6f}, runtime={elapsed:.2f}s < 10s",
    )
    assert elapsed < 10.0
    assert query_ok
    assert abs(score.raw - expected) <= tol


SIGMA = 0.1


def normal_pdf(x):
    return math.exp(-x * x / (2.0 * SIGMA * SIGMA)) / (SIGMA * math.sqrt(2.0 * math.pi))


def normal_raw(v):
    """Closed-form raw score of v under N(0, SIGMA): E[f(X)] - f(v).

    E[f(X)] is the integral of f^2, which is 1 / (2 SIGMA sqrt(pi)).
    """
    return 1.0 / (2.0 * SIGMA * math.sqrt(math.pi)) - normal_pdf(v)


@pytest.fixture(scope="module")
def gaussian_sample():
    return np.random.default_rng(1).normal(0.0, SIGMA, 100000)


def check_sampled_gaussian(name, sample, v):
    """Score v against the sample and compare raw with normal_raw(v).

    Both window counts include the counting row itself, adding 1/(n h) to
    f_o and to the mean member density alike, so the closed form needs no
    self-count term. The tolerance is Z standard errors of each term, added
    (valid whatever their correlation), plus the smoothing bias of the box
    window, |E f_h - f| <= sup|f''| h^2 / 24 = f_max h^2 / (24 SIGMA^2), for
    each of the two terms.
    """
    col = np.concatenate([sample, [v]])
    n = col.size
    db = Dataset.from_arrays(["a"], [NUMERIC], [col])
    raw = empty_score(db, n - 1, 0).raw
    h = window_width(col)
    f_max = normal_pdf(0.0)
    # the window count c at v: the row itself plus a Poisson count of draws
    count = 1.0 + n * h * normal_pdf(v)
    se_query = math.sqrt(count) / (n * h)
    # var f(X) = integral f^3 - (integral f^2)^2 = f_max^2 (1/sqrt(3) - 1/2)
    se_mean = mean_density_se(f_max * math.sqrt(1.0 / math.sqrt(3.0) - 0.5), n)
    bias = 2.0 * f_max * h * h / (24.0 * SIGMA * SIGMA)
    tol = Z * (se_query + se_mean) + bias
    expected = normal_raw(v)
    ok = abs(raw - expected) <= tol
    report(
        name,
        ok,
        f"raw={raw:.6f} expected 1/(2σ√π) - φ(v)={expected:.6f} ± {tol:.4f} "
        f"({Z:g} × (f_o se √c/(n h)={se_query:.4f} + mean-density se {se_mean:.4f})"
        f" + window bias {bias:.4f}), c={count:.0f}, h={h:.5f}",
    )
    assert ok


def test_criterion_2a_sampled_score_far_value(gaussian_sample):
    check_sampled_gaussian("criterion 2a, sampled normal, v=-1", gaussian_sample, -1.0)


def test_criterion_2b_sampled_score_near_value(gaussian_sample):
    check_sampled_gaussian("criterion 2b, sampled normal, v=-0.12", gaussian_sample, -0.12)


def test_criterion_2c_analytic_scores():
    # omega(x) = (1 - e^-x) / (1 + e^-x) = tanh(x / 2)
    results = [
        (v, analytic_gaussian_score(0.0, SIGMA, v), math.tanh(normal_raw(v) / 2.0))
        for v in (-1.0, -0.12)
    ]
    ok = all(abs(score - expected) <= QUADRATURE_TOL for _, score, expected in results)
    report(
        "criterion 2c, analytic normal scores",
        ok,
        "; ".join(
            f"v={v:g}: {score:.7f} expected ω(1/(2σ√π) - φ(v))={expected:.7f}"
            for v, score, expected in results
        )
        + f"; ± {QUADRATURE_TOL:g} (quadrature step-halving bound)",
    )
    for _, score, expected in results:
        assert abs(score - expected) <= QUADRATURE_TOL


def test_criterion_3_unique_value_property():
    values = np.full(336, 1.0)
    values[222] = 0.5
    db = Dataset.from_arrays(["a4"], [NUMERIC], [values])
    cfg = MiningConfig(outlier_index=222, min_support=0.2, min_score=0.99, max_conditions=1)
    result = mine(db, cfg)
    found = [p for p in result.pairs if p.property.name == "a4" and len(p.explanation) == 0]
    score = found[0].score.value if found else float("nan")
    ok = bool(found) and score >= 0.99
    report(
        "criterion 3, unique-value property",
        ok,
        f"pair emitted={bool(found)}, score={score:.6f} target >= 0.99",
    )
    assert found
    assert score >= 0.99


def test_criterion_4_miner_matches_exhaustive_enumeration():
    worst = 0.0
    checked = 0
    for seed in range(2000, 2050):
        db, cfg = random_instance(seed, max_rows=200)
        fast = {
            (p.explanation.attributes, p.property.index): p.score.value
            for p in mine(db, cfg).pairs
        }
        slow = {
            (frozenset(p.explanation_attributes), p.property_index): p.score
            for p in exhaustive_mine(db, cfg)
        }
        assert set(fast) == set(slow), f"pair sets differ on instance seed {seed}"
        for key, value in fast.items():
            worst = max(worst, abs(value - slow[key]))
        checked += len(fast)
    ok = worst <= 1e-9
    report(
        "criterion 4, oracle equivalence",
        ok,
        f"50 instances, {checked} pairs, identical sets, worst score gap {worst:.2e} <= 1e-9",
    )
    assert worst <= 1e-9


def test_criterion_5a_score_range_on_fuzzed_inputs():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 10000:
        n = int(rng.integers(1, 50))
        kind = rng.random()
        if kind < 0.55:
            col = conftest.numeric_column(rng, n)
            db = Dataset.from_arrays(["x"], [NUMERIC], [col])
        elif kind < 0.8:
            db = Dataset.from_arrays(["x"], [CATEGORICAL], [conftest.categorical_column(rng, n)])
        else:
            db = Dataset.from_arrays(["x"], [NUMERIC], [np.full(n, float(rng.normal()))])
        view = select(db, Explanation.empty())
        curve = density_curve(view, db.schema[0])
        for r in range(db.n_rows):
            score = outlierness(view, db.schema[0], r)
            assert 0.0 <= score.value <= 1.0
            assert score.value == omega(score.raw)
            assert area_above(curve, score.query_density) >= 0.0
            assert area_below(curve, score.query_density) >= 0.0
            checked += 1
    report("criterion 5a, score range", True, f"{checked} fuzzed scores all within [0, 1]")


def test_criterion_5b_score_monotone_in_query_density():
    rng = np.random.default_rng(78)
    for model_index in range(1000):
        n = int(rng.integers(5, 30))
        if model_index % 3 == 0:
            db = Dataset.from_arrays(["x"], [CATEGORICAL], [conftest.categorical_column(rng, n)])
        else:
            db = Dataset.from_arrays(["x"], [NUMERIC], [conftest.numeric_column(rng, n)])
        view = select(db, Explanation.empty())
        scores = [outlierness(view, db.schema[0], r) for r in range(n)]
        scores.sort(key=lambda s: s.query_density)
        values = [s.value for s in scores]
        assert all(a >= b for a, b in zip(values, values[1:])), f"model {model_index}"
    report(
        "criterion 5b, monotone in query density", True,
        "1000 models, scores sorted by density are non-increasing",
    )


def test_criterion_5c_constant_columns_score_zero():
    for n in (1, 2, 17, 336):
        db = Dataset.from_arrays(["x"], [NUMERIC], [np.full(n, 3.3)])
        score = outlierness(select(db, Explanation.empty()), db.schema[0], 0)
        assert score.value == 0.0
    db = Dataset.from_arrays(["x"], [CATEGORICAL], [["t"] * 25])
    score = outlierness(select(db, Explanation.empty()), db.schema[0], 0)
    assert score.value == 0.0
    report("criterion 5c, constant columns", True, "numeric and categorical constants score exactly 0.0")


def test_criterion_5d_step_cdf_monotone_terminal_one():
    from outprop import density_cdf

    rng = np.random.default_rng(79)
    for _ in range(200):
        curve = density_cdf(rng.uniform(0.0, 4.0, int(rng.integers(1, 40))))
        assert np.all(np.diff(curve.cumulative) > 0)
        assert np.all(np.diff(curve.breakpoints) > 0)
        assert curve.cumulative[-1] == 1.0
        assert evaluate(curve, max_density(curve)) == 1.0
    report(
        "criterion 5d, step cdf", True,
        "200 cdfs monotone with terminal value exactly 1.0",
    )


def test_criterion_5e_fast_density_equals_naive():
    rng = np.random.default_rng(80)
    comparisons = 0
    for _ in range(100):
        xs = rng.normal(0.0, float(rng.choice([0.05, 0.5, 2.0])), int(rng.integers(2, 60)))
        model = fit_numeric(xs)
        if model.bandwidth == 0.0:
            continue
        queries = rng.uniform(xs.min() - 0.2, xs.max() + 0.2, 100)
        for q in queries:
            assert float(parzen_densities(model, q)) == naive_density(
                list(xs), model.bandwidth, float(q)
            )
            comparisons += 1
    report(
        "criterion 5e, density oracle equality", True,
        f"{comparisons} (sample, query) pairs match the naive sum exactly",
    )


def test_criterion_5f_em_invariants_every_iteration():
    rng = np.random.default_rng(81)
    iterations = 0

    for fit_index in range(60):
        xs = conftest.numeric_column(rng, int(rng.integers(10, 80)))
        if xs.max() == xs.min():
            continue
        counts = []

        def check(weights, gamma):
            nonlocal iterations
            iterations += 1
            counts.append(weights.size)
            assert abs(weights.sum() - 1.0) <= 1e-9
            assert np.all(weights >= 0.0)
            assert np.max(np.abs(gamma.sum(axis=1) - 1.0)) <= 1e-9

        with conftest.watch_e_steps(check):
            state = em_fit(xs, EMConfig(seed=fit_index))
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert state.components >= 1
        assert np.all(state.bandwidths > 0.0)
    report(
        "criterion 5f, mixture invariants", True,
        f"weights simplex and responsibility row sums hold across {iterations} iterations",
    )


def test_criterion_5g_natural_interval_contains_the_value():
    rng = np.random.default_rng(82)
    runs = 0
    while runs < 1000:
        xs = conftest.numeric_column(rng, int(rng.integers(10, 60)))
        if xs.max() == xs.min():
            continue
        state = em_fit(xs, EMConfig(seed=runs))
        value = float(xs[int(rng.integers(xs.size))])
        lo, hi = natural_interval(xs, value, state)
        assert lo <= value <= hi
        runs += 1
    report(
        "criterion 5g, interval containment", True,
        f"{runs}/1000 seeded runs contain the designated value",
    )


def test_criterion_6_reports_are_byte_identical(tmp_path):
    data = tmp_path / "bench.csv"
    assert cli_main([
        "gen-unif2", "--out", str(data), "--size", "400", "--seed", "5", "--aux", "2",
    ]) == 0
    blobs = []
    for name in ("first.jsonl", "second.jsonl"):
        out = tmp_path / name
        assert cli_main([
            "mine", "--data", str(data), "--outlier", "399", "--omega", "0.3",
            "--sigma", "0.1", "--kmax", "3", "--seed", "9", "--out", str(out),
        ]) == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    report(
        "criterion 6, deterministic reports", ok,
        f"two identical-flag runs, {len(blobs[0])} bytes each, byte-identical={ok}",
    )
    assert ok


def unif2_arrays(seed, size):
    rng = np.random.default_rng(seed)
    a = np.concatenate([
        rng.uniform(-1.1, -0.1, size // 2 - 1), rng.uniform(0.1, 1.1, size // 2), [0.0],
    ])
    return Dataset.from_arrays(["A", "u1"], [NUMERIC, NUMERIC], [a, rng.random(size)])


def scoring_seconds(dbs, calls=300):
    """Each database's fastest single scoring call, the calls interleaved.

    A call takes under a millisecond, so most calls run without being
    preempted and the minimum is the call's own cost; interleaving the
    databases puts both under the same host load.
    """
    cfgs = [
        MiningConfig(outlier_index=db.n_rows - 1, min_support=0.0, min_score=0.0, max_conditions=1)
        for db in dbs
    ]
    best = [float("inf")] * len(dbs)
    for _ in range(calls):
        for i, (db, cfg) in enumerate(zip(dbs, cfgs)):
            t0 = time.perf_counter()
            explain_one(db, cfg, Explanation.empty(), 0)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_criterion_7_scoring_time_scales_gently():
    t_small, t_large = scoring_seconds([unif2_arrays(1, 10000), unif2_arrays(1, 20000)])
    ratio = t_large / t_small
    ok = ratio <= 2.4
    report(
        "criterion 7, scaling", ok,
        f"10k -> 20k rows scoring time ratio {ratio:.3f} <= 2.4"
        f" ({t_small * 1e3:.2f} ms vs {t_large * 1e3:.2f} ms)",
    )
    assert ratio <= 2.4


@pytest.mark.skipif("ECOLI_CSV" not in os.environ, reason="set ECOLI_CSV to run the smoke check")
def test_ecoli_smoke():
    with open(os.environ["ECOLI_CSV"], encoding="utf-8") as fh:
        db = parse_csv(fh)
    target = next(a for a in db.schema if a.name.lower() in ("a4", "a_4"))
    col = db.columns[target.index]
    unique = [i for i, v in enumerate(col) if float(v) == 0.5]
    assert len(unique) == 1
    o_index = unique[0]
    scores = {
        a.name: empty_score(db, o_index, a.index).value
        for a in db.schema
        if a.kind == NUMERIC
    }
    top = max(scores, key=scores.get)
    report("ecoli smoke", top == target.name, f"top empty-explanation property {top}")
    assert top == target.name
