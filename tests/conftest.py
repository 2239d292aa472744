"""Shared builders for randomized test datasets and mining instances."""

import contextlib

import numpy as np
import pytest

from outprop import CATEGORICAL, NUMERIC, Dataset, EMConfig, MiningConfig, intervals

TOKENS = ("ant", "bee", "cat", "dog", "elk")

# one line per acceptance check, echoed at the end of the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@contextlib.contextmanager
def watch_e_steps(check):
    """Run check(weights, responsibilities) after each E-step of the fits inside.

    check gets copies; the responsibilities are the G x k matrix of the
    groups, which for a sample of at most ``GROUPS`` values are the rows'.
    """
    e_step = intervals._e_step

    def spy(groups, locations, bandwidths, weights, gamma):
        ll = e_step(groups, locations, bandwidths, weights, gamma)
        check(weights.copy(), gamma.copy())
        return ll

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intervals, "_e_step", spy)
        yield


def numeric_column(rng, n):
    """Random numeric column; small scales keep densities informative."""
    scale = float(rng.choice([0.02, 0.05, 0.2, 1.0]))
    shape = int(rng.integers(3))
    if shape == 0:
        return rng.normal(0.0, scale, n)
    if shape == 1:
        return rng.uniform(-scale, scale, n)
    centers = rng.choice([-4.0 * scale, 4.0 * scale], n)
    return centers + rng.normal(0.0, scale, n)


def categorical_column(rng, n):
    k = int(rng.integers(2, len(TOKENS) + 1))
    probs = rng.dirichlet(np.full(k, 2.0))
    return rng.choice(TOKENS[:k], n, p=probs)


def random_dataset(seed, min_rows=40, max_rows=200, min_attrs=3, max_attrs=5,
                   categorical_share=0.3):
    """Mixed-kind dataset drawn from one seeded generator.

    Returns the dataset and the generator so callers can keep drawing
    (outlier index, thresholds) from the same stream.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_rows, max_rows + 1))
    m = int(rng.integers(min_attrs, max_attrs + 1))
    kinds, columns = [], []
    for _ in range(m):
        if rng.random() < categorical_share:
            kinds.append(CATEGORICAL)
            columns.append(categorical_column(rng, n))
        else:
            kinds.append(NUMERIC)
            columns.append(numeric_column(rng, n))
    names = [f"a{i}" for i in range(m)]
    return Dataset.from_arrays(names, kinds, columns), rng


def random_instance(seed, max_rows=200):
    """Dataset plus a mining config, both drawn from the seed."""
    db, rng = random_dataset(seed, max_rows=max_rows)
    cfg = MiningConfig(
        outlier_index=int(rng.integers(db.n_rows)),
        min_support=float(rng.uniform(0.0, 0.5)),
        min_score=float(rng.uniform(0.0, 1.0)),
        max_conditions=3,
        em=EMConfig(seed=(seed, 977)),
    )
    return db, cfg
