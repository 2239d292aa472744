"""Slow reference implementations used to cross-check the fast paths.

Everything here favors directness over speed: densities are literal sums
over the window predicate, the score comes from the closed-form identity
raw = mean density - f_o, candidate explanations are enumerated outright,
and the analytic Gaussian score is obtained by brute quadrature. None of it
shares code with the production scoring path beyond the final squashing
map. The long way to the score lives here too: ``evaluate``,
``area_below`` and ``area_above`` integrate a ``density.StepCDF`` step by
step, and the tests hold the closed form to their difference.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, Dataset, Explanation
from .density import StepCDF
from .errors import OracleTooLargeError, PreconditionError
from .miner import MiningConfig, natural_conditions
from .scoring import omega

_X_GRID_POINTS = 240_001
_X_GRID_HALF_WIDTH = 12.0  # in units of sigma


@dataclass(frozen=True)
class OracleConfig:
    """Quadrature step (in density units) and the enumeration size guard."""

    step: float = 1e-3
    max_rows: int = 500


@dataclass(frozen=True)
class OraclePair:
    explanation_attributes: frozenset[int]
    property_index: int
    score: float
    support: float


def naive_density(xs, h: float, x: float) -> float:
    """O(n) counting-window density: no sorting, no binary search.

    A point xi counts when max(x, xi) <= min(x, xi) + h/2, the sum rounded
    to float64 as computed.
    """
    if not h > 0:
        raise PreconditionError("naive_density needs a positive bandwidth")
    half = h / 2.0
    count = 0
    for xi in xs:
        if max(x, xi) <= min(x, xi) + half:
            count += 1
    return count / (len(xs) * h)


def _naive_densities(xs: np.ndarray, h: float) -> np.ndarray:
    # full O(n^2) pairwise matrix, same window predicate as naive_density
    a, b = xs[:, None], xs[None, :]
    inside = np.maximum(a, b) <= np.minimum(a, b) + h / 2.0
    return inside.sum(axis=1) / (xs.size * h)


def max_density(curve: StepCDF) -> float:
    """Largest density value of the cdf."""
    return float(curve.breakpoints[-1])


def evaluate(curve: StepCDF, f: float) -> float:
    """Fraction of density values at or below f."""
    idx = int(np.searchsorted(curve.breakpoints, f, side="right")) - 1
    if idx < 0:
        return 0.0
    return float(curve.cumulative[idx])


def area_below(curve: StepCDF, f_hi: float) -> float:
    """Exact integral of the cdf from 0 to f_hi."""
    bs = curve.breakpoints
    if f_hi <= bs[0]:
        return 0.0
    inner = bs[(bs > bs[0]) & (bs < f_hi)]
    pts = np.concatenate(([bs[0]], inner, [f_hi]))
    levels = np.array([evaluate(curve, p) for p in pts[:-1]])
    return float(np.sum(levels * np.diff(pts)))


def area_above(curve: StepCDF, f_lo: float) -> float:
    """Exact integral of (1 - cdf) from f_lo to the largest density."""
    bs = curve.breakpoints
    hi = bs[-1]
    if f_lo >= hi:
        return 0.0
    start = max(f_lo, 0.0)
    inner = bs[(bs > start) & (bs < hi)]
    pts = np.concatenate(([start], inner, [hi]))
    levels = np.array([evaluate(curve, p) for p in pts[:-1]])
    return float(np.sum((1.0 - levels) * np.diff(pts)))


def _sample_std(xs) -> float:
    n = len(xs)
    if n < 2:
        return 0.0
    mean = sum(xs) / n
    return math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1))


def _score_column(values, kind: str, o_value) -> float:
    """Outlierness via the identity raw = mean(densities) - density(o).

    The area above the density cdf past f_o, minus the area below it
    before f_o, telescopes to the mean density minus f_o; this needs no
    cdf construction at all, which keeps the path independent.
    """
    n = len(values)
    if kind == CATEGORICAL:
        freq = Counter(values)
        densities = [freq[v] / n for v in values]
        f_o = freq.get(o_value, 0) / n
    else:
        xs = np.asarray(values, dtype=np.float64)
        h = 1.06 * _sample_std(list(xs)) * n ** (-0.2)
        if h == 0.0:
            return 0.0
        densities = _naive_densities(xs, h)
        f_o = naive_density(list(xs), h, float(o_value))
    raw = float(np.mean(densities)) - f_o
    return omega(raw)


def exhaustive_mine(
    db: Dataset, cfg: MiningConfig, oracle_cfg: OracleConfig | None = None
) -> list[OraclePair]:
    """Enumerate every candidate pair and apply the definitions directly.

    All condition subsets up to cfg.max_conditions are scored for every
    property; minimality is then enforced by a pairwise subset scan over
    the accepted pairs. The condition vocabulary is the same seeded
    per-attribute one the fast miner builds; everything downstream of it
    is recomputed here from scratch.
    """
    oracle_cfg = oracle_cfg or OracleConfig()
    if db.n_rows > oracle_cfg.max_rows:
        raise OracleTooLargeError(
            f"{db.n_rows} rows exceed the enumeration guard of {oracle_cfg.max_rows}"
        )
    conditions, _ = natural_conditions(db, cfg)

    accepted: list[OraclePair] = []
    for prop in db.schema:
        others = [i for i in sorted(conditions) if i != prop.index]
        for size in range(0, cfg.max_conditions + 1):
            for combo in itertools.combinations(others, size):
                explanation = Explanation.of(*(conditions[i] for i in combo))
                rows = [
                    r
                    for r in range(db.n_rows)
                    if _row_satisfies(db, r, explanation)
                ]
                sup = len(rows) / db.n_rows
                if sup < cfg.min_support:
                    continue
                column = db.columns[prop.index]
                values = [column[r] for r in rows]
                score = _score_column(values, prop.kind, column[cfg.outlier_index])
                if score >= cfg.min_score:
                    accepted.append(
                        OraclePair(frozenset(combo), prop.index, score, sup)
                    )

    minimal = [
        pair
        for pair in accepted
        if not any(
            other.property_index == pair.property_index
            and other.explanation_attributes < pair.explanation_attributes
            for other in accepted
        )
    ]
    return minimal


def _row_satisfies(db: Dataset, row: int, explanation: Explanation) -> bool:
    for condition in explanation:
        cell = db.columns[condition.attribute][row]
        if condition.is_interval:
            if not (condition.lower <= cell <= condition.upper):
                return False
        elif cell != condition.value:
            return False
    return True


def analytic_gaussian_score(
    mu: float, sigma: float, v: float, cfg: OracleConfig | None = None
) -> float:
    """Outlierness of value v under an exact Gaussian density.

    The cdf of the density values is computed numerically from the pdf on
    a dense grid, and the two areas are accumulated by midpoint quadrature
    with the configured step along the density axis.
    """
    cfg = cfg or OracleConfig()
    if not sigma > 0:
        raise PreconditionError("sigma must be positive")
    if not cfg.step > 0:
        raise PreconditionError("quadrature step must be positive")

    f_max = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    f_v = f_max * math.exp(-((v - mu) ** 2) / (2.0 * sigma * sigma))

    xs = np.linspace(mu - _X_GRID_HALF_WIDTH * sigma, mu + _X_GRID_HALF_WIDTH * sigma, _X_GRID_POINTS)
    dx = xs[1] - xs[0]
    pdf = np.exp(-((xs - mu) ** 2) / (2.0 * sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))
    order = np.argsort(pdf)
    sorted_pdf = pdf[order]
    cum_mass = np.cumsum(sorted_pdf) * dx

    def g(fs: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(sorted_pdf, fs, side="right")
        out = np.zeros_like(fs)
        nz = idx > 0
        out[nz] = cum_mass[idx[nz] - 1]
        return out

    def integrate(lo: float, hi: float, above: bool) -> float:
        if hi <= lo:
            return 0.0
        cells = max(1, int(math.ceil((hi - lo) / cfg.step)))
        edges = np.linspace(lo, hi, cells + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        values = 1.0 - g(mids) if above else g(mids)
        return float(np.sum(values * widths))

    a1 = integrate(f_v, f_max, above=True)
    a2 = integrate(0.0, f_v, above=False)
    return omega(a1 - a2)
