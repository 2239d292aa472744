"""Density estimation over one column and the cdf of the density values.

Numeric columns use a fixed-width counting window estimator: the density at
q is the fraction of sample points in q's window, divided by h, where h
follows the usual normal-reference rule. A point x and a query q are in
each other's window when max(x, q) <= fl(min(x, q) + h/2), with the sum
rounded to float64 once. The rule is symmetric, and because fl(x + h/2) is
monotone in x, ``window_counts`` counts it exactly with two binary searches
against a sorted copy of the sample. ``fit_numeric`` is the one place a
numeric sample becomes that sorted copy and its width. Categorical columns
use the relative frequency of each token.

The cdf of the per-object density values is an exact step function. The
outlierness score needs only the mean of those values, so the cdf is built
only when a curve is asked for (``density_curve``); ``oracle`` integrates
it to check the score's closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import NUMERIC, Attribute, SelectionView
from .errors import DegenerateDensityError, DegenerateSampleError, EmptySampleError, InternalError

# Sentinel bandwidth for constant samples; queries against such a model
# raise, callers decide on the fallback.
DEGENERATE_BANDWIDTH = 0.0


def global_bandwidth(xs: np.ndarray) -> float:
    """Window width for a numeric sample: 1.06 * std * n**(-1/5).

    The standard deviation is the sample one (n - 1 denominator). A sample
    with a single distinct value yields the degenerate bandwidth 0.0; it is
    tested directly, because the std of identical floats can round to a
    tiny nonzero value. Values so far apart that the width overflows raise
    ``DegenerateSampleError``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise EmptySampleError("bandwidth of an empty sample")
    if xs.min() == xs.max():
        return DEGENERATE_BANDWIDTH
    # np.std(xs, ddof=1)'s own arithmetic, without its Python layers
    n = xs.size
    dev = xs - xs.sum() / n
    dev *= dev
    h = 1.06 * math.sqrt(dev.sum() / (n - 1)) * n ** (-0.2)
    if not math.isfinite(h):
        raise DegenerateSampleError(
            "density window width left the float64 range; the values are too large"
        )
    return h


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Fitted counting-window model: the sorted sample and the window width."""

    sorted_values: np.ndarray = field(repr=False)
    bandwidth: float


def fit_numeric(xs: np.ndarray) -> DensityModel:
    """Fit the counting-window model; constant samples get bandwidth 0."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise EmptySampleError("cannot fit a density on an empty sample")
    return DensityModel(sorted_values=np.sort(xs), bandwidth=global_bandwidth(xs))


def window_counts(sorted_xs: np.ndarray, queries, h: float):
    """Sample points x with max(x, q) <= fl(min(x, q) + h/2), for each query q.

    Points at or above q count up to fl(q + h/2); a point x below q counts
    when fl(x + h/2) >= q, and fl(x + h/2) is sorted like the sample.
    """
    half = h / 2.0
    hi = np.searchsorted(sorted_xs, queries + half, side="right")
    return hi - np.searchsorted(sorted_xs + half, queries, side="left")


def parzen_densities(model: DensityModel, xs) -> np.ndarray:
    """Density of the fitted model at each query point."""
    h = model.bandwidth
    if h == DEGENERATE_BANDWIDTH:
        raise DegenerateDensityError("density query against a constant sample")
    sv = model.sorted_values
    return window_counts(sv, np.asarray(xs, dtype=np.float64), h) / (sv.size * h)


@dataclass(frozen=True, eq=False)
class StepCDF:
    """Right-continuous empirical cdf of a multiset of density values.

    ``breakpoints`` are the strictly increasing distinct density values;
    ``cumulative[j]`` is the fraction of values at or below breakpoint j,
    so the last entry is exactly 1.
    """

    breakpoints: np.ndarray = field(repr=False)
    cumulative: np.ndarray = field(repr=False)

    def to_tsv(self) -> str:
        lines = ["density\tcumulative"]
        for b, c in zip(self.breakpoints, self.cumulative):
            lines.append(f"{float(b)!r}\t{float(c)!r}")
        return "\n".join(lines) + "\n"


def density_cdf(densities: np.ndarray) -> StepCDF:
    """Build the exact step cdf of a multiset of density values."""
    densities = np.asarray(densities, dtype=np.float64)
    if densities.size == 0:
        raise EmptySampleError("cdf of an empty density multiset")
    if np.any(densities < 0.0):
        raise InternalError("negative density value")
    breakpoints, counts = np.unique(densities, return_counts=True)
    cumulative = np.cumsum(counts) / densities.size
    return StepCDF(breakpoints=breakpoints, cumulative=cumulative)


def density_curve(view: SelectionView, attribute: Attribute) -> StepCDF:
    """Step cdf of the selected rows' densities on one attribute.

    Every row of a column with a single distinct value gets density 1, the
    same convention under which such a column scores exactly 0.
    """
    if attribute.kind == NUMERIC:
        col = view.column(attribute.index)
        model = fit_numeric(col)
        if model.bandwidth == DEGENERATE_BANDWIDTH:
            return density_cdf(np.ones(col.size))
        return density_cdf(parzen_densities(model, col))
    codes = view.codes(attribute.index)
    return density_cdf(np.bincount(codes)[codes] / codes.size)
