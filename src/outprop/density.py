"""Density estimation over one column and the cdf of the density values.

Numeric columns use a fixed-width counting window estimator: the density at
x is the fraction of sample points within h/2 of x, divided by h. The window
is closed on both ends and h follows the usual normal-reference rule. Lookup
is O(log n) against a sorted copy of the sample. Categorical columns use the
relative frequency of each token.

The cdf of the per-object density values is an exact step function. The
outlierness score needs only the mean of those values, so the cdf is built
only when asked for (``density_curve``); its exact areas remain the
reference the score's closed form is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import NUMERIC, Attribute, SelectionView
from .errors import (
    DegenerateDensityError,
    EmptySampleError,
    InternalError,
)

PARZEN = "parzen"
CATEGORICAL = "categorical"

# Sentinel bandwidth for constant samples; queries against such a model
# raise, callers decide on the fallback.
DEGENERATE_BANDWIDTH = 0.0


def global_bandwidth(xs: np.ndarray) -> float:
    """Window width for a numeric sample: 1.06 * std * n**(-1/5).

    The standard deviation is the sample one (n - 1 denominator). A sample
    with a single distinct value yields the degenerate bandwidth 0.0; it is
    tested directly, because the std of identical floats can round to a
    tiny nonzero value.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise EmptySampleError("bandwidth of an empty sample")
    if xs.min() == xs.max():
        return DEGENERATE_BANDWIDTH
    return 1.06 * float(np.std(xs, ddof=1)) * xs.size ** (-0.2)


@dataclass(frozen=True, eq=False)
class DensityModel:
    """Fitted per-column density model, numeric or categorical."""

    kind: str
    sorted_values: np.ndarray | None = field(default=None, repr=False)
    bandwidth: float | None = None
    frequencies: dict | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        if self.kind == PARZEN:
            return int(self.sorted_values.size)
        return self._total

    def __post_init__(self):
        if self.kind == CATEGORICAL:
            total = sum(self.frequencies.values())
            if abs(total - 1.0) > 1e-12:
                raise InternalError(f"categorical frequencies sum to {total!r}")


def fit_numeric(xs: np.ndarray) -> DensityModel:
    """Fit the counting-window model; constant samples get bandwidth 0."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise EmptySampleError("cannot fit a density on an empty sample")
    h = global_bandwidth(xs)
    return DensityModel(kind=PARZEN, sorted_values=np.sort(xs), bandwidth=h)


def fit_categorical(values) -> DensityModel:
    values = list(values)
    if not values:
        raise EmptySampleError("cannot fit a density on an empty sample")
    n = len(values)
    freq: dict = {}
    for v in values:
        freq[v] = freq.get(v, 0) + 1
    freq = {v: c / n for v, c in freq.items()}
    model = DensityModel(kind=CATEGORICAL, frequencies=freq)
    object.__setattr__(model, "_total", n)
    return model


def window_counts(sorted_xs: np.ndarray, queries, h: float):
    """Sample points within h/2 of each query, both ends of the window closed."""
    half = h / 2.0
    hi = np.searchsorted(sorted_xs, queries + half, side="right")
    return hi - np.searchsorted(sorted_xs, queries - half, side="left")


def parzen_density(model: DensityModel, x: float) -> float:
    """Density of the fitted numeric model at x."""
    return float(parzen_densities(model, x))


def parzen_densities(model: DensityModel, xs: np.ndarray) -> np.ndarray:
    """Vectorized parzen_density for an array of query points."""
    if model.kind != PARZEN:
        raise InternalError("parzen_densities called on a categorical model")
    h = model.bandwidth
    if h == DEGENERATE_BANDWIDTH:
        raise DegenerateDensityError("density query against a constant sample")
    sv = model.sorted_values
    return window_counts(sv, np.asarray(xs, dtype=np.float64), h) / (sv.size * h)


def categorical_pmf(model: DensityModel, value) -> float:
    """Relative frequency of the token; 0.0 for unseen tokens."""
    if model.kind != CATEGORICAL:
        raise InternalError("categorical_pmf called on a numeric model")
    return float(model.frequencies.get(value, 0.0))


@dataclass(frozen=True, eq=False)
class StepCDF:
    """Right-continuous empirical cdf of a multiset of density values.

    ``breakpoints`` are the strictly increasing distinct density values;
    ``cumulative[j]`` is the fraction of values at or below breakpoint j,
    so the last entry is exactly 1.
    """

    breakpoints: np.ndarray = field(repr=False)
    cumulative: np.ndarray = field(repr=False)

    @property
    def max_density(self) -> float:
        return float(self.breakpoints[-1])

    def evaluate(self, f: float) -> float:
        """Fraction of density values at or below f."""
        idx = int(np.searchsorted(self.breakpoints, f, side="right")) - 1
        if idx < 0:
            return 0.0
        return float(self.cumulative[idx])

    def area_below(self, f_hi: float) -> float:
        """Exact integral of the cdf from 0 to f_hi."""
        bs = self.breakpoints
        if f_hi <= bs[0]:
            return 0.0
        inner = bs[(bs > bs[0]) & (bs < f_hi)]
        pts = np.concatenate(([bs[0]], inner, [f_hi]))
        widths = np.diff(pts)
        levels = np.array([self.evaluate(p) for p in pts[:-1]])
        return float(np.sum(levels * widths))

    def area_above(self, f_lo: float) -> float:
        """Exact integral of (1 - cdf) from f_lo to the largest breakpoint."""
        bs = self.breakpoints
        hi = bs[-1]
        if f_lo >= hi:
            return 0.0
        start = max(f_lo, 0.0)
        inner = bs[(bs > start) & (bs < hi)]
        pts = np.concatenate(([start], inner, [hi]))
        widths = np.diff(pts)
        levels = np.array([self.evaluate(p) for p in pts[:-1]])
        return float(np.sum((1.0 - levels) * widths))

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
    n = len(view)
    if attribute.kind == NUMERIC:
        col = view.column(attribute.index)
        h = global_bandwidth(col)
        if h == DEGENERATE_BANDWIDTH:
            return density_cdf(np.ones(n))
        return density_cdf(window_counts(np.sort(col), col, h) / (n * h))
    codes = view.codes(attribute.index)
    return density_cdf(np.bincount(codes)[codes] / n)
