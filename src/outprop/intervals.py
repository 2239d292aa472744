"""Data-driven interval discovery around a value of a numeric column.

A Gaussian mixture is fitted to the column by an EM variant that starts
from floor(sqrt(n)) components and prunes components whose accumulated
responsibility falls below ``ANNIHILATION``, the N/2 of Figueiredo & Jain
(IEEE TPAMI 24(3), 2002) with N = 2 parameters per 1-D Gaussian. The
masses sum to n over at most sqrt(n) components, so the largest is at
least sqrt(n) > 1 and some component always survives. The fit stops
when the relative log-likelihood gain falls under ``TOL`` or after
``MAX_ITER`` iterations. Categorical columns skip all of this: their
natural condition (``miner.natural_conditions``) is equality with the
value.

The fit's unit, from the grouping to the interval, is a group of rows
(EM for grouped data; McLachlan & Jones, Biometrics 44, 1988). A column
of at most ``GROUPS`` rows is its own grouping: each row is a group of
one, in row order. A longer column is sorted once and cut into runs of
about n / ``GROUPS`` consecutive values, and equal values never fall in
two groups. Each group carries its row count c, its mean mu, its
within-group sum of squared deviations W and its smallest and largest
value.

Every row of a group takes the group's responsibilities, the E-step at
the group's mean: the log joint log w - log b - (mu - m)^2 / (2 b^2) -
log(2 pi) / 2, row-normalized by a max-shift log-sum-exp (subtract each
group's peak, exponentiate, divide by the group's sum). The peak term is
exp(0) = 1, so a group whose every joint underflows in linear space still
normalizes to finite values. The M-step over the rows then reduces to
sums over the groups: a component's mass is the sum of c * gamma, its
location sum that of c * mu * gamma, and its variance sum that of
gamma * (c * (mu - m)^2 + W), because the squared deviations of a
group's rows from m sum to c * (mu - m)^2 + W. The log-likelihood is the
sum of c * (log norm + peak) over the groups, each group's sum and peak
counted once for each of its rows.

With c = 1 and W = 0 every product and sum is the one a fit over the
rows computes, so a fit of at most ``GROUPS`` rows is bit for bit that
fit. The fit holds one G x k matrix of responsibilities and one scratch
matrix of the same size, and an iteration costs O(G k) whatever n is;
the grouping costs one sort and a few n-vectors.

Each group is assigned its highest-responsibility component. The
natural interval of a value runs over the groups around the value's
group that share its component: the nearest group of another component
on each side sets a cut, and the interval spans the smallest to the
largest value of the groups between the cuts. Nothing maps the rows back
to their groups. The fitted state holds G assignments and G pairs of
bounds, and the interval reads the rows once, to check that the value is
among them. A bound that is either zero is written 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSampleError, PreconditionError

_LOG_2PI = math.log(2.0 * math.pi)

# Variance floor, relative to the squared sample range.
_VAR_FLOOR = 1e-9

# Convergence threshold on the relative log-likelihood improvement, and the
# iteration cap of one fit
TOL = 1e-6
MAX_ITER = 500

# Responsibility mass a component loses each iteration: N/2 for the
# N = 2 parameters of a 1-D Gaussian (Figueiredo & Jain, 2002)
ANNIHILATION = 1.0

# Most groups of rows a fit runs on
GROUPS = 1024

# A column whose values are too large or too close together can take the
# fit out of float64's range. Rescaling the column first would keep it in
# range, but would also change the bits of every fit.
_OUT_OF_RANGE = "mixture fit left the float64 range; the values are too large or too close together"


@dataclass(frozen=True)
class EMConfig:
    """Knobs for the mixture fit.

    ``seed`` may be an int or a tuple of ints. The start count
    floor(sqrt(n)), the pruning threshold ``ANNIHILATION``, the convergence
    threshold ``TOL`` and the iteration cap ``MAX_ITER`` are fixed.
    """

    seed: int | tuple = 0


@dataclass(frozen=True, eq=False)
class MixtureState:
    """Fitted mixture: active components plus each group's component.

    The groups are those the fit ran on: the rows in row order for a
    sample of at most ``GROUPS`` values, runs of the sorted sample
    otherwise. ``lows[g]`` and ``highs[g]`` are group g's smallest and
    largest value, and ``assignments[g]`` is the index of its
    highest-responsibility component under the final E-step. ``rows``
    is the sample size. ``stop_reason`` says why the iterations ended:
    "tol" (converged) or "max_iter" (hit the cap).
    """

    locations: np.ndarray = field(repr=False)
    bandwidths: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    assignments: np.ndarray = field(repr=False)
    lows: np.ndarray = field(repr=False)
    highs: np.ndarray = field(repr=False)
    rows: int
    iterations: int
    log_likelihood: float
    stop_reason: str

    @property
    def components(self) -> int:
        return int(self.weights.size)

    @property
    def location_spread(self) -> float:
        """Largest minus smallest component location; 0 for one component."""
        return float(self.locations.max() - self.locations.min())


class _Groups(NamedTuple):
    """The groups of rows a fit runs on.

    Each group's row count, mean, within-group sum of squared deviations,
    and smallest and largest value (``lows``, ``highs``).
    """

    counts: np.ndarray
    means: np.ndarray
    within: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


def _group(x: np.ndarray) -> _Groups:
    """At most ``GROUPS`` runs of the sorted column; equal values share a run.

    Each run starts at a cut i * n // GROUPS, moved back to the first of
    the values equal to the one there. A column of at most ``GROUPS``
    rows is its own grouping, one row a group in row order.
    """
    n = x.size
    if n <= GROUPS:
        return _Groups(np.ones(n), x, np.zeros(n), x, x)
    s = np.sort(x)
    starts = np.searchsorted(s, s[np.arange(GROUPS) * n // GROUPS], side="left")
    starts = starts[np.diff(starts, prepend=-1) > 0]
    ends = np.append(starts[1:], n)
    counts = (ends - starts).astype(np.float64)
    means = np.add.reduceat(s, starts) / counts
    deviations = np.repeat(means, ends - starts)
    np.subtract(s, deviations, out=deviations)
    within = np.add.reduceat(np.square(deviations, out=deviations), starts)
    return _Groups(counts, means, within, s[starts], s[ends - 1])


def _squared_deviations(x_rows, locations, out):
    """out[i, j] = (x_rows[i] - locations[j])^2.

    x_rows is copied into each column first, so the subtraction
    broadcasts one operand only.
    """
    np.copyto(out, x_rows[:, None])
    out -= locations
    return np.square(out, out=out)


def _e_step(groups: _Groups, locations, bandwidths, weights, gamma) -> float:
    """Fill gamma with each group's responsibilities and return the log-likelihood.

    The log joint at each group's mean is row-normalized by a max-shift
    log-sum-exp: subtract the group's peak, exponentiate, divide by the
    group's sum. Each group's sum and peak count once for each of its rows.
    """
    _squared_deviations(groups.means, locations, gamma)
    gamma *= -0.5 / (bandwidths * bandwidths)
    gamma += np.log(weights) - np.log(bandwidths) - 0.5 * _LOG_2PI
    peak = gamma.max(axis=1)
    gamma -= peak[:, None]
    np.exp(gamma, out=gamma)
    norm = gamma.sum(axis=1)
    gamma /= norm[:, None]
    return float(np.sum(groups.counts * np.log(norm)) + np.sum(groups.counts * peak))


def _m_step(groups: _Groups, gamma, weighted, mass) -> tuple[np.ndarray, np.ndarray]:
    """Each component's location and variance over the rows, from sums over the groups.

    weighted holds c * gamma and mass its column sums. The location sums
    are those of c * mu * gamma, the variance sums those of
    gamma * (c * (mu - m)^2 + W), whose terms overwrite weighted.
    """
    locations = np.einsum("i,ij->j", groups.means, weighted) / mass
    spread = _squared_deviations(groups.means, locations, weighted)
    spread *= groups.counts[:, None]
    spread += groups.within[:, None]
    return locations, np.einsum("ij,ij->j", gamma, spread) / mass


def em_fit(xs: np.ndarray, cfg: EMConfig) -> MixtureState:
    """Fit the self-pruning Gaussian mixture to a numeric sample.

    Parameters
    ----------
    xs : array of float
        The column values. At least two distinct values are required.
    cfg : EMConfig
        Its seed draws the start: one uniform G x k matrix, row-normalized.

    Returns
    -------
    MixtureState

    Raises
    ------
    DegenerateSampleError
        Fewer than two distinct values, or a fit whose arithmetic leaves the
        float64 range: a mass total, location or bandwidth that is not
        finite, or a bandwidth of 0.

    Notes
    -----
    Each iteration recomputes the component weights from the accumulated
    responsibilities minus ``ANNIHILATION``, drops components whose
    weight hits zero (they never come back, and one always survives),
    refreshes location and spread from the responsibility-weighted
    moments, then renormalizes the responsibilities. Iterations stop once
    the relative log-likelihood improvement is non-negative and under
    ``TOL``, counting only iterations that did not drop a component; the
    pruning weight rule can make the likelihood dip, and a dip never
    counts as convergence.
    Without convergence the fit stops after ``MAX_ITER`` iterations with
    ``stop_reason`` "max_iter".
    """
    x = np.asarray(xs, dtype=np.float64)
    n = x.size
    if n < 2:
        raise DegenerateSampleError("mixture fit needs at least two values")
    span = float(x.max() - x.min())
    if span == 0.0:
        raise DegenerateSampleError("mixture fit needs a non-constant sample")
    var_floor = _VAR_FLOOR * span * span

    groups = _group(x)
    counts = groups.counts[:, None]
    g, k = groups.counts.size, math.isqrt(n)
    # the responsibilities and the scratch matrix are G x k views of two
    # buffers, which trade places when a drop compresses the kept columns
    buffers = [np.empty(g * k), np.empty(g * k)]

    def matrix(buffer, columns):
        return buffer[: g * columns].reshape(g, columns)

    gamma = matrix(buffers[0], k)
    np.random.default_rng(cfg.seed).random(out=gamma)
    gamma /= gamma.sum(axis=1)[:, None]
    prev_ll = None
    stop_reason = "max_iter"
    for it in range(1, MAX_ITER + 1):
        weighted = np.multiply(gamma, counts, out=matrix(buffers[1], gamma.shape[1]))
        mass = weighted.sum(axis=0)
        surplus = np.maximum(mass - ANNIHILATION, 0.0)
        if not math.isfinite(surplus.sum()):
            raise DegenerateSampleError(_OUT_OF_RANGE)

        keep = surplus > 0.0
        dropped = not bool(keep.all())
        if dropped:
            surplus, mass = surplus[keep], mass[keep]
            # mode="raise", np.compress's, would copy through a scratch matrix
            kept = matrix(buffers[1], mass.size)
            gamma = np.take(gamma, np.flatnonzero(keep), axis=1, out=kept, mode="clip")
            buffers.reverse()
            weighted = np.multiply(gamma, counts, out=matrix(buffers[1], mass.size))
        weights = surplus / surplus.sum()

        locations, variances = _m_step(groups, gamma, weighted, mass)
        bandwidths = np.sqrt(np.maximum(variances, var_floor))
        finite = np.isfinite(locations).all() and np.isfinite(bandwidths).all()
        if not (finite and bandwidths.min() > 0.0):
            raise DegenerateSampleError(_OUT_OF_RANGE)

        ll = _e_step(groups, locations, bandwidths, weights, gamma)

        if prev_ll is not None and not dropped:
            rel = (ll - prev_ll) / max(abs(prev_ll), 1e-300)
            # a dip is not convergence: the pruning weight rule is not a
            # proper M-step, so the likelihood may fall; keep iterating
            if 0.0 <= rel < TOL:
                stop_reason = "tol"
                break
        prev_ll = ll
    return MixtureState(
        locations=locations, bandwidths=bandwidths, weights=weights,
        assignments=np.argmax(gamma, axis=1), lows=groups.lows, highs=groups.highs,
        rows=n, iterations=it, log_likelihood=ll, stop_reason=stop_reason,
    )


def natural_interval(xs: np.ndarray, o_value: float, state: MixtureState) -> tuple[float, float]:
    """[min, max] of the run of groups around o_value's group in its component.

    The run ends, on each side, just before the nearest group of another
    component, and spans the smallest to the largest value of the groups
    inside it. Equal values share a group, so every row inside the
    interval has o_value's component, and a zero bound is 0.0. xs must
    be the sample the state was fitted on; it is read only to check its
    size and that it holds o_value.
    """
    x = np.asarray(xs, dtype=np.float64)
    if x.size != state.rows:
        raise PreconditionError("sample does not match the fitted state")
    value = float(o_value)
    if not np.any(x == value):
        raise PreconditionError(f"value {o_value!r} is not in the sample")
    lows, highs = state.lows, state.highs
    other = state.assignments != state.assignments[np.argmax((lows <= value) & (value <= highs))]
    lo_cut = np.max(highs, where=other & (highs < value), initial=-np.inf)
    hi_cut = np.min(lows, where=other & (lows > value), initial=np.inf)
    inside = (lows > lo_cut) & (highs < hi_cut)
    lo = np.min(lows, where=inside, initial=np.inf)
    hi = np.max(highs, where=inside, initial=-np.inf)
    # np.sort leaves open which zero sits at a group's edge; + 0.0 makes either 0.0
    return float(lo + 0.0), float(hi + 0.0)
