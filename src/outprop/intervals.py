"""Data-driven interval discovery around a value of a numeric column.

A Gaussian mixture is fitted to the column by an EM variant that starts
from floor(sqrt(n)) components and prunes components whose accumulated
responsibility falls below a threshold. Each row is then assigned to its
highest-responsibility component, and the natural interval of a value is
the [min, max] span of the rows sharing its component. Categorical columns
skip all of this: the natural condition is equality with the value.

One EM iteration works in two n x k buffers allocated once per fit: the
responsibilities and a scratch matrix. The M-step writes the squared
deviations (x - m)^2 into the scratch matrix and takes the variances from
it; the E-step then turns that same matrix, in place, into the log joint
log w - log b - (x - m)^2 / (2 b^2) - log(2 pi) / 2 and row-normalizes it
by a max-shift log-sum-exp: subtract each row's peak, exponentiate, divide
by the row sum. The log-likelihood is the sum of the logs of the row sums
plus the sum of the peaks. The peak term is exp(0) = 1, so a row whose
every joint underflows in linear space still normalizes to finite values.
The two buffers then swap roles for the next iteration. The weighted sums
are single-threaded einsum reductions, not BLAS products.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataset import Attribute, Condition, DataObject
from .errors import ConfigError, DegenerateSampleError, PreconditionError

_log = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)

# Variance floor, relative to the squared sample range.
_VAR_FLOOR = 1e-9

IterationHook = Callable[[int, np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class EMConfig:
    """Knobs for the mixture fit.

    ``components`` is the initial component count; None means
    floor(sqrt(n)). ``annihilation`` is the responsibility mass below which
    a component is dropped. ``seed`` may be an int or a tuple of ints.
    """

    seed: int | tuple = 0
    components: int | None = None
    tol: float = 1e-6
    max_iter: int = 500
    annihilation: float = 1.0

    def __post_init__(self):
        if self.components is not None and self.components < 1:
            raise ConfigError("components must be at least 1")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if self.annihilation < 0:
            raise ConfigError("annihilation threshold must be non-negative")


@dataclass(frozen=True, eq=False)
class MixtureState:
    """Fitted mixture: active components plus per-row responsibilities.

    ``stop_reason`` says why the iterations ended: "tol" (converged),
    "max_iter" (hit the cap) or "fallback" (every component annihilated).
    """

    locations: np.ndarray = field(repr=False)
    bandwidths: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    responsibilities: np.ndarray = field(repr=False)
    iterations: int
    log_likelihood: float
    stop_reason: str

    @property
    def components(self) -> int:
        return int(self.weights.size)

    @property
    def fell_back(self) -> bool:
        return self.stop_reason == "fallback"

    @property
    def location_spread(self) -> float:
        """Largest minus smallest component location; 0 for one component."""
        return float(self.locations.max() - self.locations.min())


def _squared_deviations(x, locations, out=None):
    out = np.subtract(x[:, None], locations, out=out)
    return np.square(out, out=out)


def _responsibilities(x, locations, bandwidths, weights, sq_dev=None):
    """Row-normalized w_j * N(x_i; m_j, b_j^2) and the log-likelihood.

    ``sq_dev`` holds (x_i - m_j)^2 and is overwritten with the
    responsibilities, which are returned; without it a new matrix is made.
    """
    if sq_dev is None:
        sq_dev = _squared_deviations(x, locations)
    gamma = sq_dev
    gamma *= -0.5 / (bandwidths * bandwidths)
    gamma += np.log(weights) - np.log(bandwidths) - 0.5 * _LOG_2PI
    peak = gamma.max(axis=1)
    gamma -= peak[:, None]
    np.exp(gamma, out=gamma)
    norm = gamma.sum(axis=1)
    gamma /= norm[:, None]
    return gamma, float(np.sum(np.log(norm)) + np.sum(peak))


def em_fit(xs: np.ndarray, cfg: EMConfig, iteration_hook: IterationHook | None = None) -> MixtureState:
    """Fit the self-pruning Gaussian mixture to a numeric sample.

    Parameters
    ----------
    xs : array of float
        The column values. At least two distinct values are required.
    cfg : EMConfig
    iteration_hook : callable, optional
        Called as hook(iteration, weights, responsibilities) after every
        iteration, with copies. Intended for tests and diagnostics.

    Returns
    -------
    MixtureState

    Notes
    -----
    Each iteration recomputes the component weights from the accumulated
    responsibilities minus the annihilation threshold, drops components
    whose weight hits zero (they never come back), refreshes location and
    spread from the responsibility-weighted moments, then renormalizes the
    responsibilities. Iterations stop once the relative log-likelihood
    improvement is non-negative and under ``cfg.tol``, counting only
    iterations that did not drop a component; the pruning weight rule can
    make the likelihood dip, and a dip never counts as convergence.
    """
    x = np.asarray(xs, dtype=np.float64)
    n = x.size
    if n < 2:
        raise DegenerateSampleError("mixture fit needs at least two values")
    span = float(x.max() - x.min())
    if span == 0.0:
        raise DegenerateSampleError("mixture fit needs a non-constant sample")
    var_floor = _VAR_FLOOR * span * span

    k0 = cfg.components if cfg.components is not None else max(1, int(math.isqrt(n)))
    rng = np.random.default_rng(cfg.seed)
    gamma = rng.random((n, k0))
    gamma /= gamma.sum(axis=1, keepdims=True)
    # the second n x k buffer; it trades places with gamma's every
    # iteration, and the component count only shrinks, so it always fits
    spare = np.empty(n * k0)

    prev_ll = None
    ll = -math.inf
    iterations = 0
    stop_reason = "max_iter"
    for it in range(1, cfg.max_iter + 1):
        iterations = it
        mass = gamma.sum(axis=0)
        surplus = np.maximum(mass - cfg.annihilation, 0.0)
        total = surplus.sum()
        if total == 0.0:
            _log.warning("all %d components annihilated; falling back to a single component", gamma.shape[1])
            loc = np.array([x.mean()])
            bw = np.array([max(float(x.std()), math.sqrt(var_floor))])
            w = np.array([1.0])
            gamma = np.ones((n, 1))
            _, ll = _responsibilities(x, loc, bw, w)
            if iteration_hook is not None:
                iteration_hook(it, w.copy(), gamma.copy())
            return MixtureState(
                locations=loc, bandwidths=bw, weights=w, responsibilities=gamma,
                iterations=it, log_likelihood=ll, stop_reason="fallback",
            )

        keep = surplus > 0.0
        dropped = not bool(keep.all())
        if dropped:
            surplus = surplus[keep]
            mass = mass[keep]
            kept = spare[: n * mass.size].reshape(n, mass.size)
            gamma, spare = np.compress(keep, gamma, axis=1, out=kept), gamma.ravel()
        weights = surplus / surplus.sum()

        locations = np.einsum("i,ij->j", x, gamma) / mass
        sq_dev = _squared_deviations(x, locations, out=spare[: gamma.size].reshape(gamma.shape))
        variances = np.einsum("ij,ij->j", gamma, sq_dev) / mass
        bandwidths = np.sqrt(np.maximum(variances, var_floor))

        spare = gamma.ravel()
        gamma, ll = _responsibilities(x, locations, bandwidths, weights, sq_dev)
        if iteration_hook is not None:
            iteration_hook(it, weights.copy(), gamma.copy())

        if prev_ll is not None and not dropped:
            rel = (ll - prev_ll) / max(abs(prev_ll), 1e-300)
            # a dip is not convergence: the pruning weight rule is not a
            # proper M-step, so the likelihood may fall; keep iterating
            if 0.0 <= rel < cfg.tol:
                stop_reason = "tol"
                break
        prev_ll = ll

    if gamma.shape[1] < k0:
        # gamma fills only the front of an n x k0 buffer; the state
        # should not keep that whole buffer alive
        gamma = gamma.copy()
    return MixtureState(
        locations=locations, bandwidths=bandwidths, weights=weights,
        responsibilities=gamma, iterations=iterations, log_likelihood=ll,
        stop_reason=stop_reason,
    )


def natural_interval(xs: np.ndarray, o_value: float, state: MixtureState) -> tuple[float, float]:
    """Span of the sample values assigned to o_value's mixture component.

    xs must be the sample the state was fitted on, in the same order.
    Returns the closed interval [min, max]; it always contains o_value.
    """
    x = np.asarray(xs, dtype=np.float64)
    if x.size != state.responsibilities.shape[0]:
        raise PreconditionError("sample does not match the fitted state")
    matches = np.nonzero(x == float(o_value))[0]
    if matches.size == 0:
        raise PreconditionError(f"value {o_value!r} is not in the sample")
    assignments = np.argmax(state.responsibilities, axis=1)
    component = assignments[matches[0]]
    members = x[assignments == component]
    return float(members.min()), float(members.max())


def natural_condition_categorical(attribute: Attribute, o: DataObject) -> Condition:
    """Equality condition on o's token for a categorical attribute."""
    return Condition.equality(attribute.index, o.values[attribute.index])
