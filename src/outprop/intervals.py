"""Data-driven interval discovery around a value of a numeric column.

A Gaussian mixture is fitted to the column by an EM variant that starts
from floor(sqrt(n)) components and prunes components whose accumulated
responsibility falls below a threshold. Each row is then assigned to its
highest-responsibility component, and the natural interval of a value is
the [min, max] span of the rows sharing its component. Categorical columns
skip all of this: their natural condition (``miner.natural_conditions``) is
equality with the value.

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

Every row-local pass (normalizing the random start, the squared
deviations and the whole E-step) runs over blocks of rows of about
``_BLOCK_BYTES`` each, so a block stays in cache between its steps. When
the process may run on two or more CPUs, each fit starts one worker
thread that takes the second half of the blocks while the calling thread
takes the first half; numpy releases the interpreter lock inside each
step. A pass writes only its own rows, so every value is the same, bit
for bit, with or without the worker. The column sums (the mass, the
location and variance sums) stay whole-matrix calls on the calling
thread: summing them block by block would change their last bits, and
splitting them by column reads the matrix with a stride and is slower.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateSampleError, PreconditionError

_log = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)

# Variance floor, relative to the squared sample range.
_VAR_FLOOR = 1e-9

# Bytes of the n x k matrix in one block of a row-local pass, small enough
# for the block to stay in cache across its steps; the same budget as
# outlierness._CHUNK_BYTES
_BLOCK_BYTES = 1 << 20

# A column whose values are too large or too close together can take the
# fit out of float64's range. Rescaling the column first would keep it in
# range, but would also change the bits of every fit.
_OUT_OF_RANGE = "mixture fit left the float64 range; the values are too large or too close together"

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


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _each(work, blocks):
    for rows in blocks:
        work(rows)


def _in_row_blocks(n: int, k: int, work: Callable[[slice], None], executor: Executor | None) -> None:
    """Call work(rows) on consecutive blocks of rows of an n x k float64 pass.

    With an executor its one worker takes the second half of the blocks
    while the calling thread takes the first half. Every block writes only
    its own rows, so the result does not depend on the split.
    """
    step = max(1, _BLOCK_BYTES // (8 * k))
    blocks = [slice(start, start + step) for start in range(0, n, step)]
    if executor is None or len(blocks) < 2:
        _each(work, blocks)
        return
    half = (len(blocks) + 1) // 2
    future = executor.submit(_each, work, blocks[half:])
    try:
        _each(work, blocks[:half])
    finally:
        # the worker must be done with the buffers before anyone reuses
        # them, and its exception, if any, surfaces here
        future.result()


def _squared_deviations(x, locations, out=None, executor=None):
    if out is None:
        out = np.empty((x.size, locations.size))

    def block(rows):
        dev = np.subtract(x[rows, None], locations, out=out[rows])
        np.square(dev, out=dev)

    _in_row_blocks(x.size, locations.size, block, executor)
    return out


def _responsibilities(x, locations, bandwidths, weights, sq_dev=None, executor=None):
    """Row-normalized w_j * N(x_i; m_j, b_j^2) and the log-likelihood.

    ``sq_dev`` holds (x_i - m_j)^2 and is overwritten with the
    responsibilities, which are returned; without it a new matrix is made.
    """
    if sq_dev is None:
        sq_dev = _squared_deviations(x, locations, executor=executor)
    gamma = sq_dev
    scale = -0.5 / (bandwidths * bandwidths)
    shift = np.log(weights) - np.log(bandwidths) - 0.5 * _LOG_2PI
    peak = np.empty(x.size)
    norm = np.empty(x.size)

    def block(rows):
        g = gamma[rows]
        g *= scale
        g += shift
        row_peak = np.max(g, axis=1, out=peak[rows])
        g -= row_peak[:, None]
        np.exp(g, out=g)
        row_norm = np.sum(g, axis=1, out=norm[rows])
        g /= row_norm[:, None]

    _in_row_blocks(x.size, locations.size, block, executor)
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

    Raises
    ------
    DegenerateSampleError
        Fewer than two distinct values, or a fit whose arithmetic leaves the
        float64 range: a mass total, location or bandwidth that is not
        finite, or a bandwidth of 0.

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
    # one worker thread shares the row-local passes; the fallback and the
    # column sums stay on this thread
    with ThreadPoolExecutor(max_workers=1) if _cpu_count() >= 2 else nullcontext() as executor:

        def normalize(rows):
            g = gamma[rows]
            g /= g.sum(axis=1, keepdims=True)

        _in_row_blocks(n, k0, normalize, executor)
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
            if not math.isfinite(total):
                raise DegenerateSampleError(_OUT_OF_RANGE)
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
            sq_dev = _squared_deviations(
                x, locations, out=spare[: gamma.size].reshape(gamma.shape), executor=executor
            )
            variances = np.einsum("ij,ij->j", gamma, sq_dev) / mass
            bandwidths = np.sqrt(np.maximum(variances, var_floor))
            finite = np.isfinite(locations).all() and np.isfinite(bandwidths).all()
            if not (finite and bandwidths.min() > 0.0):
                raise DegenerateSampleError(_OUT_OF_RANGE)

            spare = gamma.ravel()
            gamma, ll = _responsibilities(x, locations, bandwidths, weights, sq_dev, executor)
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
