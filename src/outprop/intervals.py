"""Data-driven interval discovery around a value of a numeric column.

A Gaussian mixture is fitted to the column by an EM variant that starts
from floor(sqrt(n)) components and prunes components whose accumulated
responsibility falls below ``ANNIHILATION``, the N/2 of Figueiredo & Jain
(IEEE TPAMI 24(3), 2002) with N = 2 parameters per 1-D Gaussian. The
masses sum to n over at most sqrt(n) components, so the largest is at
least sqrt(n) > 1 and some component always survives. The fit stops
when the relative log-likelihood gain falls under ``TOL`` or after
``MAX_ITER`` iterations. Each row is then assigned to its
highest-responsibility component, and the natural interval of a value is
the contiguous run of sorted values around it whose rows share its
component. Categorical columns skip all of this: their natural condition
(``miner.natural_conditions``) is equality with the value.

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
``_BLOCK_BYTES`` each, so a block stays in cache between its steps. Each
fit starts one worker thread that takes the second half of the blocks
while the calling thread takes the first half; numpy releases the
interpreter lock inside each step. A pass writes only its own rows, so
every value is the same, bit for bit, with or without the worker. The
column sums (the mass, the location and variance sums) stay whole-matrix
calls on the calling thread: summing them block by block would change
their last bits, and splitting them by column reads the matrix with a
stride and is slower.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

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

# Bytes of the n x k matrix in one block of a row-local pass, small enough
# for the block to stay in cache across its steps
_BLOCK_BYTES = 1 << 20

# A column whose values are too large or too close together can take the
# fit out of float64's range. Rescaling the column first would keep it in
# range, but would also change the bits of every fit.
_OUT_OF_RANGE = "mixture fit left the float64 range; the values are too large or too close together"

IterationHook = Callable[[int, np.ndarray, np.ndarray], None]


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
    """Fitted mixture: active components plus each row's component.

    ``assignments[i]`` is the index of row i's highest-responsibility
    component under the final E-step. ``stop_reason`` says why the
    iterations ended: "tol" (converged) or "max_iter" (hit the cap).
    """

    locations: np.ndarray = field(repr=False)
    bandwidths: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    assignments: np.ndarray = field(repr=False)
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

    k0 = math.isqrt(n)
    rng = np.random.default_rng(cfg.seed)
    gamma = rng.random((n, k0))
    # one worker thread shares the row-local passes; the column sums stay
    # on this thread
    with ThreadPoolExecutor(max_workers=1) as executor:

        def normalize(rows):
            g = gamma[rows]
            g /= g.sum(axis=1, keepdims=True)

        _in_row_blocks(n, k0, normalize, executor)
        # the second n x k buffer; it trades places with gamma's every
        # iteration, and the component count only shrinks, so it always fits
        spare = np.empty(n * k0)

        prev_ll = None
        stop_reason = "max_iter"
        for it in range(1, MAX_ITER + 1):
            mass = gamma.sum(axis=0)
            surplus = np.maximum(mass - ANNIHILATION, 0.0)
            if not math.isfinite(surplus.sum()):
                raise DegenerateSampleError(_OUT_OF_RANGE)

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
                if 0.0 <= rel < TOL:
                    stop_reason = "tol"
                    break
            prev_ll = ll

    return MixtureState(
        locations=locations, bandwidths=bandwidths, weights=weights,
        assignments=np.argmax(gamma, axis=1), iterations=it,
        log_likelihood=ll, stop_reason=stop_reason,
    )


def natural_interval(xs: np.ndarray, o_value: float, state: MixtureState) -> tuple[float, float]:
    """[min, max] of the run of sorted sample values around o_value in its component.

    The run ends, on each side, just before the nearest value of a row of
    another component. Equal values share a component, so every row inside
    the interval has o_value's component. xs must be the sample the state
    was fitted on, in the same order.
    """
    x = np.asarray(xs, dtype=np.float64)
    if x.size != state.assignments.size:
        raise PreconditionError("sample does not match the fitted state")
    value = float(o_value)
    matches = np.flatnonzero(x == value)
    if matches.size == 0:
        raise PreconditionError(f"value {o_value!r} is not in the sample")
    other = state.assignments != state.assignments[matches[0]]
    lo_cut = np.max(x, where=other & (x < value), initial=-np.inf)
    hi_cut = np.min(x, where=other & (x > value), initial=np.inf)
    inside = (x > lo_cut) & (x < hi_cut)
    return float(np.min(x, where=inside, initial=np.inf)), float(np.max(x, where=inside, initial=-np.inf))
