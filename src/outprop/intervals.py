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

One EM iteration works in one n x k buffer allocated once per fit: the
responsibilities. The M-step takes the mass and location sums from them,
then the variances from the squared deviations (x - m)^2, which it leaves
in the buffer in place of the responsibilities. The E-step turns those
into the log joint log w - log b - (x - m)^2 / (2 b^2) - log(2 pi) / 2
and row-normalizes it by a max-shift log-sum-exp: subtract each row's
peak, exponentiate, divide by the row sum. The log-likelihood is the sum
of the logs of the row sums plus the sum of the peaks. The peak term is
exp(0) = 1, so a row whose every joint underflows in linear space still
normalizes to finite values. When components die, their columns are
squeezed out of the same buffer, block by block. The weighted sums are
einsum and sum reductions, not BLAS products.

Where the process may run on two or more CPUs and the matrix spans two
or more blocks of about ``_BLOCK_BYTES`` of rows, every pass over it but
a column drop runs on two threads: ``_both`` starts one worker thread, in
a copy of the caller's context (so under its ``np.errstate``), and joins
it before the pass returns; numpy releases the interpreter lock inside
each step. Otherwise every pass runs on the calling thread, the row
halves one after the other; for one block a worker costs more than it
saves. Each pass is split so that every value is computed as one thread
computes it, so the fit is the same, bit for bit, either way:

- Random start: each half of the row blocks draws its rows straight
  into the buffer and divides them by their sums while they are in
  cache. The second half's generator is advanced by first_row * k draws,
  and PCG64 spends one draw on each float64, so every value is the
  whole-matrix draw's.
- Mass and location sums: the whole-matrix ``sum`` runs on the calling
  thread and the whole-matrix einsum on the worker, each call as it would
  run alone. After a drop the einsum runs again on the kept columns.
- Variance sums: each thread takes half of the columns and goes over the
  row blocks in order, squaring its deviations in a one-block scratch,
  weighing them in the buffer and carrying running column sums from one
  block to the next. A column still adds its rows in order, the order of
  one whole-matrix einsum, so it rounds the same. A one-column half would
  be summed by numpy's pairwise kernel instead, so below four components,
  and wherever the pass runs on one thread, the calling thread takes
  every column at once. For one component einsum has a kernel of its
  own, so that case keeps the whole-column call.
- E-step and final assignments: each thread takes half of the row
  blocks. A row's values depend only on that row, so no bit changes.
- Column drops stay on the calling thread: a row moves to a place at or
  before the one it is read from, so the rows of the second half may
  land where rows of the first half have yet to be read.

Fits of different attributes run one after the other: two at once would
hold two n x k buffers.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field
from functools import partial
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


def _block_rows(k: int) -> int:
    """Rows in one block of an n x k float64 pass, about _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * k))


def _row_blocks(n: int, k: int) -> list[slice]:
    """Consecutive blocks of rows of an n x k float64 matrix, about _BLOCK_BYTES each."""
    step = _block_rows(k)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threaded(n: int, k: int) -> bool:
    """Whether a pass over an n x k float64 matrix runs on two threads.

    It does where the process may use two CPUs and the matrix spans two or
    more blocks; for one block, starting a worker costs more than it saves.
    """
    return n > _block_rows(k) and _cpus() >= 2


def _both(n: int, k: int, first: Callable[[], object], second: Callable[[], object]) -> tuple:
    """(first(), second()) of a pass over an n x k float64 matrix, second() on a worker.

    The worker runs in a copy of the caller's context, so the caller's
    np.errstate holds on it, and it is joined before this returns, so no
    buffer is reused while it runs; its exception, if any, is raised here.
    Where the pass is not ``_threaded``, both calls run inline, first one
    first.
    """
    if not _threaded(n, k):
        return first(), second()
    outcome = {}

    def run_second():
        try:
            outcome["value"] = second()
        except BaseException as exc:  # re-raised on the calling thread
            outcome["error"] = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(run_second,))
    worker.start()
    try:
        value = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return value, outcome["value"]


def _row_halves(n: int, k: int) -> list[list[slice]]:
    """The row blocks of an n x k float64 pass in two halves, or a single block as one."""
    blocks = _row_blocks(n, k)
    half = (len(blocks) + 1) // 2
    return [blocks[:half], blocks[half:]] if half < len(blocks) else [blocks]


def _in_row_blocks(n: int, k: int, work: Callable[[list[slice]], None]) -> None:
    """Call work(blocks) on each of the row halves of an n x k float64 pass.

    The two halves go to ``_both``, the first half to the calling thread; a
    pass of one block runs inline. Every block writes only its own rows, so
    the result does not depend on the split.
    """
    halves = _row_halves(n, k)
    if len(halves) == 1:
        work(halves[0])
    else:
        _both(n, k, partial(work, halves[0]), partial(work, halves[1]))


def _random_start(n: int, k: int, seed) -> np.ndarray:
    """default_rng(seed).random((n, k)) with every row divided by its sum.

    Each half of the row blocks draws its rows straight into the matrix,
    from a generator of its own that is advanced by first_row * k draws.
    PCG64 spends one draw on each float64, so every value is the one the
    whole-matrix call draws.
    """
    gamma = np.empty((n, k))
    # the generators are made on the calling thread: a generator made on
    # the worker left about 0.8 MB more of a `mine` process resident
    generators = {}
    for blocks in _row_halves(n, k):
        rng = generators[blocks[0].start] = np.random.default_rng(seed)
        rng.bit_generator.advance(blocks[0].start * k)

    def draw(blocks):
        rng = generators[blocks[0].start]
        for rows in blocks:
            g = rng.random(out=gamma[rows])
            g /= g.sum(axis=1, keepdims=True)

    _in_row_blocks(n, k, draw)
    return gamma


def _variance_sums(x, locations, gamma):
    """Column sums of gamma * (x - m)^2, rounded as np.einsum("ij,ij->j") rounds them.

    gamma is left holding (x - m)^2. For two or more columns einsum adds the
    rows in order, one running sum per column. The blocks square their
    deviations in a one-block scratch, weigh them in gamma, carry the
    running sums on and copy the squares over the weighted terms. Where the
    pass is ``_threaded`` and has four or more columns, each half of the
    columns, with its part of the scratch, goes to ``_both``: a half of two
    or more columns is still summed row by row, while a one-column view
    would be summed by numpy's pairwise kernel, so two or three columns
    stay whole. For one column einsum sums with a kernel of its own, which
    this order would not match, so it gets the n-vector whole.
    """
    n, k = gamma.shape
    if k == 1:
        sq_dev = np.subtract(x[:, None], locations)
        np.square(sq_dev, out=sq_dev)
        sums = np.einsum("ij,ij->j", gamma, sq_dev)
        gamma[...] = sq_dev
        return sums
    blocks = _row_blocks(n, k)
    step = blocks[0].stop
    scratch = np.empty(step * k)
    sums = np.zeros(k)

    def columns(cols):
        part = scratch[step * cols.start : step * cols.stop]
        for rows in blocks:
            g = gamma[rows, cols]
            sq_dev = np.subtract(x[rows, None], locations[cols], out=part[: g.size].reshape(g.shape))
            np.square(sq_dev, out=sq_dev)
            g *= sq_dev
            g[0] += sums[cols]
            np.sum(g, axis=0, out=sums[cols])
            g[...] = sq_dev

    if k < 4 or not _threaded(n, k):
        columns(slice(0, k))
    else:
        _both(n, k, partial(columns, slice(0, k // 2)), partial(columns, slice(k // 2, k)))
    return sums


def _drop_columns(flat, gamma, keep):
    """gamma's kept columns, moved block by block to the front of flat.

    gamma is the front of flat. Rows move in increasing order and land at
    or before the place they were read from, so no row is overwritten
    before it is read.
    """
    n = gamma.shape[0]
    k = int(np.count_nonzero(keep))
    for rows in _row_blocks(n, gamma.shape[1]):
        block = np.compress(keep, gamma[rows], axis=1)
        flat[rows.start * k : rows.stop * k] = block.ravel()
    return flat[: n * k].reshape(n, k)


def _responsibilities(bandwidths, weights, gamma):
    """Turn the (x - m)^2 in gamma into the row-normalized w_j * N(x_i; m_j, b_j^2).

    Returns the log-likelihood.
    """
    scale = -0.5 / (bandwidths * bandwidths)
    shift = np.log(weights) - np.log(bandwidths) - 0.5 * _LOG_2PI
    n, k = gamma.shape
    peak = np.empty(n)
    norm = np.empty(n)

    def normalize(blocks):
        for rows in blocks:
            g = gamma[rows]
            g *= scale
            g += shift
            row_peak = np.max(g, axis=1, out=peak[rows])
            g -= row_peak[:, None]
            np.exp(g, out=g)
            row_norm = np.sum(g, axis=1, out=norm[rows])
            g /= row_norm[:, None]

    _in_row_blocks(n, k, normalize)
    return float(np.sum(np.log(norm)) + np.sum(peak))


def _assignments(gamma):
    """Each row's highest-responsibility column, np.argmax(gamma, axis=1) by row blocks."""
    n, k = gamma.shape
    out = np.empty(n, dtype=np.intp)

    def argmax(blocks):
        for rows in blocks:
            np.argmax(gamma[rows], axis=1, out=out[rows])

    _in_row_blocks(n, k, argmax)
    return out


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
    gamma = _random_start(n, k0, cfg.seed)
    # the fit's one n x k buffer: the component count only shrinks, so
    # every later gamma is the front of it
    flat = gamma.reshape(-1)

    prev_ll = None
    stop_reason = "max_iter"
    for it in range(1, MAX_ITER + 1):
        k = gamma.shape[1]
        mass, weighted = _both(n, k, partial(gamma.sum, axis=0), partial(np.einsum, "i,ij->j", x, gamma))
        surplus = np.maximum(mass - ANNIHILATION, 0.0)
        if not math.isfinite(surplus.sum()):
            raise DegenerateSampleError(_OUT_OF_RANGE)

        keep = surplus > 0.0
        dropped = not bool(keep.all())
        if dropped:
            surplus = surplus[keep]
            mass = mass[keep]
            gamma = _drop_columns(flat, gamma, keep)
            weighted = np.einsum("i,ij->j", x, gamma)
        weights = surplus / surplus.sum()

        locations = weighted / mass
        variances = _variance_sums(x, locations, gamma) / mass
        bandwidths = np.sqrt(np.maximum(variances, var_floor))
        finite = np.isfinite(locations).all() and np.isfinite(bandwidths).all()
        if not (finite and bandwidths.min() > 0.0):
            raise DegenerateSampleError(_OUT_OF_RANGE)

        ll = _responsibilities(bandwidths, weights, gamma)
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
        assignments=_assignments(gamma), iterations=it,
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
