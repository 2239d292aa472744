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

The fit holds no n x k matrix. The responsibilities of an iteration are
fixed by its parameters (each component's location, bandwidth and
weight) together with two n-vectors, each row's log-joint peak and row
sum, and before the first E-step by the seed. So every iteration makes
two sweeps over blocks of about ``_BLOCK_BYTES`` of rows, and each sweep
recomputes a block's responsibilities where it needs them:

- The sums sweep runs after the random start and after every M-step. It
  draws a block of the start, or computes the block's E-step: the log
  joint log w - log b - (x - m)^2 / (2 b^2) - log(2 pi) / 2,
  row-normalized by a max-shift log-sum-exp (subtract each row's peak,
  exponentiate, divide by the row sum). It keeps the peaks and row sums
  and writes each row's argmax into the assignments. The log-likelihood
  is the sum of the logs of the row sums plus the sum of the peaks. The
  peak term is exp(0) = 1, so a row whose every joint underflows in
  linear space still normalizes to finite values. The sweep then adds
  the block to the mass and location sums of the next M-step.
- The variance sweep recomputes the same responsibilities from the stored
  peaks and row sums, which skips the two row reductions; in the first
  iteration it redraws the start from a fresh generator. It keeps the
  columns of the components that survive, weighs (x - m)^2 under the new
  locations by them and adds the block to the variance sums.

No bit changes for this. A row's responsibilities depend on that row and
the parameters alone, so a recomputed value is the value computed
before. Each column sum is carried from block to block and so adds the
rows in order, as a whole-matrix sum(axis=0) or einsum over the rows
does: the mass and location sums start each block from a carry row put
on top of it, and the variance sums add the carry to the block's first
weighted row. numpy sums one column with kernels of its own, so one
component's responsibilities are held whole, as an n x 1 matrix, and get
the whole-column calls. A fit's memory is thus O(n) plus a few blocks. A
fit with an ``iteration_hook`` also copies every E-step into an n x k
matrix for the hook.

Where the process may run on two or more CPUs and the start spans two or
more blocks, each sweep runs on two threads (``_sweep``): the calling
thread takes the even blocks and one worker thread the odd ones. Each
thread computes its blocks in buffers of its own, all allocated on the
calling thread, and adds a block to the carried sums only after the other
thread has added the block before, so no bit depends on the thread
count. The worker runs in a copy of the caller's context, so under its
np.errstate, and is joined before the sweep returns; numpy releases the
interpreter lock inside each step. On one CPU, for a single block, or
where no thread can be started, every block runs on the calling thread.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
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

# Bytes of the responsibilities in one block of a sweep, small enough for
# the block to stay in cache across its steps
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
    """Rows in one block of an n x k float64 sweep, about _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * k))


def _row_blocks(n: int, k: int) -> list[slice]:
    """Consecutive blocks of rows of an n x k float64 sweep, about _BLOCK_BYTES each."""
    step = _block_rows(k)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(blocks: list[slice], lanes: int, step: Callable, fold: Callable) -> None:
    """fold(step(lane, rows)) for every block of rows, the folds in block order.

    step does a block's row-local work in the buffers of its lane, and fold
    adds the block to sums carried from block to block. With two lanes and
    two or more blocks, the calling thread (lane 0) takes the even blocks
    and one worker thread (lane 1) the odd ones. A lane folds its block
    only after the other lane has folded the block before, so the carried
    sums add the rows in order whichever thread computed them. The worker
    runs in a copy of the caller's context, so the caller's np.errstate
    holds on it, and it is joined before this returns; its exception, if
    any, is raised here. Otherwise, and where no thread can be started,
    every block runs inline on lane 0.
    """
    turns = (threading.Semaphore(1), threading.Semaphore(0))
    errors = []

    def run(lane):
        try:
            for rows in blocks[lane::2]:
                block = step(lane, rows)
                turns[lane].acquire()
                if errors:
                    return
                fold(block)
                turns[1 - lane].release()
        except BaseException as exc:
            # wake the other lane, which stops at its next turn; the
            # worker's exception is raised on the calling thread below
            errors.append(exc)
            turns[1 - lane].release()
            if lane == 0:
                raise

    worker = None
    if lanes == 2 and len(blocks) > 1:
        worker = threading.Thread(target=contextvars.copy_context().run, args=(run, 1))
        try:
            worker.start()
        except RuntimeError:  # no thread to be had, as under a tight address-space limit
            worker = None
    if worker is None:
        for rows in blocks:
            fold(step(0, rows))
        return
    try:
        run(0)
    finally:
        worker.join()
    if errors:
        raise errors[0]


def _squared_deviations(x_rows, locations, out):
    """out[i, j] = (x_rows[i] - locations[j])^2.

    x_rows is copied into each column first, so the subtraction
    broadcasts one operand only.
    """
    np.copyto(out, x_rows[:, None])
    out -= locations
    return np.square(out, out=out)


def _e_step_params(locations, bandwidths, weights) -> tuple:
    """The E-step's (locations, scale, shift).

    log w_j + log N(x; m_j, b_j^2) = (x - m_j)^2 * scale_j + shift_j.
    """
    scale = -0.5 / (bandwidths * bandwidths)
    shift = np.log(weights) - np.log(bandwidths) - 0.5 * _LOG_2PI
    return locations, scale, shift


def _e_step(x_rows, params, g, peak, norm, known=False):
    """Fill g with the responsibilities of x_rows under params (``_e_step_params``).

    The log joint is row-normalized by a max-shift log-sum-exp: subtract the
    row's peak, exponentiate, divide by the row sum. peak and norm receive
    each row's peak and sum; where they are known from an E-step under the
    same parameters, the two row reductions are skipped.
    """
    locations, scale, shift = params
    _squared_deviations(x_rows, locations, g)
    g *= scale
    g += shift
    if not known:
        np.max(g, axis=1, out=peak)
    g -= peak[:, None]
    np.exp(g, out=g)
    if not known:
        np.sum(g, axis=1, out=norm)
    g /= norm[:, None]
    return g


def _log_likelihood(peak, norm) -> float:
    """The sample log-likelihood from each row's log-joint peak and shifted sum."""
    return float(np.sum(np.log(norm)) + np.sum(peak))


class _Responsibilities:
    """The responsibilities of one fit, recomputed block by block, never held whole.

    They are fixed by the last E-step's parameters together with each
    row's peak and row sum, or, before the first E-step, by the seed. One
    component's responsibilities are held whole, as an n x 1 ``column``.
    ``assignments`` holds each row's argmax under the last E-step.
    """

    def __init__(self, x: np.ndarray, k: int, seed):
        n = x.size
        self.x, self.k, self.seed = x, k, seed
        self.params = None  # ``_e_step_params`` of the last E-step
        self.peak, self.norm = np.empty(n), np.empty(n)
        self.assignments = np.empty(n, dtype=np.intp)
        self.column = None
        self.buffers = []
        if k == 1:
            self.column = np.random.default_rng(seed).random((n, 1))
            self.column /= self.column.sum(axis=1, keepdims=True)
            return
        lanes = 2 if n > _block_rows(k) and _cpus() >= 2 else 1
        # one buffer a lane holds a block and its carry row, or the rows of
        # half a block twice, for any k <= k0
        self.buffers = [np.empty(_BLOCK_BYTES // 8 + 2 * k) for _ in range(lanes)]

    def _draws(self) -> Callable:
        """draw(lane, rows, g): rows of default_rng(seed).random((n, k)) into g.

        Each lane has a generator of its own, made here on the calling
        thread, that skips the rows of the other lane's blocks: PCG64 spends
        one draw on each float64, so every value is the whole-matrix draw's.
        """
        k = self.k
        rngs = [np.random.default_rng(self.seed) for _ in self.buffers]
        drawn = [0] * len(rngs)

        def draw(lane, rows, g):
            rngs[lane].bit_generator.advance(rows.start * k - drawn[lane])
            rngs[lane].random(out=g)
            drawn[lane] = rows.stop * k

        return draw

    def _recall(self) -> Callable:
        """recall(lane, rows, g): fill g with the rows' last responsibilities and return it."""
        if self.params is not None:
            x, params, peak, norm = self.x, self.params, self.peak, self.norm
            return lambda lane, rows, g: _e_step(x[rows], params, g, peak[rows], norm[rows], known=True)
        draw = self._draws()

        def redraw(lane, rows, g):
            draw(lane, rows, g)
            g /= self.norm[rows, None]
            return g

        return redraw

    def _block(self, lane: int, r: int, k: int, offset: int = 0) -> np.ndarray:
        """An r x k matrix in the lane's buffer, from its float offset on."""
        return self.buffers[lane][offset : offset + r * k].reshape(r, k)

    def sums(self, params=None, hooked=None):
        """Column sums of gamma and of x * gamma over the new responsibilities.

        gamma is the random start without params, and otherwise the E-step
        under params (``_e_step_params``), which also keeps each
        row's peak and row sum, writes its argmax into ``assignments`` and,
        where ``hooked`` is given, copies the responsibilities into it. The
        sums round as gamma.sum(axis=0) and np.einsum("i,ij->j", x, gamma)
        do: each block's sums start from the carry of the block before, put
        in a row on top of it.
        """
        x = self.x
        if self.column is not None:
            if params is not None:
                _e_step(x, params, self.column, self.peak, self.norm)
                np.argmax(self.column, axis=1, out=self.assignments)
                if hooked is not None:
                    hooked[...] = self.column
            self.params = params
            return self.column.sum(axis=0), np.einsum("i,ij->j", x, self.column)
        k = self.k if params is None else params[0].size
        draw = self._draws() if params is None else None
        mass, weighted = np.zeros(k), np.zeros(k)
        # each lane's [1, x_rows]: the weights of the carry row and the rows
        row_weights = [np.empty(_block_rows(k) + 1) for _ in self.buffers]

        def step(lane, rows):
            top = self._block(lane, rows.stop - rows.start + 1, k)
            g = top[1:]
            if params is None:
                draw(lane, rows, g)
                g /= np.sum(g, axis=1, out=self.norm[rows])[:, None]
            else:
                _e_step(x[rows], params, g, self.peak[rows], self.norm[rows])
                np.argmax(g, axis=1, out=self.assignments[rows])
            if hooked is not None:
                hooked[rows] = g
            weights = row_weights[lane][: top.shape[0]]
            weights[0] = 1.0
            weights[1:] = x[rows]
            return top, weights

        def fold(block):
            top, weights = block
            top[0] = mass
            np.sum(top, axis=0, out=mass)
            top[0] = weighted
            np.einsum("i,ij->j", weights, top, out=weighted)

        _sweep(_row_blocks(x.size, k), len(self.buffers), step, fold)
        self.k, self.params = k, params
        return mass, weighted

    def hold_column(self, keep: np.ndarray) -> np.ndarray:
        """Hold the one kept column of the responsibilities whole, and return it."""
        column = np.empty((self.x.size, 1))
        (j,) = np.flatnonzero(keep)
        recall = self._recall()

        def step(lane, rows):
            column[rows, 0] = recall(lane, rows, self._block(lane, rows.stop - rows.start, self.k))[:, j]

        _sweep(_row_blocks(self.x.size, self.k), len(self.buffers), step, lambda block: None)
        self.column, self.buffers = column, []
        return column

    def variance_sums(self, locations: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
        """Column sums of gamma * (x - m)^2 over gamma's kept columns.

        They round as np.einsum("ij,ij->j") rounds them: for two or more
        columns einsum adds the rows in order, one running sum per column,
        and each block adds the carry to its first row before it sums its
        columns. For one column einsum has a kernel of its own, so the n x 1
        column gets the einsum whole.
        """
        x = self.x
        k = locations.size
        if self.column is not None:
            return np.einsum("ij,ij->j", self.column, _squared_deviations(x, locations, np.empty((x.size, 1))))
        kept = None if keep is None else np.flatnonzero(keep)
        recall = self._recall()
        sums = np.zeros(k)

        def step(lane, rows):
            r = rows.stop - rows.start
            g = recall(lane, rows, self._block(lane, r, self.k))
            sq_dev = self._block(lane, r, k, offset=r * self.k)
            if kept is not None:
                # mode="raise", np.compress's, would copy through a scratch block
                g, sq_dev = np.take(g, kept, axis=1, out=sq_dev, mode="clip"), self._block(lane, r, k)
            g *= _squared_deviations(x[rows], locations, sq_dev)
            return g

        def fold(g):
            g[0] += sums
            np.sum(g, axis=0, out=sums)

        # a block and its squared deviations share the lane's buffer
        _sweep(_row_blocks(x.size, 2 * self.k), len(self.buffers), step, fold)
        return sums


def em_fit(xs: np.ndarray, cfg: EMConfig, iteration_hook: IterationHook | None = None) -> MixtureState:
    """Fit the self-pruning Gaussian mixture to a numeric sample.

    Parameters
    ----------
    xs : array of float
        The column values. At least two distinct values are required.
    cfg : EMConfig
    iteration_hook : callable, optional
        Called as hook(iteration, weights, responsibilities) after every
        iteration, with copies. Intended for tests and diagnostics: a
        hooked fit holds an n x k matrix of responsibilities for it.

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

    gamma = _Responsibilities(x, math.isqrt(n), cfg.seed)
    mass, weighted = gamma.sums()
    prev_ll = None
    stop_reason = "max_iter"
    for it in range(1, MAX_ITER + 1):
        surplus = np.maximum(mass - ANNIHILATION, 0.0)
        if not math.isfinite(surplus.sum()):
            raise DegenerateSampleError(_OUT_OF_RANGE)

        keep = surplus > 0.0
        dropped = not bool(keep.all())
        if dropped:
            surplus, mass, weighted = surplus[keep], mass[keep], weighted[keep]
            if surplus.size == 1:
                # einsum sums one column with a kernel of its own
                weighted = np.einsum("i,ij->j", x, gamma.hold_column(keep))
        weights = surplus / surplus.sum()

        locations = weighted / mass
        variances = gamma.variance_sums(locations, keep if dropped else None) / mass
        bandwidths = np.sqrt(np.maximum(variances, var_floor))
        finite = np.isfinite(locations).all() and np.isfinite(bandwidths).all()
        if not (finite and bandwidths.min() > 0.0):
            raise DegenerateSampleError(_OUT_OF_RANGE)

        hooked = None if iteration_hook is None else np.empty((n, locations.size))
        mass, weighted = gamma.sums(_e_step_params(locations, bandwidths, weights), hooked)
        ll = _log_likelihood(gamma.peak, gamma.norm)
        if iteration_hook is not None:
            iteration_hook(it, weights.copy(), hooked)

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
        assignments=gamma.assignments, iterations=it,
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
