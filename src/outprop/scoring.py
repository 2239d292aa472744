"""Outlierness of one attribute value against a selection of rows.

The score compares the density of the queried value with the densities of
all rows in the selection. With G the step cdf of the per-row densities and
f_o the density at the queried value, the raw score is the area above G past
f_o minus the area below G before f_o. Those two areas telescope to the mean
member density minus f_o, and the score computes that closed form directly:

- numeric: with n selected rows, window width h, P ordered pairs of rows in
  each other's window (``density.window_counts`` states the rule) and c_o
  rows in the queried value's window, raw = P / (n^2 h) - c_o / (n h);
- categorical: with token counts c and c_o rows holding the queried token,
  raw = sum(c^2) / n^2 - c_o / n.

The window rule is symmetric and every row is in its own window, so P
counts each unordered pair of distinct rows once from its smaller value:
with hi_i the rows at or below fl(x_i + h/2), P = 2 sum(hi) - n^2.

``outlierness`` packs a view's row mask (``_pack_rows``) and scores it with
``_score_masks``, the search kernel behind ``miner.mine``, which takes a
whole level of packed row sets. A categorical property of at most
``TOKEN_POPCOUNT_MAX`` tokens gets every token count of the level from one
popcount per token against that token's packed rows, and the counts go to
the closed form. Any other property has each row set unpacked, its
selection gathered in row order and scored by the one scorer of its kind,
``_window_score`` or ``_token_score``.
``density.density_curve`` builds G itself when it is wanted. The raw
difference is squashed into [0, 1]; negative differences (the value is
denser than typical) map to 0.

``mine`` passes ``_score_masks`` a floor, ``raw_floor(--omega)``: every raw
below it has omega(raw) < --omega. A numeric row set is first bounded from
its selection in row order and its width h, without a sort. With c the
row counts in bins of width w = h/7.9, two rows in each other's window lie
at most 4 bins apart, so P <= sum_b c_b * sum_{|k|<=4} c_{b+k}; the bins
that lie wholly within 3.9 bins of the queried value hold only rows of its
window, so their count is at most c_o. The bound is the closed form of
those two integers, rounded once like the exact raw and so never below it.
A row set whose bound is below the floor is not scored (``_window_bound``
states where the bound is proven and where the exact score is taken).
``outlierness`` passes no floor and always scores exactly.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import density as dens
from .dataset import NUMERIC, Attribute, Dataset, SelectionView
from .errors import EmptySampleError, PreconditionError

# A categorical property of at most this many tokens is counted on packed
# rows, one popcount of the whole level per token; one of more tokens is
# counted per row set, by unpacking it and taking a bincount of its
# selection. Median time per level, popcount against bincount, on a shared
# 2-core x86-64 host with row sets of about n/8 rows: at 4,000 rows and 286
# row sets 1.35 vs 2.53 ms at 32 tokens, 2.92 vs 3.04 ms at 64; at 20,000
# rows and 35 row sets 0.82 vs 0.87 ms at 32, 1.60 vs 0.87 ms at 64; at
# 300,000 rows and 455 row sets 98 vs 171 ms at 32, 280 vs 186 ms at 64.
TOKEN_POPCOUNT_MAX = 32


def omega(x: float) -> float:
    """Squash a raw area difference into [0, 1]; 0 for negative input.

    Mathematically the map stays below 1; in floating point it saturates
    at exactly 1.0 for large inputs.
    """
    if x < 0:
        return 0.0
    e = math.exp(-x)
    return (1.0 - e) / (1.0 + e)


def raw_floor(min_score: float) -> float:
    """A raw score below which omega stays below min_score.

    omega(x) is tanh(x / 2) with under 2**-50 of rounding. The floor is
    where tanh(x / 2) = min_score - 2**-48, and its own rounding moves that
    tanh by under 2**-52, so every raw below the floor has omega(raw) <
    min_score. It is -inf at min_score 0, which every score reaches, and
    about 34 at min_score 1, below the raw of 37.4 at which omega reaches
    exactly 1.0.
    """
    if min_score == 0.0:
        return -math.inf
    return 2.0 * math.atanh(max(min_score - 2.0**-48, 0.0))


@dataclass(frozen=True, eq=False)
class OutliernessScore:
    """Score plus the quantities it was assembled from."""

    value: float
    raw: float
    query_density: float

    def __float__(self) -> float:
        return self.value


def outlierness(view: SelectionView, attribute: Attribute, row: int) -> OutliernessScore:
    """Score how atypical a row's value on the attribute is within the view.

    Parameters
    ----------
    view : SelectionView
        Rows the score is computed against.
    attribute : Attribute
        The property being scored. Must not appear in the view's explanation.
    row : int
        Index of the designated row in ``view.base``. Must be a selected
        row of ``view.mask``.

    Returns
    -------
    OutliernessScore
        Score in [0, 1] with the raw score (mean member density minus the
        query density) and the query density. A column with a single
        distinct value in the view carries no contrast and scores exactly 0.
    """
    if attribute.index in view.explanation.attributes:
        raise PreconditionError(
            f"attribute {attribute.name!r} appears in the conditioning explanation"
        )
    if len(view) == 0:
        raise EmptySampleError("outlierness against an empty selection")
    ((raw, density),) = _score_masks(view.base, attribute, row, _pack_rows(view.mask[None]))
    return OutliernessScore(value=omega(raw), raw=raw, query_density=density)


def _closed_form(pairs: int, own: int, n: int, scale: float) -> tuple[float, float]:
    """(raw, query density) from integer pair and query counts over n rows.

    scale is n*h for a window of width h and n for tokens. The difference
    is taken on exact integers, so it carries a single rounding.
    """
    return (pairs - n * own) / (n * scale), own / scale


def _window_score(col: np.ndarray, v: float, floor: float = -math.inf) -> tuple[float, float] | None:
    """(raw, query density) of value v against a numeric sample in row order.

    A sample with a single distinct value carries no contrast: raw 0.0 and
    query density 1.0. None when ``_window_bound`` proves raw below floor.
    """
    if floor > -math.inf:
        h = dens.global_bandwidth(col)
        if h != dens.DEGENERATE_BANDWIDTH and _window_bound(col, float(v), h) < floor:
            return None
    model = dens.fit_numeric(col)
    h, xs = model.bandwidth, model.sorted_values
    if h == dens.DEGENERATE_BANDWIDTH:
        return 0.0, 1.0
    m = xs.size
    # fl(x + h/2) for each row: the rule of ``density.window_counts``
    keys = xs + h / 2.0
    pairs = 2 * int(np.searchsorted(xs, keys, side="right").sum()) - m * m
    own = int(np.searchsorted(xs, v + h / 2.0, side="right") - np.searchsorted(keys, v, side="left"))
    return _closed_form(pairs, own, m, m * h)


def _window_bound(col: np.ndarray, v: float, h: float) -> float:
    """An upper bound on the raw window score of v, a value of col, against col.

    col is a sample in row order and h its window width, not the degenerate
    one. Rows go to bins of width w = fl(h/7.9), bin floor(fl(fl(x - min)/w)).
    The proof needs w normal, fewer bins than rows (max - min < m*w, with m
    below 2**40) and every |x| below 2**40 w; then each rounding, the window
    rule's fl(x + h/2) included, moves a row by under 2**-10 bins. Two rows in each
    other's window are at most h/2 = 3.95 bins apart, so their bins differ
    by at most 4; a row in a bin that lies wholly within 3.9 bins of v is
    under 0.494 h from v, which fl(v + h/2) and fl(x + h/2) cannot round
    away. Where the proof does not hold, the bound is +inf.
    """
    m = col.size
    lo, hi = float(col.min()), float(col.max())
    w = h / 7.9
    if not (w >= sys.float_info.min and hi - lo < m * w and max(-lo, hi) < w * 2.0**40):
        return math.inf
    counts = np.bincount(((col - lo) / w).astype(np.intp))
    # entry b + 4 of the full convolution: the rows of bins b - 4 to b + 4
    near = np.convolve(counts, np.ones(9, dtype=np.intp))[4:-4]
    t = (v - lo) / w
    own = counts[max(math.ceil(t - 3.9), 0) : math.floor(t + 2.9) + 1].sum()
    return _closed_form(int(counts @ near), int(own), m, m * h)[0]


def _token_score(codes: np.ndarray, code: int) -> tuple[float, float]:
    """(raw, query density) of token code against a categorical sample."""
    counts = np.bincount(codes)
    return _closed_form(int(counts @ counts), int(counts[code]), codes.size, codes.size)


def _pack_rows(masks: np.ndarray) -> np.ndarray:
    """Row masks, n bools on the last axis, as packed rows of W = ceil(n/64) words.

    Row r is bit r & 63 of little-endian uint64 word r >> 6, and the
    padding bits past row n - 1 are 0, so a popcount counts selected rows.
    """
    n = masks.shape[-1]
    words = np.zeros(masks.shape[:-1] + (-(-n // 64),), dtype="<u8")
    words.view(np.uint8)[..., : -(-n // 8)] = np.packbits(masks, axis=-1, bitorder="little")
    return words


def _score_masks(
    db: Dataset, attribute: Attribute, outlier_index: int, bits: np.ndarray, floor: float = -math.inf
) -> list[tuple[float, float] | None]:
    """(raw, query density) of the designated row against each packed row set.

    The search kernel behind ``miner.mine`` and ``outlierness``. bits is an
    L x W matrix of ``_pack_rows`` rows. Each row set must hold the
    designated row, a row of db, so none is empty. The caller keeps the
    property out of the conditions behind the row sets.

    A categorical property of at most ``TOKEN_POPCOUNT_MAX`` tokens is
    counted with ``_token_popcounts``. Any other property unpacks each row
    set, gathers its selection in row order and scores it with the scorer
    of its kind. A numeric row set whose raw is proven below floor gets
    None instead of a score; categorical ones are always scored.
    """
    n = db.n_rows
    if not 0 <= outlier_index < n or not np.all(bits[:, outlier_index >> 6] >> (outlier_index & 63) & 1):
        raise PreconditionError(f"row {outlier_index} is not in the selection")
    if attribute.kind == NUMERIC:
        col, score = db.columns[attribute.index], functools.partial(_window_score, floor=floor)
    elif db.codes[attribute.index].max() >= TOKEN_POPCOUNT_MAX:
        col, score = db.codes[attribute.index], _token_score
    else:
        return _token_popcounts(bits, db.codes[attribute.index], outlier_index)
    query = col[outlier_index]
    return [
        score(col.compress(np.unpackbits(words.view(np.uint8), count=n, bitorder="little").view(bool)), query)
        for words in bits
    ]


def _token_popcounts(bits: np.ndarray, codes: np.ndarray, outlier_index: int) -> list[tuple[float, float]]:
    """(raw, query density) of the designated row's token against each packed row set.

    The L x T token counts come from one popcount of the whole level
    against each token's packed rows. Each token's rows are packed for its
    popcount and then dropped, so no T x W token matrix is held.
    """
    buffer = np.empty_like(bits)
    counts = np.array(
        [
            np.bitwise_count(np.bitwise_and(bits, _pack_rows(codes == t), out=buffer)).sum(axis=1)
            for t in range(int(codes.max()) + 1)
        ]
    )
    squares = (counts * counts).sum(axis=0)
    return [
        _closed_form(int(s), int(c), int(m), int(m))
        for s, c, m in zip(squares, counts[codes[outlier_index]], counts.sum(axis=0))
    ]
