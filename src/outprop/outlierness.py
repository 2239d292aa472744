"""Outlierness of one attribute value against a selection of rows.

The score compares the density of the queried value with the densities of
all rows in the selection. With G the step cdf of the per-row densities and
f_o the density at the queried value, the raw score is the area above G past
f_o minus the area below G before f_o. Those two areas telescope to the mean
member density minus f_o, and the score computes that closed form directly:

- numeric: with n selected rows, window width h, P ordered pairs of rows
  within h/2 of each other and c_o rows within h/2 of the queried value,
  raw = P / (n^2 h) - c_o / (n h);
- categorical: with token counts c and c_o rows holding the queried token,
  raw = sum(c^2) / n^2 - c_o / n.

``density.density_curve`` builds G itself when it is wanted. The raw
difference is squashed into [0, 1]; negative differences (the value is
denser than typical) map to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import density as dens
from .dataset import NUMERIC, Attribute, DataObject, Dataset, SelectionView, satisfies
from .errors import EmptySampleError, PreconditionError


def omega(x: float) -> float:
    """Squash a raw area difference into [0, 1]; 0 for negative input.

    Mathematically the map stays below 1; in floating point it saturates
    at exactly 1.0 for large inputs.
    """
    if x < 0:
        return 0.0
    e = math.exp(-x)
    return (1.0 - e) / (1.0 + e)


@dataclass(frozen=True, eq=False)
class OutliernessScore:
    """Score plus the quantities it was assembled from."""

    value: float
    raw: float
    query_density: float

    def __float__(self) -> float:
        return self.value


def outlierness(view: SelectionView, attribute: Attribute, o: DataObject) -> OutliernessScore:
    """Score how atypical o's value on the attribute is within the view.

    Parameters
    ----------
    view : SelectionView
        Rows the score is computed against. o must satisfy the view's
        explanation and is expected to be one of its rows.
    attribute : Attribute
        The property being scored. Must not appear in the view's explanation.
    o : DataObject
        The designated row.

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
    if not satisfies(o, view.explanation):
        raise PreconditionError("row does not satisfy the view's explanation")
    n = len(view)
    if n == 0:
        raise EmptySampleError("outlierness against an empty selection")

    v = o.values[attribute.index]
    if attribute.kind == NUMERIC:
        raw, density = _window_score(view.column(attribute.index), v)
    else:
        counts = np.bincount(view.codes(attribute.index))
        code = view.base.code(attribute.index, v)
        own = int(counts[code]) if 0 <= code < counts.size else 0
        raw, density = _closed_form(int(counts @ counts), own, n, n)
    return OutliernessScore(value=omega(raw), raw=raw, query_density=density)


def _closed_form(pairs: int, own: int, n: int, scale: float) -> tuple[float, float]:
    """(raw, query density) from integer pair and query counts over n rows.

    scale is n*h for a window of width h and n for tokens. The difference
    is taken on exact integers, so it carries a single rounding.
    """
    return (pairs - n * own) / (n * scale), own / scale


def _window_score(col: np.ndarray, v: float) -> tuple[float, float]:
    """(raw, query density) of value v against a numeric sample in row order.

    A sample with a single distinct value carries no contrast: raw 0.0 and
    query density 1.0.
    """
    model = dens.fit_numeric(col)
    h, xs = model.bandwidth, model.sorted_values
    if h == dens.DEGENERATE_BANDWIDTH:
        return 0.0, 1.0
    pairs = int(dens.window_counts(xs, xs, h).sum())
    own = int(dens.window_counts(xs, float(v), h))
    return _closed_form(pairs, own, xs.size, xs.size * h)


# Byte budget for the temporaries of one chunk of a categorical level: the
# stacked masks, their copy in token order, the intp copy of that which
# reduceat makes, and the token counts.
_CHUNK_BYTES = 1 << 20


def _score_masks(
    db: Dataset, attribute: Attribute, outlier_index: int, masks: list[np.ndarray]
) -> list[tuple[float, float]]:
    """(raw, query density) of the designated row against each row mask.

    The search kernel behind ``miner.mine``. Each mask must hold the
    designated row, and that one check covers what ``outlierness`` tests
    on a view: a selection holding the row is not empty, and the row
    satisfies the conditions behind it. The caller keeps the property out
    of those conditions. Numeric properties are scored mask by mask on the
    selection in row order. Categorical ones take the token counts of a
    whole chunk of masks at once: with the rows laid out in token order,
    each token's rows are one contiguous run of columns.
    """
    for mask in masks:
        if not mask[outlier_index]:
            raise PreconditionError("a mask excludes the designated row")
    if attribute.kind == NUMERIC:
        col = db.columns[attribute.index]
        v = float(col[outlier_index])
        return [_window_score(col.compress(mask), v) for mask in masks]
    codes = db.codes[attribute.index]
    order = np.argsort(codes, kind="stable")
    runs = np.bincount(codes)  # every code occurs, so no run is empty
    starts = np.concatenate(([0], np.cumsum(runs[:-1])))
    code = int(codes[outlier_index])
    rows = max(1, _CHUNK_BYTES // (10 * codes.size + 8 * runs.size))
    scores = []
    for lo in range(0, len(masks), rows):
        stack = np.stack(masks[lo : lo + rows])
        counts = np.add.reduceat(stack[:, order], starts, axis=1, dtype=np.intp)
        scores.extend(
            _closed_form(pairs, own, n, n)
            for pairs, own, n in zip(
                np.einsum("ij,ij->i", counts, counts).tolist(),
                counts[:, code].tolist(),
                counts.sum(axis=1).tolist(),
            )
        )
    return scores
