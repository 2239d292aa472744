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
from .dataset import NUMERIC, Attribute, DataObject, SelectionView, satisfies
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
        col = view.column(attribute.index)
        h = dens.global_bandwidth(col)
        if h == dens.DEGENERATE_BANDWIDTH:
            return OutliernessScore(value=0.0, raw=0.0, query_density=1.0)
        xs = np.sort(col)
        pairs = int(dens.window_counts(xs, xs, h).sum())
        own = int(dens.window_counts(xs, float(v), h))
        scale = n * h
    else:
        counts = np.bincount(view.codes(attribute.index))
        pairs = int(counts @ counts)
        code = view.base.code(attribute.index, v)
        own = int(counts[code]) if 0 <= code < counts.size else 0
        scale = n
    # difference taken on exact integers, so it carries a single rounding
    raw = (pairs - n * own) / (n * scale)
    return OutliernessScore(value=omega(raw), raw=raw, query_density=own / scale)
