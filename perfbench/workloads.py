"""Seeded workload tables for the outprop benchmark.

Each workload is one CSV drawn from a seed plus the `outprop mine` flags it
runs with. It names two designated rows: a *planted* row whose planted pair
must be reported, and an *ordinary* row that yields few or no pairs, so the
level-wise search runs to ``--kmax`` for every property. Every cell of both
rows is fixed; the categorical cells of every other row are drawn from the
seed. The numeric columns are drawn from a fixed stream, the same for every
seed: a numeric condition is the natural interval of a seeded EM fit of the
column, whose support would otherwise range from 10 % to 60 % of the rows
between seeds, and with it the rows a job scores. ``--sigma`` is 0 where
conditions include natural intervals, so the number of scored candidates
does not depend on where support pruning falls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PLANTED_ROW = 0
ORDINARY_ROW = 1
# seed of the stream the numeric columns are drawn from
NUMERIC_SEED = 20130614


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    sigma: float
    omega: float
    kmax: int
    # (sorted explanation attribute names, property name) of the pair the
    # planted row must yield
    planted_pair: tuple[tuple[str, ...], str]
    # draws the table: (numeric stream, seeded stream, rows) -> {column name: numpy array}
    draw: Callable[[np.random.Generator, np.random.Generator, int], dict]
    planted: dict
    ordinary: dict

    def table(self, seed: int, rows: int | None = None) -> dict:
        """Columns of the workload drawn from seed, designated rows set."""
        numeric = np.random.default_rng(NUMERIC_SEED)
        cols = self.draw(numeric, np.random.default_rng(seed), rows or self.rows)
        for row, values in ((PLANTED_ROW, self.planted), (ORDINARY_ROW, self.ordinary)):
            for name, value in values.items():
                cols[name][row] = value
        return cols

    def write_csv(self, path: str, seed: int) -> None:
        cols = self.table(seed)
        text_cols = [
            [repr(v) for v in col.tolist()] if col.dtype.kind == "f" else col.tolist()
            for col in cols.values()
        ]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            fh.writelines(",".join(cells) + "\n" for cells in zip(*text_cols))

    def flags(self) -> list[str]:
        return ["--sigma", repr(self.sigma), "--omega", repr(self.omega), "--kmax", str(self.kmax)]


def _two_clusters(rng, n, lo, hi, gap):
    """Half the rows uniform on [lo, -gap], half on [gap, hi]."""
    left = rng.random(n) < 0.5
    return np.where(left, rng.uniform(lo, -gap, n), rng.uniform(gap, hi, n))


def _tokens(rng, n, prefix, probs):
    names = np.array([f"{prefix}{i}" for i in range(len(probs))], dtype=object)
    return names[rng.choice(len(probs), n, p=probs)]


def _draw_mixed(numeric, rng, n):
    # x_norm2 is tight around 3 inside group g3 and unit normal elsewhere:
    # the planted row sits in g3 at 0.0, typical overall but far from its
    # group. Which rows are in g3 belongs to the numeric stream with x_norm2;
    # the seed spreads the other rows over g0, g1 and g2.
    in_g3 = numeric.random(n) < 0.25
    x_norm2 = np.where(in_g3, numeric.normal(3.0, 0.1, n), numeric.normal(0.0, 1.0, n))
    grp = np.where(in_g3, "g3", _tokens(rng, n, "g", [1 / 3] * 3)).astype(object)
    return {
        "x_norm1": numeric.normal(0.0, 1.0, n),
        "x_norm2": x_norm2,
        "x_unif1": numeric.uniform(0.0, 1.0, n),
        "x_unif2": numeric.uniform(-2.0, 2.0, n),
        "x_gap1": _two_clusters(numeric, n, -1.1, 1.1, 0.1),
        "x_gap2": _two_clusters(numeric, n, -3.0, 3.0, 1.0),
        "c_grp": grp,
        "c_flag": _tokens(rng, n, "f", [0.7, 0.3]),
    }


def _draw_wide(numeric, rng, n):
    cols = {
        "x_norm": numeric.normal(0.0, 1.0, n),
        "x_unif": numeric.uniform(0.0, 1.0, n),
        "x_gap": _two_clusters(numeric, n, -1.1, 1.1, 0.1),
    }
    for j in range(11):
        cols[f"b{j}"] = _tokens(rng, n, "t", [0.5, 0.5])
    # b2 is almost always t1 where b0 and b1 are both t1
    both = (cols["b0"] == "t1") & (cols["b1"] == "t1")
    cols["b2"] = np.where(both & (rng.random(n) < 0.98), "t1", cols["b2"]).astype(object)
    return cols


def _draw_tall(numeric, rng, n):
    c0 = _tokens(rng, n, "k", [0.25] * 4)
    c1 = _tokens(rng, n, "v", [1 / 3] * 3)
    # c1 is almost always v0 inside c0 = k0
    c1 = np.where((c0 == "k0") & (rng.random(n) < 0.98), "v0", c1).astype(object)
    return {
        "c0": c0,
        "c1": c1,
        "c2": _tokens(rng, n, "a", [0.5, 0.5]),
        "c3": _tokens(rng, n, "b", [0.6, 0.3, 0.1]),
        "c4": _tokens(rng, n, "d", [0.2] * 5),
        "c5": _tokens(rng, n, "e", [0.125] * 8),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mixed",
            rows=20_000,
            sigma=0.0,
            omega=0.5,
            kmax=3,
            planted_pair=(("c_grp",), "x_norm2"),
            draw=_draw_mixed,
            planted={"x_norm1": 0.3, "x_norm2": 0.0, "x_unif1": 0.4, "x_unif2": -0.5,
                     "x_gap1": 0.6, "x_gap2": 2.0, "c_grp": "g3", "c_flag": "f0"},
            ordinary={"x_norm1": -0.2, "x_norm2": 0.1, "x_unif1": 0.7, "x_unif2": 1.0,
                      "x_gap1": -0.5, "x_gap2": -2.0, "c_grp": "g0", "c_flag": "f0"},
        ),
        Workload(
            name="wide",
            rows=4_000,
            sigma=0.0,
            omega=0.35,
            kmax=3,
            planted_pair=(("b0", "b1"), "b2"),
            draw=_draw_wide,
            planted={"x_norm": 0.2, "x_unif": 0.5, "x_gap": 0.6, "b0": "t1", "b1": "t1", "b2": "t0",
                     **{f"b{j}": f"t{j % 2}" for j in range(3, 11)}},
            ordinary={"x_norm": -0.4, "x_unif": 0.3, "x_gap": -0.6, "b0": "t0", "b1": "t0", "b2": "t0",
                      **{f"b{j}": f"t{(j + 1) % 2}" for j in range(3, 11)}},
        ),
        Workload(
            name="tall",
            rows=100_000,
            # no pair of the designated rows' conditions has a support within
            # 0.009 of 0.04 (nearest: 0.031 and 0.05), so pruning is seed-stable
            sigma=0.04,
            omega=0.35,
            kmax=2,
            planted_pair=(("c0",), "c1"),
            draw=_draw_tall,
            planted={"c0": "k0", "c1": "v1", "c2": "a0", "c3": "b0", "c4": "d0", "c5": "e0"},
            ordinary={"c0": "k1", "c1": "v0", "c2": "a0", "c3": "b0", "c4": "d0", "c5": "e0"},
        ),
    )
}
