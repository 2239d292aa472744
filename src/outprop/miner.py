"""Search for minimal explanation-property pairs for a designated row.

Conditions are built once per attribute: the natural interval around the
designated row's value for numeric columns (equality for categorical ones,
and the trivial single-point interval for constant numeric columns). For
each candidate property the search then walks condition subsets level by
level, starting with the empty explanation and single conditions. A subset
that reaches both thresholds is reported and never extended, so only
minimal explanations are kept; a subset below the support threshold is
dropped together with all its supersets.

Every row set is packed: n bits as little-endian uint64 words, row r at
bit r & 63 of word r >> 6, with the padding bits 0. The condition masks
are packed once into a d x W matrix, and a level of one property is its
candidates' keys, an L x W bit matrix and their support counts. The
Apriori key logic runs in Python; the level's joins are then one AND of
gathered frontier and condition rows, its supports one popcount, and its
scores one call of ``scoring._score_masks`` on the level's bits. That call
gets the floor ``scoring.raw_floor`` of ``min_score``: a numeric candidate
proven to score below it is not scored, and stays in the frontier as a
failing one. An ``Explanation`` is built only for a reported pair.
``explain_one`` scores its selection through ``outlierness``, which packs
the selection's mask and runs the same kernel, always exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    Condition,
    Dataset,
    Explanation,
    condition_mask,
    select,
)
from .errors import ConfigError, DegenerateSampleError
from .intervals import EMConfig, em_fit, natural_interval
from .scoring import OutliernessScore, _pack_rows, _score_masks, omega, outlierness, raw_floor


@dataclass(frozen=True)
class MiningConfig:
    """Thresholds and knobs for one mining run."""

    outlier_index: int
    min_support: float = 0.2
    min_score: float = 0.8
    max_conditions: int = 3
    em: EMConfig = field(default_factory=EMConfig)

    def __post_init__(self):
        if not 0.0 <= self.min_support <= 1.0:
            raise ConfigError("min_support must lie in [0, 1]")
        if not 0.0 <= self.min_score <= 1.0:
            raise ConfigError("min_score must lie in [0, 1]")
        if self.max_conditions < 1:
            raise ConfigError("max_conditions must be at least 1")
        if self.outlier_index < 0:
            raise ConfigError("outlier_index must be non-negative")


@dataclass(frozen=True, eq=False)
class ExplanationPropertyPair:
    """A reported finding: the property is atypical within the selection."""

    explanation: Explanation
    property: Attribute
    score: OutliernessScore
    support: float


@dataclass(frozen=True, eq=False)
class PairEvaluation:
    """Result of scoring one user-chosen (explanation, property) pair."""

    explanation: Explanation
    property: Attribute
    support: float
    score: OutliernessScore
    accepted: bool


@dataclass(frozen=True)
class IntervalReport:
    """How one numeric attribute's natural condition was obtained."""

    attribute: str
    seed: tuple
    iterations: int
    components: int
    log_likelihood: float
    stop_reason: str
    location_spread: float


@dataclass(eq=False)
class MiningResult:
    """Mined pairs plus the condition vocabulary, phase timings and skips.

    bound_skips counts the numeric candidates whose raw score was proven
    below the floor of ``min_score`` and so never computed.
    """

    pairs: list[ExplanationPropertyPair]
    conditions: dict[int, Condition]
    interval_reports: list[IntervalReport]
    condition_seconds: float
    scoring_seconds: float
    bound_skips: int


def _check_config(db: Dataset, cfg: MiningConfig) -> None:
    if cfg.outlier_index >= db.n_rows:
        raise ConfigError(
            f"outlier index {cfg.outlier_index} out of range for {db.n_rows} rows"
        )


def natural_conditions(
    db: Dataset, cfg: MiningConfig
) -> tuple[dict[int, Condition], list[IntervalReport]]:
    """One condition per attribute, anchored at the designated row.

    Numeric attributes get the natural interval of the row's value from a
    seeded mixture fit of the full column; the seed is derived from the
    configured seed and the attribute index, so runs are reproducible and
    attributes are independent. A constant numeric column degenerates to
    the single-point interval. Categorical attributes get equality.
    """
    _check_config(db, cfg)
    conditions: dict[int, Condition] = {}
    reports: list[IntervalReport] = []
    base_seed = cfg.em.seed if isinstance(cfg.em.seed, tuple) else (cfg.em.seed,)
    for attr in db.schema:
        col = db.columns[attr.index]
        if attr.kind == CATEGORICAL:
            conditions[attr.index] = Condition.equality(attr.index, col[cfg.outlier_index])
            continue
        value = float(col[cfg.outlier_index])
        if float(col.max()) == float(col.min()):
            conditions[attr.index] = Condition.interval(attr.index, value, value)
            continue
        seed = base_seed + (attr.index,)
        try:
            state = em_fit(col, EMConfig(seed=seed))
        except DegenerateSampleError as exc:
            raise DegenerateSampleError(f"attribute {attr.name!r}: {exc}") from None
        lo, hi = natural_interval(col, value, state)
        conditions[attr.index] = Condition.interval(attr.index, lo, hi)
        reports.append(
            IntervalReport(
                attribute=attr.name,
                seed=seed,
                iterations=state.iterations,
                components=state.components,
                log_likelihood=state.log_likelihood,
                stop_reason=state.stop_reason,
                location_spread=state.location_spread,
            )
        )
    return conditions, reports


def _next_level(
    keys: list[tuple[int, ...]],
    bits: np.ndarray,
    vocabulary: list[int],
    cond_bits: np.ndarray,
    n: int,
    min_support: float,
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Candidates one condition larger than the frontier's: keys, packed rows, supports.

    The frontier is its keys and their packed rows, one row of bits per
    key; row i of cond_bits holds the rows of attribute i's condition, and
    n is the table's row count.
    Single conditions extend the empty explanation. Larger candidates come
    from joining two frontier keys that share all but their last index, and
    are kept only when every subset one smaller is in the frontier (the
    Apriori rule), so no candidate contains a reported or unsupported set.
    All joins of the level are one AND, and all supports one popcount.
    Candidates below the support threshold are dropped. Keys are generated,
    and so kept, in sorted order; supports are row counts.
    """
    # each candidate, and the frontier row it extends
    if keys[0] == ():
        candidates, rows = [(i,) for i in vocabulary], [0] * len(vocabulary)
    else:
        candidates, rows = [], []
        frontier_keys = set(keys)
        for a, key_a in enumerate(keys):
            for b in range(a + 1, len(keys)):
                key_b = keys[b]
                if key_a[:-1] != key_b[:-1]:
                    break  # sorted keys: the keys sharing a prefix are one run
                candidate = key_a + key_b[-1:]
                # dropping either of the last two indices gives key_a or key_b
                if all(
                    candidate[:r] + candidate[r + 1 :] in frontier_keys
                    for r in range(len(candidate) - 2)
                ):
                    candidates.append(candidate)
                    rows.append(a)
    joined = bits[rows]
    joined &= cond_bits[[key[-1] for key in candidates]]
    supports = np.bitwise_count(joined).sum(axis=1)
    kept = np.flatnonzero(supports / n >= min_support)
    return [candidates[i] for i in kept], joined[kept], supports[kept]


def mine(db: Dataset, cfg: MiningConfig) -> MiningResult:
    """Report every minimal pair meeting the support and score thresholds.

    Parameters
    ----------
    db : Dataset
    cfg : MiningConfig
        Thresholds, the designated row, and the interval-search knobs.

    Returns
    -------
    MiningResult
        Pairs sorted by score (descending, ties broken by property and
        explanation attributes), the per-attribute condition vocabulary,
        and wall times of the two phases.
    """
    t0 = time.perf_counter()
    conditions, reports = natural_conditions(db, cfg)
    cond_bits = _pack_rows(np.array([condition_mask(db, conditions[a.index]) for a in db.schema]))
    condition_seconds = time.perf_counter() - t0

    n = db.n_rows
    # the property is never a condition, so no explanation holds more
    # than n_attributes - 1 of them
    max_size = min(cfg.max_conditions, db.n_attributes - 1)
    pairs: list[ExplanationPropertyPair] = []
    floor = raw_floor(cfg.min_score)
    bound_skips = 0

    t1 = time.perf_counter()
    for prop in db.schema:
        vocabulary = [i for i in sorted(conditions) if i != prop.index]
        # a level: each candidate's condition indices, packed rows and support count
        keys: list[tuple[int, ...]] = [()]
        bits = _pack_rows(np.ones((1, n), dtype=bool))
        supports = np.array([n])
        size = 0  # conditions per candidate of the level
        while keys:
            scores = _score_masks(db, prop, cfg.outlier_index, bits, floor)
            frontier: list[int] = []
            for i, (key, count, scored) in enumerate(zip(keys, supports, scores)):
                if scored is None:
                    # proven to score below min_score: a failing candidate
                    bound_skips += 1
                    frontier.append(i)
                    continue
                raw, density = scored
                value = omega(raw)
                if value >= cfg.min_score:
                    # reported and never extended: every superset would be non-minimal
                    expl = Explanation.of(*(conditions[c] for c in key))
                    score = OutliernessScore(value=value, raw=raw, query_density=density)
                    pairs.append(ExplanationPropertyPair(expl, prop, score, int(count) / n))
                else:
                    frontier.append(i)
            if size == max_size or not frontier:
                break
            keys, bits, supports = _next_level(
                [keys[i] for i in frontier], bits[frontier], vocabulary, cond_bits, n, cfg.min_support
            )
            size += 1
    scoring_seconds = time.perf_counter() - t1

    pairs.sort(
        key=lambda p: (
            -p.score.value,
            p.property.index,
            tuple(sorted(p.explanation.attributes)),
        )
    )
    return MiningResult(
        pairs=pairs,
        conditions=conditions,
        interval_reports=reports,
        condition_seconds=condition_seconds,
        scoring_seconds=scoring_seconds,
        bound_skips=bound_skips,
    )


def explain_one(
    db: Dataset, cfg: MiningConfig, explanation: Explanation, property_index: int
) -> PairEvaluation:
    """Score a single caller-chosen pair against the thresholds.

    The pair is accepted when the explanation's support reaches
    cfg.min_support and the score reaches cfg.min_score; a pair below the
    support threshold is rejected no matter its score.
    """
    _check_config(db, cfg)
    if not 0 <= property_index < db.n_attributes:
        raise ConfigError(f"no attribute at index {property_index}")
    if property_index in explanation.attributes:
        raise ConfigError("the property may not appear in the explanation")
    view = select(db, explanation)
    sup = view.fraction
    prop = db.schema[property_index]
    score = outlierness(view, prop, cfg.outlier_index)
    accepted = sup >= cfg.min_support and score.value >= cfg.min_score
    return PairEvaluation(
        explanation=explanation, property=prop, support=sup, score=score, accepted=accepted
    )
