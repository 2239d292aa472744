"""Search for minimal explanation-property pairs for a designated row.

Conditions are built once per attribute: the natural interval around the
designated row's value for numeric columns (equality for categorical ones,
and the trivial single-point interval for constant numeric columns). For
each candidate property the search then walks condition subsets level by
level, starting with the empty explanation and single conditions. A subset
that reaches both thresholds is reported and never extended, so only
minimal explanations are kept; a subset below the support threshold is
dropped together with all its supersets.

Each level of one property is scored in one call from the candidates' row
masks (``outlierness._score_masks``), which gathers each mask's selection
and scores it with the scorer ``outlierness`` uses; an ``Explanation`` is
built only for a reported pair. ``outlierness`` on a selection stays the
checked reference path, used by ``explain_one``.
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
from .outlierness import OutliernessScore, _score_masks, omega, outlierness


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
    """Mined pairs plus the condition vocabulary and phase timings."""

    pairs: list[ExplanationPropertyPair]
    conditions: dict[int, Condition]
    interval_reports: list[IntervalReport]
    condition_seconds: float
    scoring_seconds: float


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
    frontier: list[tuple[tuple[int, ...], np.ndarray]],
    vocabulary: list[int],
    masks: dict[int, np.ndarray],
    min_support: float,
) -> list[tuple[tuple[int, ...], np.ndarray, float]]:
    """Candidates one condition larger than the frontier's, with their support.

    Single conditions extend the empty explanation. Larger candidates come
    from joining two frontier keys that share all but their last index, and
    are kept only when every subset one smaller is in the frontier (the
    Apriori rule), so no candidate contains a reported or unsupported set.
    Candidates below the support threshold are dropped. Keys are generated,
    and so kept, in sorted order.
    """
    n = len(frontier[0][1])
    if frontier[0][0] == ():
        joined = [((i,), masks[i]) for i in vocabulary]
    else:
        frontier_keys = {key for key, _ in frontier}
        joined = []
        for a in range(len(frontier)):
            key_a, mask_a = frontier[a]
            for b in range(a + 1, len(frontier)):
                key_b = frontier[b][0]
                if key_a[:-1] != key_b[:-1]:
                    break  # sorted keys: the keys sharing a prefix are one run
                candidate = key_a + key_b[-1:]
                # dropping either of the last two indices gives key_a or key_b
                if all(
                    candidate[:r] + candidate[r + 1 :] in frontier_keys
                    for r in range(len(candidate) - 2)
                ):
                    joined.append((candidate, mask_a & masks[key_b[-1]]))
    level = []
    for key, mask in joined:
        sup = np.count_nonzero(mask) / n
        if sup >= min_support:
            level.append((key, mask, sup))
    return level


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
    masks = {i: condition_mask(db, c) for i, c in conditions.items()}
    condition_seconds = time.perf_counter() - t0

    n = db.n_rows
    # the property is never a condition, so no explanation holds more
    # than n_attributes - 1 of them
    max_size = min(cfg.max_conditions, db.n_attributes - 1)
    pairs: list[ExplanationPropertyPair] = []

    t1 = time.perf_counter()
    for prop in db.schema:
        vocabulary = [i for i in sorted(conditions) if i != prop.index]
        # (condition indices, row mask, support) of each candidate of a level
        level: list[tuple[tuple[int, ...], np.ndarray, float]] = [
            ((), np.ones(n, dtype=bool), 1.0)
        ]
        size = 0  # conditions per candidate of the level
        while level:
            scores = _score_masks(db, prop, cfg.outlier_index, [mask for _, mask, _ in level])
            frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
            for (key, mask, sup), (raw, density) in zip(level, scores):
                value = omega(raw)
                if value >= cfg.min_score:
                    # reported and never extended: every superset would be non-minimal
                    expl = Explanation.of(*(conditions[i] for i in key))
                    score = OutliernessScore(value=value, raw=raw, query_density=density)
                    pairs.append(ExplanationPropertyPair(expl, prop, score, sup))
                else:
                    frontier.append((key, mask))
            if size == max_size or not frontier:
                break
            level = _next_level(frontier, vocabulary, masks, cfg.min_support)
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
