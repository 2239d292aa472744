"""Level-wise search for minimal explanation-property pairs."""

import json

import numpy as np
import pytest

from outprop import (
    CATEGORICAL,
    NUMERIC,
    Condition,
    Dataset,
    EMConfig,
    Explanation,
    MiningConfig,
    explain_one,
    mine,
    natural_conditions,
    outlierness,
    select,
)
from outprop.cli import _condition_record
from outprop.dataset import condition_mask
from outprop import miner, scoring
from outprop.errors import ConfigError
from outprop.miner import _next_level
from outprop.oracle import exhaustive_mine
from outprop.scoring import _pack_rows

from conftest import random_dataset, random_instance


def toy_db(seed=21):
    # x: tight cluster with the last row far outside; u: scale-1 noise
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(0.0, 0.02, 50), [0.3]])
    u = rng.uniform(0.0, 1.0, 51)
    return Dataset.from_arrays(["x", "u"], [NUMERIC, NUMERIC], [x, u])


def test_config_validation():
    with pytest.raises(ConfigError):
        MiningConfig(outlier_index=0, min_support=1.5)
    with pytest.raises(ConfigError):
        MiningConfig(outlier_index=0, min_score=-0.1)
    with pytest.raises(ConfigError):
        MiningConfig(outlier_index=0, max_conditions=0)
    with pytest.raises(ConfigError):
        MiningConfig(outlier_index=-1)


def test_config_checked_against_dataset():
    db = toy_db()
    with pytest.raises(ConfigError):
        mine(db, MiningConfig(outlier_index=51, max_conditions=1))
    # 2 attributes apply at most 1 condition: a larger bound searches no further
    three = mine(db, MiningConfig(outlier_index=50, min_score=0.1, max_conditions=3))
    one = mine(db, MiningConfig(outlier_index=50, min_score=0.1, max_conditions=1))
    assert three.pairs
    assert [(p.explanation, p.property.index, p.score.value) for p in three.pairs] == [
        (p.explanation, p.property.index, p.score.value) for p in one.pairs
    ]


def test_natural_conditions_cover_every_attribute():
    rng = np.random.default_rng(23)
    db = Dataset.from_arrays(
        ["num", "cat", "flat"],
        [NUMERIC, CATEGORICAL, NUMERIC],
        [rng.normal(0.0, 0.1, 40), rng.choice(["a", "b"], 40), np.full(40, 7.0)],
    )
    cfg = MiningConfig(outlier_index=3, max_conditions=2, em=EMConfig(seed=5))
    conditions, reports = natural_conditions(db, cfg)
    assert set(conditions) == {0, 1, 2}
    lo, hi = conditions[0].lower, conditions[0].upper
    assert lo <= db.columns[0][3] <= hi
    assert conditions[1].value == db.columns[1][3]
    assert (conditions[2].lower, conditions[2].upper) == (7.0, 7.0)
    # one mixture report per non-constant numeric attribute, seeded per attribute
    assert [r.attribute for r in reports] == ["num"]
    assert reports[0].seed == (5, 0)
    assert reports[0].components >= 1


def test_categorical_natural_condition():
    db = Dataset.from_arrays(["c"], [CATEGORICAL], [["p", "q", "p"]])
    conditions, reports = natural_conditions(db, MiningConfig(outlier_index=1, max_conditions=1))
    cond = conditions[0]
    assert not cond.is_interval
    assert cond.value == "q"
    assert cond.attribute == 0
    assert reports == []


def test_a_none_token_is_an_equality_condition():
    db = Dataset.from_arrays(["c", "x"], [CATEGORICAL, NUMERIC], [[None] + ["a"] * 9, np.arange(10.0)])
    cfg = MiningConfig(outlier_index=0, min_support=0.0, min_score=0.0)
    cond = mine(db, cfg).conditions[0]
    assert cond == Condition.equality(0, None)
    assert not cond.is_interval
    assert json.dumps(_condition_record(db, cond)) == '{"attribute": "c", "value": null}'
    explanation = Explanation.of(cond)
    evaluation = explain_one(db, cfg, explanation, 1)
    assert evaluation.support == 0.1
    again = outlierness(select(db, explanation), db.schema[1], 0)
    assert (evaluation.score.value, evaluation.score.raw) == (again.value, again.raw)


def test_mine_finds_the_planted_pair():
    db = toy_db()
    cfg = MiningConfig(outlier_index=50, min_support=0.2, min_score=0.9, max_conditions=2)
    result = mine(db, cfg)
    assert len(result.pairs) == 1
    pair = result.pairs[0]
    assert pair.property.name == "x"
    assert len(pair.explanation) == 0
    assert pair.support == 1.0
    assert pair.score.value >= 0.9
    assert result.condition_seconds >= 0.0
    assert result.scoring_seconds >= 0.0


def test_mined_pairs_meet_their_definitions():
    db, cfg = random_instance(31, max_rows=120)
    result = mine(db, cfg)
    for pair in result.pairs:
        assert pair.property.index not in pair.explanation.attributes
        assert len(pair.explanation) <= cfg.max_conditions
        assert pair.support >= cfg.min_support
        assert pair.score.value >= cfg.min_score
        view = select(db, pair.explanation)
        assert view.fraction == pair.support
        again = outlierness(view, pair.property, cfg.outlier_index)
        assert again.value == pair.score.value
        assert again.raw == pair.score.raw
        assert again.query_density == pair.score.query_density


def test_mined_pairs_are_minimal():
    db, cfg = random_instance(37, max_rows=120)
    result = mine(db, cfg)
    seen = {(p.explanation.attributes, p.property.index) for p in result.pairs}
    assert len(seen) == len(result.pairs)
    for attrs, prop in seen:
        for other_attrs, other_prop in seen:
            if other_prop == prop and other_attrs < attrs:
                pytest.fail(f"pair {sorted(attrs)} is a superset of {sorted(other_attrs)}")


def test_pairs_are_sorted_by_score():
    db, cfg = random_instance(41, max_rows=120)
    cfg = MiningConfig(
        outlier_index=cfg.outlier_index,
        min_support=0.0,
        min_score=0.0,
        max_conditions=cfg.max_conditions,
        em=cfg.em,
    )
    result = mine(db, cfg)
    values = [p.score.value for p in result.pairs]
    assert values == sorted(values, reverse=True)


def test_zero_score_threshold_reports_every_property_once():
    db, cfg = random_instance(43, max_rows=100)
    cfg = MiningConfig(
        outlier_index=cfg.outlier_index,
        min_support=0.2,
        min_score=0.0,
        max_conditions=cfg.max_conditions,
        em=cfg.em,
    )
    result = mine(db, cfg)
    # every property passes already at E = empty, which blocks all supersets
    assert len(result.pairs) == db.n_attributes
    assert all(len(p.explanation) == 0 for p in result.pairs)


def test_impossible_threshold_reports_nothing():
    db = toy_db()
    result = mine(db, MiningConfig(outlier_index=50, min_score=1.0, max_conditions=2))
    assert result.pairs == []


def test_mine_is_deterministic():
    db, cfg = random_instance(47, max_rows=100)
    a = mine(db, cfg)
    b = mine(db, cfg)
    assert [(p.explanation, p.property.index, p.score.value, p.support) for p in a.pairs] == [
        (p.explanation, p.property.index, p.score.value, p.support) for p in b.pairs
    ]
    assert a.conditions == b.conditions


def test_conditioning_reveals_the_dependent_outlier():
    # o pairs cluster 1's x with cluster 2's y: only the conditioned score is high
    rng = np.random.default_rng(53)
    x = np.concatenate([rng.normal(-1.0, 0.05, 60), rng.normal(1.0, 0.05, 60), [-1.0]])
    y = np.concatenate([rng.normal(0.0, 0.04, 60), rng.normal(0.5, 0.04, 60), [0.5]])
    db = Dataset.from_arrays(["x", "y"], [NUMERIC, NUMERIC], [x, y])
    cfg = MiningConfig(outlier_index=120, min_support=0.2, min_score=0.9, max_conditions=1)
    result = mine(db, cfg)
    found = [p for p in result.pairs if p.property.name == "y"]
    assert len(found) == 1
    assert found[0].explanation.attributes == {0}
    assert found[0].score.value >= 0.9
    base = explain_one(db, cfg, Explanation.empty(), 1)
    assert base.score.value <= 0.1


def test_matches_exhaustive_enumeration():
    for seed in (61, 62, 63):
        db, cfg = random_instance(seed, max_rows=120)
        fast = {
            (p.explanation.attributes, p.property.index): p
            for p in mine(db, cfg).pairs
        }
        slow = {
            (frozenset(p.explanation_attributes), p.property_index): p
            for p in exhaustive_mine(db, cfg)
        }
        assert set(fast) == set(slow)
        for key, pair in fast.items():
            assert pair.score.value == pytest.approx(slow[key].score, abs=1e-9)
            assert pair.support == pytest.approx(slow[key].support, abs=1e-12)


@pytest.mark.parametrize("min_score", [0.0, 0.35, 0.5, 0.9, 1.0])
def test_numeric_scores_skipped_by_the_bound_keep_the_exhaustive_pairs(min_score):
    skipped = 0
    for seed in range(3000, 3012):
        # numeric-heavy, and large enough for row sets the bound holds on
        db, rng = random_dataset(seed, min_rows=150, max_rows=300, categorical_share=0.1)
        cfg = MiningConfig(
            outlier_index=int(rng.integers(db.n_rows)),
            min_support=float(rng.uniform(0.0, 0.3)),
            min_score=min_score,
            max_conditions=3,
            em=EMConfig(seed=(seed, 977)),
        )
        result = mine(db, cfg)
        fast = {(p.explanation.attributes, p.property.index): p.score.value for p in result.pairs}
        slow = {(frozenset(p.explanation_attributes), p.property_index): p.score for p in exhaustive_mine(db, cfg)}
        assert set(fast) == set(slow), f"pair sets differ on instance seed {seed}"
        for key, value in fast.items():
            assert value == pytest.approx(slow[key], abs=1e-9)
        skipped += result.bound_skips
    assert (skipped > 0) == (min_score > 0.0)


def test_a_pair_scoring_exactly_one_is_found_at_omega_one():
    # an isolated value among 335 equal ones: raw about 110, omega exactly 1.0
    values = np.full(336, 1.0)
    values[222] = 0.5
    noise = np.random.default_rng(8).normal(0.0, 1.0, 336)
    db = Dataset.from_arrays(["a", "u"], [NUMERIC, NUMERIC], [values, noise])
    cfg = MiningConfig(outlier_index=222, min_support=0.2, min_score=1.0, max_conditions=1)
    result = mine(db, cfg)
    assert [(p.property.name, p.score.value) for p in result.pairs if not p.explanation.attributes] == [("a", 1.0)]
    slow = {(frozenset(p.explanation_attributes), p.property_index) for p in exhaustive_mine(db, cfg)}
    assert {(p.explanation.attributes, p.property.index) for p in result.pairs} == slow


def test_bound_skips_are_the_numeric_row_sets_not_scored_exactly(monkeypatch):
    db, rng = random_dataset(3001, min_rows=300, max_rows=300, categorical_share=0.1)
    cfg = MiningConfig(outlier_index=7, min_support=0.05, min_score=0.5, max_conditions=3)
    row_sets, exact = [0], [0]
    score_masks, window_score = miner._score_masks, scoring._window_score

    def counted_masks(db, attribute, outlier_index, bits, floor):
        if attribute.kind == NUMERIC:
            row_sets[0] += bits.shape[0]
        return score_masks(db, attribute, outlier_index, bits, floor)

    def counted_score(col, v, floor=-np.inf):
        scored = window_score(col, v, floor)
        exact[0] += scored is not None
        return scored

    monkeypatch.setattr(miner, "_score_masks", counted_masks)
    monkeypatch.setattr(scoring, "_window_score", counted_score)
    first = mine(db, cfg)
    assert first.bound_skips > 0
    assert first.bound_skips == row_sets[0] - exact[0]
    assert mine(db, cfg).bound_skips == first.bound_skips


def test_explain_one_matches_mine_for_the_empty_explanation():
    db = toy_db()
    cfg = MiningConfig(outlier_index=50, min_support=0.2, min_score=0.9, max_conditions=2)
    pair = mine(db, cfg).pairs[0]
    evaluation = explain_one(db, cfg, Explanation.empty(), pair.property.index)
    assert evaluation.score.value == pair.score.value
    assert evaluation.support == 1.0
    assert evaluation.accepted


def test_explain_one_rejects_low_support_regardless_of_score():
    db = toy_db()
    cfg = MiningConfig(outlier_index=50, min_support=0.9, min_score=0.0, max_conditions=2)
    v = db.columns[1][50]
    expl = Explanation.of(Condition.interval(1, v - 0.1, v + 0.1))
    evaluation = explain_one(db, cfg, expl, 0)
    assert evaluation.support < 0.9
    assert evaluation.score.value >= 0.0
    assert not evaluation.accepted


def test_explain_one_validates_the_pair():
    db = toy_db()
    cfg = MiningConfig(outlier_index=50, max_conditions=2)
    with pytest.raises(ConfigError):
        explain_one(db, cfg, Explanation.empty(), 5)
    with pytest.raises(ConfigError):
        explain_one(db, cfg, Explanation.of(Condition.interval(0, -1.0, 1.0)), 0)


def test_constant_columns_mine_cleanly():
    db = Dataset.from_arrays(
        ["a", "b"], [NUMERIC, NUMERIC], [np.full(20, 1.0), np.full(20, 2.0)]
    )
    cfg = MiningConfig(outlier_index=0, min_support=0.2, min_score=0.0, max_conditions=2)
    result = mine(db, cfg)
    assert {(p.property.index, p.score.value) for p in result.pairs} == {(0, 0.0), (1, 0.0)}
    assert result.conditions[0] == Condition.interval(0, 1.0, 1.0)
    assert result.interval_reports == []


# row counts on both sides of a 64-row word, and designated rows at the
# first and last bit of a word
WORD_EDGE_ROWS = [
    (n, r) for n in (1, 63, 64, 65, 129) for r in sorted({0, 63, 64, n - 1}) if r < n
]


def binary_table(n, r, attributes=5):
    """Random two-token columns; each mask is a column's rows equal to row r's token."""
    rng = np.random.default_rng([n, r])
    columns = [rng.choice(["p", "q"], n, p=[0.7, 0.3]) for _ in range(attributes)]
    db = Dataset.from_arrays([f"b{j}" for j in range(attributes)], [CATEGORICAL] * attributes, columns)
    masks = np.array([condition_mask(db, Condition.equality(j, db.columns[j][r])) for j in range(attributes)])
    return db, masks


@pytest.mark.parametrize(("n", "r"), WORD_EDGE_ROWS)
def test_level_joins_and_supports_at_word_edges_equal_the_bool_masks(n, r):
    _, masks = binary_table(n, r)
    cond_bits = _pack_rows(masks)
    keys, bits = [()], _pack_rows(np.ones((1, n), bool))
    for size in (1, 2, 3):
        keys, bits, supports = _next_level(keys, bits, [0, 1, 2, 3, 4], cond_bits, n, 0.0)
        assert keys and all(len(key) == size for key in keys)
        for key, words, support in zip(keys, bits, supports):
            rows = np.logical_and.reduce(masks[list(key)])
            assert support == np.count_nonzero(rows)
            np.testing.assert_array_equal(words, _pack_rows(rows))
    # the support threshold keeps exactly the candidates whose share reaches it
    level_one = _next_level([()], _pack_rows(np.ones((1, n), bool)), [0, 1, 2, 3, 4], cond_bits, n, 0.5)
    shares = np.count_nonzero(masks, axis=1) / n
    assert level_one[0] == [(j,) for j in range(5) if shares[j] >= 0.5]


@pytest.mark.parametrize(("n", "r"), WORD_EDGE_ROWS)
def test_mined_supports_and_scores_at_word_edges_equal_the_selection(n, r):
    db, _ = binary_table(n, r)
    cfg = MiningConfig(outlier_index=r, min_support=0.1, min_score=0.2, max_conditions=3)
    pairs = mine(db, cfg).pairs
    slow = {(frozenset(p.explanation_attributes), p.property_index) for p in exhaustive_mine(db, cfg)}
    assert {(p.explanation.attributes, p.property.index) for p in pairs} == slow
    for pair in pairs:
        view = select(db, pair.explanation)
        assert pair.support == np.count_nonzero(view.mask) / n
        again = outlierness(view, pair.property, r)
        assert (pair.score.raw, pair.score.query_density) == (again.raw, again.query_density)
