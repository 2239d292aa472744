"""Level-wise search for minimal explanation-property pairs."""

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
    support,
)
from outprop.errors import ConfigError
from outprop.oracle import exhaustive_mine

from conftest import random_instance


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
    with pytest.raises(ConfigError):
        mine(db, MiningConfig(outlier_index=0, max_conditions=3))  # only 2 attributes


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
    o = db.row(3)
    lo, hi = conditions[0].lower, conditions[0].upper
    assert lo <= o.values[0] <= hi
    assert conditions[1].value == o.values[1]
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
    o = db.row(cfg.outlier_index)
    for pair in result.pairs:
        assert pair.property.index not in pair.explanation.attributes
        assert len(pair.explanation) <= cfg.max_conditions
        assert pair.support >= cfg.min_support
        assert pair.score.value >= cfg.min_score
        assert support(db, pair.explanation) == pair.support
        view = select(db, pair.explanation)
        again = outlierness(view, pair.property, o)
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
    v = db.row(50).values[1]
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
