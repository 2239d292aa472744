"""Outlying-property mining for tabular data.

Given a table and one designated row, this package finds minimal sets of
per-attribute conditions (explanations) under which some other attribute of
that row is reported as strongly atypical, together with a bounded
outlierness score for each finding.
"""

from .dataset import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    Condition,
    Dataset,
    DataObject,
    Explanation,
    SelectionView,
    parse_csv,
    read_schema_file,
    satisfies,
    select,
    support,
)
from .density import StepCDF, density_cdf, density_curve, global_bandwidth
from .intervals import EMConfig, MixtureState, em_fit, natural_interval
from .miner import (
    ExplanationPropertyPair,
    MiningConfig,
    MiningResult,
    PairEvaluation,
    explain_one,
    mine,
    natural_conditions,
)
from .outlierness import OutliernessScore, omega, outlierness

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "CATEGORICAL",
    "Condition",
    "DataObject",
    "Dataset",
    "EMConfig",
    "Explanation",
    "ExplanationPropertyPair",
    "MiningConfig",
    "MiningResult",
    "MixtureState",
    "NUMERIC",
    "OutliernessScore",
    "PairEvaluation",
    "SelectionView",
    "StepCDF",
    "density_cdf",
    "density_curve",
    "em_fit",
    "explain_one",
    "global_bandwidth",
    "mine",
    "natural_conditions",
    "natural_interval",
    "omega",
    "outlierness",
    "parse_csv",
    "read_schema_file",
    "satisfies",
    "select",
    "support",
]
