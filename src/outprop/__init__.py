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
from .density import (
    DensityModel,
    StepCDF,
    categorical_pmf,
    density_cdf,
    density_curve,
    fit_categorical,
    fit_numeric,
    global_bandwidth,
    parzen_density,
)
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
    "DensityModel",
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
    "categorical_pmf",
    "density_cdf",
    "density_curve",
    "em_fit",
    "explain_one",
    "fit_categorical",
    "fit_numeric",
    "global_bandwidth",
    "mine",
    "natural_conditions",
    "natural_interval",
    "omega",
    "outlierness",
    "parse_csv",
    "parzen_density",
    "read_schema_file",
    "satisfies",
    "select",
    "support",
]
