"""Outlying-property mining for tabular data.

Given a table and one designated row, this package finds minimal sets of
per-attribute conditions (explanations) under which some other attribute of
that row is reported as strongly atypical, together with a bounded
outlierness score for each finding.

The exported names are resolved on first use, so ``import outprop`` loads
no numpy. That lets ``outprop.cli`` size numpy's BLAS thread pool before
numpy starts it.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule that defines it, in ``__all__`` order
_HOMES = {
    "Attribute": "dataset",
    "CATEGORICAL": "dataset",
    "Condition": "dataset",
    "Dataset": "dataset",
    "EMConfig": "intervals",
    "Explanation": "dataset",
    "MiningConfig": "miner",
    "MixtureState": "intervals",
    "NUMERIC": "dataset",
    "SelectionView": "dataset",
    "StepCDF": "density",
    "density_cdf": "density",
    "density_curve": "density",
    "em_fit": "intervals",
    "explain_one": "miner",
    "global_bandwidth": "density",
    "mine": "miner",
    "natural_conditions": "miner",
    "natural_interval": "intervals",
    "omega": "scoring",
    "outlierness": "scoring",
    "parse_csv": "dataset",
    "read_schema_file": "dataset",
    "select": "dataset",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

