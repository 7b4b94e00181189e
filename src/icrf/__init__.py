"""Interval censored recursive forests.

Self-consistent random-forest regression of covariate-conditional
survival functions from interval censored data, with the NPMLE,
generalized two-sample splitting statistics, kernel smoothing, error
metrics, and benchmark scenario generators.
"""

from .curves import StepSurvival
from .dataio import Dataset, load_csv, parse_config, write_csv
from .forest import (
    ForestFold,
    ForestParams,
    IcrfModel,
    ImportanceResult,
    fit,
    oob_error,
    predict,
    variable_importance,
)
from .metrics import oracle_errors
from .npmle import NpmleFit, TurnbullIntervals, npmle_fit, tail_correct, turnbull_intervals
from .serialize import load_model, save_model
from .simgen import Scenario, SimulatedDataset, generate, intervals_from_monitoring, truth_eval
from .smooth import SmoothedSurvival, bandwidth, smooth_curve
from .splits import SplitRule
from .tree import Tree, TreeParams

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ForestFold",
    "ForestParams",
    "IcrfModel",
    "ImportanceResult",
    "NpmleFit",
    "Scenario",
    "SimulatedDataset",
    "SmoothedSurvival",
    "SplitRule",
    "StepSurvival",
    "Tree",
    "TreeParams",
    "TurnbullIntervals",
    "bandwidth",
    "fit",
    "generate",
    "intervals_from_monitoring",
    "load_csv",
    "load_model",
    "npmle_fit",
    "oob_error",
    "oracle_errors",
    "parse_config",
    "predict",
    "save_model",
    "smooth_curve",
    "tail_correct",
    "truth_eval",
    "turnbull_intervals",
    "variable_importance",
    "write_csv",
]
