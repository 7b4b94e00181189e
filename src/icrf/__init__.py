"""Interval censored recursive forests.

Self-consistent random-forest regression of covariate-conditional
survival functions from interval censored data, with the NPMLE,
generalized two-sample splitting statistics, kernel smoothing, error
metrics, and benchmark scenario generators.
"""

from .curves import IntervalObservation, StepSurvival, conditional_project, constant_curve
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
from .metrics import eps_int, eps_sup, imse1, imse2
from .npmle import NpmleFit, TurnbullIntervals, npmle_fit, tail_correct, turnbull_intervals
from .serialize import load_model, save_model
from .simgen import Scenario, SimulatedDataset, generate, intervals_from_monitoring, truth_eval
from .smooth import SmoothedSurvival, bandwidth, smooth_curve
from .splits import GroupCurves, SplitRule, glr, gwrs, slr, split_score, swrs
from .tree import (
    Tree,
    TreeParams,
    grow_tree,
    terminal_predict_exploitative,
    terminal_predict_quasi_honest,
    tree_predict,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ForestFold",
    "ForestParams",
    "GroupCurves",
    "IcrfModel",
    "ImportanceResult",
    "IntervalObservation",
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
    "conditional_project",
    "constant_curve",
    "eps_int",
    "eps_sup",
    "fit",
    "generate",
    "glr",
    "grow_tree",
    "gwrs",
    "imse1",
    "imse2",
    "intervals_from_monitoring",
    "load_csv",
    "load_model",
    "npmle_fit",
    "oob_error",
    "parse_config",
    "predict",
    "save_model",
    "slr",
    "smooth_curve",
    "split_score",
    "swrs",
    "tail_correct",
    "terminal_predict_exploitative",
    "terminal_predict_quasi_honest",
    "tree_predict",
    "truth_eval",
    "turnbull_intervals",
    "variable_importance",
    "write_csv",
]
