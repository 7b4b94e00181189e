"""The public Python API: the names ``import icrf`` exports."""

import icrf

PUBLIC = [
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


def test_public_names_are_pinned():
    # adding or removing a public name is an API change: update PUBLIC
    # and README.md's "Python API" section together with it
    assert sorted(icrf.__all__) == PUBLIC
    assert all(hasattr(icrf, name) for name in PUBLIC)
