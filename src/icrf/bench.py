"""Replicated-experiment orchestration: per-scenario replicate runs,
oracle-error and OOB aggregation, rule/prediction comparisons, and
sample-size sweeps. Replicates are keyed by seed, sharded to disk, and
resumable; re-running a completed spec changes nothing.
"""

from __future__ import annotations

import concurrent.futures
import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from .dataio import atomic_write, require_count, write_table
from .exceptions import InsufficientData
from .forest import ForestParams, fit, predict
from .metrics import oracle_errors
from .simgen import Scenario, draw_covariates, generate, truth_eval
from .splits import RULE_KINDS, SplitRule
from .tree import PREDICTIONS, TreeParams

RAW_COLUMNS = [
    "scenario", "M", "n", "rule", "prediction", "replicate", "fold",
    "eps_int", "eps_sup", "oob", "k_opt", "seconds",
]

VALUE_COLUMNS = ["eps_int", "eps_sup", "oob", "seconds"]


@dataclass(frozen=True)
class ExperimentSpec:
    scenarios: tuple = (1,)
    m_values: tuple = (1,)
    n_values: tuple = (300,)
    n_replicates: int = 20
    rules: tuple = ("GWRS",)
    predictions: tuple = ("quasi_honest",)
    seed: int = 0
    n_tree: int = 50
    n_fold: int = 5
    n_min: int = TreeParams.n_min
    mtry: int | None = TreeParams.mtry
    subsample: float = ForestParams.subsample
    initial_smooth: bool = ForestParams.initial_smooth
    monitor_metric: str = ForestParams.monitor_metric
    glr_sign: str = SplitRule.glr_sign
    n_test: int = 100
    grid_resolution: int = 201
    n_jobs: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        # every scenario, rule and prediction is checked by its own class
        # before any replicate runs, where a failure is only recorded
        for sc in self.scenarios:
            for m in self.m_values:
                Scenario(id=sc, M=m)
        for rule in self.rules:
            for pred in self.predictions:
                self.forest_params(rule, pred, seed=0)
        require_count(self.n_jobs, "n_jobs", InsufficientData, least=1)
        if self.n_test < 1:
            raise InsufficientData(f"n_test must be >= 1, got {self.n_test}")
        if self.grid_resolution < 2:
            raise InsufficientData(
                f"grid_resolution must be >= 2, got {self.grid_resolution}")

    def forest_params(self, rule: str, pred: str, seed: int) -> ForestParams:
        return ForestParams(
            n_tree=self.n_tree,
            n_fold=self.n_fold,
            subsample=self.subsample,
            initial_smooth=self.initial_smooth,
            monitor_metric=self.monitor_metric,
            seed=seed,
            tree=TreeParams(
                mtry=self.mtry,
                n_min=self.n_min,
                rule=SplitRule(rule, glr_sign=self.glr_sign),
                prediction=pred,
            ),
        )

    def cells(self):
        for sc in self.scenarios:
            for m in self.m_values:
                for n in self.n_values:
                    for rule in self.rules:
                        for pred in self.predictions:
                            yield (sc, m, n, rule, pred)


def _rep_entropy(spec: ExperimentSpec, cell, rep: int) -> list[int]:
    sc, m, n, rule, pred = cell
    return [spec.seed, sc, m, n, RULE_KINDS.index(rule), PREDICTIONS.index(pred), rep]


def run_replicate(spec: ExperimentSpec, cell, rep: int) -> list[dict]:
    """One (cell, replicate): generate, fit, score every fold."""
    sc, m, n, rule, pred = cell
    entropy = _rep_entropy(spec, cell, rep)
    data_seed = int(
        np.random.SeedSequence(entropy).generate_state(1, np.uint32)[0]
    )
    sim = generate(Scenario(id=sc, n=n, M=m, seed=data_seed))
    test_rng = np.random.default_rng(np.random.SeedSequence(entropy + [1]))
    x_test = draw_covariates(sc, spec.n_test, test_rng)

    t0 = time.perf_counter()
    model = fit(sim.dataset, spec.forest_params(rule, pred, data_seed))
    seconds = time.perf_counter() - t0

    tau = sim.dataset.tau
    grid = np.linspace(0.0, tau, spec.grid_resolution)
    truth_rows = np.vstack([truth_eval(sc, grid, x) for x in x_test])
    rows = []
    for k in range(1, spec.n_fold + 1):
        e_int, e_sup = oracle_errors(predict(model, x_test, grid, fold=k, smoothed=True),
                                     truth_rows, grid)
        rows.append(
            {
                "scenario": sc, "M": m, "n": n, "rule": rule, "prediction": pred,
                "replicate": rep, "fold": k,
                "eps_int": e_int,
                "eps_sup": e_sup,
                "oob": model.folds[k - 1].oob_error,
                "k_opt": model.k_opt,
                "seconds": seconds,
            }
        )
    return rows


def _shard_name(cell, rep: int) -> str:
    sc, m, n, rule, pred = cell
    return f"s{sc}_M{m}_n{n}_{rule}_{pred}_rep{rep}.csv"


def _write_rows(path, rows, columns):
    write_table(path, columns, ([row[c] for c in columns] for row in rows))


def _read_rows(path, columns):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        out = []
        for rec in reader:
            row = {}
            for c in columns:
                v = rec[c]
                if c in ("scenario", "M", "n", "replicate", "fold", "k_opt"):
                    row[c] = int(v)
                elif c in VALUE_COLUMNS:
                    row[c] = float(v)
                else:
                    row[c] = v
            out.append(row)
        return out


def _replicate_task(args):
    spec, cell, rep, shard_path = args
    if shard_path is not None and os.path.exists(shard_path):
        return _read_rows(shard_path, RAW_COLUMNS), None
    try:
        rows = run_replicate(spec, cell, rep)
    except Exception as exc:  # recorded, run continues
        return [], f"{cell} rep {rep}: {type(exc).__name__}: {exc}"
    if shard_path is not None:
        _write_rows(shard_path, rows, RAW_COLUMNS)
    return rows, None


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """All (cell, replicate) runs; returns raw rows, writes raw.csv and
    summary.csv when ``spec.out_dir`` is set."""
    shard_dir = None
    if spec.out_dir is not None:
        shard_dir = os.path.join(spec.out_dir, "shards")
        os.makedirs(shard_dir, exist_ok=True)
    tasks = []
    for cell in spec.cells():
        for rep in range(spec.n_replicates):
            shard = (
                os.path.join(shard_dir, _shard_name(cell, rep))
                if shard_dir
                else None
            )
            tasks.append((spec, cell, rep, shard))

    workers = min(spec.n_jobs, len(tasks))  # no worker without a task
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_replicate_task, tasks))
    else:
        results = [_replicate_task(t) for t in tasks]

    rows, failures = [], []
    for rws, err in results:
        rows.extend(rws)
        if err is not None:
            failures.append(err)

    rows.sort(
        key=lambda r: (
            r["scenario"], r["M"], r["n"], r["rule"], r["prediction"],
            r["replicate"], r["fold"],
        )
    )
    if spec.out_dir is not None:
        _write_rows(os.path.join(spec.out_dir, "raw.csv"), rows, RAW_COLUMNS)
        summary = aggregate(rows)
        cols = list(summary[0].keys()) if summary else []
        _write_rows(os.path.join(spec.out_dir, "summary.csv"), summary, cols)
        if failures:
            atomic_write(
                os.path.join(spec.out_dir, "failures.txt"), "\n".join(failures) + "\n"
            )
    return rows


GROUP_KEYS = ("scenario", "M", "n", "rule", "prediction", "fold")


def aggregate(rows, group_keys=GROUP_KEYS, value_columns=VALUE_COLUMNS) -> list[dict]:
    """Mean and 1st/3rd quartile per group (linear-interpolation
    quantiles); order-invariant in the input rows."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        rec = dict(zip(group_keys, key))
        rec["n_rows"] = len(members)
        for col in value_columns:
            vals = np.asarray([m[col] for m in members], dtype=float)
            rec[f"{col}_mean"] = float(vals.mean())
            rec[f"{col}_q1"] = float(np.quantile(vals, 0.25))
            rec[f"{col}_q3"] = float(np.quantile(vals, 0.75))
        out.append(rec)
    return out
