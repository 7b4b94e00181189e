"""Experiment harness: replicate rows, aggregation, resumability."""

import numpy as np
import pytest

from icrf.bench import ExperimentSpec, aggregate, run_experiment, run_replicate
from icrf.exceptions import InsufficientData, InvariantViolation


def tiny_spec(**kw) -> ExperimentSpec:
    base = dict(
        scenarios=(1,), m_values=(1,), n_values=(50,), n_replicates=2,
        rules=("GWRS",), predictions=("quasi_honest",), seed=1,
        n_tree=4, n_fold=2, n_test=10,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestRunExperiment:
    def test_rows_per_cell(self):
        rows = run_experiment(tiny_spec(n_replicates=1))
        assert len(rows) == 2  # 1 replicate x n_fold rows
        assert {r["fold"] for r in rows} == {1, 2}

    def test_resume_is_idempotent(self, tmp_path):
        spec = tiny_spec(out_dir=str(tmp_path))
        run_experiment(spec)
        raw1 = (tmp_path / "raw.csv").read_bytes()
        run_experiment(spec)
        assert (tmp_path / "raw.csv").read_bytes() == raw1

    def test_replicate_reproducible_from_seed(self):
        spec = tiny_spec()
        cell = next(spec.cells())
        a = run_replicate(spec, cell, 0)
        b = run_replicate(spec, cell, 0)
        for ra, rb in zip(a, b):
            assert ra["eps_int"] == rb["eps_int"]
            assert ra["k_opt"] == rb["k_opt"]

    def test_failures_recorded_run_continues(self, tmp_path):
        # n below the fitting minimum fails per-replicate, not globally
        spec = tiny_spec(n_values=(8, 50), out_dir=str(tmp_path))
        rows = run_experiment(spec)
        assert all(r["n"] == 50 for r in rows)
        assert (tmp_path / "failures.txt").exists()

    def test_parallel_matches_serial(self, tmp_path):
        rows_a = run_experiment(tiny_spec())
        rows_b = run_experiment(tiny_spec(n_jobs=2))
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            assert ra["eps_int"] == rb["eps_int"]


class TestSpecOptions:
    @pytest.mark.parametrize("kw", [
        {"rules": ("GWRS", "foo")}, {"predictions": ("quasi-honest",)},
        {"glr_sign": "sum"}, {"monitor_metric": "imse3"},
    ], ids=["rules", "predictions", "glr_sign", "monitor_metric"])
    def test_unknown_value_rejected(self, kw):
        with pytest.raises(InsufficientData):
            tiny_spec(**kw)

    @pytest.mark.parametrize("kw, error", [
        ({"grid_resolution": 1}, InsufficientData),
        ({"n_test": 0}, InsufficientData),
        ({"scenarios": (1, 9)}, InvariantViolation),
        ({"m_values": (1, 0)}, InvariantViolation),
        ({"n_jobs": 0}, InsufficientData),
        ({"n_jobs": 1.5}, InsufficientData),
    ], ids=["grid_resolution", "n_test", "scenarios", "m_values", "n_jobs_0", "n_jobs_fraction"])
    def test_bad_run_setting_rejected(self, kw, error):
        # checked when the spec is built, not recorded per replicate
        with pytest.raises(error):
            tiny_spec(**kw)



def test_no_pool_larger_than_its_tasks(pool_sizes):
    # two replicates are two tasks: two workers however many are asked for,
    # and none for one task
    rows = run_experiment(tiny_spec(n_jobs=64))
    run_experiment(tiny_spec(n_jobs=64, n_replicates=1))
    assert pool_sizes == [2]
    assert [r["eps_int"] for r in rows] == [r["eps_int"] for r in run_experiment(tiny_spec())]


class TestAggregate:
    def test_single_row_group(self):
        rows = [dict(scenario=1, M=1, n=50, rule="GWRS", prediction="q",
                     fold=1, eps_int=2.0, eps_sup=0.5, oob=0.1, seconds=1.0)]
        out = aggregate(rows)
        assert len(out) == 1
        rec = out[0]
        assert rec["eps_int_mean"] == rec["eps_int_q1"] == rec["eps_int_q3"] == 2.0

    def test_type7_quartiles(self):
        rows = [
            dict(scenario=1, M=1, n=50, rule="GWRS", prediction="q",
                 fold=1, eps_int=v, eps_sup=v, oob=v, seconds=v)
            for v in (1.0, 2.0, 3.0)
        ]
        rec = aggregate(rows)[0]
        assert rec["eps_int_mean"] == 2.0
        assert rec["eps_int_q1"] == 1.5 and rec["eps_int_q3"] == 2.5

    def test_order_invariance(self):
        rng = np.random.default_rng(71)
        rows = [
            dict(scenario=1, M=1, n=50, rule="GWRS", prediction="q",
                 fold=1 + (i % 2), eps_int=float(rng.uniform()),
                 eps_sup=0.0, oob=0.0, seconds=0.0)
            for i in range(10)
        ]
        a = aggregate(rows)
        rng.shuffle(rows)
        b = aggregate(rows)
        assert a == b
