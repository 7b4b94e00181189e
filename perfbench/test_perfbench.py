"""Self-tests of the benchmark: its checkers reject corrupted outputs, and
a tiny run of every workload completes with every metric.

    python3 -m pytest -q perfbench
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import icrf  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("fit.npmle.leaf_fits", "fit.npmle.em_iters", "fit.npmle.max_iter_hits",
          "fit.tree.nodes", "fit.smooth.kernel_evals", "serialize.manifest_entries")


@pytest.fixture(scope="module")
def small():
    """A small quasi-honest fit with its data, queries and grid."""
    data = icrf.generate(icrf.Scenario(5, n=120, M=3, seed=3)).dataset
    params = icrf.ForestParams(n_tree=3, n_fold=2, seed=5,
                               tree=icrf.TreeParams(n_min=6, prediction="quasi_honest"))
    model = icrf.fit(data, params)
    queries = checks.draw_covariates(5, 20, np.random.default_rng(0))
    grid = np.linspace(0.0, data.tau, workloads.GRID_N)
    return data, model, queries, grid


# -- checkers accept good outputs and reject corrupted ones -------------------


def test_shape_check_rejects_non_monotone_row(small):
    _, model, queries, grid = small
    rows = icrf.predict(model, queries, grid, smoothed=True)
    assert checks.curve_shape_error(rows, smoothed=True) == ""
    bad = rows.copy()
    bad[4, 60] = bad[4, 59] + 1e-6
    assert "increases" in checks.curve_shape_error(bad, smoothed=True)
    bad = rows.copy()
    bad[0, 0] = 0.99
    assert "S(0)" in checks.curve_shape_error(bad, smoothed=True)
    assert "outside" in checks.curve_shape_error(rows + 0.01, smoothed=False)


def test_kkt_check_rejects_perturbed_leaf_masses(small):
    data, model, _, _ = small
    gap, mass, count = checks.leaf_kkt_gaps(model, data.lefts, data.rights, data.tau)
    assert count > 0 and gap <= checks.KKT_EPS and mass <= checks.MASS_TOL
    capped = np.minimum(data.rights, checks.observed_range_cap(data.lefts, data.rights, data.tau))
    leaf = max((leaf for t in model.folds[0].trees for leaf in t.leaves),
               key=lambda leaf: np.count_nonzero(leaf.curve.jump_masses() > 1e-3))
    m = leaf.member_ids
    times, values = leaf.curve.times, leaf.curve.values.copy()
    drops = np.nonzero(np.diff(np.r_[1.0, values]) < -1e-3)[0]
    assert drops.size >= 2
    # move 0.05 of mass from the second drop to the first
    values[drops[0]:drops[1]] -= 0.05
    ok, _ = checks.kkt_gap(data.lefts[m], capped[m], times, leaf.curve.values)
    bad, _ = checks.kkt_gap(data.lefts[m], capped[m], times, values)
    assert ok <= checks.KKT_EPS < bad


def test_round_trip_check_rejects_flipped_byte(small, tmp_path):
    _, model, queries, grid = small
    path, path2 = str(tmp_path / "m.icrf"), str(tmp_path / "again.icrf")
    icrf.save_model(model, path)
    with open(path, "rb") as fh:
        saved = fh.read()
    expected = {kind: icrf.predict(model, queries, grid, smoothed=kind == "smoothed")
                for kind in ("smoothed", "raw")}

    ledger = checks.Ledger()
    workloads.check_round_trip(icrf, ledger, icrf.load_model(path), saved, path2,
                               queries, grid, expected)
    assert ledger.correct and ledger.attempted == 6

    # flip the low byte of the first leaf value of tree 0 in fold k_opt
    header_len = int.from_bytes(saved[8:16], "little")
    offset = 16 + header_len
    for name, dtype, shape in json.loads(saved[16:offset])["manifest"]:
        if name == f"f{model.k_opt}_t0_lvalues":
            break
        offset += int(np.prod(shape)) * np.dtype(dtype).itemsize
    corrupt = bytearray(saved)
    corrupt[offset] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(corrupt)
    ledger = checks.Ledger()
    workloads.check_round_trip(icrf, ledger, icrf.load_model(path), saved, path2,
                               queries, grid, expected)
    assert not ledger.correct
    assert any("byte-identical" in msg for msg in ledger.wrong)


def test_k_opt_check_rejects_wrong_fold():
    errs = np.array([0.05, 0.03, 0.04])
    assert checks.k_opt_error(errs, 2) == ""
    assert "argmin" in checks.k_opt_error(errs, 1)
    assert "finite" in checks.k_opt_error(np.array([0.05, np.nan]), 1)


def test_own_raw_prediction_matches_program(small):
    _, model, queries, grid = small
    fold = model.folds[model.k_opt - 1]
    ours = checks.raw_forest_prediction(fold, queries, grid)
    np.testing.assert_allclose(ours, icrf.predict(model, queries, grid, smoothed=False),
                               rtol=0, atol=1e-12)


def test_own_truth_and_covariates_match_program():
    grid = np.linspace(0.0, 5.0, 11)
    for scenario in (1, 5):
        X = checks.draw_covariates(scenario, 4000, np.random.default_rng(scenario))
        p, rho = checks.COVARIATE_LAW[scenario]
        assert X.shape == (4000, p)
        assert abs(np.corrcoef(X[:, 0], X[:, 1])[0, 1] - rho) < 0.05
        for x in X[:3]:
            np.testing.assert_allclose(checks.truth(scenario, x[None, :], grid)[0],
                                       icrf.truth_eval(scenario, grid, x), rtol=0, atol=1e-12)


# -- timing ------------------------------------------------------------------


def test_timed_subtracts_chunks_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    phase = timing.Phase("sleep")
    assert timing.timed(phase, lambda: time.sleep(0.2) or 7) == 7
    # a sleep ends at its deadline, so the chunks that ran inside it come off its time
    assert 0.8 * 0.2 < phase.raw[0] < 0.2
    assert phase.chunk_s[0] > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_estimate_drops_the_extreme_fifths():
    phase = timing.Phase("x", raw=[1.0, 1.0, 1.0, 1.0, 9.0],
                         chunk_s=[timing.NOMINAL_CHUNK_S] * 5)
    assert phase.estimate() == pytest.approx(1.0)


# -- tiny runs ---------------------------------------------------------------


def tiny_run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run(name):
    result = tiny_run(name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == declared_metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat():
    first, second = tiny_run("fit-qh", 1), tiny_run("fit-qh", 1)
    assert first["correct"] and set(first["metrics"]) == declared_metrics("per_layer")
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key


def test_refuses_to_run_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for fname in os.listdir(HERE):
        if fname.endswith(".py"):
            (bench / fname).write_bytes(open(os.path.join(HERE, fname), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
