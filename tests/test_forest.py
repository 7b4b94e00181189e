"""Forest fitting, prediction, OOB monitoring, and importance."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icrf import (
    ForestParams,
    Scenario,
    TreeParams,
    fit,
    generate,
    load_model,
    oob_error,
    predict,
    save_model,
    smooth_curve,
    tree_predict,
    variable_importance,
)
from icrf.curves import refine_uniform
from icrf.forest import METRICS
from icrf.exceptions import (
    DimensionMismatch,
    EmptyOob,
    InsufficientData,
    InvalidFold,
    InvariantViolation,
    ParseError,
)

N_SMALL = 80


@pytest.fixture(scope="module")
def sim():
    return generate(Scenario(id=1, n=N_SMALL, M=1, seed=17))


@pytest.fixture(scope="module")
def model(sim):
    return fit(sim.dataset, ForestParams(n_tree=12, n_fold=3, seed=2))


class TestFit:
    def test_k1_single_fold(self, sim):
        m = fit(sim.dataset, ForestParams(n_tree=6, n_fold=1, seed=1))
        assert len(m.folds) == 1 and m.k_opt == 1

    def test_determinism(self, sim):
        a = fit(sim.dataset, ForestParams(n_tree=8, n_fold=2, seed=3))
        b = fit(sim.dataset, ForestParams(n_tree=8, n_fold=2, seed=3))
        assert a.k_opt == b.k_opt
        np.testing.assert_array_equal(a.oob_errors, b.oob_errors)
        grid = np.linspace(0, 5, 101)
        np.testing.assert_array_equal(
            predict(a, sim.dataset.X[:5], grid), predict(b, sim.dataset.X[:5], grid)
        )

    def test_subsample_sizes(self, sim, model):
        want = int(np.ceil(0.95 * N_SMALL))
        for fold in model.folds:
            for tree in fold.trees:
                assert tree.inbag_ids.size == want
                assert np.unique(tree.inbag_ids).size == want

    def test_k_opt_is_argmin(self, model):
        assert model.k_opt == int(np.argmin(model.oob_errors)) + 1

    def test_oob_recompute_matches_stored(self, sim, model):
        fold = model.folds[0]
        re = oob_error(fold, sim.dataset, metric="imse1", h=model.h)
        assert np.isclose(re, fold.oob_error, atol=1e-12)

    def test_subsample_one_requires_single_fold(self, sim):
        with pytest.raises(EmptyOob):
            fit(sim.dataset, ForestParams(n_tree=4, n_fold=2, subsample=1.0))

    def test_insufficient_data(self, sim):
        ds = sim.dataset
        from icrf import Dataset

        tiny = Dataset(ds.lefts[:8], ds.rights[:8], ds.X[:8], ds.feature_names, ds.tau)
        with pytest.raises(InsufficientData):
            fit(tiny, ForestParams(n_tree=4, n_fold=1))

    def test_exploitative_and_oob_update_variants(self, sim):
        m = fit(
            sim.dataset,
            ForestParams(
                n_tree=6, n_fold=2, seed=5, update_curves="oob",
                tree=TreeParams(prediction="exploitative"),
            ),
        )
        grid = np.linspace(0, 5, 51)
        vals = predict(m, sim.dataset.X[:3], grid)
        assert np.all(np.diff(vals, axis=1) <= 1e-12)

    @pytest.mark.parametrize("make", [
        lambda: ForestParams(monitor_metric="imse3"),
        lambda: ForestParams(update_curves="OOB"),
        lambda: TreeParams(prediction="quasi-honest"),
    ], ids=["monitor_metric", "update_curves", "prediction"])
    def test_unknown_option_value_rejected(self, make):
        with pytest.raises(InsufficientData):
            make()

    @pytest.mark.parametrize("call", [
        lambda m, data: oob_error(m.folds[0], data, metric="imse3", h=m.h),
        lambda m, data: variable_importance(m, data, n_perm=1, metric="imse3"),
    ], ids=["oob_error", "variable_importance"])
    def test_unknown_metric_rejected(self, model, sim, call):
        with pytest.raises(InsufficientData):
            call(model, sim.dataset)

    def test_unsmoothed_initial_curve(self, sim):
        m = fit(sim.dataset, ForestParams(n_tree=4, n_fold=2, seed=6, initial_smooth=False))
        assert np.all(np.isfinite(m.oob_errors))

    def test_first_fold_starts_from_marginal_row(self, sim, monkeypatch):
        import icrf.forest as forest

        seen = []
        real = forest.project_rows

        def spy(rows, s_l, s_r, lefts, rights, grid, tau):
            seen.append((np.array(rows), np.array(grid)))
            return real(rows, s_l, s_r, lefts, rights, grid, tau)

        monkeypatch.setattr(forest, "project_rows", spy)
        for smoothed in (True, False):
            seen.clear()
            m = fit(sim.dataset, ForestParams(n_tree=2, n_fold=1, seed=4,
                                              initial_smooth=smoothed))
            (rows, grid), = seen
            assert rows.shape == (1, grid.size) and grid[-1] > m.tau
            if smoothed:
                base = smooth_curve(refine_uniform(m.initial_marginal), m.h, m.tau)
                np.testing.assert_allclose(rows[0], base.eval(grid), rtol=0.0, atol=1e-12)
            else:
                assert np.array_equal(rows[0], m.initial_marginal.interpolate(grid))

    def test_fit_routes_each_tree_once(self, sim, monkeypatch):
        import icrf.curves
        import icrf.metrics
        import icrf.smooth
        import icrf.splits
        import icrf.tree

        def off_path(*args, **kwargs):
            raise AssertionError("called during fit")

        for module in (icrf.curves, icrf.metrics, icrf.splits, icrf.tree):
            monkeypatch.setattr(module, "endpoint_values", off_path)
        monkeypatch.setattr(icrf.smooth, "smooth_curve", off_path)
        monkeypatch.setattr(icrf.smooth.SmoothedSurvival, "eval", off_path)
        routed = []
        real_apply = icrf.tree.Tree.apply

        def apply(tree, X):
            routed.append(id(tree))
            return real_apply(tree, X)

        monkeypatch.setattr(icrf.tree.Tree, "apply", apply)
        for metric in METRICS:
            routed.clear()
            m = fit(sim.dataset, ForestParams(n_tree=3, n_fold=2, seed=4, monitor_metric=metric))
            trees = [id(t) for f in m.folds for t in f.trees]
            assert sorted(routed) == sorted(trees)

    def test_imse2_monitoring(self, sim):
        m = fit(sim.dataset, ForestParams(n_tree=6, n_fold=2, seed=6,
                                          monitor_metric="imse2"))
        assert np.all(np.isfinite(m.oob_errors))


class TestPredict:
    def test_single_tree_equals_tree_predict(self, sim):
        m = fit(sim.dataset, ForestParams(n_tree=1, n_fold=1, seed=8))
        tree = m.folds[0].trees[0]
        x = sim.dataset.X[0]
        grid = np.linspace(0, 5, 101)
        # raw predictions read leaf curves through uniform interpolation
        want = np.asarray(tree_predict(tree, x).interpolate(grid))
        got = predict(m, x[None, :], grid, smoothed=False)[0]
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_bounds_and_monotonicity(self, sim, model):
        grid = np.linspace(0, 5, 201)
        for smoothed in (False, True):
            vals = predict(m := model, sim.dataset.X[:10], grid, smoothed=smoothed)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals, axis=1) <= 1e-9)

    def test_invalid_fold(self, sim, model):
        grid = np.linspace(0, 5, 11)
        with pytest.raises(InvalidFold):
            predict(model, sim.dataset.X[:1], grid, fold=99)

    def test_dimension_mismatch(self, model):
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros((1, 2)), np.linspace(0, 5, 11))

    def test_nonfinite_query_rejected(self, sim, model):
        q = sim.dataset.X[:2].copy()
        q[1, 0] = np.nan
        with pytest.raises(InvariantViolation):
            predict(model, q, np.linspace(0, 5, 11))

    def test_fold_average_identity(self, sim, model):
        # forest prediction is the mean of per-tree leaf curves
        grid = np.linspace(0, 5, 26)
        fold = model.folds[model.k_opt - 1]
        x = sim.dataset.X[3]
        rows = [np.asarray(tree_predict(t, x).interpolate(grid)) for t in fold.trees]
        want = np.mean(rows, axis=0)
        got = predict(model, x[None, :], grid, smoothed=False)[0]
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestImportance:
    def test_rescaled_max_and_multiplier(self, sim, model):
        res = variable_importance(model, sim.dataset, n_perm=3, seed=1)
        assert np.isclose(res.rescaled.max(), 1.0)
        assert np.isclose(res.multiplier, res.raw.max())

    def test_constant_feature_importance_zero(self, sim):
        from icrf import Dataset

        ds = sim.dataset
        X = np.hstack([ds.X, np.ones((ds.n, 1))])
        names = list(ds.feature_names) + ["const"]
        ds2 = Dataset(ds.lefts, ds.rights, X, names, ds.tau)
        m = fit(ds2, ForestParams(n_tree=8, n_fold=1, seed=4))
        res = variable_importance(m, ds2, n_perm=2, seed=2)
        assert res.raw[-1] == 0.0  # permuting a constant changes nothing

    def test_reproducible_with_seed(self, sim, model):
        a = variable_importance(model, sim.dataset, n_perm=2, seed=7)
        b = variable_importance(model, sim.dataset, n_perm=2, seed=7)
        np.testing.assert_array_equal(a.raw, b.raw)


class TestSerialization:
    def test_roundtrip_lossless_for_prediction(self, sim, model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        grid = np.linspace(0, 5, 1001)
        rng = np.random.default_rng(0)
        q = rng.normal(size=(50, sim.dataset.p))
        for smoothed in (False, True):
            a = predict(model, q, grid, smoothed=smoothed)
            b = predict(loaded, q, grid, smoothed=smoothed)
            assert np.max(np.abs(a - b)) == 0.0

    def test_byte_identity_across_runs(self, sim, tmp_path):
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(fit(sim.dataset, ForestParams(n_tree=6, n_fold=2, seed=9)), str(pa))
        save_model(fit(sim.dataset, ForestParams(n_tree=6, n_fold=2, seed=9)), str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_byte_identity_across_worker_counts(self, sim, tmp_path):
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(
            fit(sim.dataset, ForestParams(n_tree=6, n_fold=2, seed=9, n_jobs=1)),
            str(pa),
        )
        save_model(
            fit(sim.dataset, ForestParams(n_tree=6, n_fold=2, seed=9, n_jobs=2)),
            str(pb),
        )
        assert pa.read_bytes() == pb.read_bytes()

    def test_byte_identity_across_worker_counts_exploitative(self, sim, tmp_path):
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        tree = TreeParams(prediction="exploitative")
        for path, n_jobs in ((pa, 1), (pb, 2)):
            params = ForestParams(n_tree=10, n_fold=2, seed=9, n_jobs=n_jobs, tree=tree)
            save_model(fit(sim.dataset, params), str(path))
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("cut", [lambda size: 40, lambda size: size // 2,
                                     lambda size: size - 3],
                             ids=["40_bytes", "half", "3_short"])
    def test_truncated_file_is_parse_error(self, model, tmp_path, cut):
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: cut(len(blob))])
        with pytest.raises(ParseError):
            load_model(str(path))


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(st.sampled_from([1, 2, 3, 5]), st.integers(24, 48),
       st.sampled_from(["quasi_honest", "exploitative"]), st.integers(1, 3),
       st.integers(1, 2), st.integers(0, 2**16))
def test_save_load_save_round_trip(scenario, n, prediction, n_tree, n_fold, seed):
    sim = generate(Scenario(id=scenario, n=n, M=1, seed=seed))
    params = ForestParams(n_tree=n_tree, n_fold=n_fold, seed=seed,
                          tree=TreeParams(prediction=prediction))
    model = fit(sim.dataset, params)
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.bin"), os.path.join(d, "b.bin")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    grid = np.linspace(0.0, model.tau, 41)
    q = sim.dataset.X[:7]
    for smoothed in (False, True):
        assert np.array_equal(predict(model, q, grid, smoothed=smoothed),
                              predict(loaded, q, grid, smoothed=smoothed))
