"""Forest fitting, prediction, OOB monitoring, and importance."""

import functools
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icrf import (
    Dataset,
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
    variable_importance,
)
import icrf.forest as forest_mod
import icrf.tree as tree_mod
from icrf.curves import LeafStore, StepSurvival
from icrf.forest import METRICS, UPDATE_MODES, ForestFold, IcrfModel, _monitor_error, monitor_grid
from icrf.npmle import npmle_batch, npmle_fit
from icrf.serialize import DTYPE_NAMES, TREE_ARRAYS

from _oracles import predict_per_tree, route_loop, tree_batch_loop
from test_tree import tree_predict
from icrf.exceptions import (
    DimensionMismatch,
    EmptyOob,
    InsufficientData,
    InvalidFold,
    InvariantViolation,
    NpmleWarning,
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

    def test_oob_recompute_matches_stored(self, sim):
        # the recomputation reads the bandwidth and the monitor metric off
        # the model, so it equals the stored error exactly
        for metric in METRICS:
            m = fit(sim.dataset, ForestParams(n_tree=3, n_fold=2, seed=2, monitor_metric=metric))
            for k, fold in enumerate(m.folds, start=1):
                assert oob_error(m, sim.dataset, fold=k) == fold.oob_error
            assert oob_error(m, sim.dataset) == m.folds[m.k_opt - 1].oob_error
            with pytest.raises(InvalidFold):
                oob_error(m, sim.dataset, fold=3)

    def test_oob_recompute_needs_each_tree_oob_subjects(self, sim):
        # a one-leaf tree that holds every subject has none out of its bag;
        # a data set without one of its in-bag subjects is not its training data
        d, every = sim.dataset, np.arange(sim.dataset.n)
        store = LeafStore(np.array([1.0]), np.array([0.5]), np.array([0, 1]), np.array([np.nan]),
                          every, np.array([0, every.size]))
        tree = tree_mod.Tree([-1], [np.nan], [-1], [-1], [0], store, every)
        model = IcrfModel(ForestParams(), list(d.feature_names), d.tau, 0.3,
                          StepSurvival([1.0], [0.0]), [ForestFold.of(1, [tree])], 1)
        with pytest.raises(EmptyOob):
            oob_error(model, d)
        fewer = Dataset(d.lefts[1:], d.rights[1:], d.X[1:], list(d.feature_names), d.tau)
        with pytest.raises(DimensionMismatch, match="beyond"):
            oob_error(model, fewer)

    def test_subsample_one_requires_single_fold(self, sim):
        with pytest.raises(EmptyOob):
            fit(sim.dataset, ForestParams(n_tree=4, n_fold=2, subsample=1.0))

    def test_subsample_one_single_fold_is_empty_oob(self, sim):
        # with no out-of-bag subject no fold has an OOB error to pick k_opt by
        with pytest.raises(EmptyOob):
            fit(sim.dataset, ForestParams(n_tree=2, n_fold=1, subsample=1.0))

    def test_certified_fit_does_not_warn(self, sim):
        with warnings.catch_warnings():
            warnings.simplefilter("error", NpmleWarning)
            fit(sim.dataset, ForestParams(n_tree=4, n_fold=2, seed=1))

    def test_uncertified_npmle_warns_once(self, sim, monkeypatch):
        # a one-step budget leaves the marginal and some leaf NPMLEs uncertified
        monkeypatch.setattr(forest_mod, "npmle_fit", functools.partial(npmle_fit, max_iter=1))
        monkeypatch.setattr(tree_mod, "npmle_batch", functools.partial(npmle_batch, max_iter=1))
        with pytest.warns(NpmleWarning) as record:
            fit(sim.dataset, ForestParams(n_tree=4, n_fold=2, seed=1))
        messages = [str(w.message) for w in record if issubclass(w.category, NpmleWarning)]
        assert len(messages) == 1
        assert re.match(r"1 of 1 marginal and [1-9]\d* of \d+ leaf NPMLE fits", messages[0])

    def test_insufficient_data(self, sim):
        ds = sim.dataset
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
        # values that give no finite bandwidth > 0
        lambda: TreeParams(n_min=0),
        lambda: ForestParams(c_override=-1.0),
        lambda: ForestParams(c_override=np.nan),
        lambda: ForestParams(c_override=np.inf),
        # a seed numpy's SeedSequence would reject with a bare ValueError
        lambda: ForestParams(seed=-1),
        lambda: ForestParams(seed=1.5),
    ], ids=["monitor_metric", "update_curves", "prediction", "n_min_0", "c_override_negative",
            "c_override_nan", "c_override_inf", "seed_negative", "seed_fraction"])
    def test_unknown_option_value_rejected(self, make):
        with pytest.raises(InsufficientData):
            make()

    @pytest.mark.parametrize("call", [
        lambda m, data: _monitor_error("imse3", np.ones((data.n, 3)), data.lefts, data.rights,
                                       data.tau, monitor_grid(data.tau)[:3]),
        lambda m, data: variable_importance(m, data, n_perm=1, metric="imse3"),
    ], ids=["oob_error", "variable_importance"])
    def test_unknown_metric_rejected(self, model, sim, call):
        with pytest.raises(InsufficientData):
            call(model, sim.dataset)

    @pytest.mark.parametrize("width", [lambda X: X[:, :-1], lambda X: np.hstack((X, X))],
                             ids=["fewer", "more"])
    @pytest.mark.parametrize("call", [
        oob_error, functools.partial(variable_importance, n_perm=1),
    ], ids=["oob_error", "variable_importance"])
    def test_data_of_other_width_is_dimension_mismatch(self, model, sim, call, width):
        # fewer columns used to raise a bare IndexError, more were read as
        # their first p
        ds = sim.dataset
        X = width(ds.X)
        names = [f"x{j}" for j in range(X.shape[1])]
        with pytest.raises(DimensionMismatch, match="data has"):
            call(model, Dataset(ds.lefts, ds.rights, X, names, ds.tau))

    @pytest.mark.parametrize("n_perm", [0, -1])
    def test_importance_needs_a_permutation(self, model, sim, n_perm):
        # n_perm=0 used to return all-NaN importances
        with pytest.raises(InsufficientData, match="n_perm"):
            variable_importance(model, sim.dataset, n_perm=n_perm)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_importance_seed_is_a_non_negative_integer(self, model, sim, seed):
        # -1 used to end in numpy's bare ValueError from SeedSequence
        with pytest.raises(InsufficientData, match="seed"):
            variable_importance(model, sim.dataset, n_perm=1, seed=seed)

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
                base = smooth_curve(m.initial_marginal, m.h, m.tau)
                np.testing.assert_allclose(rows[0], base.eval(grid), rtol=0.0, atol=1e-12)
            else:
                assert np.array_equal(rows[0], m.initial_marginal.interpolate(grid))

    def test_fit_routes_each_tree_once(self, sim, monkeypatch):
        import icrf.smooth
        import icrf.tree

        def off_path(*args, **kwargs):
            raise AssertionError("called during fit")

        monkeypatch.setattr(icrf.smooth, "smooth_curve", off_path)
        monkeypatch.setattr(icrf.smooth.SmoothedSurvival, "eval", off_path)
        # trees are routed only through their batch's table, never one by one
        # nor again through their fold's; a tree is known by its fold and its
        # in-bag ids
        monkeypatch.setattr(icrf.tree.Tree, "apply", off_path)
        routed, real_apply = [], forest_mod.ForestFold.apply

        def apply(table, X):
            routed.extend((table.fold_index, tree.inbag_ids.tobytes(), X.shape[0])
                          for tree in table.trees)
            return real_apply(table, X)

        monkeypatch.setattr(forest_mod.ForestFold, "apply", apply)
        for metric in METRICS:
            routed.clear()
            m = fit(sim.dataset, ForestParams(n_tree=10, n_fold=2, seed=4, monitor_metric=metric))
            trees = [(f.fold_index, t.inbag_ids.tobytes(), sim.dataset.n)
                     for f in m.folds for t in f.trees]
            assert len(set(trees)) == 20 and sorted(routed) == sorted(trees)

    def test_exploitative_fit_smooths_each_monitor_interval_once(self, sim, monkeypatch):
        # one column table for the whole fit: across its two batches of trees
        # and its two folds, no monitor-grid column is computed twice, and the
        # second fold, on the same knot grid, needs fewer new columns
        mgrid = monitor_grid(sim.dataset.tau)
        fold, computed = [0], []
        real_batch, real_matrix = forest_mod._build_tree_batch, forest_mod.smoothed_values_matrix

        def batch(args):
            fold[0] = args[3]
            return real_batch(args)

        def matrix(locs, masses, h, grid):
            if np.array_equal(grid, mgrid):
                computed.extend((fold[0], loc.tobytes()) for loc in locs)
            return real_matrix(locs, masses, h, grid)

        monkeypatch.setattr(forest_mod, "_build_tree_batch", batch)
        monkeypatch.setattr(forest_mod, "smoothed_values_matrix", matrix)
        fit(sim.dataset, ForestParams(n_tree=10, n_fold=2, seed=4,
                                      tree=TreeParams(prediction="exploitative")))
        intervals = [key for _, key in computed]
        assert len(intervals) == len(set(intervals))
        per_fold = [sum(f == k for f, _ in computed) for k in (1, 2)]
        assert per_fold[1] < per_fold[0]

    def test_imse2_monitoring(self, sim):
        m = fit(sim.dataset, ForestParams(n_tree=6, n_fold=2, seed=6,
                                          monitor_metric="imse2"))
        assert np.all(np.isfinite(m.oob_errors))

    @pytest.mark.parametrize("prediction", ["quasi_honest", "exploitative"])
    def test_huge_finite_right_end_fits_without_warning(self, sim, prediction):
        # a right end of 1e308 puts a knot there; interpolating beyond a
        # segment's end used to overflow, with a RuntimeWarning
        d = sim.dataset
        rights = np.array(d.rights)
        rights[np.flatnonzero(np.isfinite(rights))[0]] = 1e308
        data = Dataset(d.lefts, rights, d.X, d.feature_names, d.tau)
        grid = np.linspace(0.0, d.tau, 21)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = fit(data, ForestParams(n_tree=3, n_fold=2, seed=1,
                                       tree=TreeParams(prediction=prediction)))
            for smoothed in (True, False):
                vals = predict(m, d.X, grid, smoothed=smoothed)
                assert np.all(np.isfinite(vals)) and np.all((vals >= 0.0) & (vals <= 1.0))
                assert np.all(np.diff(vals, axis=1) <= 1e-9)


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

    @pytest.mark.parametrize("smoothed", [True, False], ids=["smoothed", "raw"])
    def test_nonfinite_grid_rejected(self, sim, model, smoothed):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvariantViolation):
                predict(model, sim.dataset.X[:2], [0.0, bad, 1.0], smoothed=smoothed)

    def test_fold_average_identity(self, sim, model):
        # forest prediction is the mean of per-tree leaf curves
        grid = np.linspace(0, 5, 26)
        fold = model.folds[model.k_opt - 1]
        x = sim.dataset.X[3]
        rows = [np.asarray(tree_predict(t, x).interpolate(grid)) for t in fold.trees]
        want = np.mean(rows, axis=0)
        got = predict(model, x[None, :], grid, smoothed=False)[0]
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.fixture(scope="module")
def leaf_kind_models(sim):
    return {kind: fit(sim.dataset, ForestParams(n_tree=4, n_fold=2, seed=3,
                                                tree=TreeParams(prediction=kind)))
            for kind in ("quasi_honest", "exploitative")}


def all_leaves_prediction(model, X, grid, smoothed):
    """Reference: every leaf's row of the k_opt fold computed, then routed."""
    fold = model.folds[model.k_opt - 1]
    h = model.h if smoothed else None
    trees = fold.trees
    rows = [forest_mod._leaf_rows(t.store, grid, h) for t in trees]
    return sum(r[t.apply(X)] for t, r in zip(trees, rows)) / len(trees)


@pytest.mark.parametrize("smoothed", [True, False], ids=["smoothed", "raw"])
@pytest.mark.parametrize("kind", ["quasi_honest", "exploitative"])
class TestBatchIndependence:
    """A query's row depends on the leaves it reaches, not on the other
    queries of the call."""

    def test_each_row_equals_its_single_query_call(self, sim, leaf_kind_models, kind, smoothed):
        m = leaf_kind_models[kind]
        grid = np.linspace(0.0, 5.0, 41)
        X = sim.dataset.X
        got = predict(m, X, grid, smoothed=smoothed)
        for i in range(X.shape[0]):
            assert np.array_equal(got[i], predict(m, X[i:i + 1], grid, smoothed=smoothed)[0])
        np.testing.assert_allclose(got, all_leaves_prediction(m, X, grid, smoothed),
                                   rtol=0.0, atol=1e-12)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_subset_in_any_order(self, sim, leaf_kind_models, kind, smoothed, data):
        m = leaf_kind_models[kind]
        grid = np.linspace(0.0, 5.0, 23)
        X = sim.dataset.X
        idx = np.asarray(data.draw(st.lists(st.integers(0, X.shape[0] - 1), max_size=12)),
                         dtype=int)
        full = predict(m, X, grid, smoothed=smoothed)
        assert np.array_equal(predict(m, X[idx], grid, smoothed=smoothed), full[idx])

    def test_zero_queries(self, sim, leaf_kind_models, kind, smoothed):
        grid = np.linspace(0.0, 5.0, 17)
        out = predict(leaf_kind_models[kind], sim.dataset.X[:0], grid, smoothed=smoothed)
        assert out.shape == (0, grid.size)


def test_predict_smooths_a_column_shared_by_two_trees_once(sim, leaf_kind_models, monkeypatch):
    m = leaf_kind_models["exploitative"]
    X, grid = sim.dataset.X[:3], np.linspace(0.0, 5.0, 41)
    computed = []
    real = forest_mod.smoothed_values_matrix

    def spy(locs, masses, h, grid):
        computed.extend(loc.tobytes() for loc in locs)
        return real(locs, masses, h, grid)

    monkeypatch.setattr(forest_mod, "smoothed_values_matrix", spy)
    predict(m, X, grid)
    in_call = list(computed)
    computed.clear()
    for tree in m.folds[m.k_opt - 1].trees:  # each tree on its own
        forest_mod._routed_rows(tree, tree.apply(X), grid, m.h)
    assert len(in_call) == len(set(in_call)) == len(set(computed)) < len(computed)


@pytest.mark.parametrize("smoothed", [True, False], ids=["smoothed", "raw"])
@pytest.mark.parametrize("kind", ["quasi_honest", "exploitative"])
class TestFoldLevelPredict:
    """predict routes all of a fold's trees at once and reads every reached
    leaf together; its answers are those of the loop over trees, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_per_tree_loop(self, sim, leaf_kind_models, kind, smoothed, data):
        m = leaf_kind_models[kind]
        X = sim.dataset.X
        idx = np.asarray(data.draw(st.lists(st.integers(0, X.shape[0] - 1), max_size=20)),
                         dtype=int)
        fold = data.draw(st.integers(1, len(m.folds)))
        grid = np.linspace(0.0, 5.0, data.draw(st.integers(1, 41)))
        for Q in (X[idx], X[:0]):
            assert np.array_equal(predict(m, Q, grid, fold=fold, smoothed=smoothed),
                                  predict_per_tree(m, Q, grid, fold=fold, smoothed=smoothed))

    @pytest.mark.parametrize("leaves_per_group", [1, 3, 0])
    def test_gather_budget_leaves_bits_unchanged(self, sim, leaf_kind_models, kind, smoothed,
                                                 leaves_per_group, monkeypatch):
        # groups of one leaf, groups that end inside a tree's reached leaves,
        # and a budget below one row, which still takes one leaf at a time
        m = leaf_kind_models[kind]
        X, grid = sim.dataset.X, np.linspace(0.0, 5.0, 41)
        want = predict(m, X, grid, smoothed=smoothed)
        budget = leaves_per_group * grid.size or 1
        sizes, real = [], forest_mod._leaf_rows

        def spy(store, grid, h, idx=None, columns=None):
            sizes.append(idx.size * grid.size)
            return real(store, grid, h, idx, columns)

        monkeypatch.setattr(forest_mod, "GATHER_BUDGET", budget)
        monkeypatch.setattr(forest_mod, "_leaf_rows", spy)
        assert np.array_equal(predict(m, X, grid, smoothed=smoothed), want)
        assert len(sizes) > len(m.folds[m.k_opt - 1].trees)
        assert max(sizes) <= max(budget, grid.size)

    @pytest.mark.parametrize("queries_per_block", [1, 7])
    def test_query_blocks_leave_bits_unchanged(self, sim, leaf_kind_models, kind, smoothed,
                                               queries_per_block, monkeypatch):
        # each tree's rows added a block of queries at a time, blocks that end
        # inside the queries among them, give each query the rows it gets at once
        m = leaf_kind_models[kind]
        X, grid = sim.dataset.X, np.linspace(0.0, 5.0, 41)
        want = predict(m, X, grid, smoothed=smoothed)
        monkeypatch.setattr(forest_mod, "QUERY_BLOCK", queries_per_block * grid.size)
        assert np.array_equal(predict(m, X, grid, smoothed=smoothed), want)

    def test_one_query_is_one_gather(self, sim, leaf_kind_models, kind, smoothed, monkeypatch):
        m = leaf_kind_models[kind]
        calls, real = [], forest_mod._leaf_rows

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(forest_mod, "_leaf_rows", spy)
        predict(m, sim.dataset.X[:1], np.linspace(0.0, 5.0, 41), smoothed=smoothed)
        assert len(calls) == 1


def test_fold_routing_equals_each_tree_apply(sim, leaf_kind_models):
    for m in leaf_kind_models.values():
        for fold in m.folds:
            for X in (sim.dataset.X, sim.dataset.X[:1], sim.dataset.X[:0]):
                leaf_of = fold.apply(X)
                assert leaf_of.shape == (fold.n_trees, X.shape[0])
                for t, tree in enumerate(fold.trees):
                    want = route_loop(tree, X)
                    assert np.array_equal(tree.apply(X), want)
                    assert np.array_equal(leaf_of[t] - fold.leaf_start[t], want)


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(st.sampled_from(["quasi_honest", "exploitative"]), st.integers(1, 10),
       st.integers(0, 2**16))
@example("quasi_honest", 10, 1)
@example("exploitative", 9, 2)
def test_fold_table_routes_as_each_tree(prediction, n_tree, seed):
    # up to 10 trees, so a fold may join two batches' tables; the fitted
    # and the loaded fold alike route as each tree on its own, and the file
    # is the fold's trees' own arrays
    sim = generate(Scenario(id=5, n=60, M=1, seed=seed))
    X = sim.dataset.X
    model = fit(sim.dataset, ForestParams(n_tree=n_tree, n_fold=2, seed=seed,
                                          tree=TreeParams(prediction=prediction)))
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.bin"), os.path.join(d, "b.bin")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    for m in (model, loaded):
        for fold in m.folds:
            leaf_of = fold.apply(X)
            trees = fold.trees
            assert len(trees) == fold.n_trees == n_tree
            for t, tree in enumerate(trees):
                assert np.array_equal(leaf_of[t] - fold.leaf_start[t], route_loop(tree, X))
                assert np.array_equal(
                    np.sort(tree.store.members), tree.inbag_ids)


@pytest.mark.parametrize("budget", [None, 1], ids=["default_budget", "one_leaf_groups"])
@pytest.mark.parametrize("prediction", ["quasi_honest", "exploitative"])
def test_tree_batch_equals_tree_loop(sim, prediction, budget, monkeypatch):
    # a fit's batches of trees (two per fold: 8 trees and 2), read through
    # one routing table, against the loop that routes and reads each tree
    # on its own, bit for bit; the last fold's batches carry no sums
    jobs, real = [], forest_mod._build_tree_batch

    def spy(args):
        jobs.append(args)
        return real(args)

    monkeypatch.setattr(forest_mod, "_build_tree_batch", spy)
    for metric in METRICS:
        for update in UPDATE_MODES:
            fit(sim.dataset, ForestParams(n_tree=10, n_fold=2, seed=5, monitor_metric=metric,
                                          update_curves=update,
                                          tree=TreeParams(prediction=prediction)))
    assert len(jobs) == 16
    if budget is not None:
        monkeypatch.setattr(forest_mod, "GATHER_BUDGET", budget)
    for args in jobs:
        args = args[:8] + ({},) + args[9:]
        got, want = real(args), tree_batch_loop(args)
        table = got[0]
        assert table.fold_index == args[3]
        assert table.n_trees == len(table.trees) == len(want[0]) == len(args[4])
        same = functools.partial(np.array_equal, equal_nan=True)
        for a, b in zip(table.trees, want[0]):
            for name in ("feature", "cutoff", "left", "right", "leaf_idx", "inbag_ids"):
                assert same(getattr(a, name), getattr(b, name))
            for name in ("times", "values", "offsets", "rates", "members", "member_offsets"):
                assert same(getattr(a.store, name), getattr(b.store, name))
        assert same(table.per_tree_oob, want[1])
        # of two folds, the first carries its sums into the second; the
        # sums (all, OOB-only, OOB counts) are None where no fold reads them
        carry, oob_mode = args[11], args[10] == "oob"
        assert carry == (args[3] == 1)
        for j, (g, w) in enumerate(zip(got[1:4], want[2:5])):
            if carry and (j == 0 or oob_mode):
                assert same(g, w)
            else:
                assert g is None and w is None
        assert got[4] == want[5]


@pytest.mark.parametrize("update", UPDATE_MODES)
@pytest.mark.parametrize("n_fold", [1, 3])
def test_last_fold_builds_no_carried_sums(sim, n_fold, update, monkeypatch):
    # carried sums feed the next fold only: each batch of folds 1..K-1 adds
    # its rows once (and once more over its OOB subjects in "oob" mode), and
    # the last fold's batches add none
    fold, calls = [None], []
    real_batch, real_sum = forest_mod._build_tree_batch, forest_mod._tree_sum

    def batch(args):
        fold[0] = args[3]
        return real_batch(args)

    def tree_sum(*args, **kwargs):
        calls.append(fold[0])
        return real_sum(*args, **kwargs)

    monkeypatch.setattr(forest_mod, "_build_tree_batch", batch)
    monkeypatch.setattr(forest_mod, "_tree_sum", tree_sum)
    fit(sim.dataset, ForestParams(n_tree=10, n_fold=n_fold, seed=5, update_curves=update))
    per_batch = 2 if update == "oob" else 1
    assert calls == [k for k in range(1, n_fold) for _ in range(2 * per_batch)]


def test_gather_budget_leaves_importance_unchanged(sim, model, monkeypatch):
    want = variable_importance(model, sim.dataset, n_perm=1, seed=3).raw
    monkeypatch.setattr(forest_mod, "GATHER_BUDGET", 1)
    assert np.array_equal(variable_importance(model, sim.dataset, n_perm=1, seed=3).raw, want)


def test_load_model_builds_no_routing_table(sim, model, tmp_path):
    # a loaded fold is its own routing table: predicting, recomputing OOB
    # errors and importance leave it the arrays load_model filled, which its
    # trees' views share, so no second copy of the curves exists
    path = tmp_path / "m.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    filled = [(vars(f).copy(), f.store.times, f.store.values) for f in loaded.folds]
    predict(loaded, sim.dataset.X[:2], np.linspace(0.0, 5.0, 11))
    predict(loaded, sim.dataset.X[:2], np.linspace(0.0, 5.0, 11), smoothed=False)
    for k in range(1, len(loaded.folds) + 1):
        oob_error(loaded, sim.dataset, fold=k)
    variable_importance(loaded, sim.dataset, n_perm=1)
    for fold, (fields, times, values) in zip(loaded.folds, filled):
        assert vars(fold).keys() == fields.keys()
        assert all(vars(fold)[name] is value for name, value in fields.items())
        assert fold.store.times is times and fold.store.values is values
        for tree in fold.trees:
            assert np.shares_memory(tree.store.times, times)
            assert np.shares_memory(tree.store.values, values)


def test_one_worker_pool_per_fit(sim, monkeypatch):
    import concurrent.futures

    pools = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    fit(sim.dataset, ForestParams(n_tree=10, n_fold=3, seed=9, n_jobs=2))
    assert len(pools) == 1
    fit(sim.dataset, ForestParams(n_tree=10, n_fold=3, seed=9, n_jobs=1))
    assert len(pools) == 1


class TestImportance:
    def test_rescaled_max_and_multiplier(self, sim, model):
        res = variable_importance(model, sim.dataset, n_perm=3, seed=1)
        assert np.isclose(res.rescaled.max(), 1.0)
        assert np.isclose(res.multiplier, res.raw.max())

    def test_constant_feature_importance_zero(self, sim):
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

    def test_manifest_dtype_names_are_numpys(self):
        # save_model names each dtype it writes from a table, not str(dtype)
        assert set(DTYPE_NAMES) == set(TREE_ARRAYS.values())
        for dtype, name in DTYPE_NAMES.items():
            assert str(np.dtype(dtype)) == name

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
