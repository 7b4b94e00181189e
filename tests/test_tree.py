"""Tree growth on a fold context, leaf curves, and routing."""

import copy
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icrf
from icrf import (Dataset, ForestFold, ForestParams, IcrfModel, StepSurvival, SplitRule,
                  TreeParams, predict)
from icrf.dataio import encode_exact
from icrf.exceptions import DimensionMismatch, InsufficientData
from icrf import forest as forest_mod
from icrf import tree as tree_mod
from icrf.tree import EXPLOITATIVE, QUASI_HONEST, fold_context, grow_tree_ctx

from _oracles import curve_context, grow_tree_copying, random_step_curve, terminal_curve

TAU = 5.0


def exact_curve(t: float) -> StepSurvival:
    left, right = encode_exact(t)
    return StepSurvival([left, right], [1.0, 0.0])


def exact_dataset(times, X) -> Dataset:
    pairs = [encode_exact(t) for t in times]
    X = np.atleast_2d(np.asarray(X, dtype=float))
    names = [f"x{j + 1}" for j in range(X.shape[1])]
    return Dataset(
        lefts=np.asarray([p[0] for p in pairs]),
        rights=np.asarray([p[1] for p in pairs]),
        X=X,
        feature_names=names,
        tau=TAU,
    )


def curves_for(times):
    return [exact_curve(t) for t in times]


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def grow_tree(data, carried, cov_curves, inbag, params, rng):
    """Grow a tree on the fold context of explicit curve lists."""
    ctx = curve_context(data, carried, cov_curves)
    return grow_tree_ctx(ctx, np.asarray(inbag, dtype=np.int64), params, rng)


def one_leaf(ctx, prediction) -> StepSurvival:
    """The curve of the single leaf a tree grows on every subject of ``ctx``,
    whose covariates are constant, so that no split is valid."""
    params = TreeParams(n_min=1, prediction=prediction)
    tree = grow_tree_ctx(ctx, np.arange(ctx.n), params, seeded(0))
    assert tree.n_leaves == 1
    return tree.leaves[0].curve


def quasi_honest_leaf(lefts, rights):
    """The quasi-honest leaf curve of subjects with these intervals."""
    n = len(lefts)
    data = Dataset(lefts, rights, np.zeros((n, 1)), ["x1"], TAU)
    return one_leaf(curve_context(data, [StepSurvival([], [])] * n), QUASI_HONEST)


def exploitative_leaf(curves):
    """The exploitative leaf curve of subjects carrying these curves."""
    n = len(curves)
    data = exact_dataset(np.ones(n), np.zeros((n, 1)))
    return one_leaf(curve_context(data, curves), EXPLOITATIVE)


def tree_predict(tree, x) -> StepSurvival:
    """The step curve of the leaf that the single row x routes to."""
    return tree.leaves[int(tree.apply(x[None, :])[0])].curve


class TestGrowth:
    def test_min_size_gives_single_leaf(self):
        times = np.linspace(1.0, 2.0, 6)
        data = exact_dataset(times, np.arange(6.0)[:, None])
        tree = grow_tree(
            data, curves_for(times), curves_for(times),
            np.arange(6), TreeParams(), seeded(1),
        )
        assert tree.n_leaves == 1
        assert tree.leaves[0].member_ids.size == 6

    def test_perfect_binary_separation(self):
        times = np.concatenate([np.full(20, 1.0), np.full(20, 4.0)])
        # jitter so exact encodings stay distinct
        times = times + np.linspace(0, 1e-3, 40)
        X = np.concatenate([np.zeros(20), np.ones(20)])[:, None]
        data = exact_dataset(times, X)
        curves = curves_for(times)
        for seed in range(50):
            tree = grow_tree(
                data, curves, curves, np.arange(40),
                TreeParams(mtry=1), seeded(seed),
            )
            leaves = tree.apply(X)
            # realized split separates the two clusters
            assert len(set(leaves[:20])) >= 1
            for leaf in tree.leaves:
                cluster = X[leaf.member_ids, 0]
                assert np.all(cluster == cluster[0])

    def test_constant_features_single_leaf(self):
        times = np.linspace(1.0, 2.0, 20)
        data = exact_dataset(times, np.ones((20, 3)))
        curves = curves_for(times)
        tree = grow_tree(data, curves, curves, np.arange(20),
                         TreeParams(), seeded(3))
        assert tree.n_leaves == 1

    def test_insufficient_data(self):
        times = np.array([1.0, 2.0])
        data = exact_dataset(times, np.arange(2.0)[:, None])
        curves = curves_for(times)
        with pytest.raises(InsufficientData):
            grow_tree(data, curves, curves, np.arange(2),
                      TreeParams(n_min=6), seeded(0))

    def test_partition_property(self):
        rng = np.random.default_rng(31)
        times = rng.uniform(0.5, 4.5, size=60)
        X = rng.normal(size=(60, 4))
        data = exact_dataset(times, X)
        curves = curves_for(times)
        tree = grow_tree(data, curves, curves, np.arange(60),
                         TreeParams(), seeded(5))
        # every subject reaches exactly one leaf, and membership matches
        leaf_of = tree.apply(X)
        sizes = np.bincount(leaf_of, minlength=tree.n_leaves)
        assert sizes.sum() == 60
        for j, leaf in enumerate(tree.leaves):
            np.testing.assert_array_equal(np.sort(leaf.member_ids),
                                          np.sort(np.nonzero(leaf_of == j)[0]))
            assert leaf.member_ids.size >= 6

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(32)
        times = rng.uniform(0.5, 4.5, size=50)
        X = rng.normal(size=(50, 5))
        data = exact_dataset(times, X)
        curves = curves_for(times)
        t1 = grow_tree(data, curves, curves, np.arange(50),
                       TreeParams(), seeded(7))
        t2 = grow_tree(data, curves, curves, np.arange(50),
                       TreeParams(), seeded(7))
        np.testing.assert_array_equal(t1.feature, t2.feature)
        np.testing.assert_array_equal(t1.cutoff, t2.cutoff)

    @pytest.mark.parametrize("rule", ["SWRS", "SLR"])
    def test_one_score_for_all_subjects_gives_one_leaf(self, rule):
        # every subject carries the same inexact score, so the group means
        # differ by rounding residue alone, which must not split the node
        n = 200
        rng = seeded(5)
        lefts = rng.uniform(0.0, 3.0, n)
        data = Dataset(lefts, lefts + rng.uniform(0.1, 2.0, n), rng.uniform(size=(n, 3)),
                       ["x1", "x2", "x3"], TAU)
        grid = np.linspace(0.05, TAU, 100)
        ctx = fold_context(data, grid, np.tile(np.linspace(1.0, 0.0, 100), (n, 1)),
                           np.full(n, 0.7), np.full(n, 0.1))
        tree = grow_tree_ctx(ctx, np.arange(n), TreeParams(rule=SplitRule(rule)), seeded(1))
        assert tree.n_leaves == 1

    def test_all_rules_grow(self):
        rng = np.random.default_rng(33)
        times = rng.uniform(0.5, 4.5, size=40)
        X = rng.normal(size=(40, 3))
        data = exact_dataset(times, X)
        curves = curves_for(times)
        for kind in ("GWRS", "GLR", "SWRS", "SLR"):
            tree = grow_tree(
                data, curves, curves, np.arange(40),
                TreeParams(rule=SplitRule(kind)), seeded(11),
            )
            assert tree.n_leaves >= 1


class TestTerminalPrediction:
    def test_quasi_honest_exact_members(self):
        times = np.array([1.0, 2.0, 3.0])
        pairs = [encode_exact(t) for t in times]
        curve = quasi_honest_leaf([p[0] for p in pairs], [p[1] for p in pairs])
        np.testing.assert_allclose(
            [curve.eval(t) for t in times], [2 / 3, 1 / 3, 0.0], atol=1e-12
        )

    def test_quasi_honest_single_member(self):
        curve = quasi_honest_leaf([1.0], [2.0])
        assert curve.eval(1.0) == 1.0 and curve.eval(2.0) == 0.0

    def test_quasi_honest_two_members(self):
        curve = quasi_honest_leaf([1.0, 1.5], [2.0, 3.0])
        assert curve.eval(1.5) == 1.0
        assert curve.eval(2.0) == 0.0

    def test_exploitative_single_member(self):
        c = exact_curve(2.0)
        out = exploitative_leaf([c])
        np.testing.assert_allclose(out.eval([1.0, 2.0, 3.0]), c.eval([1.0, 2.0, 3.0]))

    def test_exploitative_mean(self):
        a = StepSurvival([1.0], [0.0])
        b = StepSurvival([3.0], [0.0])
        out = exploitative_leaf([a, b])
        assert out.eval(2.0) == 0.5

    def test_exploitative_knotwise_mean(self):
        rng = np.random.default_rng(34)
        curves = [random_step_curve(rng) for _ in range(4)]
        out = exploitative_leaf(curves)
        knots = np.unique(np.concatenate([c.times for c in curves]))
        want = np.mean([np.asarray(c.eval(knots)) for c in curves], axis=0)
        np.testing.assert_allclose(np.asarray(out.eval(knots)), want, atol=1e-14)


class TestRouting:
    def _two_leaf_tree(self):
        times = np.concatenate([np.linspace(1, 1.2, 10), np.linspace(3.8, 4, 10)])
        X = np.concatenate([np.zeros(10), np.ones(10)])[:, None]
        data = exact_dataset(times, X)
        curves = curves_for(times)
        return grow_tree(data, curves, curves, np.arange(20),
                         TreeParams(mtry=1), seeded(2)), data

    def test_single_leaf_returns_root_curve(self):
        times = np.linspace(1.0, 2.0, 6)
        data = exact_dataset(times, np.arange(6.0)[:, None])
        curves = curves_for(times)
        tree = grow_tree(data, curves, curves, np.arange(6),
                         TreeParams(), seeded(1))
        c1 = tree_predict(tree, np.array([-10.0]))
        c2 = tree_predict(tree, np.array([10.0]))
        assert c1 is c2

    def test_cutoff_ties_route_left(self):
        tree, _ = self._two_leaf_tree()
        assert tree.n_leaves == 2
        root_cut = tree.cutoff[0]
        at_cut = tree.apply(np.array([[root_cut]]))[0]
        below = tree.apply(np.array([[root_cut - 1e-9]]))[0]
        assert at_cut == below

    def test_two_sides_get_different_curves(self):
        tree, data = self._two_leaf_tree()
        c_lo = tree_predict(tree, np.array([0.0]))
        c_hi = tree_predict(tree, np.array([1.0]))
        assert c_lo.eval(2.0) != c_hi.eval(2.0)

    def test_dimension_mismatch(self):
        # the width check lives in predict, which routes queries to trees
        tree, data = self._two_leaf_tree()
        fold = ForestFold.of(1, [tree])
        model = IcrfModel(ForestParams(), ["x1"], TAU, 0.1, StepSurvival([], []), [fold], 1,
                          data.sha256())
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros((2, 2)), np.linspace(0.0, TAU, 11))


class TestLeafStore:
    """A tree's leaves, built together after growth, against each leaf's
    curve built on its own by the iterative Newton path (``terminal_curve``)."""

    @staticmethod
    def _tree(prediction, seed):
        data = icrf.generate(icrf.Scenario(2, n=300, seed=seed)).dataset
        rng = np.random.default_rng(seed)
        carried = [random_step_curve(rng, tau=data.tau) for _ in range(data.n)]
        ctx = curve_context(data, carried, carried)
        inbag = np.sort(rng.choice(data.n, size=285, replace=False))
        gaps = []
        tree = grow_tree_ctx(ctx, inbag, TreeParams(prediction=prediction), rng, gaps)
        return data, ctx, tree, gaps

    @pytest.mark.parametrize("prediction", [QUASI_HONEST, EXPLOITATIVE])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_leaves_match_terminal_curve(self, prediction, seed):
        _, ctx, tree, gaps = self._tree(prediction, seed)
        assert tree.n_leaves >= 5
        closed_forms = set()
        for leaf in tree.leaves:
            m = leaf.member_ids
            want = terminal_curve(ctx, m, prediction)
            got = leaf.curve
            assert got.tail_rate is None and want.tail_rate is None
            assert np.array_equal(got.times, want.times)
            capped = np.minimum(ctx.rights[m], ctx.support_bound)
            closed = (prediction == QUASI_HONEST
                      and icrf.turnbull_intervals(ctx.lefts[m], capped).n_intervals <= 2)
            closed_forms.add(closed)
            if closed:
                np.testing.assert_allclose(got.values, want.values, rtol=0.0, atol=1e-9)
            else:
                assert np.array_equal(got.values, want.values)
        if prediction == QUASI_HONEST:
            assert closed_forms == {True, False}  # closed-form and Newton leaves both checked
            assert len(gaps) == tree.n_leaves
            assert max(gaps) <= icrf.npmle.KKT_TOL
        else:
            assert gaps == []

    @pytest.mark.parametrize("prediction", [QUASI_HONEST, EXPLOITATIVE])
    def test_store_passes_load_checks(self, prediction):
        data, _, tree, _ = self._tree(prediction, 4)
        fold = ForestFold.of(1, [tree])
        model = IcrfModel(ForestParams(tree=TreeParams(prediction=prediction)),
                          list(data.feature_names), data.tau, 0.3, StepSurvival([1.0], [0.0]),
                          [fold], 1, data.sha256())
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.bin")
            icrf.save_model(model, path)
            again = icrf.load_model(path).folds[0].trees[0]
        for name in ("times", "values", "offsets", "rates", "members", "member_offsets"):
            assert np.array_equal(getattr(again.store, name), getattr(tree.store, name),
                                  equal_nan=True)
        assert np.array_equal(again.inbag_ids, tree.inbag_ids)


RULES = [("GWRS", "difference"), ("GLR", "difference"), ("GLR", "printed_sum"),
         ("SWRS", "difference"), ("SLR", "difference")]


def same_tree(a, b) -> bool:
    return (np.array_equal(a.feature, b.feature)
            and np.array_equal(a.cutoff, b.cutoff, equal_nan=True)
            and np.array_equal(a.store.members, b.store.members)
            and np.array_equal(a.store.member_offsets, b.store.member_offsets))


class TestCopyingOracle:
    """The grower, which copies no node's rows (inherited node totals,
    smaller-side sums, node terms, cut-offs drawn at once), grows the trees
    of the grower that copies each node's rows and scores candidates
    through the group means (``grow_tree_copying``): on every tree of a
    3 trees x 2 folds fit, later folds' carried curves included. Where
    they differ, the copying grower's two best candidates at the first
    node that differs tie within rounding."""

    @pytest.mark.parametrize("prediction", [QUASI_HONEST, EXPLOITATIVE])
    @pytest.mark.parametrize("rule, sign", RULES)
    @pytest.mark.parametrize("scenario, n", [(1, 120), (5, 300)])
    def test_same_trees_or_a_tie(self, monkeypatch, scenario, n, rule, sign, prediction):
        pairs = []

        def both(ctx, inbag, tparams, rng, npmle_gaps=None):
            log = []
            oracle = grow_tree_copying(ctx, inbag, tparams, copy.deepcopy(rng), log)
            tree = grow_tree_ctx(ctx, inbag, tparams, rng, npmle_gaps)
            pairs.append((oracle, tree, log))
            return tree

        monkeypatch.setattr(forest_mod, "grow_tree_ctx", both)
        data = icrf.generate(icrf.Scenario(scenario, n=n, M=3, seed=n)).dataset
        icrf.fit(data, ForestParams(n_tree=3, n_fold=2, seed=1, tree=TreeParams(
            rule=SplitRule(rule, glr_sign=sign), prediction=prediction)))
        assert len(pairs) == 6
        for oracle, tree, log in pairs:
            assert oracle.feature.size > 1
            if same_tree(oracle, tree):
                continue
            # the first node grown that splits differently
            node_id, scores = next(
                (i, s) for i, s in log
                if i >= tree.feature.size or tree.feature[i] != oracle.feature[i]
                or not np.array_equal(tree.cutoff[i], oracle.cutoff[i], equal_nan=True))
            top = sorted(scores, reverse=True)[:2]
            assert len(top) == 2 and top[0] - top[1] <= 1e-12 * top[0], (node_id, top)


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(seed=st.integers(0, 2**63 - 1))
def test_cutoffs_are_successive_uniform_draws(seed):
    # a node's cut-offs, drawn in one call, are the values of one
    # rng.uniform(lo, hi) per non-constant feature in turn, and leave the
    # generator as those calls do; a numpy change that broke this would
    # silently change every tree
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 12))
    lo = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=k)
    hi = lo + rng.exponential(size=k) * 10.0 ** rng.uniform(-8, 3, size=k)
    constant = rng.uniform(size=k) < 0.3
    hi[constant] = lo[constant]
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn, cuts = tree_mod._cutoffs(a, lo, hi)
    want = [b.uniform(lo[i], hi[i]) for i in range(k) if lo[i] < hi[i]]
    assert np.array_equal(drawn, np.flatnonzero(~constant & (lo < hi)))
    assert np.array_equal(cuts, np.asarray(want, dtype=float))
    assert a.random() == b.random()
