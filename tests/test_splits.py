"""The four two-sample splitting statistics and the score mapping.

GWRS and GLR are computed by ``gwrs_from_sums``/``glr_from_sums`` from
group totals of the curves read on their pooled knots, SWRS and SLR by
``swrs_scores``/``slr_scores`` from endpoint values read by the fold's
reader, and split scores by ``tree._node_score``, as the tree grower does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icrf import Dataset, SplitRule, StepSurvival, TreeParams
from icrf.curves import endpoint_values_on_grid
from icrf.dataio import encode_exact
from icrf.exceptions import InsufficientData
from icrf.splits import GLR, SWRS, glr_from_sums, gwrs_from_sums, slr_scores, swrs_scores
from icrf import tree as tree_mod

from _oracles import (
    curve_context,
    gwrs_pairwise,
    logrank_scaled,
    random_step_curve,
    read_on_knots,
    wilcoxon_theta,
)

TAU = 5.0


def exact_curve(t: float) -> StepSurvival:
    left, right = encode_exact(t)
    return StepSurvival([left, right], [1.0, 0.0])


def exact_curves(times) -> list:
    return [exact_curve(t) for t in times]


def group_sums(c1, c2, tau=TAU):
    """Group totals and sizes of two curve lists on their pooled knots."""
    _, (v1, v2) = read_on_knots([c1, c2], tau)
    return v1.sum(axis=0), len(c1), v2.sum(axis=0), len(c2)


def gwrs_of(c1, c2, tau=TAU) -> float:
    return gwrs_from_sums(*group_sums(c1, c2, tau))


def glr_of(c1, c2, sign=SplitRule.glr_sign) -> float:
    return glr_from_sums(*group_sums(c1, c2), sign=sign)


def score_difference(score, cov, lefts, rights, n1) -> float:
    """Mean endpoint score of the first n1 subjects minus that of the
    rest; S(L_i), S(R_i) are read off subject i's covariate-conditional
    curve ``cov[i]`` on the pooled knots."""
    grid, (rows,) = read_on_knots([cov], TAU)
    s = score(*endpoint_values_on_grid(rows, lefts, rights, grid))
    return float(s[:n1].mean() - s[n1:].mean())


def node_score(kind: str, t1, t2) -> float:
    """``tree._node_score`` of the partition t1 | t2 of a node whose
    subjects are observed exactly at t1 then t2, their carried and
    covariate-conditional curves being the exact curves."""
    times = np.concatenate([t1, t2])
    curves = exact_curves(times)
    n1 = len(t1)
    mask = np.concatenate([np.ones(n1), np.zeros(len(t2))])
    grid, (values,) = read_on_knots([curves], TAU)
    if kind in ("GWRS", "GLR"):
        rows = values
    else:
        lefts, rights = np.asarray([encode_exact(t) for t in times]).T
        s_l, s_r = endpoint_values_on_grid(values, lefts, rights, grid)
        rows = (swrs_scores if kind == SWRS else slr_scores)(s_l, s_r)
    return tree_mod._node_score(SplitRule(kind), tree_mod._node_arrays(kind, rows), mask,
                                (n1, len(t2)))


class TestGwrs:
    def test_separated_point_masses(self):
        assert np.isclose(gwrs_of(exact_curves([1.0]), exact_curves([2.0])), 1.0)

    def test_pure_tie(self):
        assert np.isclose(gwrs_of(exact_curves([1.0]), exact_curves([1.0])), 0.5)

    def test_matches_classical_wilcoxon(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            t1 = rng.uniform(0.2, 4.5, size=rng.integers(2, 9))
            t2 = rng.uniform(0.2, 4.5, size=rng.integers(2, 9))
            if rng.uniform() < 0.3:  # force some ties
                t2[0] = t1[0]
            w = gwrs_of(exact_curves(t1), exact_curves(t2))
            assert abs(w - wilcoxon_theta(t1, t2)) < 1e-12

    def test_pairwise_form_agrees_with_mean_form(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            c1 = [random_step_curve(rng) for _ in range(int(rng.integers(1, 6)))]
            c2 = [random_step_curve(rng) for _ in range(int(rng.integers(1, 6)))]
            _, (v1, v2) = read_on_knots([c1, c2], TAU)
            assert abs(gwrs_of(c1, c2) - gwrs_pairwise(v1, v2)) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            c1 = [random_step_curve(rng) for _ in range(3)]
            c2 = [random_step_curve(rng) for _ in range(3)]
            w = gwrs_of(c1, c2)
            assert -1e-12 <= w <= 1.0 + 1e-12

    def test_empty_group(self, monkeypatch):
        # a candidate cut that leaves a side below n_min (an empty side
        # included) is never scored: the only cut here leaves one subject
        # on the right, so the node stays a leaf
        def scored(*args):
            raise AssertionError("an invalid partition was scored")

        monkeypatch.setattr(tree_mod, "_node_score", scored)
        times = np.linspace(1.0, 2.0, 12)
        X = np.concatenate([np.zeros(11), np.ones(1)])[:, None]
        lefts, rights = np.asarray([encode_exact(t) for t in times]).T
        data = Dataset(lefts, rights, X, ["x1"], TAU)
        curves = exact_curves(times)
        tree = tree_mod.grow_tree_ctx(curve_context(data, curves, curves), np.arange(12),
                                      TreeParams(n_min=6), np.random.default_rng(0))
        assert tree.n_leaves == 1


KNOT_POOL = np.arange(1, 13) * 0.4  # shared by every drawn curve, so knots tie


@st.composite
def step_curves(draw):
    """A step curve on knots from KNOT_POOL: some drops zero, some curves
    empty, defective or with an exponential tail."""
    picks = draw(st.lists(st.integers(0, KNOT_POOL.size - 1), max_size=6, unique=True))
    times = KNOT_POOL[np.sort(np.asarray(picks, dtype=int))]
    drops = np.asarray([draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))) for _ in times])
    rest = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    total = drops.sum() + rest
    values = 1.0 - np.cumsum(drops) / total if total > 0.0 else np.ones(times.size)
    tail = draw(st.one_of(st.none(), st.floats(0.1, 3.0)))
    return StepSurvival(times, np.maximum(values, 0.0), tail_rate=tail)


@st.composite
def curve_groups(draw):
    """Two non-empty groups; with probability about one half the second
    group repeats curves of the first, so whole curves tie too."""
    g1 = draw(st.lists(step_curves(), min_size=1, max_size=5))
    g2 = draw(st.lists(step_curves(), min_size=1, max_size=5))
    shared = draw(st.lists(st.sampled_from(g1), max_size=3))
    return g1, g2 + shared, draw(st.sampled_from([2.0, TAU, 10.0]))


class TestGwrsProperty:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(curve_groups())
    def test_equals_pairwise_oracle(self, groups):
        c1, c2, tau = groups
        _, (v1, v2) = read_on_knots([c1, c2], tau)
        want = gwrs_pairwise(v1, v2)
        got = gwrs_of(c1, c2, tau)
        assert abs(got - want) <= 1e-12


class TestGlr:
    def test_identical_groups_zero(self):
        c = exact_curves([1.0, 2.0, 3.0])
        assert abs(glr_of(c, c)) < 1e-12

    def test_uncensored_reduction_to_logrank(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            t1 = rng.uniform(0.2, 4.5, size=rng.integers(2, 9))
            t2 = rng.uniform(0.2, 4.5, size=rng.integers(2, 9))
            stat = glr_of(exact_curves(t1), exact_curves(t2))
            assert abs(stat - logrank_scaled(t1, t2)) < 1e-10

    def test_single_subject_hand_stieltjes(self):
        # G1 exact at 1, G2 exact at 2: numerator 1, denominator 1/2
        stat = glr_of(exact_curves([1.0]), exact_curves([2.0]))
        assert np.isclose(stat, 2.0, atol=1e-12)

    def test_printed_sum_differs(self):
        t1 = [1.0, 2.0]
        t2 = [1.5, 3.0]
        d = glr_of(exact_curves(t1), exact_curves(t2), sign="difference")
        s = glr_of(exact_curves(t1), exact_curves(t2), sign="printed_sum")
        assert not np.isclose(d, s)


class TestSplitRuleOptions:
    @pytest.mark.parametrize("kw", [{"kind": "foo"}, {"kind": "gwrs"},
                                    {"glr_sign": "sum"}], ids=["kind", "kind_case", "glr_sign"])
    def test_unknown_value_rejected(self, kw):
        with pytest.raises(InsufficientData):
            SplitRule(**kw)

    def test_glr_unknown_sign_rejected(self):
        # the sign reaches glr_from_sums only through a checked GLR rule
        with pytest.raises(InsufficientData):
            TreeParams(rule=SplitRule(GLR, glr_sign="sum"))


class TestScoreStatistics:
    def _cov(self, s_left, s_right, left=1.0, right=2.0):
        # one curve taking given values at the interval endpoints
        return StepSurvival([left, right], [s_left, s_right])

    def test_swrs_uninformative_interval(self):
        c = StepSurvival([1.0], [1.0])
        assert score_difference(swrs_scores, [c, c], [0.0, 0.0], [np.inf, np.inf], 1) == 0.0

    def test_swrs_direct_formula(self):
        cov = [self._cov(0.9, 0.5), self._cov(0.5, 0.1)]
        assert np.isclose(score_difference(swrs_scores, cov, [1.0, 1.0], [2.0, 2.0], 1), 0.8)

    def test_swrs_identical_groups(self):
        cov = [self._cov(0.7, 0.3), self._cov(0.7, 0.3)]
        assert score_difference(swrs_scores, cov, [1.0, 1.0], [2.0, 2.0], 1) == 0.0

    def test_slr_uninformative(self):
        # S(L)=1, S(R)=0 -> (1*0 - 0)/1 = 0
        cov = [self._cov(1.0, 0.0), self._cov(1.0, 0.0)]
        assert abs(score_difference(slr_scores, cov, [1.0, 1.0], [2.0, 2.0], 1)) < 1e-12

    def test_slr_equal_branch(self):
        v = np.exp(-1.0)
        cov = [self._cov(v, v), self._cov(1.0, 0.0)]
        # first subject: log S(L) + 1 = 0; second: 0
        assert abs(score_difference(slr_scores, cov, [1.0, 1.0], [2.0, 2.0], 1)) < 1e-12

    def test_slr_direct_formula(self):
        want = (0.8 * np.log(0.8) - 0.2 * np.log(0.2)) / 0.6
        cov = [self._cov(0.8, 0.2), self._cov(1.0, 0.0)]
        got = score_difference(slr_scores, cov, [1.0, 1.0], [2.0, 2.0], 1)
        assert np.isclose(got, want, atol=1e-12)
        assert np.isclose(want, 0.2391, atol=2e-4)


class TestSplitScore:
    def test_identical_groups_score_zero(self):
        t = [1.0, 2.0, 3.0]
        for kind in ("GWRS", "GLR", "SWRS", "SLR"):
            assert node_score(kind, t, t) < 1e-12

    def test_perfect_separation_is_maximal(self):
        assert np.isclose(node_score("GWRS", [0.5, 0.7, 0.9], [3.0, 3.5, 4.0]), 0.5)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            t1 = rng.uniform(0.2, 4.5, size=4)
            t2 = rng.uniform(0.2, 4.5, size=3)
            for kind in ("GWRS", "GLR", "SWRS", "SLR"):
                assert abs(node_score(kind, t1, t2) - node_score(kind, t2, t1)) < 1e-12

    def test_gwrs_complement_under_swap(self):
        # exact tau-interior data: W(g2, g1) = 1 - W(g1, g2)
        rng = np.random.default_rng(26)
        t1 = rng.uniform(0.2, 4.5, size=5)
        t2 = rng.uniform(0.2, 4.5, size=4)
        assert np.isclose(
            gwrs_of(exact_curves(t1), exact_curves(t2)),
            1.0 - gwrs_of(exact_curves(t2), exact_curves(t1)),
            atol=1e-12,
        )

    def test_subject_order_invariance(self):
        rng = np.random.default_rng(27)
        t1 = rng.uniform(0.2, 4.5, size=5)
        t2 = rng.uniform(0.2, 4.5, size=5)
        for kind in ("GWRS", "GLR"):
            a = node_score(kind, t1, t2)
            b = node_score(kind, t1[::-1], t2[::-1])
            assert abs(a - b) < 1e-12
