"""The four two-sample splitting statistics and the score mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icrf import GroupCurves, SplitRule, StepSurvival, glr, gwrs, slr, split_score, swrs
from icrf.dataio import encode_exact
from icrf.curves import IntervalObservation
from icrf.exceptions import EmptyGroup, InsufficientData
from icrf.splits import gwrs_pairwise, pooled_grid, values_matrix

from _oracles import logrank_scaled, random_step_curve, wilcoxon_theta

TAU = 5.0


def exact_curve(t: float) -> StepSurvival:
    left, right = encode_exact(t)
    return StepSurvival([left, right], [1.0, 0.0])


def exact_group(times) -> GroupCurves:
    return GroupCurves(
        [exact_curve(t) for t in times],
        [IntervalObservation(*encode_exact(t)) for t in times],
        tau=TAU,
    )


class TestGwrs:
    def test_separated_point_masses(self):
        assert np.isclose(gwrs(exact_group([1.0]), exact_group([2.0])), 1.0)

    def test_pure_tie(self):
        assert np.isclose(gwrs(exact_group([1.0]), exact_group([1.0])), 0.5)

    def test_matches_classical_wilcoxon(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            t1 = rng.uniform(0.2, 4.5, size=rng.integers(2, 9))
            t2 = rng.uniform(0.2, 4.5, size=rng.integers(2, 9))
            if rng.uniform() < 0.3:  # force some ties
                t2[0] = t1[0]
            w = gwrs(exact_group(t1), exact_group(t2))
            assert abs(w - wilcoxon_theta(t1, t2)) < 1e-12

    def test_pairwise_form_agrees_with_mean_form(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            c1 = [random_step_curve(rng) for _ in range(int(rng.integers(1, 6)))]
            c2 = [random_step_curve(rng) for _ in range(int(rng.integers(1, 6)))]
            g1 = GroupCurves(c1, tau=TAU)
            g2 = GroupCurves(c2, tau=TAU)
            grid = pooled_grid([c1, c2], TAU)
            v1 = values_matrix(c1, grid)
            v2 = values_matrix(c2, grid)
            assert abs(gwrs(g1, g2) - gwrs_pairwise(v1, v2)) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g1 = GroupCurves([random_step_curve(rng) for _ in range(3)], tau=TAU)
            g2 = GroupCurves([random_step_curve(rng) for _ in range(3)], tau=TAU)
            w = gwrs(g1, g2)
            assert -1e-12 <= w <= 1.0 + 1e-12

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            gwrs(GroupCurves([], tau=TAU), exact_group([1.0]))


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
        grid = pooled_grid([c1, c2], tau)
        want = gwrs_pairwise(values_matrix(c1, grid), values_matrix(c2, grid))
        got = gwrs(GroupCurves(c1, tau=tau), GroupCurves(c2, tau=tau))
        assert abs(got - want) <= 1e-12


class TestGlr:
    def test_identical_groups_zero(self):
        g = exact_group([1.0, 2.0, 3.0])
        assert abs(glr(g, g)) < 1e-12

    def test_uncensored_reduction_to_logrank(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            t1 = rng.uniform(0.2, 4.5, size=rng.integers(2, 9))
            t2 = rng.uniform(0.2, 4.5, size=rng.integers(2, 9))
            stat = glr(exact_group(t1), exact_group(t2))
            assert abs(stat - logrank_scaled(t1, t2)) < 1e-10

    def test_single_subject_hand_stieltjes(self):
        # G1 exact at 1, G2 exact at 2: numerator 1, denominator 1/2
        stat = glr(exact_group([1.0]), exact_group([2.0]))
        assert np.isclose(stat, 2.0, atol=1e-12)

    def test_printed_sum_differs(self):
        t1 = [1.0, 2.0]
        t2 = [1.5, 3.0]
        d = glr(exact_group(t1), exact_group(t2), glr_sign="difference")
        s = glr(exact_group(t1), exact_group(t2), glr_sign="printed_sum")
        assert not np.isclose(d, s)


class TestSplitRuleOptions:
    @pytest.mark.parametrize("kw", [{"kind": "foo"}, {"kind": "gwrs"},
                                    {"glr_sign": "sum"}], ids=["kind", "kind_case", "glr_sign"])
    def test_unknown_value_rejected(self, kw):
        with pytest.raises(InsufficientData):
            SplitRule(**kw)

    def test_glr_unknown_sign_rejected(self):
        with pytest.raises(InsufficientData):
            glr(exact_group([1.0]), exact_group([2.0]), glr_sign="sum")


class TestScoreStatistics:
    def _cov(self, s_left, s_right, left=1.0, right=2.0):
        # one curve taking given values at the interval endpoints
        return StepSurvival([left, right], [s_left, s_right])

    def test_swrs_uninformative_interval(self):
        c = StepSurvival([1.0], [1.0])
        g1 = GroupCurves([c], [IntervalObservation(0.0, np.inf)], tau=TAU)
        g2 = GroupCurves([c], [IntervalObservation(0.0, np.inf)], tau=TAU)
        assert swrs(g1, g2, [c, c]) == 0.0

    def test_swrs_direct_formula(self):
        obs = [IntervalObservation(1.0, 2.0)]
        g1 = GroupCurves([self._cov(0.9, 0.5)], obs, tau=TAU)
        g2 = GroupCurves([self._cov(0.5, 0.1)], obs, tau=TAU)
        cov = [self._cov(0.9, 0.5), self._cov(0.5, 0.1)]
        assert np.isclose(swrs(g1, g2, cov), 0.8)

    def test_swrs_identical_groups(self):
        obs = [IntervalObservation(1.0, 2.0)]
        g = GroupCurves([self._cov(0.7, 0.3)], obs, tau=TAU)
        cov = [self._cov(0.7, 0.3), self._cov(0.7, 0.3)]
        assert swrs(g, g, cov) == 0.0

    def test_slr_uninformative(self):
        # S(L)=1, S(R)=0 -> (1*0 - 0)/1 = 0
        obs = [IntervalObservation(1.0, 2.0)]
        zero = [IntervalObservation(1.0, 2.0)]
        g1 = GroupCurves([self._cov(1.0, 0.0)], obs, tau=TAU)
        g2 = GroupCurves([self._cov(1.0, 0.0)], zero, tau=TAU)
        cov = [self._cov(1.0, 0.0), self._cov(1.0, 0.0)]
        assert abs(slr(g1, g2, cov)) < 1e-12

    def test_slr_equal_branch(self):
        v = np.exp(-1.0)
        obs = [IntervalObservation(1.0, 2.0)]
        g1 = GroupCurves([self._cov(v, v)], obs, tau=TAU)
        g2 = GroupCurves([self._cov(1.0, 0.0)], obs, tau=TAU)
        cov = [self._cov(v, v), self._cov(1.0, 0.0)]
        # first subject: log S(L) + 1 = 0; second: 0
        assert abs(slr(g1, g2, cov)) < 1e-12

    def test_slr_direct_formula(self):
        want = (0.8 * np.log(0.8) - 0.2 * np.log(0.2)) / 0.6
        obs = [IntervalObservation(1.0, 2.0)]
        g1 = GroupCurves([self._cov(0.8, 0.2)], obs, tau=TAU)
        g2 = GroupCurves([self._cov(1.0, 0.0)], obs, tau=TAU)
        cov = [self._cov(0.8, 0.2), self._cov(1.0, 0.0)]
        assert np.isclose(slr(g1, g2, cov), want, atol=1e-12)
        assert np.isclose(want, 0.2391, atol=2e-4)


class TestSplitScore:
    def test_identical_groups_score_zero(self):
        g = exact_group([1.0, 2.0, 3.0])
        cov = [exact_curve(t) for t in (1.0, 2.0, 3.0)] * 2
        for kind in ("GWRS", "GLR", "SWRS", "SLR"):
            assert split_score(SplitRule(kind), g, g, cov) < 1e-12

    def test_perfect_separation_is_maximal(self):
        g1 = exact_group([0.5, 0.7, 0.9])
        g2 = exact_group([3.0, 3.5, 4.0])
        assert np.isclose(split_score(SplitRule("GWRS"), g1, g2), 0.5)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            t1 = rng.uniform(0.2, 4.5, size=4)
            t2 = rng.uniform(0.2, 4.5, size=3)
            g1, g2 = exact_group(t1), exact_group(t2)
            cov = [exact_curve(t) for t in np.concatenate([t1, t2])]
            cov_swapped = [exact_curve(t) for t in np.concatenate([t2, t1])]
            for kind in ("GWRS", "GLR", "SWRS", "SLR"):
                a = split_score(SplitRule(kind), g1, g2, cov)
                b = split_score(SplitRule(kind), g2, g1, cov_swapped)
                assert abs(a - b) < 1e-12

    def test_gwrs_complement_under_swap(self):
        # exact tau-interior data: W(g2, g1) = 1 - W(g1, g2)
        rng = np.random.default_rng(26)
        t1 = rng.uniform(0.2, 4.5, size=5)
        t2 = rng.uniform(0.2, 4.5, size=4)
        assert np.isclose(
            gwrs(exact_group(t1), exact_group(t2)),
            1.0 - gwrs(exact_group(t2), exact_group(t1)),
            atol=1e-12,
        )

    def test_subject_order_invariance(self):
        rng = np.random.default_rng(27)
        t1 = rng.uniform(0.2, 4.5, size=5)
        t2 = rng.uniform(0.2, 4.5, size=5)
        for kind in ("GWRS", "GLR"):
            a = split_score(SplitRule(kind), exact_group(t1), exact_group(t2))
            b = split_score(SplitRule(kind), exact_group(t1[::-1]), exact_group(t2[::-1]))
            assert abs(a - b) < 1e-12
