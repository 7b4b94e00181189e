"""Step-curve evaluation, interpolation, and conditional projection."""

import numpy as np
import pytest

from icrf import (
    IntervalObservation,
    StepSurvival,
    conditional_project,
    constant_curve,
    terminal_predict_exploitative,
)
from icrf.curves import project_rows
from icrf.exceptions import DegenerateInterval, InvariantViolation

from _oracles import random_step_curve


class TestEval:
    def test_before_first_jump(self):
        c = StepSurvival([1.0], [0.0])
        assert c.eval(0.5) == 1.0

    def test_right_continuity_at_jump(self):
        c = StepSurvival([1.0], [0.0])
        assert c.eval(1.0) == 0.0

    def test_piecewise_constant(self):
        c = StepSurvival([1.0, 2.0], [0.6, 0.2])
        assert c.eval(1.5) == 0.6

    def test_tail_evaluation(self):
        c = StepSurvival([2.0], [0.5], tail_rate=np.log(2.0) / 2.0)
        assert c.eval(2.0) == 0.5
        assert np.isclose(c.eval(4.0), 0.25)

    def test_vectorized(self):
        c = StepSurvival([1.0, 2.0], [0.6, 0.2])
        np.testing.assert_allclose(c.eval([0.0, 1.0, 3.0]), [1.0, 0.6, 0.2])


class TestEvalLeft:
    def test_left_limit_at_jump(self):
        c = StepSurvival([1.0], [0.0])
        assert c.eval_left(1.0) == 1.0

    def test_after_jump(self):
        c = StepSurvival([1.0], [0.0])
        assert c.eval_left(1.5) == 0.0

    def test_dominates_eval_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = random_step_curve(rng)
            ts = rng.uniform(0.0, 6.0, size=200)
            assert np.all(np.asarray(c.eval_left(ts)) >= np.asarray(c.eval(ts)))


class TestEvalCheck:
    def test_midpoint_at_unit_jump(self):
        c = StepSurvival([1.0], [0.0])
        assert c.eval_check(1.0) == 0.5

    def test_equals_eval_off_jumps(self):
        c = StepSurvival([1.0, 2.0], [0.6, 0.2])
        for t in (0.5, 1.5, 3.0):
            assert c.eval_check(t) == c.eval(t)

    def test_two_knot_average(self):
        c = StepSurvival([1.0, 2.0], [0.6, 0.2])
        assert np.isclose(c.eval_check(2.0), 0.4)

    def test_half_sum_identity_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = random_step_curve(rng)
            ts = np.concatenate([c.times, rng.uniform(0, 6, size=50)])
            lhs = np.asarray(c.eval_check(ts))
            rhs = 0.5 * (np.asarray(c.eval(ts)) + np.asarray(c.eval_left(ts)))
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=0)


class TestInterpolate:
    def test_linear_midpoint(self):
        c = StepSurvival([1.0, 2.0], [1.0, 0.0])  # mass 1 on (1, 2]
        assert np.isclose(c.interpolate(1.5)[0], 0.5)

    def test_pinned_at_knots(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = random_step_curve(rng)
            np.testing.assert_allclose(c.interpolate(c.times), c.eval(c.times))

    def test_two_interval_hand_integration(self):
        # mass 0.5 on (0,1], 0.5 on (1,3]: S(2) = 0.25 by uniform density
        c = StepSurvival([1.0, 3.0], [0.5, 0.0])
        assert np.isclose(c.interpolate(2.0)[0], 0.25)

    def test_exponential_tail_beyond_knots(self):
        c = StepSurvival([1.0], [0.5], tail_rate=1.0)
        assert np.isclose(c.interpolate(2.0)[0], 0.5 * np.exp(-1.0))


class TestConditionalProject:
    def test_truncated_exponential_values(self):
        ts = np.linspace(0.001, 6.0, 6000)
        s_x = StepSurvival(ts, np.exp(-ts))
        proj = conditional_project(s_x, IntervalObservation(1.0, 2.0))
        want = (np.exp(-1.5) - np.exp(-2.0)) / (np.exp(-1.0) - np.exp(-2.0))
        assert proj.eval(1.0) == 1.0
        assert proj.eval(2.0) == 0.0
        assert np.isclose(proj.eval(1.5), want, atol=1e-12)

    def test_full_support_is_identity(self):
        rng = np.random.default_rng(3)
        c = random_step_curve(rng)
        proj = conditional_project(c, IntervalObservation(0.0, np.inf))
        np.testing.assert_array_equal(proj.times, c.times)
        np.testing.assert_allclose(proj.values, c.values, atol=1e-15)

    def test_right_unbounded_ratio(self):
        ts = np.linspace(0.001, 8.0, 8000)
        s_x = StepSurvival(ts, np.exp(-ts))
        proj = conditional_project(s_x, IntervalObservation(1.0, np.inf))
        assert np.isclose(proj.eval(2.0), np.exp(-1.0), atol=1e-12)

    def test_projection_invariants_randomized(self):
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 6.0, 1000)
        for _ in range(60):
            c = random_step_curve(rng, with_tail=bool(rng.integers(2)))
            left = float(rng.uniform(0.0, 2.0))
            right = float(left + rng.uniform(0.2, 3.0)) if rng.uniform() < 0.7 else np.inf
            obs = IntervalObservation(left, right)
            try:
                proj = conditional_project(c, obs)
            except DegenerateInterval:
                continue
            vals = np.asarray(proj.eval(grid))
            assert np.all(vals <= 1.0 + 1e-12) and np.all(vals >= -1e-12)
            assert np.all(np.diff(vals) <= 1e-12)
            assert np.all(vals[grid <= left] == 1.0)
            if np.isfinite(right):
                assert np.all(vals[grid > right] == 0.0)

    def test_degenerate_interval_raises(self):
        c = StepSurvival([1.0], [0.0])
        with pytest.raises(DegenerateInterval):
            conditional_project(c, IntervalObservation(2.0, 3.0))


class TestUniformFallback:
    """project_rows on a curve with no mass on the interval."""

    def test_bounded_interval_midpoint(self):
        grid = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        v = project_rows(np.ones((1, 5)), [1.0], [1.0], [1.0], [2.0], grid, tau=5.0)[0]
        assert np.isclose(v[2], 0.5, atol=1e-12)
        assert v[0] == v[1] == 1.0
        assert v[3] == v[4] == 0.0

    def test_unbounded_uses_exponential(self):
        grid = np.array([0.5, 1.0, 3.5, 6.0])
        v = project_rows(np.zeros((1, 4)), [0.0], [0.0], [1.0], [np.inf], grid, tau=5.0)[0]
        assert v[0] == v[1] == 1.0
        assert np.isclose(v[2], np.exp(-0.5))
        assert np.isclose(v[3], np.exp(-1.0))


class TestAverage:
    """The exploitative leaf: the knotwise mean of member curves."""

    def test_mean_of_indicator_curves(self):
        a = StepSurvival([1.0], [0.0])
        b = StepSurvival([3.0], [0.0])
        avg = terminal_predict_exploitative([a, b])
        assert avg.eval(2.0) == 0.5

    def test_single_curve_identity(self):
        c = StepSurvival([1.0, 2.0], [0.4, 0.1])
        avg = terminal_predict_exploitative([c])
        np.testing.assert_allclose(avg.eval([0.5, 1.0, 2.5]), c.eval([0.5, 1.0, 2.5]))

    def test_convexity_preserved(self):
        rng = np.random.default_rng(5)
        curves = [random_step_curve(rng) for _ in range(5)]
        avg = terminal_predict_exploitative(curves)
        grid = np.linspace(0, 6, 500)
        vals = np.asarray(avg.eval(grid))
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals.max() <= 1.0 and vals.min() >= 0.0


class TestValidation:
    def test_nonincreasing_required(self):
        with pytest.raises(InvariantViolation):
            StepSurvival([1.0, 2.0], [0.2, 0.6])

    def test_strictly_increasing_times(self):
        with pytest.raises(InvariantViolation):
            StepSurvival([1.0, 1.0], [0.5, 0.4])

    def test_interval_validation(self):
        with pytest.raises(InvariantViolation):
            IntervalObservation(2.0, 1.0)
        with pytest.raises(InvariantViolation):
            IntervalObservation(-1.0, 1.0)

    def test_constant_curve(self):
        c = constant_curve()
        assert c.eval(100.0) == 1.0


class TestMonotonicity:
    def test_eval_nonincreasing_randomized(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(0.0, 7.0, 700)
        for _ in range(50):
            c = random_step_curve(rng, with_tail=bool(rng.integers(2)))
            vals = np.asarray(c.eval(grid))
            assert np.all(np.diff(vals) <= 1e-15)
            assert vals.min() >= 0.0 and vals.max() <= 1.0
