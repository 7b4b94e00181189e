"""Oracle errors and the data-only integrated squared errors.

IMSE1 and IMSE2 are computed by ``forest.imse1_on_rows`` and
``forest.imse2_on_rows``, the one implementation that OOB monitoring,
variable importance and ``icrf evaluate`` use, on each subject's curve
sampled over a grid that holds the curves' knots and the intervals'
endpoints.
"""

import numpy as np
import pytest

from icrf import StepSurvival, oracle_errors
from icrf.bench import ExperimentSpec
from icrf.exceptions import InsufficientData
from icrf.forest import IMSE2_MASS_FLOOR, imse1_on_rows, imse2_on_rows

TAU = 5.0
ORACLE_GRID = np.linspace(0.0, TAU, 1001)
CONSTANT = StepSurvival([], [])  # S == 1


def const_rows(value, n=1, grid=ORACLE_GRID):
    return np.full((n, grid.size), value)


def sampled(curves, lefts, rights, tau=TAU, n_grid=1001):
    """Each subject's curve on a uniform grid of [0, tau] joined with the
    curves' knots and the finite endpoints, all at or below tau."""
    lefts, rights = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
    pieces = [np.linspace(0.0, tau, n_grid), lefts, rights[np.isfinite(rights)]]
    pieces += [c.times for c in curves]
    grid = np.unique(np.concatenate(pieces))
    grid = grid[grid <= tau]
    return np.vstack([c.eval(grid) for c in curves]), lefts, rights, tau, grid


def imse1(curves, lefts, rights, **kw) -> float:
    return imse1_on_rows(*sampled(curves, lefts, rights, **kw))


def imse2(curves, lefts, rights, **kw) -> float:
    return imse2_on_rows(*sampled(curves, lefts, rights, **kw))


class TestOracleErrors:
    def test_identical_curves_zero(self):
        e_int, e_sup = oracle_errors(const_rows(1.0), const_rows(1.0), ORACLE_GRID)
        assert e_int == 0.0
        assert e_sup == 0.0

    def test_maximal_discrepancy(self):
        e_int, e_sup = oracle_errors(const_rows(1.0), const_rows(0.0), ORACLE_GRID)
        assert np.isclose(e_int, 5.0)
        assert np.isclose(e_sup, 1.0)

    def test_triangle_area(self):
        est = (1.0 - ORACLE_GRID / TAU)[None, :]
        e_int, e_sup = oracle_errors(est, const_rows(1.0), ORACLE_GRID)
        assert abs(e_int - 2.5) < 1e-3
        assert np.isclose(e_sup, 1.0)

    def test_average_over_x_set(self):
        est = np.vstack([const_rows(0.0), const_rows(1.0)])
        # |1 - S| integrates to 5 and 0 -> mean 2.5
        assert np.isclose(oracle_errors(est, const_rows(1.0, n=2), ORACLE_GRID)[0], 2.5)

    def test_grid_resolution_floor(self):
        # a one-point grid integrates nothing, so a replicated experiment
        # needs two points at least; with two the integral is exact here
        with pytest.raises(InsufficientData):
            ExperimentSpec(grid_resolution=1)
        grid = np.linspace(0.0, TAU, ExperimentSpec(grid_resolution=2).grid_resolution)
        assert oracle_errors(const_rows(1.0, grid=grid), const_rows(0.0, grid=grid), grid)[0] == TAU


class TestImse1:
    def test_constant_one_closed_form(self):
        # L=2, R=3, tau=5: (0 + int_3^5 1 dt) / (5 - 3 + 2) = 0.5
        assert imse1([CONSTANT], [2.0], [3.0]) == 0.5

    def test_right_unbounded_alive_region_only(self):
        assert imse1([CONSTANT], [2.0], [np.inf]) == 0.0

    def test_perfect_oracle_zero(self):
        curve = StepSurvival([2.0, 3.0], [1.0, 0.0])
        assert imse1([curve], [2.0], [3.0]) == 0.0

    def test_all_skipped(self):
        # every subject has zero known-status length: no term to average
        assert np.isnan(imse1([CONSTANT], [0.0], [np.inf]))

    def test_zero_length_subjects_excluded(self):
        assert imse1([CONSTANT] * 2, [2.0, 0.0], [3.0, np.inf]) == 0.5

    def test_replication_invariance(self):
        f = StepSurvival([1.0, 3.5], [0.7, 0.2])
        a = imse1([f] * 2, [2.0, 1.0], [3.0, 4.0])
        b = imse1([f] * 4, [2.0, 1.0, 2.0, 1.0], [3.0, 4.0, 3.0, 4.0])
        assert np.isclose(a, b, atol=1e-15)

    def test_order_invariance(self):
        f = StepSurvival([1.0, 3.5], [0.7, 0.2])
        a = imse1([f] * 2, [2.0, 1.0], [3.0, 4.0])
        b = imse1([f] * 2, [1.0, 2.0], [4.0, 3.0])
        assert np.isclose(a, b, atol=1e-15)

    def test_exact_tail_integration_matches_quadrature(self):
        # S = 0.6 exp(-r (t - 1)) beyond its one knot at 1, r = 0.7;
        # known status on [0, 2] (dead side) and [3, 5] (alive side)
        v, r = 0.6, 0.7
        curve = StepSurvival([1.0], [v], tail_rate=r)
        e1 = (v / r) * (1.0 - np.exp(-r))
        e2 = (v**2 / (2 * r)) * (1.0 - np.exp(-2 * r))
        dead = 1.0 - 2 * e1 + e2  # int_1^2 (1 - S)^2; zero on [0, 1)
        alive = (v**2 / (2 * r)) * (np.exp(-4 * r) - np.exp(-8 * r))  # int_3^5 S^2
        got = imse1([curve], [2.0], [3.0], n_grid=400001)
        assert np.isclose(got, (dead + alive) / 4.0, atol=1e-9)


class TestImse2:
    def test_interval_adapted_curve_contributes_zero(self):
        # curve already 1 before L and 0 after R: projection is identity
        curve = StepSurvival([2.0, 3.0], [1.0, 0.0])
        assert imse2([curve], [2.0], [3.0]) < 1e-30

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(41)
        from _oracles import random_step_curve

        curves = [random_step_curve(rng) for _ in range(10)]
        lefts = rng.uniform(0, 2, size=10)
        rights = rng.uniform(2.5, 4.5, size=10)
        val = imse2(curves, lefts, rights)
        assert 0.0 <= val <= 1.0

    def test_exponential_hand_integral(self):
        # S(t) = exp(-t), exact observation at T = 1 (as a sharp interval)
        ts = np.linspace(0.0005, TAU, 10001)
        curve = StepSurvival(ts, np.exp(-ts))
        eps = 1e-9
        want = (
            # int_0^1 (1 - e^-t)^2 + int_1^5 e^-2t, over tau
            (-0.5 + 2 * np.exp(-1.0) - 0.5 * np.exp(-2.0))
            + 0.5 * (np.exp(-2.0) - np.exp(-10.0))
        ) / TAU
        got = imse2([curve], [1.0 * (1 - eps)], [1.0])
        assert np.isclose(got, want, rtol=5e-3)

    @pytest.mark.parametrize("mass", [1e-6, 1e-3])
    def test_rounding_in_a_row_is_not_amplified(self, mass):
        # a row with little mass on (2, 3]: below IMSE2_MASS_FLOOR the
        # projection is the uniform curve on the interval, which no change of
        # the row moves; above it the renormalized row, which a change of one
        # ulp moves by at most about eps**(3/4)
        grid = np.linspace(0.0, TAU, 501)
        row = np.where(grid <= 2.0, 0.9, 0.9 - mass * np.clip(grid - 2.0, 0.0, 1.0))
        row = np.where(grid <= 4.0, row, row - 0.5 * (grid - 4.0))[None, :]
        args = ([2.0], [3.0], TAU, grid)
        got = imse2_on_rows(row, *args)
        nudged = row.copy()
        inside = (grid > 2.0) & (grid < 3.0)
        nudged[0, inside] = np.nextafter(nudged[0, inside], 1.0)
        assert abs(imse2_on_rows(nudged, *args) - got) <= np.finfo(float).eps ** 0.75
        if mass < IMSE2_MASS_FLOOR:
            uniform = np.interp(grid, [2.0, 3.0], [1.0, 0.0])
            want = np.trapezoid((uniform - row[0]) ** 2, grid) / TAU
            assert np.isclose(got, want, rtol=1e-12, atol=0.0)
