"""Kernel smoothing: bandwidth rule, mirror boundary, and limits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import icrf.smooth as smooth_mod
from icrf import StepSurvival, bandwidth, smooth_curve
from icrf.curves import REFINE_PER_GAP
from icrf.exceptions import DegenerateQuantiles

from _oracles import random_step_curve, smoothed_values_loop


class TestBandwidth:
    def test_unit_iqr_unit_nmin(self):
        # S^{-1}(0.25) = 3, S^{-1}(0.75) = 1 -> c = 1, h = 1
        c = StepSurvival([1.0, 3.0], [0.75, 0.25])
        assert bandwidth(c, n_min=1) == 1.0

    def test_nmin_scaling(self):
        c = StepSurvival([1.0, 3.0], [0.75, 0.25])
        assert np.isclose(bandwidth(c, n_min=32), 0.5)

    def test_point_mass_falls_back(self):
        c = StepSurvival([2.0], [0.0])
        with pytest.raises(DegenerateQuantiles):
            bandwidth(c, n_min=6)
        h = bandwidth(c, n_min=1, tau=5.0)
        assert np.isclose(h, 0.5)  # c = tau/10

    def test_quantiles_through_tail(self):
        c = StepSurvival([1.0], [0.5], tail_rate=1.0)
        # S^{-1}(0.25) = 1 + ln 2; S^{-1}(0.75) has no knot hit -> first knot
        h = bandwidth(c, n_min=1)
        assert np.isclose(h, 0.5 * (1.0 + np.log(2.0) - 1.0))


# mass 1 on a point interval at u0 = 3 >> 4h: a gap one ulp wide is too
# narrow to spread a mass over, so the mass stays an atom at its end
POINT_MASS = StepSurvival([np.nextafter(3.0, 0.0), 3.0], [1.0, 0.0])


class TestSmoothCurve:
    def test_half_at_center(self):
        sm = smooth_curve(POINT_MASS, h=0.1, support_end=10.0)
        assert np.isclose(sm.eval(3.0), 0.5, atol=1e-12)

    def test_gaussian_tail_value(self):
        sm = smooth_curve(POINT_MASS, h=0.1, support_end=10.0)
        assert np.isclose(sm.eval(3.0 + 1.96 * 0.1), 0.024997895, atol=1e-6)

    def test_h_to_zero_recovers_base(self):
        # each mass is spread over its interval in REFINE_PER_GAP equal
        # atoms, so a vanishing bandwidth gives the interpolated curve (the
        # forest's raw reading) to within a sub-drop, m_j / REFINE_PER_GAP
        rng = np.random.default_rng(7)
        for _ in range(10):
            c = random_step_curve(rng)
            sm = smooth_curve(c, h=1e-6, support_end=5.0)
            pts = rng.uniform(0.0, 5.0, size=10)
            # keep clear of the atoms
            pts = np.asarray(
                [t for t in pts if np.min(np.abs(sm.locs - t)) > 1e-4] or [0.5]
            )
            tol = c.jump_masses().max() / REFINE_PER_GAP + 1e-6
            assert np.all(np.abs(sm.eval(pts) - c.interpolate(pts)) <= tol)

    def test_boundary_value_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = random_step_curve(rng, with_tail=bool(rng.integers(2)))
            sm = smooth_curve(c, h=float(rng.uniform(0.05, 1.0)), support_end=5.0)
            assert abs(sm.eval(0.0) - 1.0) < 1e-10

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 5.0, 1000)
        for _ in range(25):
            c = random_step_curve(rng, with_tail=bool(rng.integers(2)))
            sm = smooth_curve(c, h=float(rng.uniform(0.02, 1.5)), support_end=5.0)
            vals = np.asarray(sm.eval(grid))
            assert np.all(np.diff(vals) <= 1e-9)
            assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_clamped_beyond_support_end(self):
        c = StepSurvival([1.0, 2.0], [0.6, 0.2])
        sm = smooth_curve(c, h=0.3, support_end=5.0)
        assert sm.eval(7.0) == sm.eval(5.0)

    def test_linear_in_jump_masses(self):
        # curves sharing knots: smooth(a A + (1-a) B) = a sm(A) + (1-a) sm(B)
        times = np.array([1.0, 2.5, 4.0])
        a_vals = np.array([0.8, 0.5, 0.1])
        b_vals = np.array([0.6, 0.4, 0.3])
        alpha = 0.3
        mixed = StepSurvival(times, alpha * a_vals + (1 - alpha) * b_vals)
        sa = smooth_curve(StepSurvival(times, a_vals), 0.4, 5.0)
        sb = smooth_curve(StepSurvival(times, b_vals), 0.4, 5.0)
        sm = smooth_curve(mixed, 0.4, 5.0)
        grid = np.linspace(0.0, 5.0, 200)
        lhs = np.asarray(sm.eval(grid))
        rhs = alpha * np.asarray(sa.eval(grid)) + (1 - alpha) * np.asarray(sb.eval(grid))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_exponential_tail_mass_is_smoothed(self):
        c = StepSurvival([1.0], [0.5], tail_rate=0.5)
        sm = smooth_curve(c, h=0.05, support_end=20.0)
        # far out, nearly all tail mass has been passed
        assert sm.eval(19.0) < 0.01
        assert abs(sm.masses.sum() - 1.0) < 1e-12

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(DegenerateQuantiles):
            smooth_curve(StepSurvival([1.0], [0.0]), 0.0, 5.0)

    @pytest.mark.parametrize("h, support_end", [(-1.0, 5.0), (np.inf, 5.0), (np.nan, 5.0),
                                                (0.3, np.inf), (0.3, np.nan), (0.3, -1.0)])
    def test_rejects_nonfinite_bandwidth_or_support_end(self, h, support_end):
        # h = inf used to give rows of 1, a NaN support end rows of NaN
        with pytest.raises(DegenerateQuantiles, match="finite and > 0"):
            smooth_curve(StepSurvival([1.0], [0.0]), h, support_end)


def _kernel_case(seed: int, nan: bool = False):
    """Curves of mixed atom counts and a grid to smooth them on: unsorted or
    sorted, with negative points, repeated points and points on and next to
    the saturation edges loc -/+ CUT_Z h and CUT_Z h - loc, or empty. Some
    cases add narrow intervals beside one wide one, of 8 atoms each, so that
    the wide one stretches their block's band; with ``nan``, some grids
    hold a NaN."""
    rng = np.random.default_rng(seed)
    # the additions below draw from their own generator, so the cases drawn
    # before they were added keep their draws
    mix = np.random.default_rng([seed, 1])
    # point intervals (1 atom), refined gaps (8), curve_atoms of whole
    # curves (any count) and curves with no atom
    counts = rng.choice([0, 1, 8, 8, 3, 40], size=rng.integers(0, 30))
    locs = [np.sort(rng.uniform(0.0, 6.0, k)) for k in counts]
    masses = [rng.dirichlet(np.ones(k)) if k else np.zeros(0) for k in counts]
    h = float(rng.uniform(0.01, 2.0))
    if mix.random() < 0.5:
        h = float(mix.uniform(0.01, 0.3))  # bands short beside the grid
        ends = mix.uniform(0.0, 6.0, mix.integers(1, 40))
        narrow = [np.linspace(t - w, t, 9)[1:] for t, w in zip(ends, mix.uniform(0.0, h, ends.size))]
        wide = np.linspace(*np.sort(mix.uniform(0.0, 6.0, 2)), 9)[1:]
        new = narrow[:1] + [wide] + narrow[1:]
        locs += new
        masses += [np.full(8, 1.0 / 8.0)] * len(new)
    grid = rng.uniform(-1.0, rng.uniform(0.1, 10.0), rng.integers(0, 150))
    atoms = np.concatenate([np.zeros(0)] + locs)
    if atoms.size and rng.random() < 0.7:
        at = rng.choice(atoms, size=min(atoms.size, 10), replace=False)
        cut = smooth_mod.CUT_Z * h
        edges = np.concatenate((at - cut, at + cut, cut - at))
        grid = np.concatenate((grid, edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)))
    if grid.size and rng.random() < 0.3:
        grid = np.concatenate((grid, rng.choice(grid, size=rng.integers(1, 20))))
    grid = np.sort(grid) if rng.random() < 0.5 else rng.permutation(grid)
    if nan and grid.size and mix.random() < 0.2:
        grid[mix.integers(grid.size)] = np.nan
    return locs, masses, h, grid


def _matrix(block, locs, masses, h, grid):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smooth_mod, "KERNEL_BLOCK", block)
        return smooth_mod.smoothed_values_matrix(locs, masses, h, grid)


class TestSmoothedValuesMatrix:
    """Curves stacked by atom count, with saturated kernel values written as
    constants, give each curve's own values, bit for bit, whatever the
    other curves of the call, the block size and the grid's order."""

    @pytest.mark.parametrize("block", [1, 200, smooth_mod.KERNEL_BLOCK])
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_the_loop_over_curves(self, block, seed):
        locs, masses, h, grid = _kernel_case(seed, nan=True)
        got = _matrix(block, locs, masses, h, grid)
        assert got.shape == (len(locs), grid.size)
        assert np.array_equal(got, smoothed_values_loop(locs, masses, h, grid), equal_nan=True)
        # masses of 4e18 turn a kernel value of Phi(-9) ~ 1.1e-19 into about
        # 0.5 of a row, so a constant written where kernel_cdf gives another
        # value shows
        masses = [4e18 * m for m in masses]
        got = _matrix(block, locs, masses, h, grid)
        assert np.array_equal(got, smoothed_values_loop(locs, masses, h, grid), equal_nan=True)

    @pytest.mark.parametrize("block", [1, 200, smooth_mod.KERNEL_BLOCK])
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_within_tolerance_of_the_unsaturated_form(self, block, seed):
        locs, masses, h, grid = _kernel_case(seed)
        got = _matrix(block, locs, masses, h, grid)
        dense = smoothed_values_loop(locs, masses, h, grid, saturate=False)
        assert np.all(np.abs(got - dense) <= 1e-15)

    def test_mirror_edge_values_are_exact(self):
        # one-atom curves at loc just below CUT_Z h, on grid points at and
        # next to their mirror edge x = CUT_Z h - loc >= 0, where the direct
        # term is near its 0 edge too: rounding puts some of these points at
        # a mirror z just above -CUT_Z. A band found by comparing x with the
        # rounded edge, not z with -CUT_Z, writes 0 there; masses of 4e18
        # make that show. About one bandwidth in twenty has such points
        rng = np.random.default_rng(0)
        for h in rng.uniform(0.01, 2.0, 500):
            locs = smooth_mod.CUT_Z * h - rng.uniform(0.0, 0.02 * h, 2)
            edges = smooth_mod.CUT_Z * h - locs
            grid = np.sort(np.concatenate((edges, np.nextafter(edges, -np.inf),
                                           np.nextafter(edges, np.inf))))
            curves, masses = [np.array([u]) for u in locs], [np.array([4e18])] * locs.size
            got = _matrix(1, curves, masses, h, grid)
            assert np.array_equal(got, smoothed_values_loop(curves, masses, h, grid))

    def test_narrow_curve_row_is_its_own_in_a_wide_block(self):
        # alone, the narrow curve's grid points below 5 - 9h are outside its
        # band and written as 0; beside the wide curve they fall in the
        # block's band, where only the per-entry clamp gives 0 again. Its
        # large masses make a kernel value of 1e-30 show in the row
        h = 0.1
        grid = np.linspace(0.0, 10.0, 1001)
        narrow, wide = np.array([5.0, 5.001]), np.array([0.5, 9.5])
        masses = [np.full(2, 1e30), np.full(2, 0.5)]
        alone = smooth_mod.smoothed_values_matrix([narrow], masses[:1], h, grid)
        both = smooth_mod.smoothed_values_matrix([narrow, wide], masses, h, grid)
        assert np.array_equal(both[0], alone[0])
        assert np.array_equal(alone[0, grid < 5.0 - 9 * h], np.ones(np.sum(grid < 5.0 - 9 * h)))

    def test_ndtr_runs_only_where_a_kernel_value_does_not_saturate(self, monkeypatch):
        # narrow intervals beside one wide one, all of 8 atoms, share one
        # block; the wide one stretches the block's band over the whole grid,
        # but ndtr is called on no more values than the curves' own bands
        # and mirror prefixes hold, and the rows stay each curve's own
        rng = np.random.default_rng(3)
        h = 0.05
        grid = np.linspace(0.0, 6.0, 101)
        ends = np.sort(rng.uniform(0.5, 5.5, 30))
        locs = [np.linspace(t - 0.01, t, 9)[1:] for t in ends]
        locs.insert(10, np.linspace(0.0, 6.0, 9)[1:])
        masses = [np.full(8, 1.0 / 8.0)] * len(locs)
        evaluated = []

        def spy(z):
            evaluated.append(np.size(z))
            return ndtr(z)

        monkeypatch.setattr(smooth_mod, "ndtr", spy)
        got = smooth_mod.smoothed_values_matrix(locs, masses, h, grid)
        own = sum(u.size * (np.sum(((grid - u.min()) / h > -smooth_mod.CUT_Z)
                                   & ((grid - u.max()) / h < smooth_mod.CUT_Z))
                            + np.sum((grid + u.min()) / h < smooth_mod.CUT_Z))
                  for u in locs)
        assert 0 < sum(evaluated) <= own < len(locs) * grid.size * 8 // 2
        assert np.array_equal(got, smoothed_values_loop(locs, masses, h, grid))

    @pytest.mark.parametrize("grid", [[2.0, np.nan, 0.5], [0.5, 2.0, np.nan], [np.nan]])
    def test_nan_grid_point_gives_nan(self, grid):
        # a curve with atoms is NaN at a NaN point; a curve with none is 1
        # everywhere, as it is alone
        grid = np.array(grid)
        locs, masses = [np.array([1.0]), np.zeros(0)], [np.ones(1), np.zeros(0)]
        got = smooth_mod.smoothed_values_matrix(locs, masses, 0.3, grid)
        nan = np.isnan(grid)
        assert np.all(np.isnan(got[0, nan])) and np.all(np.isfinite(got[0, ~nan]))
        assert np.array_equal(got[1], np.ones(grid.size))
        assert np.array_equal(got, smoothed_values_loop(locs, masses, 0.3, grid), equal_nan=True)
