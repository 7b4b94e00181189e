"""Property tests of the smoothed rows of forest._leaf_rows: one kernel
column per distinct mass interval, mixed by the curves' masses, against
each curve smoothed on its own."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from icrf import StepSurvival
from icrf.curves import refine_uniform
from icrf.forest import _leaf_rows
from icrf.smooth import curve_atoms, interval_atoms, mass_intervals

from _oracles import smoothed_rows_per_curve

EPS = np.finfo(float).eps


@st.composite
def leaf_sets(draw):
    """Leaf curves drawn from one small knot pool, so leaves share mass
    intervals; with zero-mass marker knots, gaps below refine_uniform's
    narrow threshold, exponential tails and empty curves."""
    base = np.cumsum(draw(st.lists(st.floats(0.05, 1.5), min_size=1, max_size=8)))
    # a few ulps past a pool knot: a gap too narrow to refine
    close = base * (1.0 + draw(st.sampled_from([2, 16, 31])) * EPS)
    pool = np.unique(np.concatenate((base, close)))
    curves = []
    for _ in range(draw(st.integers(1, 6))):
        picks = draw(st.lists(st.integers(0, pool.size - 1), max_size=pool.size, unique=True))
        times = pool[np.sort(np.asarray(picks, dtype=int))]
        drops = np.asarray([draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
                            for _ in times])
        rest = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
        total = drops.sum() + rest
        values = 1.0 - np.cumsum(drops) / total if total > 0.0 else np.ones(times.size)
        tail = draw(st.one_of(st.none(), st.floats(0.1, 3.0)))
        curves.append(StepSurvival(times, np.maximum(values, 0.0), tail_rate=tail))
    return curves


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(leaf_sets(), st.floats(0.02, 2.0), st.integers(2, 60), st.floats(1.0, 12.0),
       st.data())
def test_interval_columns_equal_per_leaf_smoothing(curves, h, m, tau, data):
    grid = np.linspace(0.0, tau, m)
    leaf_ids = data.draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, len(curves) - 1), min_size=1, unique=True),
    ))
    chosen = curves if leaf_ids is None else [curves[i] for i in leaf_ids]
    got = _leaf_rows(chosen, grid, h)
    want = smoothed_rows_per_curve(chosen, grid, h)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(leaf_sets())
def test_interval_atoms_are_refine_uniform_atoms(curves):
    # the same atom locations, narrow gaps and tails included; masses
    # differ by rounding only (m/8 here, differences of levels there)
    for c in curves:
        t0, t1, m = mass_intervals(c)
        locs, unit = interval_atoms(t0, t1)
        want_locs, want_masses = curve_atoms(refine_uniform(c))
        got_locs = np.concatenate([np.empty(0), *locs])
        got_masses = np.concatenate([np.empty(0), *(u * mj for u, mj in zip(unit, m))])
        assert np.array_equal(got_locs, want_locs)
        np.testing.assert_allclose(got_masses, want_masses, rtol=0.0, atol=1e-15)


def test_shared_interval_is_smoothed_once(monkeypatch):
    import icrf.forest as forest

    seen = []
    real = forest.smoothed_values_matrix

    def spy(locs, masses, h, grid):
        seen.append(len(locs))
        return real(locs, masses, h, grid)

    monkeypatch.setattr(forest, "smoothed_values_matrix", spy)
    a = StepSurvival([1.0, 2.0], [0.6, 0.1])
    b = StepSurvival([1.0, 2.0, 3.0], [0.3, 0.2, 0.0])
    grid = np.linspace(0.0, 4.0, 9)
    got = forest._leaf_rows([a, b], grid, 0.3)
    assert seen == [3]  # (0, 1], (1, 2] and (2, 3]
    np.testing.assert_allclose(got, smoothed_rows_per_curve([a, b], grid, 0.3),
                               rtol=0.0, atol=1e-12)
