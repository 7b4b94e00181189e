"""Property tests of the smoothed rows of forest._leaf_rows: one kernel
column per distinct mass interval, mixed by the curves' masses, against
each curve smoothed on its own; and smooth.smooth_curve, the smoothing
of one curve, against the forest's row of that curve."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from icrf import StepSurvival, smooth_curve
from icrf.curves import LeafStore, refine_uniform
from icrf.forest import _leaf_rows
from icrf.smooth import interval_atoms

from _oracles import mass_intervals, right_end_atoms, smoothed_rows_per_curve

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
    idx = None if leaf_ids is None else np.asarray(leaf_ids)
    got = _leaf_rows(LeafStore.of(curves), grid, h, idx)
    want = smoothed_rows_per_curve(chosen, grid, h)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # a curve's row does not depend on the other curves of the call
    for row, c in zip(got, chosen):
        assert np.array_equal(row, _leaf_rows(LeafStore.of([c]), grid, h)[0])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(leaf_sets())
def test_interval_atoms_are_refine_uniform_atoms(curves):
    # the same atom locations, narrow gaps and tails included; masses
    # differ by rounding only (m/8 here, differences of levels there)
    for c in curves:
        t0, t1, m = mass_intervals(c)
        locs, unit = interval_atoms(t0, t1)
        want_locs, want_masses = right_end_atoms(refine_uniform(c))
        got_locs = np.concatenate([np.empty(0), *locs])
        got_masses = np.concatenate([np.empty(0), *(u * mj for u, mj in zip(unit, m))])
        assert np.array_equal(got_locs, want_locs)
        np.testing.assert_allclose(got_masses, want_masses, rtol=0.0, atol=1e-15)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(leaf_sets(), st.floats(0.02, 2.0), st.integers(2, 60), st.floats(1.0, 12.0))
def test_smooth_curve_is_the_forest_smoothing(curves, h, m, tau):
    # on a grid that runs past tau, where both hold the curve flat
    grid = np.linspace(0.0, 1.5 * tau, m)
    for c in curves:
        got = smooth_curve(c, h, tau).eval(grid)
        want = _leaf_rows(LeafStore.of([c]), np.minimum(grid, tau), h)[0]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(leaf_sets(), st.floats(0.02, 2.0), st.integers(2, 60), st.floats(1.0, 12.0),
       st.data())
def test_prefilled_column_table_gives_fresh_rows(curves, h, m, tau, data):
    # a table that an earlier call on other curves filled, sharing at least
    # one curve and so its intervals, gives the rows of a call without one
    grid = np.linspace(0.0, tau, m)
    ids = st.lists(st.integers(0, len(curves) - 1), min_size=1, unique=True)
    earlier, later = data.draw(ids), data.draw(ids)
    if earlier[0] not in later:
        later.append(earlier[0])
    columns = {}
    _leaf_rows(LeafStore.of([curves[i] for i in earlier]), grid, h, columns=columns)
    filled = dict(columns)
    got = _leaf_rows(LeafStore.of(curves), grid, h, np.asarray(later), columns)
    assert np.array_equal(got, _leaf_rows(LeafStore.of(curves), grid, h, np.asarray(later)))
    # the table keeps what it held and gains only the new intervals
    assert all(columns[k] is col for k, col in filled.items())


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
    got = forest._leaf_rows(LeafStore.of([a, b]), grid, 0.3)
    assert seen == [3]  # (0, 1], (1, 2] and (2, 3]
    np.testing.assert_allclose(got, smoothed_rows_per_curve([a, b], grid, 0.3),
                               rtol=0.0, atol=1e-12)
    # with a table, a later call smooths only the intervals it lacks
    columns = {}
    forest._leaf_rows(LeafStore.of([a]), grid, 0.3, columns=columns)
    again = forest._leaf_rows(LeafStore.of([a, b]), grid, 0.3, columns=columns)
    assert seen == [3, 2, 1] and len(columns) == 3  # then (2, 3] alone
    assert np.array_equal(again, got)
    forest._leaf_rows(LeafStore.of([b]), grid, 0.3, columns=columns)
    assert seen == [3, 2, 1]  # nothing left to smooth


def test_curve_without_mass_intervals_gives_ones():
    # a curve that places no mass (no knots, or only a zero-jump knot) is
    # the row 1 wherever it stands, and the curves around it keep the rows
    # they have on their own
    a = StepSurvival([1.0, 2.0], [0.6, 0.1])
    b = StepSurvival([1.5, 3.0], [0.5, 0.2])
    grid = np.linspace(0.0, 4.0, 9)
    for empty in (StepSurvival([], []), StepSurvival([1.0], [1.0])):
        got = _leaf_rows(LeafStore.of([a, empty, b, empty]), grid, 0.3)
        assert np.all(got[[1, 3]] == 1.0)
        assert np.array_equal(got[0], _leaf_rows(LeafStore.of([a]), grid, 0.3)[0])
        assert np.array_equal(got[2], _leaf_rows(LeafStore.of([b]), grid, 0.3)[0])
        assert np.all(_leaf_rows(LeafStore.of([empty]), grid, 0.3) == 1.0)
    assert _leaf_rows(LeafStore.of([]), grid, 0.3).shape == (0, grid.size)
    assert _leaf_rows(LeafStore.of([]), grid, None).shape == (0, grid.size)
