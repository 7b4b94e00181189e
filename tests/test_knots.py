"""The one knot encoding of step curves, ``curves.step_knots``, against
the loop forms it replaced (Turnbull's endpoint scan, the walk over NPMLE
masses, the tail correction that rebuilt a curve, the keep-mask over grid
cells), bit for bit; and its round trip through ``smooth.mass_intervals``.

Endpoints come from a small pool, so intervals touch and tie, with points
one ulp apart (ties within 1e-16), left ends at 0 and right ends at inf.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from icrf import StepSurvival, npmle_fit, tail_correct, turnbull_intervals
from icrf.curves import narrow_gaps
from icrf.npmle import _curve_from_masses
from icrf.smooth import mass_intervals
from icrf.tree import curve_from_grid_values

from _oracles import (curve_from_grid_values_mask, curve_from_masses_loop, tail_correct_loop,
                      turnbull_intervals_loop)

SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def points(draw, min_size=1, max_size=8):
    """Increasing positive times, some one ulp past the one before."""
    steps = draw(st.lists(st.floats(0.01, 2.0), min_size=min_size, max_size=max_size))
    base = np.cumsum(steps)
    ulp = np.nextafter(base, np.inf)
    pick = np.asarray(draw(st.lists(st.booleans(), min_size=base.size, max_size=base.size)))
    return np.unique(np.concatenate((base, ulp[pick])))


@st.composite
def intervals(draw):
    """Observations (L, R] on a shared endpoint pool holding 0 and inf."""
    pool = np.concatenate(([0.0], draw(points()), [np.inf]))
    n = draw(st.integers(1, 12))
    lefts, rights = [], []
    for _ in range(n):
        i = draw(st.integers(0, pool.size - 2))
        j = draw(st.integers(i + 1, pool.size - 1))
        lefts.append(pool[i])
        rights.append(pool[j])
    return np.asarray(lefts), np.asarray(rights)


def masses_for(draw, k):
    """k masses summing to one, some exactly zero."""
    raw = np.asarray(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                                   min_size=k, max_size=k)))
    if raw.sum() == 0.0:
        raw[draw(st.integers(0, k - 1))] = 1.0
    return raw / raw.sum()


def assert_same_curve(curve, times, values, tail_rate=None):
    want = StepSurvival(times, values, tail_rate=tail_rate)
    assert np.array_equal(curve.times, want.times)
    assert np.array_equal(curve.values, want.values)
    assert curve.tail_rate == want.tail_rate


@SETTINGS
@given(intervals())
def test_turnbull_intervals_equal_endpoint_scan(obs):
    tb = turnbull_intervals(*obs)
    q, p = turnbull_intervals_loop(*obs)
    assert np.array_equal(tb.lefts, q)
    assert np.array_equal(tb.rights, p)


@SETTINGS
@given(intervals(), st.data())
def test_npmle_curves_equal_mass_walk(obs, data):
    fit = npmle_fit(*obs)
    q, p = fit.intervals.lefts, fit.intervals.rights
    assert_same_curve(fit.curve, *curve_from_masses_loop(q, p, fit.masses))
    masses = masses_for(data.draw, q.size)
    assert_same_curve(_curve_from_masses(q, p, masses), *curve_from_masses_loop(q, p, masses))


@SETTINGS
@given(intervals(), st.booleans(), st.data())
def test_tail_correction_equals_rebuild(obs, has_unbounded, data):
    fit = npmle_fit(*obs)
    masses = masses_for(data.draw, fit.masses.size)
    q, p = fit.intervals.lefts, fit.intervals.rights
    refit = dataclasses.replace(fit, masses=masses)  # its curve follows the new masses
    assert_same_curve(refit.curve, *curve_from_masses_loop(q, p, masses))
    for f in (fit, refit):
        out = tail_correct(f, has_unbounded, tau=5.0)
        assert_same_curve(out, *tail_correct_loop(f, has_unbounded, tau=5.0))


@st.composite
def grid_rows(draw):
    """A grid and values on it: flat runs, drops at and around the leaf
    mass tolerance, rises and values outside [0, 1]."""
    grid = draw(points(max_size=30))
    steps = draw(st.lists(
        st.one_of(st.just(0.0), st.sampled_from([5e-16, 1e-15, 2e-15]),
                  st.floats(-0.05, 0.3)),
        min_size=grid.size, max_size=grid.size))
    start = draw(st.sampled_from([1.0, 1.05]))
    return grid, start - np.cumsum(steps)


@SETTINGS
@given(grid_rows())
def test_grid_curves_equal_keep_mask(row):
    grid, vals = row
    times, values, offsets = curve_from_grid_values(grid, vals[None, :])
    assert np.array_equal(offsets, [0, times.size])
    assert_same_curve(StepSurvival(times, values), *curve_from_grid_values_mask(grid, vals))


@SETTINGS
@given(points(min_size=2, max_size=16), st.data())
def test_mass_intervals_read_back_the_encoded_intervals(pts, data):
    """Masses on disjoint ordered intervals, touching or not, the first
    possibly from 0 and the last possibly unbounded, encoded as a curve:
    mass_intervals gives back the finite intervals exactly (narrow ones as
    the point interval at their end) and the masses within 1e-15."""
    ends = np.concatenate(([0.0], pts))
    starts, stops = [], []
    k = 0 if data.draw(st.booleans()) else 1
    while k + 1 < ends.size:
        starts.append(ends[k])
        stops.append(ends[k + 1])
        k += data.draw(st.sampled_from([1, 2]))  # touch the next interval or leave a gap
    starts, stops = np.asarray(starts), np.asarray(stops)
    if data.draw(st.booleans()):
        stops[-1] = np.inf
    masses = np.asarray(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=starts.size,
                                           max_size=starts.size)))
    masses *= data.draw(st.sampled_from([1.0, 0.7])) / masses.sum()  # 0.7: a defective curve
    t0, t1, m = mass_intervals(_curve_from_masses(starts, stops, masses))
    finite = np.isfinite(stops)
    assert np.array_equal(t1, stops[finite])
    want_t0 = np.where(narrow_gaps(starts, stops), stops, starts)[finite]
    assert np.array_equal(t0, want_t0)
    np.testing.assert_allclose(m, masses[finite], rtol=0.0, atol=1e-15)
