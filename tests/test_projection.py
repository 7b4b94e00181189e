"""Property tests of the conditional-projection kernel curves.project_rows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from icrf.curves import project_rows

from _oracles import carried_rows_loop

TAU = 3.0  # below most grids, so intervals reaching past tau occur
unit = st.floats(0.0, 1.0)


@st.composite
def projections(draw):
    """Grid, covariate-conditional rows and per-subject intervals with
    their endpoint values, covering every branch of the kernel."""
    m = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(0.05, 1.5), min_size=m, max_size=m))
    grid = np.cumsum(steps)
    n = draw(st.integers(1, 6))
    n_rows = draw(st.sampled_from([1, n]))
    rows = np.asarray([
        np.sort(draw(st.lists(unit, min_size=m, max_size=m)))[::-1] for _ in range(n_rows)
    ])
    lefts, rights, s_l, s_r = [], [], [], []
    for i in range(n):
        row = rows[i if n_rows > 1 else 0]
        # lefts at or below the first grid point and rights at or past the
        # last one reach both ends of the kernel's column bounds
        left = float(draw(st.one_of(st.just(0.0), st.sampled_from(list(grid)),
                                    st.floats(0.0, float(grid[0])),
                                    st.floats(0.0, float(grid[-1])))))
        later = [float(t) for t in grid if t > left]
        right = draw(st.one_of(st.just(np.inf), st.floats(0.01, 4.0).map(lambda w: left + w),
                               st.floats(0.0, 2.0).map(lambda w: max(float(grid[-1]), left) + w)
                               .filter(lambda r: r > left),
                               st.sampled_from(later) if later else st.just(np.inf)))
        sl = 1.0 if left <= 0.0 else float(np.interp(left, grid, row))
        sr = 0.0 if np.isinf(right) else float(np.interp(right, grid, row))
        branch = draw(st.sampled_from(["exact", "no_mass", "drawn"]))
        if branch == "no_mass":  # both degenerate fallbacks
            sl, sr = (0.0, 0.0) if np.isinf(right) else (sl, sl)
        elif branch == "drawn":
            sl, sr = draw(unit), (0.0 if np.isinf(right) else draw(unit))
        lefts.append(left)
        rights.append(right)
        s_l.append(sl)
        s_r.append(sr)
    return rows, np.asarray(s_l), np.asarray(s_r), np.asarray(lefts), np.asarray(rights), grid


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(projections())
def test_kernel_equals_loop_reference(case):
    rows, s_l, s_r, lefts, rights, grid = case
    got = project_rows(rows, s_l, s_r, lefts, rights, grid, TAU)
    np.minimum.accumulate(got, axis=1, out=got)  # in place, as the carried update takes it
    want = carried_rows_loop(rows, s_l, s_r, lefts, rights, grid, TAU)
    assert np.array_equal(got, want)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(projections())
def test_projection_shape(case):
    rows, s_l, s_r, lefts, rights, grid = case
    raw = project_rows(rows, s_l, s_r, lefts, rights, grid, TAU)
    assert np.all((raw >= 0.0) & (raw <= 1.0))
    v = np.minimum.accumulate(raw, axis=1)
    assert np.all(np.diff(v, axis=1) <= 0.0)
    assert np.all(v[grid <= lefts[:, None]] == 1.0)
    assert np.all(v[grid > rights[:, None]] == 0.0)

