"""The columnar leaf store against the per-curve code it stands in for, bit
for bit: ``LeafStore.interpolate`` and ``StepSurvival.interpolate`` (its
one-curve case) against the per-curve reading ``interpolate_curve``,
``smooth.mass_intervals_of`` against the per-curve ``mass_intervals``, and the
vectorized checks of a model file's leaf arrays against ``StepSurvival``'s
own, over the curves of one tree or of two; plus the save -> load -> save
round trip of fitted models.

Curves come from a small knot pool, so they share knots, with gaps too
narrow to refine (point intervals), zero-mass marker knots, exponential
tails and curves without knots.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icrf
from icrf import StepSurvival
from icrf.curves import LeafStore
from icrf.exceptions import InvariantViolation, ParseError
from icrf.serialize import LEAF_ARRAYS, TREE_ARRAYS, _Kind, _leaf_stores
from icrf.smooth import mass_intervals_of

from _oracles import interpolate_curve, mass_intervals

EPS = np.finfo(float).eps
SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def curve_lists(draw):
    base = np.cumsum(draw(st.lists(st.floats(0.05, 1.5), min_size=1, max_size=8)))
    close = base * (1.0 + draw(st.sampled_from([2, 16, 31])) * EPS)
    pool = np.unique(np.concatenate((base, close)))
    curves = []
    for _ in range(draw(st.integers(1, 6))):
        picks = draw(st.lists(st.integers(0, pool.size - 1), max_size=pool.size, unique=True))
        times = pool[np.sort(np.asarray(picks, dtype=int))]
        drops = np.asarray([draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))) for _ in times])
        rest = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
        total = drops.sum() + rest
        values = 1.0 - np.cumsum(drops) / total if total > 0.0 else np.ones(times.size)
        tail = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.1, 3.0)))
        curves.append(StepSurvival(times, np.maximum(values, 0.0), tail_rate=tail))
    return curves, pool


@st.composite
def grids(draw, pool):
    """Evaluation points: the knots themselves, points between and beyond
    them, 0 and negative points; sorted or not, with repeats."""
    between = draw(st.lists(st.floats(-0.5, float(pool[-1]) * 1.5), max_size=12))
    knots = draw(st.lists(st.sampled_from(list(pool)), max_size=6))
    grid = np.asarray(between + knots + draw(st.lists(st.just(0.0), max_size=1)), dtype=float)
    return grid if draw(st.booleans()) else np.sort(grid)


@st.composite
def selections(draw, n):
    """None (every curve) or curve numbers, any order, repeats allowed."""
    return draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), max_size=8)
                          .map(lambda ids: np.asarray(ids, dtype=np.intp))))


@SETTINGS
@given(st.data())
def test_store_interpolation_equals_per_curve(data):
    curves, pool = data.draw(curve_lists())
    grid = data.draw(grids(pool))
    idx = data.draw(selections(len(curves)))
    got = LeafStore.of(curves).interpolate(grid, idx)
    chosen = curves if idx is None else [curves[i] for i in idx]
    want = np.asarray([interpolate_curve(c, grid) for c in chosen]).reshape(len(chosen), grid.size)
    assert np.array_equal(got, want)
    for c, row in zip(chosen, want):
        assert np.array_equal(c.interpolate(grid), row)


@SETTINGS
@given(st.data())
def test_store_mass_intervals_equal_per_curve(data):
    curves, _ = data.draw(curve_lists())
    idx = data.draw(selections(len(curves)))
    idx = np.arange(len(curves)) if idx is None else idx
    t0, t1, masses, sizes = mass_intervals_of(LeafStore.of(curves), idx)
    parts = [mass_intervals(curves[i]) for i in idx]
    assert np.array_equal(sizes, [part[0].size for part in parts])
    for j, got in enumerate((t0, t1, masses)):
        assert np.array_equal(got, np.concatenate([np.empty(0)] + [part[j] for part in parts]))


# one change to a valid curve each; those marked "ok" stay inside
# StepSurvival's tolerances
DEFECTS = {
    "time_zero": lambda t, v, r: (np.r_[0.0, t[1:]], v, r),
    "time_negative": lambda t, v, r: (np.r_[-1.0, t[1:]], v, r),
    "time_nan": lambda t, v, r: (np.r_[t[:-1], np.nan], v, r),
    "time_inf": lambda t, v, r: (np.r_[t[:-1], np.inf], v, r),
    "time_repeated": lambda t, v, r: (np.r_[t[:1], t[:-1]], v, r),
    "time_falling": lambda t, v, r: (t[::-1], v, r),
    "value_below": lambda t, v, r: (t, np.r_[v[:-1], -2e-12], r),
    "value_below_ok": lambda t, v, r: (t, np.r_[v[:-1], -5e-13], r),
    "value_above": lambda t, v, r: (t, np.r_[1.0 + 2e-12, v[1:]], r),
    "value_above_ok": lambda t, v, r: (t, np.r_[1.0 + 5e-13, v[1:]], r),
    "value_nan": lambda t, v, r: (t, np.r_[v[:-1], np.nan], r),
    "value_rising": lambda t, v, r: (t, np.r_[v[:-1], v[-2:-1] + 2e-12], r),
    "value_rising_ok": lambda t, v, r: (t, np.r_[v[:-1], v[-2:-1] + 5e-13], r),
    "rate_negative": lambda t, v, r: (t, v, -1.0),
    "rate_inf_ok": lambda t, v, r: (t, v, np.inf),
}


@st.composite
def raw_curves(draw):
    """Knot arrays as a model file may hold them: a valid curve of two or
    more knots (or none), changed by at most one of DEFECTS."""
    size = draw(st.sampled_from([0, 2, 3, 5]))
    times = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=size, max_size=size)))
    values = -np.sort(-np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=size,
                                                max_size=size)), dtype=float))
    rate = draw(st.sampled_from([None, 0.0, 0.7]))
    defect = draw(st.sampled_from([None, None] + sorted(DEFECTS)))
    if defect is None or size == 0:
        return np.asarray(times, dtype=float), values, rate
    return DEFECTS[defect](times, values, rate)


def _checked_stores(trees: list) -> list[LeafStore]:
    """The LeafStores ``serialize`` reads from the leaf arrays of
    ``trees``, each a list of (times, values, rate), checked in one pass."""
    arrays = {name: [] for name in ("inbag",) + LEAF_ARRAYS}
    for raw in trees:
        parts = {
            "inbag": np.empty(0, dtype=np.int64),
            "ltimes": np.concatenate([np.empty(0)] + [t for t, _, _ in raw]),
            "lvalues": np.concatenate([np.empty(0)] + [v for _, v, _ in raw]),
            "loffsets": np.cumsum([0] + [t.size for t, _, _ in raw]).astype(np.int64),
            "lrates": np.asarray([np.nan if r is None else r for _, _, r in raw], dtype=float),
            "lmembers": np.empty(0, dtype=np.int64),
            "lmoffsets": np.zeros(len(raw) + 1, dtype=np.int64),
        }
        for name, arr in parts.items():
            arrays[name].append(arr)
    prefixes = [f"t{i}_" for i in range(len(trees))]
    kinds = {}
    for name, parts in arrays.items():
        kinds[name] = _Kind([(a.dtype, a.shape) for a in parts], prefixes, name,
                            TREE_ARRAYS[name], "m.bin")
        kinds[name].cat[:] = np.concatenate(parts)
    return _leaf_stores(kinds, [len(raw) for raw in trees])


@SETTINGS
@given(st.lists(raw_curves(), max_size=3), st.booleans())
def test_store_checks_reject_what_step_survival_rejects(raw, two_trees):
    try:
        want = [StepSurvival(t, v, tail_rate=r) for t, v, r in raw]
    except InvariantViolation:
        want = None
    # in two trees, the first holds the first half of the curves
    trees = [raw[:len(raw) // 2], raw[len(raw) // 2:]] if two_trees else [raw]
    if want is None:
        with pytest.raises(ParseError):
            _checked_stores(trees)
        return
    stores = _checked_stores(trees)
    views = [store.curve(i) for store in stores for i in range(store.n)]
    assert np.array_equal(np.concatenate([store.values for store in stores]),
                          np.concatenate([np.empty(0)] + [c.values for c in want]))
    assert len(views) == len(want)
    for view, c in zip(views, want):
        assert np.array_equal(view.times, c.times) and np.array_equal(view.values, c.values)
        assert view.tail_rate == c.tail_rate


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(st.sampled_from([1, 2, 5]), st.sampled_from(["quasi_honest", "exploitative"]),
       st.sampled_from(["GWRS", "GLR", "SWRS", "SLR"]), st.integers(0, 2**16))
def test_save_load_save_is_byte_identical(scenario, kind, rule, seed):
    data = icrf.generate(icrf.Scenario(scenario, n=60, seed=seed)).dataset
    model = icrf.fit(data, icrf.ForestParams(
        n_tree=2, n_fold=2, seed=seed,
        tree=icrf.TreeParams(prediction=kind, rule=icrf.SplitRule(rule))))
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.bin"), os.path.join(d, "b.bin")
        icrf.save_model(model, first)
        loaded = icrf.load_model(first)
        icrf.save_model(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    grid = np.linspace(0.0, data.tau, 17)
    for smoothed in (False, True):
        assert np.array_equal(icrf.predict(loaded, data.X[:9], grid, smoothed=smoothed),
                              icrf.predict(model, data.X[:9], grid, smoothed=smoothed))
    for tree, again in zip(model.folds[0].trees, loaded.folds[0].trees):
        for leaf, leaf_again in zip(tree.leaves, again.leaves):
            assert np.array_equal(leaf.curve.times, leaf_again.curve.times)
            assert np.array_equal(leaf.member_ids, leaf_again.member_ids)
