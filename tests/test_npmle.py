"""Turnbull intervals, the certified Newton NPMLE, and the tail correction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import icrf.npmle as npmle_mod
from icrf import npmle_fit, tail_correct, turnbull_intervals
from icrf.dataio import encode_exact
from icrf.exceptions import DimensionMismatch, EmptyInput, InvalidAnchor

from _oracles import em_loglik, kkt_gap, newton_fit, random_intervals, simplex_grid_loglik


# One quasi-honest leaf of a scenario-5 forest (n=300, M=3, GWRS; 39
# members, 7 Turnbull intervals, right ends capped at the support bound).
# Newton steps alone stall here at a KKT gap of 2.2e-9: near the optimum
# the line search's gain falls below the rounding of its sums.
STALL_LEFTS = [
    0.0, 0.0, 0.0, 0.4256032228234547, 0.0, 0.9071475779207285, 0.0, 0.7770623337043312,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1857838899927382, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.305932553698678, 0.0, 0.0, 0.03611837779105082, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.18641459183613102, 0.0, 0.0, 0.4713337725322065, 0.0, 0.0, 0.0, 0.0, 0.0
]
STALL_RIGHTS = [
    9.271807821089547, 0.1271600105725368, 8.42285144995296, 7.829899994316235,
    0.64849270423751, 3.064396840265792, 0.7450508400002078, 1.2779814173673434,
    1.3535865850415139, 0.9514449746560579, 0.7432057693668538, 7.621623254912185,
    20.57865652952546, 0.4438686718801834, 1.798702875657949, 0.685769883654266,
    0.4988154441756733, 0.6546977258575586, 1.7614272293656155, 3.3974455467513063,
    2.7416469852607404, 2.726955276328017, 1.8402318847383135, 4.249817532665022,
    0.40045559912596795, 7.5642090770692825, 0.6252386993505521, 0.6054830852351283,
    1.456369496543572, 20.6072503609422, 1.438890984765966, 0.6265702727492383,
    0.2699424880392059, 5.510450140463964, 5.729520788517979, 1.3337258116443773,
    0.6367448318762606, 0.8794605836899437, 20.398921023248306
]


class TestTurnbull:
    def test_single_observation(self):
        tb = turnbull_intervals([1.0], [2.0])
        assert tb.n_intervals == 1
        assert tb.lefts[0] == 1.0 and tb.rights[0] == 2.0
        assert tb.membership[0, 0]

    def test_overlap_gives_intersection(self):
        tb = turnbull_intervals([1.0, 1.5], [2.0, 3.0])
        assert tb.n_intervals == 1
        assert (tb.lefts[0], tb.rights[0]) == (1.5, 2.0)

    def test_disjoint_inputs(self):
        tb = turnbull_intervals([0.0, 2.0], [1.0, 3.0])
        assert tb.n_intervals == 2
        np.testing.assert_array_equal(tb.lefts, [0.0, 2.0])
        np.testing.assert_array_equal(tb.rights, [1.0, 3.0])
        # each observation claims exactly its own interval
        np.testing.assert_array_equal(tb.membership, np.eye(2, dtype=bool))

    def test_touching_intervals_stay_separate(self):
        tb = turnbull_intervals([1.0, 2.0], [2.0, 3.0])
        assert tb.n_intervals == 2
        np.testing.assert_array_equal(tb.lefts, [1.0, 2.0])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            turnbull_intervals([], [])


# ends that are not one 1-D pair used to broadcast into a fit of the wrong
# intervals (lengths 2 and 1) or raise numpy's bare ValueError (2-D)
BAD_ENDS = {
    "lengths_differ": ([1.0, 2.0], [3.0]),
    "lefts_2d": ([[1.0, 2.0]], [[3.0, 4.0]]),
    "scalar": (1.0, 2.0),
}


@pytest.mark.parametrize("case", list(BAD_ENDS))
@pytest.mark.parametrize("call", [turnbull_intervals, npmle_fit], ids=["turnbull", "npmle_fit"])
def test_bad_ends_are_dimension_mismatch(call, case):
    with pytest.raises(DimensionMismatch):
        call(*BAD_ENDS[case])


@pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]],
                         ids=["short", "long", "2d"])
def test_weights_of_another_length_are_dimension_mismatch(weights):
    # a short weights array used to raise a bare IndexError
    with pytest.raises(DimensionMismatch):
        npmle_fit([1.0, 1.5], [2.0, 3.0], weights=weights)


class TestNpmleFit:
    def test_all_exact_equals_empirical_survival(self):
        times = np.array([0.7, 1.3, 2.9, 3.4, 4.8])
        pairs = [encode_exact(t) for t in times]
        fit = npmle_fit([p[0] for p in pairs], [p[1] for p in pairs])
        n = times.size
        # bit-for-bit: same cumulative arithmetic as the ECDF complement
        expected = 1.0 - np.cumsum(np.full(n, 1.0 / n))
        got = np.asarray([fit.curve.eval(t) for t in times])
        np.testing.assert_array_equal(got, expected)
        assert fit.converged

    def test_two_interval_example(self):
        fit = npmle_fit([1.0, 1.5], [2.0, 3.0])
        np.testing.assert_allclose(fit.masses, [1.0])
        assert fit.curve.eval(1.5) == 1.0
        assert fit.curve.eval(2.0) == 0.0

    def test_weighted_exact_reproduces_weighted_ecdf(self):
        times = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 2.0, 1.0])
        pairs = [encode_exact(t) for t in times]
        fit = npmle_fit([p[0] for p in pairs], [p[1] for p in pairs], weights=weights)
        np.testing.assert_allclose(fit.masses, weights / weights.sum(), atol=1e-12)

    def test_matches_brute_force_small_instances(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 7))
            lefts, rights = random_intervals(rng, n)
            tb = turnbull_intervals(lefts, rights)
            if tb.n_intervals > 5:
                continue
            fit = npmle_fit(lefts, rights)
            grid_best = simplex_grid_loglik(tb.membership)
            assert fit.loglik >= grid_best - 1e-4
            checked += 1

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            lefts, rights = random_intervals(rng, int(rng.integers(3, 30)))
            fit = npmle_fit(lefts, rights)
            assert abs(fit.masses.sum() - 1.0) < 1e-8
            assert np.all(fit.masses >= 0.0)


# interval ends on a lattice, so that they often coincide, or anywhere
ends = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), st.floats(0.0, 3.0))


@st.composite
def small_samples(draw):
    """Up to eight unweighted intervals, bounded, exact and right-unbounded
    ones mixed, that make at most five Turnbull intervals."""
    lefts, rights = [], []
    for _ in range(draw(st.integers(1, 8))):
        left = draw(ends)
        kind = draw(st.sampled_from(["bounded", "exact", "unbounded"]))
        if kind == "exact":
            left, right = encode_exact(left + 0.25)
        elif kind == "unbounded":
            right = np.inf
        else:
            right = left + draw(st.one_of(st.just(0.5), st.floats(0.1, 2.5)))
        lefts.append(left)
        rights.append(right)
    assume(turnbull_intervals(lefts, rights).n_intervals <= 5)
    return np.asarray(lefts), np.asarray(rights)


class TestNpmleProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(small_samples())
    def test_loglik_reaches_brute_force_maximum(self, sample):
        lefts, rights = sample
        fit = npmle_fit(lefts, rights)
        assert fit.loglik >= simplex_grid_loglik(fit.intervals.membership) - 1e-4


@st.composite
def weighted_samples(draw):
    """Up to twelve weighted intervals: bounded, exact, right-unbounded
    and repeats (ties) of earlier ones."""
    lefts, rights = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["bounded", "exact", "unbounded", "tie"]))
        if kind == "tie" and lefts:
            j = draw(st.integers(0, len(lefts) - 1))
            left, right = lefts[j], rights[j]
        elif kind == "exact":
            left, right = encode_exact(draw(ends) + 0.25)
        elif kind == "unbounded":
            left, right = draw(ends), np.inf
        else:
            left = draw(ends)
            right = left + draw(st.one_of(st.just(0.5), st.floats(0.1, 2.5)))
        lefts.append(left)
        rights.append(right)
    weights = draw(st.lists(st.floats(0.05, 5.0), min_size=len(lefts), max_size=len(lefts)))
    return np.asarray(lefts), np.asarray(rights), np.asarray(weights)


SUPPORT_BOUND = 3.5  # right-unbounded ends are capped here, as a tree's leaves cap them


@st.composite
def few_intersection_samples(draw):
    """Weighted samples with one or two maximal intersections: intervals on
    a lattice, so that they touch and tie, exact ones and right-unbounded
    ones capped at SUPPORT_BOUND, some weights zero. Or the case no live
    row decides: two zero-weight rows that touch make two intersections,
    and every live row holds both."""
    if draw(st.sampled_from(["drawn", "drawn", "drawn", "unseparated"])) == "unseparated":
        a, b, c = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                                       min_size=3, max_size=3, unique=True)))
        live = draw(st.integers(1, 4))
        lefts = [a, b] + [draw(st.sampled_from([0.0, a]))] * live
        rights = [b, c] + [draw(st.sampled_from([c, SUPPORT_BOUND]))] * live
        weights = [0.0, 0.0] + draw(st.lists(st.floats(0.05, 5.0), min_size=live, max_size=live))
        return np.asarray(lefts), np.asarray(rights), np.asarray(weights)
    lefts, rights = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["bounded", "exact", "capped"]))
        left = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]))
        if kind == "exact":
            left, right = encode_exact(left + 0.25)
        elif kind == "capped":
            right = SUPPORT_BOUND
        else:
            right = left + draw(st.sampled_from([0.5, 1.0, 1.5]))
        lefts.append(left)
        rights.append(right)
    assume(turnbull_intervals(lefts, rights).n_intervals <= 2)
    weights = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 5.0)),
                            min_size=len(lefts), max_size=len(lefts)))
    assume(sum(weights) > 0.0)
    return np.asarray(lefts), np.asarray(rights), np.asarray(weights)


class TestNpmleKkt:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(weighted_samples())
    def test_certified_and_not_below_em(self, sample):
        lefts, rights, weights = sample
        fit = npmle_fit(lefts, rights, weights=weights)
        assert fit.kkt_gap <= npmle_mod.KKT_TOL
        assert kkt_gap(fit, weights=weights) <= npmle_mod.KKT_TOL
        assert abs(fit.masses.sum() - 1.0) <= 1e-12
        assert fit.loglik >= em_loglik(fit.intervals.membership, weights) - 1e-12

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(few_intersection_samples())
    def test_closed_form_certified_and_not_below_newton(self, sample):
        lefts, rights, weights = sample
        fit = npmle_fit(lefts, rights, weights=weights)
        assert fit.intervals.n_intervals <= 2 and fit.iterations == 0
        assert fit.kkt_gap <= npmle_mod.KKT_TOL
        assert kkt_gap(fit, weights=weights) <= npmle_mod.KKT_TOL
        assert abs(fit.masses.sum() - 1.0) <= 1e-12
        assert fit.loglik >= newton_fit(lefts, rights, weights=weights).loglik - 1e-12

    def test_unseparated_intersections_stay_uniform(self):
        # zero-weight rows (0, 1] and (1, 2] make two intersections that the
        # live row (0, 2] does not separate: every masses are optimal, and
        # the fit keeps the uniform start, as the Newton path does
        lefts, rights, weights = [0.0, 1.0, 0.0], [1.0, 2.0, 2.0], [0.0, 0.0, 2.0]
        fit = npmle_fit(lefts, rights, weights=weights)
        assert fit.intervals.n_intervals == 2
        assert np.array_equal(fit.masses, [0.5, 0.5])
        assert np.array_equal(newton_fit(lefts, rights, weights=weights).masses, [0.5, 0.5])
        assert fit.converged


@st.composite
def leaf_partitions(draw):
    """The members of a tree's quasi-honest leaves, one leaf after another:
    leaves of one Turnbull interval (every member holds (0.5, 1]), of two
    (two disjoint clusters, and members that span both) and of more (three
    or more distinct exact times, and free intervals), each kind at least
    once, in a drawn order; right-unbounded ends are capped at
    SUPPORT_BOUND, as a tree's leaves cap them. Returns the lefts, the
    capped rights and the leaf sizes."""
    kinds = list(draw(st.permutations(["one", "two", "more"])))
    kinds += draw(st.lists(st.sampled_from(["one", "two", "more"]), max_size=4))
    lefts, rights, sizes = [], [], []
    for kind in kinds:
        if kind == "one":
            ls = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=1, max_size=6))
            rs = [draw(st.sampled_from([1.0, 1.5, np.inf])) for _ in ls]
        elif kind == "two":
            early, late, span = (draw(st.integers(lo, 3)) for lo in (1, 1, 0))
            ls = ([draw(st.sampled_from([0.0, 0.25])) for _ in range(early)]
                  + [draw(st.sampled_from([1.0, 1.25])) for _ in range(late)] + [0.0] * span)
            rs = ([draw(st.sampled_from([0.5, 0.75])) for _ in range(early)]
                  + [draw(st.sampled_from([1.5, np.inf])) for _ in range(late + span)])
        else:
            times = draw(st.lists(st.sampled_from([0.2, 0.9, 1.7, 2.6, 3.1]), min_size=3,
                                  max_size=5, unique=True))
            ls, rs = (list(e) for e in zip(*(encode_exact(t) for t in times)))
            for _ in range(draw(st.integers(0, 8))):
                left = draw(ends)
                ls.append(left)
                rs.append(draw(st.one_of(st.just(np.inf), st.floats(0.1, 2.5).map(left.__add__))))
        order = draw(st.permutations(range(len(ls))))
        lefts += [ls[i] for i in order]
        rights += [rs[i] for i in order]
        sizes.append(len(ls))
    return np.asarray(lefts), np.minimum(rights, SUPPORT_BOUND), np.asarray(sizes)


class TestBatch:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(leaf_partitions())
    def test_leaf_pass_equals_npmle_fit_leaf_by_leaf(self, partition):
        lefts, rights, sizes = partition
        batch = npmle_mod.npmle_batch(lefts, rights, sizes)
        times, values, offsets = batch.knots()
        ends = np.concatenate(([0], np.cumsum(sizes)))
        ks = []
        for j, size in enumerate(sizes):
            fit = npmle_fit(lefts[ends[j]:ends[j + 1]], rights[ends[j]:ends[j + 1]])
            mine = batch.problem == j
            assert np.array_equal(batch.lefts[mine], fit.intervals.lefts)
            assert np.array_equal(batch.rights[mine], fit.intervals.rights)
            assert np.array_equal(batch.masses[mine], fit.masses)
            assert batch.kkt_gaps[j] == fit.kkt_gap
            assert batch.iterations[j] == fit.iterations
            knots = slice(offsets[j], offsets[j + 1])
            assert np.array_equal(times[knots], fit.curve.times)
            assert np.array_equal(values[knots], fit.curve.values)
            ks.append(fit.intervals.n_intervals)
        assert {1, 2} <= set(ks) and max(ks) > 2  # closed-form and Newton leaves mixed


class TestEmProperties:
    def test_loglik_monotone_and_residual(self):
        # no accepted Newton step lowers the log-likelihood: the fit stopped
        # after k steps is no worse than after k - 1, and the certified fit
        # is not below any of them
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(3, 25))
            lefts, rights = random_intervals(rng, n)
            weights = rng.uniform(0.1, 3.0, size=n)
            path = [npmle_fit(lefts, rights, weights=weights, max_iter=k).loglik
                    for k in range(1, 51)]
            assert np.all(np.diff(path) >= -1e-9)
            fit = npmle_fit(lefts, rights, weights=weights)
            assert fit.converged
            assert fit.loglik >= max(path) - 1e-9
            assert kkt_gap(fit, weights=weights) <= npmle_mod.KKT_TOL

    def test_stalled_newton_step_is_certified_by_em(self):
        fit = npmle_fit(STALL_LEFTS, STALL_RIGHTS)
        assert fit.iterations < npmle_mod.DEFAULT_MAX_ITER  # stalled, not out of budget
        assert fit.intervals.n_intervals == 7
        assert fit.converged
        assert kkt_gap(fit) <= npmle_mod.KKT_TOL
        assert abs(fit.masses.sum() - 1.0) <= 1e-12
        assert fit.loglik >= em_loglik(fit.intervals.membership) - 1e-12

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(14)
        lefts, rights = random_intervals(rng, 40)
        fit = npmle_fit(lefts, rights, max_iter=2)
        assert not fit.converged
        assert fit.iterations == 2


class TestTailCorrect:
    def test_identity_without_unbounded(self):
        fit = npmle_fit([1.0, 1.5], [2.0, 3.0])
        out = tail_correct(fit, has_unbounded=False)
        assert out is fit.curve

    def test_exponential_tail_values(self):
        fit = npmle_fit([0.5, 2.0], [2.0, np.inf])
        out = tail_correct(fit, has_unbounded=True)
        assert np.isclose(out.eval(2.0), 0.5)
        assert np.isclose(out.eval(4.0), 0.25)

    def test_full_mass_unbounded_is_flat(self):
        # p_hat = 1: degenerate flat tail, S == 1 everywhere
        fit = npmle_fit([2.0], [np.inf])
        out = tail_correct(fit, has_unbounded=True)
        assert out.eval(100.0) == 1.0

    def test_invalid_anchor_fallback(self):
        fit = npmle_fit([0.0], [np.inf])
        with pytest.raises(InvalidAnchor):
            tail_correct(fit, has_unbounded=True)
        out = tail_correct(fit, has_unbounded=True, tau=5.0)
        assert np.isclose(out.eval(5.0), np.exp(-1.0))

    def test_middle_masses_not_relocated(self):
        # three Turnbull atoms; the tail correction must only touch the last
        lefts = [0.5, 2.0, 4.0]
        rights = [1.0, 3.0, np.inf]
        fit = npmle_fit(lefts, rights)
        out = tail_correct(fit, has_unbounded=True)
        for t in (0.4, 1.0, 2.5, 3.0):
            assert np.isclose(out.eval(t), fit.curve.eval(t), atol=1e-12)

    def test_corrected_curve_is_valid(self):
        rng = np.random.default_rng(15)
        grid = np.linspace(0, 10, 500)
        for _ in range(30):
            lefts, rights = random_intervals(rng, int(rng.integers(3, 20)), p_unbounded=0.5)
            fit = npmle_fit(lefts, rights)
            out = tail_correct(fit, has_unbounded=bool(np.any(np.isinf(rights))), tau=5.0)
            vals = np.asarray(out.eval(grid))
            assert np.all(np.diff(vals) <= 1e-12)
            assert vals.min() >= 0.0 and vals.max() <= 1.0
