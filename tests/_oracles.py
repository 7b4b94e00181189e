"""Independent oracles used by the module and acceptance tests.

Each oracle deliberately avoids the code path it checks: the simplex
grid search enumerates Turnbull masses directly and the EM oracle runs the
self-consistency recursion rather than Newton steps, the Wilcoxon and
log-rank oracles work from raw event times via pair counting and risk
tables, and GWRS is summed over every pair of curves rather than over the
group means. The knot encoders are the loop forms that ``curves.step_knots``
replaced: a scan over sorted endpoints for Turnbull's intervals, a walk
over the masses for NPMLE curves (and the tail correction that rebuilds
one), and a keep-mask over grid cells for exploitative leaves. The
closed-form NPMLE of one or two maximal intersections is checked against
the iterative Newton path (``newton_fit``), and a tree's leaf store, built
for all leaves at once, against each leaf's curve built on its own
(``terminal_curve``). Fold-level prediction, which routes all of a fold's
trees at once and reads their reached leaves together, is checked against
the loop over trees (``predict_per_tree``), and its routing against a
walk down each tree, row by row (``route_loop``); so is a fit's batch of
trees, which it routes and reads through one routing table, against the
loop that routes and reads each tree on its own (``tree_batch_loop``). The columnar readers
of ``curves.LeafStore`` are checked against the per-curve forms they
replaced: ``interpolate_curve`` for interpolation, ``mass_intervals`` for
``smooth.mass_intervals_of``, and ``refine_uniform`` with each mass at
the right end of its interval (``right_end_atoms``) for smoothing. The kernel evaluation,
which stacks curves of one atom count and writes saturated kernel values
as constants, is checked against the loop that evaluates each curve and
each kernel value on its own (``smoothed_values_loop``). The GLR
statistic, which takes the terms its candidates share from the node, is
checked against the form that pools the two groups anew for each
candidate (``glr_from_sums_pooled``). GWRS and GLR, which read one
group's total and the node's terms, are checked against their forms
through both groups' mean curves (``gwrs_group_means``,
``glr_group_means``), and the tree grower, which copies no node's rows,
against the grower that copies each node's rows, scores candidates
through those forms and draws each cut-off on its own
(``grow_tree_copying``). ``generate``'s bracket of every
subject's time among its monitors at once is checked against the sort of
one subject's monitors (``bracket_sorted``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _compositions(total: int, k: int) -> np.ndarray:
    """All k-tuples of non-negative ints summing to total, as an array."""
    if k == 1:
        return np.asarray([[total]], dtype=np.int64)
    blocks = []
    for first in range(total + 1):
        rest = _compositions(total - first, k - 1)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def simplex_grid_loglik(membership: np.ndarray, step: float = 0.01) -> float:
    """Brute-force maximum of sum_i log(sum_j a_ij p_j) over the mass
    simplex discretized with the given step."""
    n, k = membership.shape
    units = int(round(1.0 / step))
    a = membership.astype(float)
    best = -np.inf
    if k == 1:
        return 0.0
    # chunk by the first coordinate to bound memory for larger k
    for first in range(units + 1):
        rest = _compositions(units - first, k - 1)
        masses = np.hstack(
            [np.full((rest.shape[0], 1), first, dtype=np.int64), rest]
        ).astype(float) * step
        probs = masses @ a.T  # (n_points, n_obs)
        with np.errstate(divide="ignore"):
            ll = np.sum(np.log(np.maximum(probs, 1e-300)), axis=1)
        best = max(best, float(ll.max()))
    return best


def wilcoxon_theta(t1: np.ndarray, t2: np.ndarray) -> float:
    """Classical two-sample estimate (#{T1<T2} + 0.5 #{T1=T2}) / (n1 n2)."""
    t1 = np.asarray(t1)[:, None]
    t2 = np.asarray(t2)[None, :]
    return float((np.sum(t1 < t2) + 0.5 * np.sum(t1 == t2)) / t1.size / t2.size)


def logrank_scaled(t1: np.ndarray, t2: np.ndarray) -> float:
    """Risk-table log-rank statistic with variance sum R1 R2 D (R-D)/R^3,
    divided by sqrt(n lambda1 lambda2)."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    times = np.unique(np.concatenate([t1, t2]))
    num = 0.0
    var = 0.0
    for t in times:
        r1 = np.sum(t1 >= t)
        r2 = np.sum(t2 >= t)
        r = r1 + r2
        if r == 0:
            continue
        d1 = np.sum(t1 == t)
        d2 = np.sum(t2 == t)
        d = d1 + d2
        num += (r2 * d1 - r1 * d2) / r
        var += r1 * r2 * d * (r - d) / r**3
    if var <= 0:
        return np.nan
    n = t1.size + t2.size
    lam = (t1.size / n) * (t2.size / n)
    return float(num / np.sqrt(var) / np.sqrt(n * lam))


def random_intervals(rng: np.random.Generator, n: int, p_unbounded: float = 0.25,
                     p_exact: float = 0.0):
    """Random censoring intervals for NPMLE tests."""
    lefts = rng.uniform(0.0, 3.0, size=n)
    lengths = rng.uniform(0.1, 2.5, size=n)
    rights = lefts + lengths
    unbounded = rng.uniform(size=n) < p_unbounded
    rights[unbounded] = np.inf
    exact = (~unbounded) & (rng.uniform(size=n) < p_exact)
    if exact.any():
        t = rights[exact]
        lefts[exact] = t * (1.0 - 1e-9)
    return lefts, rights


def random_step_curve(rng: np.random.Generator, max_knots: int = 8,
                      tau: float = 5.0, with_tail: bool = False):
    """A random valid step survival curve supported on (0, ~tau]."""
    from icrf import StepSurvival

    k = int(rng.integers(1, max_knots + 1))
    times = np.sort(rng.uniform(0.05, tau, size=k))
    while np.any(np.diff(times) <= 0):
        times = np.sort(rng.uniform(0.05, tau, size=k))
    drops = rng.dirichlet(np.ones(k + 1))
    values = 1.0 - np.cumsum(drops[:-1])
    tail = None
    if with_tail and values[-1] > 1e-6:
        tail = float(rng.uniform(0.2, 2.0))
    elif not with_tail:
        values[-1] = values[-1] if rng.uniform() < 0.5 else 0.0
        values = np.minimum.accumulate(values)
    return StepSurvival(times, values, tail_rate=tail)


def carried_rows_loop(base_rows, s_left, s_right, lefts, rights, grid, tau,
                      eps_mass: float = 1e-12):
    """Per-subject loop form of the carried full-conditional update: the
    projection of each covariate-conditional row onto the subject's
    interval, then its running minimum. Reference for curves.project_rows.

    base_rows: (n, m) values on ``grid`` (one row broadcasts to all);
    s_left/s_right: S(L_i|X_i), S(R_i|X_i).
    """
    n, m = len(lefts), grid.size
    out = np.empty((n, m))
    for i in range(n):
        left, right = lefts[i], rights[i]
        row = base_rows[i] if base_rows.shape[0] > 1 else base_rows[0]
        if np.isinf(right):
            if s_left[i] <= eps_mass:
                v = np.where(grid > left, np.exp(-(grid - left) / tau), 1.0)
            else:
                v = np.minimum(row / s_left[i], 1.0)
                v = np.where(grid <= left, 1.0, v)
        else:
            denom = s_left[i] - s_right[i]
            if denom <= eps_mass:
                hi = min(right, tau) if min(right, tau) > left else right
                v = np.interp(grid, [left, hi], [1.0, 0.0])
                v = np.where(grid > hi, 0.0, v)
            else:
                v = np.clip((row - s_right[i]) / denom, 0.0, 1.0)
                v = np.where(grid <= left, 1.0, v)
                v = np.where(grid > right, 0.0, v)
        out[i] = np.minimum.accumulate(v)
    return out


def interpolate_curve(curve, grid):
    """Within-interval uniform interpolation of one step curve, read by
    the curve alone: np.interp on (0, 1) and its knots, and the curve's
    own ``eval`` beyond the last knot (or everywhere, without knots).
    Reference for ``LeafStore.interpolate`` and ``StepSurvival.interpolate``."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if curve.times.size == 0:
        return curve.eval(grid)
    xs = np.concatenate(([0.0], curve.times))
    ys = np.concatenate(([1.0], curve.values))
    out = np.interp(grid, xs, ys)
    beyond = grid > curve.times[-1]
    if np.any(beyond):
        out = np.where(beyond, curve.eval(grid), out)
    return out


def mass_intervals(base):
    """Where one step curve's mass lies, read off its jump masses: arrays
    (t0, t1, mass), one entry per interval (t0, t1] that a mass spreads
    over (a narrow gap, and each tail atom, as the point interval at its
    end). Reference for ``smooth.mass_intervals_of``."""
    from icrf.curves import narrow_gaps
    from icrf.smooth import TAIL_ATOMS

    times = base.times
    masses = base.jump_masses()
    prev = np.concatenate(([0.0], times))[:-1]
    pos = masses > 0.0
    t0 = np.where(narrow_gaps(prev, times), times, prev)[pos]
    t1, masses = times[pos], masses[pos]
    rest = float(base.values[-1]) if base.times.size else 1.0  # beyond the knots
    if base.tail_rate is not None and base.tail_rate > 0.0 and rest > 0.0:
        last = base.times[-1] if base.times.size else 0.0
        k = np.arange(1, TAIL_ATOMS + 1)
        qs = last - np.log(1.0 - (k - 0.5) / TAIL_ATOMS) / base.tail_rate
        t0, t1 = np.concatenate((t0, qs)), np.concatenate((t1, qs))
        masses = np.concatenate((masses, np.full(TAIL_ATOMS, rest / TAIL_ATOMS)))
    return t0, t1, masses


def right_end_atoms(base):
    """Atom locations and masses of a step curve with each mass at the
    right end of its interval (``mass_intervals``). Of a curve that
    ``refine_uniform`` has spread, these are the spread atoms."""
    _, locs, masses = mass_intervals(base)
    return locs, masses


def smoothed_rows_per_curve(curves, grid, h):
    """Each curve smoothed on its own: its masses spread over their
    intervals by refine_uniform, turned into atoms by right_end_atoms and
    evaluated as one row of smoothed_values_matrix. Reference for the
    interval-column form in forest._leaf_rows and for smooth.smooth_curve."""
    from icrf.curves import refine_uniform
    from icrf.smooth import smoothed_values_matrix

    atoms = [right_end_atoms(refine_uniform(c)) for c in curves]
    return smoothed_values_matrix([a[0] for a in atoms], [a[1] for a in atoms], h, grid)


def smoothed_values_loop(atom_locs, atom_masses, h, grid, saturate: bool = True):
    """Each curve's mirror-form smoothed values on ``grid``, one curve at
    a time and every kernel value computed: the loop that
    smooth.smoothed_values_matrix stacks. The kernel CDF saturates to 0
    and 1 beyond smooth.CUT_Z, as the module's does; ``saturate=False``
    gives the plain ``ndtr`` form."""
    from scipy.special import ndtr

    from icrf.smooth import CUT_Z

    def cdf(z):
        p = ndtr(z)
        return np.where(z <= -CUT_Z, 0.0, np.where(z >= CUT_Z, 1.0, p)) if saturate else p

    out = np.empty((len(atom_locs), grid.size))
    for i, (locs, masses) in enumerate(zip(atom_locs, atom_masses)):
        if locs.size == 0:
            out[i] = 1.0
            continue
        direct = cdf((grid[:, None] - locs[None, :]) / h)
        mirror = cdf((-grid[:, None] - locs[None, :]) / h)
        out[i] = 1.0 - (direct - mirror) @ masses
    return np.clip(out, 0.0, 1.0, out=out)


def glr_from_sums_pooled(sum1, n1, sum2, n2, sign: str) -> float:
    """splits.glr_from_sums as it was before it took the node's terms: the
    pooled at-risk mass y = lam1*l1 + lam2*l2 and drop dn = lam1*dn1 +
    lam2*dn2 built anew for each candidate from the two groups' means, and
    the usable points read as a prefix slice."""
    from icrf.curves import EPS_MASS

    def mean_with_left(total, n):
        mean = total / n
        return mean, np.concatenate(([1.0], mean[:-1]))

    m1, l1 = mean_with_left(sum1, n1)
    m2, l2 = mean_with_left(sum2, n2)
    dn1, dn2 = l1 - m1, l2 - m2
    lam1, lam2 = n1 / (n1 + n2), n2 / (n1 + n2)
    y = lam1 * l1 + lam2 * l2
    dn = lam1 * dn1 + lam2 * dn2
    ok = y > EPS_MASS
    end = y.size if ok.all() else int(np.argmin(ok))
    l1, l2, dn1, dn2 = l1[:end], l2[:end], dn1[:end], dn2[:end]
    y_ok, dn_ok = y[:end], dn[:end]
    if sign == "difference":
        num = float(np.sum((l2 * dn1 - l1 * dn2) / y_ok))
    else:
        num = float(np.sum((l2 * dn1 + l1 * dn2) / y_ok))
    var = float(np.sum(l1 * l2 * dn_ok * (y_ok - dn_ok) / y_ok**3))
    if var <= 0.0:
        return np.nan
    return num / np.sqrt(var)


def read_on_knots(curve_lists, tau: float):
    """Step curves read on their pooled knots: the union of all knots at
    or below tau, with tau appended, so tau is the last column. Returns
    the knots and one (curves x knots) value matrix per list."""
    knots = np.unique(np.concatenate(
        [np.asarray([tau])] + [c.times[c.times <= tau] for cs in curve_lists for c in cs]))
    return knots, [np.vstack([c.eval(knots) for c in cs]) for cs in curve_lists]


def gwrs_pairwise(v1: np.ndarray, v2: np.ndarray) -> float:
    """O(n1*n2) pairwise-zeta form of GWRS: the mean over pairs (i, j)
    of 1 + int S_check_1i dS_2j - 0.5 S_1i(tau) S_2j(tau), on value
    matrices whose last column is tau."""
    l1 = np.concatenate((np.ones((v1.shape[0], 1)), v1[:, :-1]), axis=1)
    l2 = np.concatenate((np.ones((v2.shape[0], 1)), v2[:, :-1]), axis=1)
    check1 = 0.5 * (v1 + l1)
    ds2 = v2 - l2
    total = 0.0
    for i in range(v1.shape[0]):
        for j in range(v2.shape[0]):
            total += 1.0 + check1[i] @ ds2[j] - 0.5 * v1[i, -1] * v2[j, -1]
    return total / (v1.shape[0] * v2.shape[0])


def kkt_gap(fit, weights=None) -> float:
    """max_j d_j - 1 at an NpmleFit's returned masses, where d_j =
    sum_i w_i a_ij / (a_i . p) / sum(w); the masses are the NPMLE exactly
    when it is <= 0."""
    a = fit.intervals.membership.astype(float)
    weights = np.ones(a.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    live = weights > 0.0
    d = (weights[live] / (a[live] @ fit.masses)) @ a[live] / weights.sum()
    return float(d.max() - 1.0)


def em_loglik(membership: np.ndarray, weights=None, n_iter: int = 50_000) -> float:
    """Log-likelihood sum_i w_i log(a_i . p) reached by plain EM
    (self-consistency) on the Turnbull simplex from the uniform start,
    after n_iter steps or at the first step that leaves p unchanged."""
    weights = np.ones(membership.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    live = weights > 0.0
    a, w = membership[live].astype(float), weights[live] / weights.sum()
    p = np.full(a.shape[1], 1.0 / a.shape[1])
    for _ in range(n_iter):
        p_new = (w / (a @ p)) @ a * p
        if (p_new == p).all():
            break
        p = p_new
    return float(weights[live] @ np.log(a @ p))


def curve_context(data, carried, cov_curves=None):
    """``tree.fold_context`` of ``data`` with the carried step curves read
    on their pooled knots (knots beyond data.tau are dropped) and S(L_i),
    S(R_i) read off ``cov_curves`` on theirs by the fold's endpoint
    reader, which gives the step values exactly where the endpoints are
    knots; without ``cov_curves``, S(L) = 1 and S(R) = 0 for everyone."""
    from icrf.curves import endpoint_values_on_grid
    from icrf.tree import fold_context

    grid, (values,) = read_on_knots([carried], data.tau)
    if cov_curves is None:
        s_l, s_r = np.ones(data.n), np.zeros(data.n)
    else:
        knots, (rows,) = read_on_knots([cov_curves], data.tau)
        s_l, s_r = endpoint_values_on_grid(rows, data.lefts, data.rights, knots)
    return fold_context(data, grid, values, s_l, s_r)


def turnbull_intervals_loop(lefts, rights):
    """Turnbull's maximal intersections (q, p) by a scan over the sorted
    endpoints, R-points before L-points at ties: each L-point directly
    followed by an R-point."""
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    pts = np.concatenate((lefts, rights))
    is_left = np.concatenate((np.ones(lefts.size, dtype=int), np.zeros(rights.size, dtype=int)))
    order = np.lexsort((is_left, pts))
    pv, pl = pts[order], is_left[order]
    q, p = [], []
    for k in range(len(pv) - 1):
        if pl[k] == 1 and pl[k + 1] == 0:
            q.append(pv[k])
            p.append(pv[k + 1])
    return np.asarray(q), np.asarray(p)


def curve_from_masses_loop(lefts, rights, masses):
    """Walk over the positive masses on (lefts_j, rights_j]: a zero-jump
    knot at lefts_j where it is positive and beyond the last knot, then a
    drop at each finite rights_j. Returns (times, values)."""
    keep = masses > 0.0
    q, p, m = lefts[keep], rights[keep], masses[keep]
    after = 1.0 - np.cumsum(m)
    before = np.concatenate(([1.0], after[:-1]))
    times, values = [], []
    for j in range(m.size):
        if q[j] > 0.0 and (not times or q[j] > times[-1]):
            times.append(q[j])
            values.append(before[j])
        if np.isfinite(p[j]):
            times.append(p[j])
            values.append(max(after[j], 0.0))
    return np.asarray(times), np.asarray(values)


def tail_correct_loop(fit, has_unbounded: bool, tau=None):
    """The tail correction that rebuilds the curve with the last
    mass-bearing interval unbounded and, should the rebuilt curve end
    before that interval's start, appends a knot there. Returns (times,
    values, tail_rate); the rate is None without unbounded intervals."""
    if not has_unbounded:
        return fit.curve.times, fit.curve.values, fit.curve.tail_rate
    last = np.nonzero(fit.masses > 0.0)[0][-1]
    p_hat = float(fit.masses[last])
    a = float(fit.intervals.lefts[last])
    if a <= 0.0:
        rate = 1.0 / tau
    else:
        rate = -np.log(max(p_hat, 1e-300)) / a if p_hat < 1.0 else 0.0
    rights = fit.intervals.rights.copy()
    rights[last] = np.inf
    ts, vs = curve_from_masses_loop(fit.intervals.lefts, rights, fit.masses)
    if a > 0.0 and (ts.size == 0 or a > ts[-1]):
        ts = np.concatenate((ts, [a]))
        vs = np.concatenate((vs, [p_hat]))
    return ts, vs, rate


def curve_from_grid_values_mask(grid, vals):
    """Grid values compressed by a keep-mask: every cell that drops by
    more than 1e-15 and the grid point just before it. Returns (times,
    values)."""
    vals = np.minimum.accumulate(np.clip(vals, 0.0, 1.0))
    prev = np.concatenate(([1.0], vals[:-1]))
    drops = (prev - vals) > 1e-15
    keep = drops.copy()
    keep[:-1] |= drops[1:]
    return grid[keep], vals[keep]


def newton_fit(lefts, rights, weights=None):
    """``npmle_fit`` by Newton steps alone, whatever the number of maximal
    intersections: its Turnbull intervals, its constrained Newton path from
    the uniform start (``npmle._newton``) and its curve encoding. Returns
    the NpmleFit."""
    from icrf.npmle import DEFAULT_MAX_ITER, NpmleFit, _newton, turnbull_intervals

    tb = turnbull_intervals(lefts, rights)
    weights = np.ones(tb.membership.shape[0]) if weights is None else np.asarray(weights, float)
    live = weights > 0.0
    p, iterations, gap = _newton(tb.membership[live].astype(float),
                                 weights[live] / weights.sum(), DEFAULT_MAX_ITER)
    return NpmleFit(tb, p, iterations, gap, weights)


def terminal_curve(ctx, members, prediction: str):
    """The curve of the leaf with ``members``, built on its own:
    quasi-honest, ``newton_fit`` of the members' intervals with right ends
    capped at ``ctx.support_bound``; exploitative, the members' mean
    carried row compressed by the keep-mask encoder."""
    from icrf import StepSurvival

    if prediction == "quasi_honest":
        return newton_fit(ctx.lefts[members],
                          np.minimum(ctx.rights[members], ctx.support_bound)).curve
    mean = ctx.values[members].mean(axis=0)
    return StepSurvival(*curve_from_grid_values_mask(ctx.grid, mean))


def predict_per_tree(model, X, grid, fold=None, smoothed: bool = True):
    """``forest.predict`` tree by tree: each tree routes X on its own
    (``Tree.apply``) and reads the leaves it reached (``_routed_rows``),
    with one column table for the call, and the rows are added in tree
    order."""
    from icrf.forest import _routed_rows

    trees = model.folds[(model.k_opt if fold is None else fold) - 1].trees
    X, grid = np.atleast_2d(np.asarray(X, dtype=float)), np.asarray(grid, dtype=float)
    h = model.h if smoothed else None
    columns = {}
    acc = np.zeros((X.shape[0], grid.size))
    for tree in trees:
        acc += _routed_rows(tree, tree.apply(X), grid, h, columns)
    return acc / len(trees)


def tree_batch_loop(args):
    """``forest._build_tree_batch`` tree by tree: each tree is grown, then
    routes every subject on its own (``Tree.apply``) and reads the leaves
    it reached (``_routed_rows``): its OOB subjects' smoothed rows for its
    monitor error, and every subject's interpolated rows for the carried
    sums, added tree after tree (OOB subjects only, for ``oob_sum``). The
    last fold's batch (``carry`` false) reads no carried rows: its sums are
    None."""
    from icrf.forest import _monitor_error, _routed_rows
    from icrf.tree import grow_tree_ctx

    (ctx, tparams, seed, fold_k, b_list, s_size, h, mgrid, columns, metric, update_mode,
     carry) = args
    columns = {} if columns is None else columns
    n = ctx.n
    trees, oob_errs, npmle_gaps = [], [], []
    pred_sum = np.zeros((n, ctx.grid.size)) if carry else None
    oob_sum = np.zeros((n, ctx.grid.size)) if carry and update_mode == "oob" else None
    oob_cnt = np.zeros(n) if carry and update_mode == "oob" else None
    for b in b_list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, fold_k, b]))
        inbag = np.sort(rng.choice(n, size=s_size, replace=False))
        oob = np.setdiff1d(np.arange(n), inbag)
        tree = grow_tree_ctx(ctx, inbag, tparams, rng, npmle_gaps)
        leaf_of = tree.apply(ctx.X)
        rows = _routed_rows(tree, leaf_of[oob], mgrid, h, columns)
        oob_errs.append(_monitor_error(metric, rows, ctx.lefts[oob], ctx.rights[oob], ctx.tau,
                                       mgrid))
        trees.append(tree)
        if not carry:
            continue
        rows = _routed_rows(tree, leaf_of, ctx.grid, None)
        pred_sum += rows
        if update_mode == "oob":
            oob_sum[oob] += rows[oob]
            oob_cnt[oob] += 1.0
    return trees, oob_errs, pred_sum, oob_sum, oob_cnt, npmle_gaps


def route_loop(tree, X):
    """The leaf number each row of X reaches in ``tree``, walking its node
    arrays one row at a time (x <= cutoff routes left)."""
    out = np.empty(len(X), dtype=np.int64)
    for i, x in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.cutoff[node]
            node = tree.left[node] if go_left else tree.right[node]
        out[i] = tree.leaf_idx[node]
    return out


def bracket_sorted(t: float, monitors) -> tuple[float, float]:
    """(L, R] of T among one subject's sorted monitors: the last below T
    (0 if none) and the first at or above it (+inf if none)."""
    u = np.sort(np.asarray(monitors, dtype=float))
    below, above = u[u < t], u[u >= t]
    return (float(below[-1]) if below.size else 0.0,
            float(above[0]) if above.size else np.inf)


# -- the tree grower before inherited node totals ---------------------------


def _mean_with_left(total, n):
    mean = total / n
    return mean, np.concatenate(([1.0], mean[:-1]))


def gwrs_group_means(sum1, n1, sum2, n2) -> float:
    """W = 1 + int S_check_bar1 dS_bar2 - 0.5*S_bar1(tau)*S_bar2(tau) from
    both groups' totals on the shared grid, through their mean curves: the
    form ``splits.gwrs_from_sums`` had before it read the node's terms."""
    m1, l1 = _mean_with_left(sum1, n1)
    m2, l2 = _mean_with_left(sum2, n2)
    return float(1.0 + (0.5 * (m1 + l1)) @ (m2 - l2) - 0.5 * m1[-1] * m2[-1])


def glr_node_terms_group_means(total, n) -> tuple:
    """The usable prefix end, 1/y and the variance weight dn (y - dn) / y^3
    of a node's mean curve shifted right (y): the node terms GLR's
    group-mean form reads."""
    from icrf.curves import EPS_MASS

    mean, y = _mean_with_left(total, n)
    ok = y > EPS_MASS
    end = y.size if ok.all() else int(np.argmin(ok))
    y = y[:end]
    dn = y - mean[:end]
    return end, 1.0 / y, dn * (y - dn) / y**3


def glr_group_means(sum1, n1, sum2, n2, node: tuple, sign: str) -> float:
    """GLR from both groups' totals through their mean curves m and right
    shifts l: num = (l1 m2 - l2 m1) . 1/y (``difference``) or (2 l1 l2 -
    l1 m2 - l2 m1) . 1/y (``printed_sum``) and var = (l1 l2) . weight,
    with the node's terms ``glr_node_terms_group_means``; nan when var
    vanishes."""
    end, inv_y, weight = node
    m1, l1 = _mean_with_left(sum1[:end], n1)
    m2, l2 = _mean_with_left(sum2[:end], n2)
    l12 = l1 * l2
    if sign == "difference":
        num = float((l1 * m2 - l2 * m1) @ inv_y)
    else:
        num = float((2.0 * l12 - l1 * m2 - l2 * m1) @ inv_y)
    var = float(l12 @ weight)
    if var <= 0.0:
        return np.nan
    return num / np.sqrt(var)


def _node_arrays_copying(kind: str, rows: np.ndarray) -> tuple:
    from icrf.splits import GLR, GWRS
    from icrf.tree import SCORE_RESIDUE

    if kind == GWRS:
        return rows, rows.sum(axis=0)
    if kind == GLR:
        total = rows.sum(axis=0)
        return rows, total, glr_node_terms_group_means(total, rows.shape[0])
    return rows, rows.sum(), SCORE_RESIDUE * np.abs(rows).sum()


def _node_score_copying(rule, ctx_arrays, mask: np.ndarray, counts) -> float:
    from icrf.splits import GLR, GWRS

    kind = rule.kind
    n_left, n_right = counts
    if kind == GWRS:
        vn, total = ctx_arrays
        left_sum = mask @ vn
        return abs(gwrs_group_means(left_sum, n_left, total - left_sum, n_right) - 0.5)
    if kind == GLR:
        vn, total, node = ctx_arrays
        left_sum = mask @ vn
        stat = glr_group_means(left_sum, n_left, total - left_sum, n_right, node, rule.glr_sign)
        return 0.0 if np.isnan(stat) else abs(stat)
    scores, total, residue = ctx_arrays
    left_sum = mask @ scores
    diff = abs(left_sum / n_left - (total - left_sum) / n_right)
    return 0.0 if diff <= residue else diff


def grow_tree_copying(ctx, inbag, params, rng, node_scores: list | None = None):
    """``tree.grow_tree_ctx`` as it was before inherited node totals: each
    node copies its rows of carried values on the split columns and sums
    them, each candidate's left sum is a product of the left mask with the
    copy, and GWRS and GLR are read through the group means; each cut-off
    is its own ``rng.uniform`` call. When ``node_scores`` is a list, each
    node that draws candidates appends (node id, its valid candidates'
    scores) to it, in the order the nodes are grown."""
    from icrf.exceptions import InsufficientData
    from icrf.splits import GLR, GWRS, SWRS
    from icrf.tree import Tree, _leaf_store

    inbag = np.asarray(inbag, dtype=np.int64)
    n_min = params.n_min
    if inbag.size < n_min:
        raise InsufficientData(f"in-bag size {inbag.size} < n_min {n_min}")
    mtry = params.resolved_mtry(ctx.p)
    kind = params.rule.kind
    split_cols = slice(0, ctx.m_split)

    feature, cutoff, left, right, leaf_idx = [], [], [], [], []
    leaf_members = []

    def new_node():
        feature.append(-1)
        cutoff.append(np.nan)
        left.append(-1)
        right.append(-1)
        leaf_idx.append(-1)
        return len(feature) - 1

    def make_leaf(node_id, members):
        leaf_idx[node_id] = len(leaf_members)
        leaf_members.append(members)

    root = new_node()
    stack = [(root, inbag)]
    while stack:
        node_id, members = stack.pop()
        size = members.size
        if size < 2 * n_min:
            make_leaf(node_id, members)
            continue

        xn = ctx.X[members]
        node_arrays = _node_arrays_copying(
            kind, ctx.values[members, split_cols] if kind in (GWRS, GLR)
            else (ctx.sw if kind == SWRS else ctx.slr)[members])

        feats = rng.choice(ctx.p, size=mtry, replace=False)
        best = (0.0, None)  # (score, (f, c, mask))
        scores = []
        for f in feats:
            col = xn[:, f]
            lo, hi = col.min(), col.max()
            if not lo < hi:
                continue  # constant feature: empty open interval
            c = rng.uniform(lo, hi)
            mask = (col <= c).astype(float)
            n_left = int(mask.sum())
            if n_left < n_min or size - n_left < n_min:
                continue
            s = _node_score_copying(params.rule, node_arrays, mask, (n_left, size - n_left))
            scores.append(s)
            if s > best[0]:
                best = (s, (f, c, mask))
        if node_scores is not None:
            node_scores.append((node_id, scores))

        if best[1] is None:
            make_leaf(node_id, members)
            continue
        f, c, mask = best[1]
        feature[node_id] = int(f)
        cutoff[node_id] = float(c)
        left_id = new_node()
        right_id = new_node()
        left[node_id] = left_id
        right[node_id] = right_id
        lmask = mask.astype(bool)
        # left child processed first (DFS), so push right first
        stack.append((right_id, members[~lmask]))
        stack.append((left_id, members[lmask]))

    store = _leaf_store(ctx, leaf_members, params.prediction)
    return Tree(feature, cutoff, left, right, leaf_idx, store, inbag)
