"""Recursive forest driver: per-fold ensembles with 95% subsampling,
carried-curve updates between folds, OOB convergence monitoring,
best-fold selection, prediction, and permutation variable importance.

Each fold starts from rows on the knot grid, the marginal's for the first
fold and the previous forest's after it, reads S(L_i), S(R_i) off them
(``curves.endpoint_values_on_grid``) and projects them onto the subjects'
intervals (``curves.project_rows``); so does the IMSE2 monitor. The first
row, OOB monitoring, smoothed prediction and variable importance smooth
with the leaves' kernel, ``_leaf_rows``: one kernel column per distinct
mass interval, and per curve the sum of its own masses times its own
columns, so a leaf's row depends on that leaf alone. OOB monitoring
routes each tree first (``_routed_rows``) and smooths or interpolates
only the leaves its rows reach, reading them straight from the tree's
``LeafStore``.

Prediction and variable importance work on the fold as a whole, through
its routing table (``ForestFold.routing``, a ``FoldRouting`` built on the
fold's first such call and never saved): the trees' node arrays stacked
into one, which ``tree.route`` walks for every tree at once, and all the
fold's leaf curves in one ``LeafStore``. ``predict`` routes the queries
through every tree in one pass and reads all the leaves they reach in one
``_leaf_rows`` call, or in a few when the rows would pass GATHER_BUDGET
grid values (``_reached_sum``); variable importance, which routes the
whole sample many times, computes every leaf's row once, in the same
bounded groups. Either adds each query's rows tree by tree, in tree
order, so its answer is that of a loop over the trees, bit for bit.

The columns live in one table per call, a dict from interval to column
for the call's single bandwidth and grid: ``fit`` keeps one for the
monitor grid through all its folds and tree batches (with n_jobs > 1,
one process pool serves the fit, and each worker keeps its own table for
it), and ``predict``, ``oob_error`` and ``variable_importance`` each make
one that the fold's trees share. An interval is therefore smoothed once
per call, not once per tree; no table outlives its call. A column is a
pure function of its interval, the bandwidth and the grid, so rows, OOB
errors and model files are the same, bit for bit, whichever table
computed it and whatever the worker count.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# refine_uniform and curve_atoms are not called here (smoothing works on mass
# intervals), but perfbench/tracing.py wraps them as attributes of this
# module; the benchmark change that repairs its tracer (ROADMAP direction 1)
# removes these two imports
from .curves import (LeafStore, StepSurvival, endpoint_values_on_grid, project_rows,  # noqa: F401
                     refine_uniform)
from .dataio import Dataset
from .exceptions import (
    DimensionMismatch,
    EmptyOob,
    InsufficientData,
    InvalidFold,
    InvariantViolation,
    NpmleWarning,
)
from .npmle import KKT_TOL, npmle_fit, tail_correct
from .smooth import (  # noqa: F401
    bandwidth,
    check_bandwidth,
    curve_atoms,
    interval_atoms,
    mass_intervals_of,
    smoothed_values_matrix,
)
from .tree import Tree, TreeParams, fold_context, grow_tree_ctx, route, support_bound_of

MONITOR_GRID_N = 201  # trapezoid resolution for smoothed-curve metrics
GRID_REFINE_N = 64  # uniform refinement of (0, tau] added to the knot grid
TREE_BATCH = 8  # fixed batching so results do not depend on worker count
METRICS = ("imse1", "imse2")  # OOB monitoring and importance metrics
# the IMSE2 projection divides a row by S(L) - S(R), which amplifies the
# row's rounding by its inverse; at or below eps**(1/4) ~ 1.2e-4 it takes
# the fallback curve of ``project_rows``, so a change of one ulp in the rows moves a conditional
# row by at most about eps**(3/4) ~ 1.8e-12
IMSE2_MASS_FLOOR = np.finfo(float).eps ** 0.25
UPDATE_MODES = ("full", "oob")  # carried curves from all trees, or from OOB trees only
# the most grid values (leaf rows x grid points) one ``_leaf_rows`` call of a
# fold-level predict or importance computes, 8 MB of rows: a one-query
# predict is one call up to 10,000 trees on a 101-point grid
GATHER_BUDGET = 1 << 20


@dataclass(frozen=True)
class ForestParams:
    n_tree: int = 300
    n_fold: int = 10
    subsample: float = 0.95
    tree: TreeParams = field(default_factory=TreeParams)
    initial_smooth: bool = True
    monitor_metric: str = "imse1"  # one of METRICS
    seed: int = 0
    n_jobs: int = 1
    update_curves: str = "full"  # one of UPDATE_MODES
    c_override: float | None = None

    def __post_init__(self):
        if self.n_tree < 1 or self.n_fold < 1:
            raise InsufficientData("n_tree and n_fold must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise InsufficientData("subsample must be in (0, 1]")
        if self.monitor_metric not in METRICS:
            raise InsufficientData(
                f"monitor_metric must be one of {METRICS}, got {self.monitor_metric!r}"
            )
        if self.update_curves not in UPDATE_MODES:
            raise InsufficientData(
                f"update_curves must be one of {UPDATE_MODES}, got {self.update_curves!r}"
            )
        if self.c_override is not None:
            # h = c_override * n_min**(-1/5) is then a bandwidth too
            check_bandwidth(self.c_override, InsufficientData, "c_override")


@dataclass(frozen=True)
class FoldRouting:
    """A fold's trees as one routing table: their node arrays stacked tree
    after tree, child numbers shifted to the stacked positions, with each
    tree's root and, at each leaf node, the fold-wide number of its leaf;
    and every leaf curve of the fold in one ``LeafStore``, numbered tree
    after tree (tree t's leaves are leaf_start[t]:leaf_start[t + 1]). The
    store is a copy of the trees' curves, so a fold that has predicted
    holds its leaf curves twice."""

    feature: np.ndarray
    cutoff: np.ndarray
    left: np.ndarray
    right: np.ndarray
    roots: np.ndarray
    leaf: np.ndarray
    leaf_start: np.ndarray
    store: LeafStore

    @classmethod
    def of(cls, trees) -> FoldRouting:
        sizes = [t.feature.size for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        leaf_start = np.cumsum([0] + [t.n_leaves for t in trees])
        node_shift = np.repeat(roots, sizes)
        leaf_shift = np.repeat(leaf_start[:-1], sizes)

        def stacked(name):
            return np.concatenate([getattr(t, name) for t in trees])

        split = stacked("feature") >= 0
        return cls(stacked("feature"), stacked("cutoff"),
                   np.where(split, stacked("left") + node_shift, -1),
                   np.where(split, stacked("right") + node_shift, -1), roots,
                   np.where(split, -1, stacked("leaf_idx") + leaf_shift), leaf_start,
                   LeafStore.stack([t.store for t in trees]))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Fold-wide leaf number of each row of X in each tree: an array
        (trees, rows), each row ``Tree.apply`` of its tree shifted by the
        tree's leaf_start."""
        node = route(self.feature, self.cutoff, self.left, self.right, X, self.roots)
        return self.leaf[node].reshape(self.roots.size, X.shape[0])


@dataclass
class ForestFold:
    fold_index: int
    trees: list[Tree]
    per_tree_oob: np.ndarray

    @property
    def oob_error(self) -> float:
        return float(np.nanmean(self.per_tree_oob))

    @cached_property
    def routing(self) -> FoldRouting:
        """The fold's routing table, built on first use (a fold's first
        predict or importance call) and never saved."""
        return FoldRouting.of(self.trees)


@dataclass
class IcrfModel:
    params: ForestParams
    feature_names: list[str]
    tau: float
    h: float
    initial_marginal: StepSurvival
    folds: list[ForestFold]
    k_opt: int

    @property
    def oob_errors(self) -> np.ndarray:
        return np.asarray([f.oob_error for f in self.folds])


def monitor_grid(tau: float) -> np.ndarray:
    return np.linspace(0.0, tau, MONITOR_GRID_N)


# -- shared knot grid -------------------------------------------------------


def build_grid(data: Dataset, extra=()) -> np.ndarray:
    """All finite positive interval endpoints, a uniform refinement of
    (0, tau], and tau itself."""
    tau = data.tau
    pieces = [
        data.lefts[data.lefts > 0.0],
        data.rights[np.isfinite(data.rights)],
        np.linspace(0.0, tau, GRID_REFINE_N + 1)[1:],
        np.asarray(extra, dtype=float),
    ]
    grid = np.unique(np.concatenate(pieces))
    return grid[grid > 0.0]


# -- smoothed-curve metrics on a fixed grid ---------------------------------


def _seg_integral(grid, vals, a, b, one_minus: bool) -> float:
    """Trapezoid of S^2 (or (1-S)^2) on [a, b] with exact endpoints."""
    if b <= a:
        return 0.0
    inside = grid[(grid > a) & (grid < b)]
    xs = np.concatenate(([a], inside, [b]))
    ys = np.interp(xs, grid, vals)
    f = (1.0 - ys) ** 2 if one_minus else ys**2
    return float(np.trapezoid(f, xs))


def imse1_on_rows(rows, lefts, rights, tau, grid) -> float:
    """IMSE1 of per-subject survival rows sampled on ``grid``."""
    terms = []
    for i in range(rows.shape[0]):
        lo = min(lefts[i], tau)
        hi = min(rights[i], tau)
        length = tau - hi + lo
        if length <= 0.0:
            continue
        num = _seg_integral(grid, rows[i], 0.0, lo, True) + _seg_integral(
            grid, rows[i], hi, tau, False
        )
        terms.append(num / length)
    return float(np.mean(terms)) if terms else np.nan


def imse2_on_rows(rows, lefts, rights, tau, grid) -> float:
    """IMSE2 of per-subject covariate-conditional rows on ``grid``; the
    full-conditional side is the projection of each row, or its fallback
    curve where the row puts at most IMSE2_MASS_FLOOR on the interval."""
    s_l, s_r = endpoint_values_on_grid(rows, lefts, rights, grid)
    cond = project_rows(rows, s_l, s_r, lefts, rights, grid, tau, IMSE2_MASS_FLOOR)
    terms = np.trapezoid((cond - rows) ** 2, grid, axis=1) / tau
    return float(terms.mean()) if terms.size else np.nan


def _monitor_error(metric, rows, lefts, rights, tau, grid) -> float:
    if metric not in METRICS:
        raise InsufficientData(f"metric must be one of {METRICS}, got {metric!r}")
    fn = imse1_on_rows if metric == "imse1" else imse2_on_rows
    return fn(rows, lefts, rights, tau, grid)


def _leaf_rows(store: LeafStore, grid, h: float | None, idx=None, columns=None) -> np.ndarray:
    """Curves ``idx`` (all by default) of ``store`` (a tree's leaves, or
    the marginal) on ``grid``, one row per curve: smoothed with bandwidth
    ``h``, or read through within-interval interpolation when h is None
    (``LeafStore.interpolate``).

    Smoothing is linear in the jump masses, which are spread uniformly
    over their intervals first (``smooth.mass_intervals_of``). Leaves share
    many intervals (exploitative leaves put all their mass on fold-grid
    cells, quasi-honest leaves on Turnbull intervals), so each distinct
    interval is smoothed once, as a unit-mass column F_k, and a curve's
    row is 1 - sum_j m_j F_k(j) over its own intervals j in its own order.

    ``columns``, a dict that belongs to one (``h``, ``grid``) pair, is the
    calling ``fit``, ``predict``, ``oob_error`` or ``variable_importance``
    call's table of columns F_k, keyed by the interval's complex key
    t0 + i*t1: only the intervals missing from it are smoothed, and they
    are added to it. A column depends on its interval, ``h`` and ``grid``
    alone, computed on its own, and each sum on its curve alone, so a
    curve's row does not depend on the other curves of the call, nor on
    what the table held before, to the last bit.
    """
    if h is None:
        return store.interpolate(grid, idx)
    idx = np.arange(store.n) if idx is None else idx
    t0, t1, masses, sizes = mass_intervals_of(store, idx)
    if not t0.size:  # no curve places any mass, or there is no curve
        return np.ones((idx.size, grid.size))
    # distinct intervals by a 1-d key: complex numbers sort by real part, then
    # imaginary part
    key = np.empty(t0.size, dtype=complex)
    key.real, key.imag = t0, t1
    keys, col = np.unique(key, return_inverse=True)
    columns = {} if columns is None else columns
    listed = keys.tolist()
    new = [k for k in listed if k not in columns]
    if new:
        at = keys if len(new) == keys.size else np.array(new)
        locs, unit = interval_atoms(at.real, at.imag)
        fresh = 1.0 - smoothed_values_matrix(locs, unit, h, grid)
        columns.update(zip(new, fresh))
    # columns in ``keys`` order; when all are new, that is ``fresh`` itself
    cdf = fresh if len(new) == keys.size else np.array([columns[k] for k in listed])
    # a CSR matrix times a dense one adds each row's stored entries to that
    # row one after another, in their stored order (a dense product's
    # summation order would depend on which columns the call holds); a curve
    # with no interval sums to 0. Imported here, as nnls is: `import icrf`
    # should not pay for scipy.sparse
    from scipy.sparse import csr_array

    offsets = np.concatenate(([0], np.cumsum(sizes)))
    mix = csr_array((masses, col.reshape(-1), offsets), shape=(idx.size, keys.size))
    return np.clip(1.0 - mix @ cdf, 0.0, 1.0)


def _routed_rows(tree, leaf_of, grid, h: float | None, columns=None) -> np.ndarray:
    """Rows (``_leaf_rows``, with the column table ``columns``) of the
    leaves ``leaf_of`` names, one per entry; only the leaves reached are
    smoothed or interpolated."""
    reached = np.flatnonzero(np.bincount(leaf_of, minlength=tree.n_leaves))
    slot = np.zeros(tree.n_leaves, dtype=np.intp)
    slot[reached] = np.arange(reached.size)
    return _leaf_rows(tree.store, grid, h, reached, columns)[slot[leaf_of]]


def _group_size(grid) -> int:
    """Leaf rows per ``_leaf_rows`` call of a fold-level read: as many as
    GATHER_BUDGET grid values hold, and one at least."""
    return max(1, GATHER_BUDGET // max(grid.size, 1))


def _reached_sum(table: FoldRouting, leaf_of, grid, h: float | None) -> np.ndarray:
    """Sum over the fold's trees, in tree order, of the row (``_leaf_rows``)
    of the leaf each query reaches; ``leaf_of`` holds the fold-wide leaf
    numbers, (trees, queries). Only the reached leaves are read, in groups
    of at most GATHER_BUDGET grid values, each group one ``_leaf_rows``
    call and all of them one column table. A tree whose reached leaves
    fall in two groups adds each query's row from the group that holds
    it, so every query still takes its trees' rows in tree order."""
    n_leaves = table.store.n
    reached = np.flatnonzero(np.bincount(leaf_of.ravel(), minlength=n_leaves))
    slot = np.zeros(n_leaves, dtype=np.intp)
    slot[reached] = np.arange(reached.size)
    # tree t's reached leaves hold the slots bounds[t]:bounds[t + 1]
    bounds = np.searchsorted(reached, table.leaf_start).tolist()
    step = _group_size(grid)
    acc = np.zeros((leaf_of.shape[1], grid.size))
    columns, lo = {}, None
    for t, at in enumerate(slot[leaf_of]):
        a, b = bounds[t], bounds[t + 1]
        for g in range(a // step, (b - 1) // step + 1):
            if g * step != lo:
                lo = g * step
                rows = _leaf_rows(table.store, grid, h, reached[lo:lo + step], columns)
            if lo <= a and b <= lo + step:
                acc += rows[at - lo]
            else:
                part = (at >= lo) & (at < lo + step)
                acc[part] += rows[at[part] - lo]
    return acc


def _forest_rows(table: FoldRouting, rows, X) -> np.ndarray:
    """Equal-weight average over the fold's trees of the rows (``rows``,
    one per fold-wide leaf) of the leaves X routes to."""
    leaf_of = table.apply(X)
    acc = np.zeros((X.shape[0], rows.shape[1]))
    for tree_leaves in leaf_of:
        acc += rows[tree_leaves]
    return acc / leaf_of.shape[0]


def _tree_oob_error(tree, leaf_of, lefts, rights, tau, h, grid, metric, columns) -> float:
    """Monitor metric of the tree's smoothed prediction for its OOB
    subjects, routed to the leaves ``leaf_of``; ``columns`` is the column
    table of (h, grid)."""
    rows = _routed_rows(tree, leaf_of, grid, h, columns)
    return _monitor_error(metric, rows, lefts, rights, tau, grid)


# -- tree batch construction -------------------------------------------------


_worker_columns: dict = {}  # a worker process's column table for the fit its pool serves


def _init_worker():
    global _worker_columns
    _worker_columns = {}


def _build_tree_batch(args):
    """One batch of a fold's trees. ``columns`` is the fit's monitor-grid
    column table when the batch runs in the fitting process, or None in a
    worker process, which then uses its own table (``_init_worker``)."""
    (ctx, tparams, seed, fold_k, b_list, s_size, h, mgrid, columns, metric, update_mode) = args
    columns = _worker_columns if columns is None else columns
    n = ctx.n
    trees, oob_errs = [], []
    pred_sum = np.zeros((n, ctx.grid.size))
    oob_sum = np.zeros((n, ctx.grid.size)) if update_mode == "oob" else None
    oob_cnt = np.zeros(n) if update_mode == "oob" else None
    npmle_gaps = []
    for b in b_list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, fold_k, b]))
        inbag = np.sort(rng.choice(n, size=s_size, replace=False))
        oob = np.setdiff1d(np.arange(n), inbag)
        tree = grow_tree_ctx(ctx, inbag, tparams, rng, npmle_gaps)
        leaf_of = tree.apply(ctx.X)
        oob_errs.append(_tree_oob_error(
            tree, leaf_of[oob], ctx.lefts[oob], ctx.rights[oob], ctx.tau, h, mgrid, metric,
            columns))
        # leaf curves enter the forest through their within-interval
        # (uniform-density) interpolation, not the right-endpoint step
        rows = _routed_rows(tree, leaf_of, ctx.grid, None)
        pred_sum += rows
        if update_mode == "oob":
            oob_sum[oob] += rows[oob]
            oob_cnt[oob] += 1.0
        trees.append(tree)
    return trees, oob_errs, pred_sum, oob_sum, oob_cnt, npmle_gaps


def _warn_uncertified(marginal_gap: float, leaf_gaps: list) -> None:
    """One NpmleWarning for the NPMLEs of a fit that stopped without
    their certificate (KKT gap above KKT_TOL), marginal and leaves apart."""
    gaps = np.asarray([marginal_gap] + leaf_gaps)
    bad = ~(gaps <= KKT_TOL)
    if bad.any():
        warnings.warn(
            f"{int(bad[0])} of 1 marginal and {int(bad[1:].sum())} of {len(leaf_gaps)} leaf "
            f"NPMLE fits stopped without their certificate; worst KKT gap "
            f"{gaps[bad].max():.3g} > {KKT_TOL:g}",
            NpmleWarning, stacklevel=3)


def fit(data: Dataset, params: ForestParams) -> IcrfModel:
    """Fit the recursive forest (Algorithm: marginal init, K folds of
    extremely randomized trees on carried full-conditional curves, OOB
    monitoring, best-fold selection)."""
    n, p = data.n, data.p
    n_min = params.tree.n_min
    if n < 2 * n_min:
        raise InsufficientData(f"need at least {2 * n_min} subjects, got {n}")
    if p < 1:
        raise InsufficientData("at least one covariate required")
    # the guard absorbs rounding in subsample = k / n (an absolute size k)
    # without moving ceil for any usual fraction
    s_size = int(np.ceil(params.subsample * n - 1e-9))
    if s_size >= n:
        raise EmptyOob("subsample leaves no out-of-bag subjects; monitoring impossible")
    params.tree.resolved_mtry(p)

    marginal_fit = npmle_fit(data.lefts, data.rights)
    marginal = tail_correct(marginal_fit, data.has_unbounded(), tau=data.tau)
    if params.c_override is not None:
        h = float(params.c_override * n_min ** (-0.2))
    else:
        h = bandwidth(marginal, n_min, tau=data.tau)

    grid = build_grid(data, extra=[support_bound_of(data.lefts, data.rights, data.tau)])
    mgrid = monitor_grid(data.tau)

    # the marginal's row stands in for the forest before fold 1: smoothed
    # (and held flat beyond tau), or read through within-interval
    # interpolation
    marginal_store = LeafStore.of([marginal])
    if params.initial_smooth:
        base_rows = _leaf_rows(marginal_store, np.minimum(grid, data.tau), h)
    else:
        base_rows = _leaf_rows(marginal_store, grid, None)

    # the fit's one table of monitor-grid columns (``_leaf_rows``): every
    # batch and fold run in this process shares it. With n_jobs > 1 one
    # pool serves the whole fit, and each of its worker processes keeps its
    # own table for it; a column is the same whichever table computed it
    columns = {}
    folds: list[ForestFold] = []
    leaf_gaps: list[float] = []
    parallel = params.n_jobs > 1
    pool = (concurrent.futures.ProcessPoolExecutor(params.n_jobs, initializer=_init_worker)
            if parallel else contextlib.nullcontext())
    with pool:
        for k in range(1, params.n_fold + 1):
            s_l, s_r = endpoint_values_on_grid(base_rows, data.lefts, data.rights, grid)
            carried = project_rows(base_rows, s_l, s_r, data.lefts, data.rights, grid, data.tau)
            ctx = fold_context(data, grid, np.minimum.accumulate(carried, axis=1), s_l, s_r)
            jobs = [
                (ctx, params.tree, params.seed, k,
                 list(range(b0, min(b0 + TREE_BATCH, params.n_tree))), s_size, h, mgrid,
                 None if parallel else columns, params.monitor_metric, params.update_curves)
                for b0 in range(0, params.n_tree, TREE_BATCH)
            ]
            results = list((pool.map if parallel else map)(_build_tree_batch, jobs))
            trees = [tree for r in results for tree in r[0]]
            folds.append(ForestFold(k, trees, np.asarray([e for r in results for e in r[1]])))
            leaf_gaps += [g for r in results for g in r[5]]
            # results are in batch order, so batch sums are added in that
            # order whatever the worker count
            base_rows = sum(r[2] for r in results) / params.n_tree
            if params.update_curves == "oob":
                oob_sum, oob_cnt = (sum(r[j] for r in results) for j in (3, 4))
                have = oob_cnt > 0
                base_rows[have] = oob_sum[have] / oob_cnt[have, None]

    _warn_uncertified(marginal_fit.kkt_gap, leaf_gaps)
    errors = np.asarray([f.oob_error for f in folds])
    k_opt = int(np.nanargmin(errors)) + 1
    return IcrfModel(
        params=params,
        feature_names=list(data.feature_names),
        tau=data.tau,
        h=h,
        initial_marginal=marginal,
        folds=folds,
        k_opt=k_opt,
    )


# -- prediction --------------------------------------------------------------


def _numeric(value, what: str) -> np.ndarray:
    """``value`` as a float array, or InvariantViolation naming ``what``
    (numpy raises a bare ValueError or TypeError for text or ragged input)."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise InvariantViolation(f"{what} must be numeric: {e}") from None


def _check_fold(model: IcrfModel, fold: int | None) -> ForestFold:
    f = model.k_opt if fold is None else fold
    # a bool is an int to Python, but True is no fold number
    integer = isinstance(f, (int, np.integer)) and not isinstance(f, bool)
    if not integer or not 1 <= f <= len(model.folds):
        raise InvalidFold(f"fold must be an integer in 1..{len(model.folds)}, got {f!r}")
    return model.folds[f - 1]


def _check_width(names: list, p: int, what: str):
    if p != len(names):
        raise DimensionMismatch(f"{what} has {p} features, model expects {len(names)}")


def predict(model: IcrfModel, X, grid, fold: int | None = None, smoothed: bool = True) -> np.ndarray:
    """Survival values on ``grid`` for each query row of X: the
    equal-weight average of the routed (smoothed) leaf curves.

    X is routed through all of the fold's trees in one pass (the fold's
    routing table), and only the leaves the queries reach are smoothed (or
    interpolated), all of them in one ``_leaf_rows`` call unless their rows
    pass GATHER_BUDGET values; each query's rows are then added tree by
    tree. A leaf's row depends on that leaf, the grid and the bandwidth
    alone, so a query's row is the same, bit for bit, whichever other
    queries share the call, and equals the loop over the trees.
    """
    X = np.atleast_2d(_numeric(X, "query covariates"))
    if X.ndim != 2:
        raise DimensionMismatch(f"query X must be 2-D (queries x features), got shape {X.shape}")
    _check_width(model.feature_names, X.shape[1], "query")
    if not np.all(np.isfinite(X)):
        raise InvariantViolation("query covariates must be finite")
    grid = np.atleast_1d(_numeric(grid, "prediction grid"))
    if grid.ndim != 1:
        raise InvariantViolation(f"prediction grid must be 1-D, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise InvariantViolation("prediction grid must be finite")
    fobj = _check_fold(model, fold)
    table = fobj.routing
    acc = _reached_sum(table, table.apply(X), grid, model.h if smoothed else None)
    return acc / len(fobj.trees)


def oob_error(model: IcrfModel, data: Dataset, fold: int | None = None) -> float:
    """Recompute a fold's stored OOB error (fold ``k_opt`` by default) on
    the training data: the mean over trees of the monitor metric of the
    tree's smoothed prediction on its own held-out subjects."""
    _check_width(model.feature_names, data.p, "data")
    fobj = _check_fold(model, fold)
    mgrid = monitor_grid(data.tau)
    columns = {}
    errs = []
    for tree in fobj.trees:
        oob = np.setdiff1d(np.arange(data.n), tree.inbag_ids)
        if oob.size == 0:
            raise EmptyOob("a tree has no out-of-bag subjects")
        errs.append(_tree_oob_error(
            tree, tree.apply(data.X[oob]), data.lefts[oob], data.rights[oob], data.tau,
            model.h, mgrid, model.params.monitor_metric, columns))
    return float(np.nanmean(errs))


# -- permutation variable importance -----------------------------------------


@dataclass(frozen=True)
class ImportanceResult:
    raw: np.ndarray
    rescaled: np.ndarray
    multiplier: float
    metric: str
    n_perm: int


def variable_importance(
    model: IcrfModel,
    data: Dataset,
    n_perm: int = 10,
    metric: str = "imse1",
    seed: int | None = None,
) -> ImportanceResult:
    """Mean increase in the metric when one covariate column is permuted
    across the sample, per feature; raw plus max-rescaled values."""
    _check_width(model.feature_names, data.p, "data")
    if n_perm < 1:
        raise InsufficientData(f"n_perm must be >= 1, got {n_perm}")
    table = _check_fold(model, None).routing
    grid = monitor_grid(model.tau)
    # every leaf's row, computed in groups of at most GATHER_BUDGET values
    store, step, columns = table.store, _group_size(grid), {}
    leaf_rows = np.empty((store.n, grid.size))
    for lo in range(0, store.n, step):
        idx = np.arange(lo, min(lo + step, store.n))
        leaf_rows[idx] = _leaf_rows(store, grid, model.h, idx, columns)

    def metric_of(X):
        rows = _forest_rows(table, leaf_rows, X)
        return _monitor_error(metric, rows, data.lefts, data.rights, data.tau, grid)

    base = metric_of(data.X)
    entropy = model.params.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence([entropy, 0x1C8F]))
    p = data.p
    raw = np.zeros(p)
    for j in range(p):
        deltas = []
        for _ in range(n_perm):
            perm = rng.permutation(data.n)
            Xp = data.X.copy()
            Xp[:, j] = Xp[perm, j]
            deltas.append(metric_of(Xp) - base)
        raw[j] = float(np.mean(deltas))
    multiplier = float(raw.max())
    rescaled = raw / multiplier if multiplier != 0.0 else raw.copy()
    return ImportanceResult(raw, rescaled, multiplier, metric, n_perm)
