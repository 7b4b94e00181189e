"""Recursive forest driver: per-fold ensembles with 95% subsampling,
carried-curve updates between folds, OOB convergence monitoring,
best-fold selection, prediction, and permutation variable importance.

Each fold starts from rows on the knot grid, the marginal's for the first
fold and the previous forest's after it, reads S(L_i), S(R_i) off them
(``curves.endpoint_values_on_grid``) and projects them onto the subjects'
intervals (``curves.project_rows``); so does the IMSE2 monitor. The first
row, OOB monitoring, smoothed prediction and variable importance smooth
with the leaves' kernel, ``_leaf_rows``: one kernel column per distinct
mass interval and one matrix product.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

# refine_uniform and curve_atoms are not called here (smoothing works on mass
# intervals), but perfbench/tracing.py wraps them as attributes of this module
from .curves import StepSurvival, endpoint_values_on_grid, project_rows, refine_uniform  # noqa: F401
from .dataio import Dataset
from .exceptions import (
    DimensionMismatch,
    EmptyOob,
    InsufficientData,
    InvalidFold,
    InvariantViolation,
)
from .npmle import npmle_fit, tail_correct
from .smooth import (  # noqa: F401
    bandwidth,
    curve_atoms,
    interval_atoms,
    mass_intervals,
    smoothed_values_matrix,
)
from .tree import Tree, TreeParams, fold_context, grow_tree_ctx, support_bound_of

MONITOR_GRID_N = 201  # trapezoid resolution for smoothed-curve metrics
GRID_REFINE_N = 64  # uniform refinement of (0, tau] added to the knot grid
TREE_BATCH = 8  # fixed batching so results do not depend on worker count
METRICS = ("imse1", "imse2")  # OOB monitoring and importance metrics
UPDATE_MODES = ("full", "oob")  # carried curves from all trees, or from OOB trees only


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


@dataclass
class ForestFold:
    fold_index: int
    trees: list[Tree]
    per_tree_oob: np.ndarray

    @property
    def oob_error(self) -> float:
        return float(np.nanmean(self.per_tree_oob))


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
    full-conditional side is the projection of each row."""
    s_l, s_r = endpoint_values_on_grid(rows, lefts, rights, grid)
    cond = project_rows(rows, s_l, s_r, lefts, rights, grid, tau)
    terms = np.trapezoid((cond - rows) ** 2, grid, axis=1) / tau
    return float(terms.mean()) if terms.size else np.nan


def _monitor_error(metric, rows, lefts, rights, tau, grid) -> float:
    if metric not in METRICS:
        raise InsufficientData(f"metric must be one of {METRICS}, got {metric!r}")
    fn = imse1_on_rows if metric == "imse1" else imse2_on_rows
    return fn(rows, lefts, rights, tau, grid)


def _leaf_rows(curves, grid, h: float | None) -> np.ndarray:
    """Step curves (a tree's leaf curves, or the marginal) on ``grid``,
    one row per curve: smoothed with bandwidth ``h``, or read through
    within-interval interpolation when h is None.

    Smoothing is linear in the jump masses, which are spread uniformly
    over their intervals first (``smooth.mass_intervals``). Leaves share
    many intervals (exploitative leaves put all their mass on fold-grid
    cells, quasi-honest leaves on Turnbull intervals), so each distinct
    interval is smoothed once, as a unit-mass column, and the rows are
    1 - M @ F for the (curve x interval) mass matrix M and the columns'
    smoothed distribution functions F.
    """
    if h is None:
        return np.vstack([c.interpolate(grid) for c in curves])
    parts = [mass_intervals(c) for c in curves]
    owner = np.repeat(np.arange(len(curves)), [part[0].size for part in parts])
    t0, t1, masses = (np.concatenate([part[j] for part in parts]) for j in range(3))
    keys, col = np.unique(np.column_stack((t0, t1)), axis=0, return_inverse=True)
    mix = np.zeros((len(curves), keys.shape[0]))
    np.add.at(mix, (owner, col.reshape(-1)), masses)
    locs, unit = interval_atoms(keys[:, 0], keys[:, 1])
    cdf = 1.0 - smoothed_values_matrix(locs, unit, h, grid)
    return np.clip(1.0 - mix @ cdf, 0.0, 1.0)


def _forest_rows(trees, leaf_rows, X) -> np.ndarray:
    """Equal-weight average over trees of the rows of the leaves X routes to."""
    acc = np.zeros((X.shape[0], leaf_rows[0].shape[1]))
    for tree, rows in zip(trees, leaf_rows):
        acc += rows[tree.apply(X)]
    return acc / len(trees)


def _tree_oob_error(tree, leaf_of, lefts, rights, tau, h, grid, metric) -> float:
    """Monitor metric of the tree's smoothed prediction for its OOB
    subjects, routed to the leaves ``leaf_of``."""
    leaf_ids, pos = np.unique(leaf_of, return_inverse=True)
    rows = _leaf_rows([tree.leaves[i].curve for i in leaf_ids], grid, h)[pos]
    return _monitor_error(metric, rows, lefts, rights, tau, grid)


# -- tree batch construction -------------------------------------------------


def _build_tree_batch(args):
    (ctx, tparams, seed, fold_k, b_list, s_size, h, mgrid, metric, update_mode) = args
    n = ctx.n
    trees, oob_errs = [], []
    pred_sum = np.zeros((n, ctx.grid.size))
    oob_sum = np.zeros((n, ctx.grid.size)) if update_mode == "oob" else None
    oob_cnt = np.zeros(n) if update_mode == "oob" else None
    for b in b_list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, fold_k, b]))
        inbag = np.sort(rng.choice(n, size=s_size, replace=False))
        oob = np.setdiff1d(np.arange(n), inbag)
        tree = grow_tree_ctx(ctx, inbag, tparams, rng)
        leaf_of = tree.apply(ctx.X)
        oob_errs.append(np.nan if oob.size == 0 else _tree_oob_error(
            tree, leaf_of[oob], ctx.lefts[oob], ctx.rights[oob], ctx.tau, h, mgrid, metric))
        # leaf curves enter the forest through their within-interval
        # (uniform-density) interpolation, not the right-endpoint step
        rows = _leaf_rows([leaf.curve for leaf in tree.leaves], ctx.grid, None)[leaf_of]
        pred_sum += rows
        if update_mode == "oob":
            oob_sum[oob] += rows[oob]
            oob_cnt[oob] += 1.0
        trees.append(tree)
    return trees, oob_errs, pred_sum, oob_sum, oob_cnt


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
    if s_size >= n and params.n_fold > 1:
        raise EmptyOob("subsample leaves no out-of-bag subjects; monitoring impossible")
    params.tree.resolved_mtry(p)

    marginal = tail_correct(
        npmle_fit(data.lefts, data.rights), data.has_unbounded(), tau=data.tau
    )
    if params.c_override is not None:
        h = float(params.c_override * n_min ** (-0.2))
    else:
        h = bandwidth(marginal, n_min, tau=data.tau)

    grid = build_grid(data, extra=[support_bound_of(data.lefts, data.rights, data.tau)])
    mgrid = monitor_grid(data.tau)

    # the marginal's row stands in for the forest before fold 1: smoothed
    # (and held flat beyond tau), or read through within-interval
    # interpolation
    if params.initial_smooth:
        base_rows = _leaf_rows([marginal], np.minimum(grid, data.tau), h)
    else:
        base_rows = _leaf_rows([marginal], grid, None)

    folds: list[ForestFold] = []
    for k in range(1, params.n_fold + 1):
        s_l, s_r = endpoint_values_on_grid(base_rows, data.lefts, data.rights, grid)
        carried = project_rows(base_rows, s_l, s_r, data.lefts, data.rights, grid, data.tau)
        ctx = fold_context(data, grid, np.minimum.accumulate(carried, axis=1), s_l, s_r)
        jobs = [
            (ctx, params.tree, params.seed, k, list(range(b0, min(b0 + TREE_BATCH, params.n_tree))),
             s_size, h, mgrid, params.monitor_metric, params.update_curves)
            for b0 in range(0, params.n_tree, TREE_BATCH)
        ]
        if params.n_jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(params.n_jobs) as pool:
                results = list(pool.map(_build_tree_batch, jobs))
        else:
            results = [_build_tree_batch(j) for j in jobs]

        trees = [tree for r in results for tree in r[0]]
        folds.append(ForestFold(k, trees, np.asarray([e for r in results for e in r[1]])))
        # results are in batch order, so batch sums are added in that
        # order whatever the worker count
        base_rows = sum(r[2] for r in results) / params.n_tree
        if params.update_curves == "oob":
            oob_sum, oob_cnt = (sum(r[j] for r in results) for j in (3, 4))
            have = oob_cnt > 0
            base_rows[have] = oob_sum[have] / oob_cnt[have, None]

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


def _check_fold(model: IcrfModel, fold: int | None) -> ForestFold:
    f = model.k_opt if fold is None else fold
    if not 1 <= f <= len(model.folds):
        raise InvalidFold(f"fold must be in 1..{len(model.folds)}, got {f}")
    return model.folds[f - 1]


def predict(model: IcrfModel, X, grid, fold: int | None = None, smoothed: bool = True) -> np.ndarray:
    """Survival values on ``grid`` for each query row of X: the
    equal-weight average of the routed (smoothed) leaf curves."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.feature_names):
        raise DimensionMismatch(
            f"query has {X.shape[1]} features, model expects {len(model.feature_names)}"
        )
    if not np.all(np.isfinite(X)):
        raise InvariantViolation("query covariates must be finite")
    grid = np.asarray(grid, dtype=float)
    fobj = _check_fold(model, fold)
    h = model.h if smoothed else None
    rows = [_leaf_rows([leaf.curve for leaf in t.leaves], grid, h) for t in fobj.trees]
    return _forest_rows(fobj.trees, rows, X)


def oob_error(fold: ForestFold, data: Dataset, metric: str = "imse1", h: float = None) -> float:
    """Recompute the fold's OOB error from scratch (mean per-tree metric
    of the smoothed tree prediction on its own held-out subjects)."""
    mgrid = monitor_grid(data.tau)
    errs = []
    for tree in fold.trees:
        oob = np.setdiff1d(np.arange(data.n), tree.inbag_ids)
        if oob.size == 0:
            raise EmptyOob("a tree has no out-of-bag subjects")
        errs.append(_tree_oob_error(
            tree, tree.apply(data.X[oob]), data.lefts[oob], data.rights[oob], data.tau, h,
            mgrid, metric))
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
    fobj = _check_fold(model, None)
    grid = monitor_grid(model.tau)
    rows_by_tree = [_leaf_rows([leaf.curve for leaf in t.leaves], grid, model.h)
                    for t in fobj.trees]

    def metric_of(X):
        rows = _forest_rows(fobj.trees, rows_by_tree, X)
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
