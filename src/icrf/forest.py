"""Recursive forest driver: per-fold ensembles with 95% subsampling,
carried-curve updates between folds, OOB convergence monitoring,
best-fold selection, prediction, and permutation variable importance.

Each fold starts from rows on the knot grid, the marginal's for the first
fold and the previous forest's after it, reads S(L_i), S(R_i) off them
(``curves.endpoint_values_on_grid``), projects them onto the subjects'
intervals (``curves.project_rows``; so does the IMSE2 monitor) and takes
their running minimum in place. Only folds 1..K-1 build the carried sums
that the next fold starts from: the last fold's batches skip them. The first
row, OOB monitoring, smoothed prediction and variable importance smooth
with the leaves' kernel, ``_leaf_rows``: one kernel column per distinct
mass interval, and per curve the sum of its own masses times its own
columns, so a leaf's row depends on that leaf alone.

A fold is one table of its trees (``ForestFold``), from fit to file:
their node arrays stacked, which ``tree.route`` walks for every tree at
once, and all their leaves, with members, in one ``LeafStore``. ``fit``
builds one per batch of trees and joins a fold's batches; ``predict``,
``oob_error``, importance and ``serialize`` read it. OOB monitoring
(``_oob_errors``) smooths the leaves the trees' OOB subjects reach in one
``_leaf_rows`` call; the carried update and variable importance read
every leaf once (``_all_leaf_rows``), ``predict`` the leaves the queries
reach; both in groups of at most GATHER_BUDGET grid values. Rows are
added tree by tree, in tree order (for the carried sums and importance, in
one CSR product, ``_tree_sum``), so every answer is that of a loop over the
trees, bit for bit.

The columns live in one table per call, a dict from interval to column
for its bandwidth and grid: ``fit`` keeps one for the monitor grid
through all its folds and batches (each worker process of its one pool
keeps its own), and ``predict``, ``oob_error`` and ``variable_importance``
each make one; an interval is smoothed once per call, and no table
outlives its call. A column is a pure function of its interval, the
bandwidth and the grid, so rows, OOB errors and model files are the same,
bit for bit, whichever table computed it and whatever the worker count.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import warnings
from dataclasses import dataclass, field

import numpy as np

# refine_uniform and curve_atoms are not called here (smoothing works on mass
# intervals), but perfbench/tracing.py wraps them as attributes of this
# module; the benchmark change that repairs its tracer (ROADMAP direction 1)
# removes these two imports
from .curves import (LeafStore, StepSurvival, endpoint_values_on_grid, project_rows,  # noqa: F401
                     refine_uniform, stack_offsets)
from .dataio import Dataset, require_count
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
# the most grid values (256 KB) of a tree's rows a predict adds at once, so the
# temporaries are reused, not given back to the system and faulted in again
QUERY_BLOCK = 1 << 15


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
        require_count(self.seed, "seed", InsufficientData)
        require_count(self.n_jobs, "n_jobs", InsufficientData, least=1)
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


def _scored_mean(errors) -> float:
    """The mean of the trees' OOB errors but NaN ones (a tree none of whose
    OOB subjects the metric scores), NaN when every one is NaN."""
    errors = np.asarray(errors)
    return np.nan if np.isnan(errors).all() else float(np.nanmean(errors))


@dataclass
class ForestFold:
    """One fold's trees as one table, from fit to file. Tree t has the nodes
    node_start[t]:node_start[t + 1] of the stacked node arrays (feature -1
    marks a leaf node) and the curves leaf_start[t]:leaf_start[t + 1] of
    ``store``, whose members are its in-bag ids. Every node's ``left`` (whose
    next node is the right child) and ``leaf`` (its curve, at a leaf node)
    are the tree's own plus its first node and leaf."""

    fold_index: int
    feature: np.ndarray
    cutoff: np.ndarray
    left: np.ndarray
    leaf: np.ndarray
    node_start: np.ndarray
    leaf_start: np.ndarray
    store: LeafStore
    per_tree_oob: np.ndarray

    @classmethod
    def of(cls, fold_index: int, trees) -> ForestFold:
        """The table of ``trees`` (each a one-tree table), NaN OOB errors."""
        return cls.join(fold_index, [
            cls(fold_index, t.feature, t.cutoff, t.left, t.leaf_idx,
                np.array([0, t.feature.size]), np.array([0, t.n_leaves]), t.store,
                np.full(1, np.nan)) for t in trees])

    @classmethod
    def join(cls, fold_index: int, tables) -> ForestFold:
        """The trees of ``tables``, table after table, in one table."""
        nodes = np.cumsum([0] + [t.feature.size for t in tables])
        leaves = np.cumsum([0] + [t.store.n for t in tables])

        def cat(name, shift=None):
            parts = [getattr(t, name) for t in tables]
            return np.concatenate(parts if shift is None else [p + a for p, a in zip(parts, shift)])

        return cls(fold_index, cat("feature"), cat("cutoff"), cat("left", nodes),
                   cat("leaf", leaves),
                   *(stack_offsets([getattr(t, name) for t in tables])
                     for name in ("node_start", "leaf_start")),
                   LeafStore.stack([t.store for t in tables]), cat("per_tree_oob"))

    @property
    def n_trees(self) -> int:
        return self.node_start.size - 1

    @property
    def oob_error(self) -> float:
        return _scored_mean(self.per_tree_oob)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Fold-wide leaf of each row of X in each tree, (trees, rows)."""
        node = route(self.feature, self.cutoff, self.left, X, self.node_start[:-1])
        return self.leaf[node].reshape(self.n_trees, X.shape[0])

    def oob_mask(self, n: int) -> np.ndarray:
        """(trees, n): whether subject i is in none of tree t's leaves, in one scatter."""
        mask = np.ones((self.n_trees, n), dtype=bool)
        counts = np.diff(self.store.member_offsets[self.leaf_start])
        mask[np.repeat(np.arange(self.n_trees), counts), self.store.members] = False
        return mask

    def tree_columns(self) -> list[tuple]:
        """Each kind of ``serialize.TREE_ARRAYS`` as (array, cuts): tree t's own
        array is array[cuts[t]:cuts[t + 1]], renumbered for all trees at once."""
        s, nodes, leaves = self.store, self.node_start, self.leaf_start
        knots, ids, per_node = s.offsets[leaves], s.member_offsets[leaves], nodes[1:] - nodes[:-1]
        # tree t's offsets are the fold's at leaves[t]..leaves[t + 1], both ends
        ends = leaves + np.arange(leaves.size)
        tree = np.repeat(np.arange(self.n_trees), ends[1:] - ends[:-1])
        at = np.arange(tree.size) - tree
        n, k, i, e = (a.tolist() for a in (nodes, knots, ids, ends))
        node0, leaf0 = np.repeat(nodes[:-1], per_node), np.repeat(leaves[:-1], per_node)
        own = np.array([self.left - node0, self.leaf - leaf0], dtype=np.int32)
        return [(self.feature, n), (self.cutoff, n), (own[0], n), (own[1], n), (s.times, k),
                (s.values, k), (s.offsets[at] - knots[tree], e), (s.members, i),
                (s.member_offsets[at] - ids[tree], e)]

    @property
    def trees(self) -> list[Tree]:
        """Each tree (``tree.Tree``), built on each use; its curves views of the fold's."""
        columns = self.tree_columns()
        return [Tree(*a[:4], LeafStore(*a[4:7], np.full(a[6].size - 1, np.nan), *a[7:]))
                for a in ([arr[c[t]:c[t + 1]] for arr, c in columns] for t in range(self.n_trees))]


@dataclass
class IcrfModel:
    params: ForestParams
    feature_names: list[str]
    tau: float
    h: float
    initial_marginal: StepSurvival
    folds: list[ForestFold]
    k_opt: int
    data_sha256: str  # the training data's ``Dataset.sha256``

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
    """Curves ``idx`` (all by default) of ``store`` (a fold's leaves, or
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
    # with no interval sums to 0. Imported at first use, as every SciPy
    # module is: `import icrf` should not pay for scipy.sparse
    from scipy.sparse import csr_array

    offsets = np.concatenate(([0], np.cumsum(sizes)))
    mix = csr_array((masses, col.reshape(-1), offsets), shape=(idx.size, keys.size))
    return np.clip(1.0 - mix @ cdf, 0.0, 1.0)


def _routed_rows(source, leaf_of, grid, h: float | None, columns=None) -> np.ndarray:
    """Rows (``_leaf_rows``, with the column table ``columns``) of the
    leaves of ``source.store`` (a fold's or a tree's) ``leaf_of``
    names, one per entry; only the leaves reached are read."""
    n_leaves = source.store.n
    reached = np.flatnonzero(np.bincount(leaf_of, minlength=n_leaves))
    slot = np.zeros(n_leaves, dtype=np.intp)
    slot[reached] = np.arange(reached.size)
    return _leaf_rows(source.store, grid, h, reached, columns)[slot[leaf_of]]


def _group_size(grid) -> int:
    """Leaf rows per ``_leaf_rows`` call of a fold-level read: as many as
    GATHER_BUDGET grid values hold, and one at least."""
    return max(1, GATHER_BUDGET // max(grid.size, 1))


def _reached_mean(table: ForestFold, leaf_of, grid, h: float | None) -> np.ndarray:
    """Mean over the fold's trees, summed in tree order, of the row
    (``_leaf_rows``) of the leaf each query reaches; ``leaf_of`` holds the
    fold-wide leaf numbers, (trees, queries). Only the reached leaves are
    read, in groups of at most GATHER_BUDGET grid values, each group one
    ``_leaf_rows`` call and all of them one column table. A tree whose
    reached leaves fall in two groups adds each query's row from the group
    that holds it, so every query still takes its trees' rows in tree order."""
    n_leaves = table.store.n
    reached = np.flatnonzero(np.bincount(leaf_of.ravel(), minlength=n_leaves))
    slot = np.zeros(n_leaves, dtype=np.intp)
    slot[reached] = np.arange(reached.size)
    # tree t's reached leaves hold the slots bounds[t]:bounds[t + 1]
    bounds = np.searchsorted(reached, table.leaf_start).tolist()
    step, block = _group_size(grid), max(1, QUERY_BLOCK // max(grid.size, 1))
    acc = np.zeros((leaf_of.shape[1], grid.size))
    columns, lo = {}, None
    for t, at in enumerate(slot[leaf_of]):
        a, b = bounds[t], bounds[t + 1]
        for g in range(a // step, (b - 1) // step + 1):
            if g * step != lo:
                lo = g * step
                rows = _leaf_rows(table.store, grid, h, reached[lo:lo + step], columns)
            if not (lo <= a and b <= lo + step):
                part = (at >= lo) & (at < lo + step)
                acc[part] += rows[at[part] - lo]
            elif at.size <= block:
                acc += rows[at - lo]
            else:
                for q in range(0, at.size, block):
                    acc[q:q + block] += rows[at[q:q + block] - lo]
    acc /= table.n_trees
    return acc


def _all_leaf_rows(store: LeafStore, grid, h: float | None) -> np.ndarray:
    """Every curve's row (``_leaf_rows``), in groups of at most
    GATHER_BUDGET grid values that share one column table."""
    step, columns, idx = _group_size(grid), {}, np.arange(store.n)
    rows = np.empty((store.n, grid.size))
    for lo in range(0, store.n, step):
        rows[lo:lo + step] = _leaf_rows(store, grid, h, idx[lo:lo + step], columns)
    return rows


def _tree_sum(rows, leaf_of, mask=None) -> np.ndarray:
    """Sum over the trees, in tree order, of the rows (``rows``, one per
    fold-wide leaf) of the leaves ``leaf_of`` (trees, subjects) names;
    with ``mask`` (trees, subjects), tree t adds to subjects mask[t] only.

    One CSR product: subject i's stored entries are its leaves in tree
    order, each of weight 1, and the product adds them to a zero row one
    after another, as a loop over the trees would, bit for bit."""
    from scipy.sparse import csr_array

    n_trees, n = leaf_of.shape
    if mask is None:
        leaves, ends = leaf_of.T.ravel(), np.arange(0, n_trees * n + 1, n_trees)
    else:
        leaves, ends = leaf_of.T[mask.T], np.concatenate(([0], np.cumsum(mask.sum(axis=0))))
    mix = csr_array((np.ones(leaves.size), leaves, ends), shape=(n, rows.shape[0]))
    return mix @ rows


def _oob_errors(table: ForestFold, leaf_of, oob, lefts, rights, tau, h, grid, metric,
                columns) -> list:
    """Monitor metric of each tree's smoothed prediction for its OOB
    subjects (``ForestFold.oob_mask``), in tree order, from one
    ``_routed_rows`` read of ``leaf_of`` (every subject's fold-wide leaf in
    each tree)."""
    rows = _routed_rows(table, leaf_of[oob], grid, h, columns)
    subject = np.nonzero(oob)[1]
    ends = np.cumsum(oob.sum(axis=1)).tolist()
    return [_monitor_error(metric, rows[a:b], lefts[subject[a:b]], rights[subject[a:b]], tau,
                           grid) for a, b in zip([0] + ends, ends)]


# -- tree batch construction -------------------------------------------------


_worker_columns: dict = {}  # a worker process's column table for the fit its pool serves


def _init_worker():
    global _worker_columns
    _worker_columns = {}


def _build_tree_batch(args):
    """One batch of a fold's trees (their table) and its carried sums.
    ``columns`` is the fit's monitor-grid column table when the batch runs
    in the fitting process, or None in a worker process, which then uses
    its own table (``_init_worker``). ``carry`` says whether a fold follows
    this one; the last fold's batches build no carried sums (all three None)."""
    (ctx, tparams, seed, fold_k, b_list, s_size, h, mgrid, columns, metric, update_mode,
     carry) = args
    columns = _worker_columns if columns is None else columns
    trees, npmle_gaps = [], []
    for b in b_list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, fold_k, b]))
        inbag = np.sort(rng.choice(ctx.n, size=s_size, replace=False))
        trees.append(grow_tree_ctx(ctx, inbag, tparams, rng, npmle_gaps))
    table = ForestFold.of(fold_k, trees)
    leaf_of, oob = table.apply(ctx.X), table.oob_mask(ctx.n)
    table.per_tree_oob = np.asarray(_oob_errors(table, leaf_of, oob, ctx.lefts, ctx.rights,
                                                ctx.tau, h, mgrid, metric, columns))
    if not carry:
        return table, None, None, None, npmle_gaps
    # leaf curves enter the forest through their within-interval
    # (uniform-density) interpolation, not the right-endpoint step
    rows = _all_leaf_rows(table.store, ctx.grid, None)
    oob_sum, oob_cnt = ((_tree_sum(rows, leaf_of, oob), oob.sum(axis=0).astype(float))
                        if update_mode == "oob" else (None, None))
    return table, _tree_sum(rows, leaf_of), oob_sum, oob_cnt, npmle_gaps


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
    monitoring, best-fold selection). Folds 1..K-1 carry their trees'
    mean curves into the next fold; fold K, which no fold reads, builds
    none."""
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
    # batch and fold run in this process shares it. One pool of at most one
    # worker per batch serves the whole fit, and each worker keeps its own
    # table for it; a column is the same whichever table computed it
    columns = {}
    folds: list[ForestFold] = []
    leaf_gaps: list[float] = []
    workers = min(params.n_jobs, -(-params.n_tree // TREE_BATCH))
    parallel = workers > 1
    pool = (concurrent.futures.ProcessPoolExecutor(workers, initializer=_init_worker)
            if parallel else contextlib.nullcontext())
    with pool:
        for k in range(1, params.n_fold + 1):
            s_l, s_r = endpoint_values_on_grid(base_rows, data.lefts, data.rights, grid)
            carried = project_rows(base_rows, s_l, s_r, data.lefts, data.rights, grid, data.tau)
            np.minimum.accumulate(carried, axis=1, out=carried)
            ctx = fold_context(data, grid, carried, s_l, s_r)
            carry = k < params.n_fold  # only a fold with a successor builds carried sums
            jobs = [
                (ctx, params.tree, params.seed, k,
                 list(range(b0, min(b0 + TREE_BATCH, params.n_tree))), s_size, h, mgrid,
                 None if parallel else columns, params.monitor_metric, params.update_curves,
                 carry)
                for b0 in range(0, params.n_tree, TREE_BATCH)
            ]
            results = list((pool.map if parallel else map)(_build_tree_batch, jobs))
            folds.append(ForestFold.join(k, [r[0] for r in results]))
            leaf_gaps += [g for r in results for g in r[4]]
            if carry:
                # results are in batch order, so batch sums are added in that
                # order whatever the worker count, into the first batch's
                base_rows = results[0][1]
                for r in results[1:]:
                    base_rows += r[1]
                base_rows /= params.n_tree
                if params.update_curves == "oob":
                    oob_sum, oob_cnt = (sum(r[j] for r in results) for j in (2, 3))
                    have = oob_cnt > 0
                    base_rows[have] = oob_sum[have] / oob_cnt[have, None]

    _warn_uncertified(marginal_fit.kkt_gap, leaf_gaps)
    errors = np.asarray([f.oob_error for f in folds])
    if np.isnan(errors).all():
        raise EmptyOob("the monitor metric scores no tree's out-of-bag subjects; "
                       "monitoring impossible")
    k_opt = int(np.nanargmin(errors)) + 1
    return IcrfModel(params=params, feature_names=list(data.feature_names), tau=data.tau, h=h,
                     initial_marginal=marginal, folds=folds, k_opt=k_opt,
                     data_sha256=data.sha256())


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

    X is routed through all of the fold's trees in one pass (its table),
    and only the leaves the queries reach are smoothed (or
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
    return _reached_mean(fobj, fobj.apply(X), grid, model.h if smoothed else None)


def oob_error(model: IcrfModel, data: Dataset, fold: int | None = None) -> float:
    """Recompute a fold's stored OOB error (fold ``k_opt`` by default) on
    the training data: the mean over trees of the monitor metric of the
    tree's smoothed prediction on its own held-out subjects. Data whose
    ``Dataset.sha256`` is not the model's ``data_sha256`` are not the
    training data and raise InvariantViolation."""
    _check_width(model.feature_names, data.p, "data")
    if data.sha256() != model.data_sha256:
        raise InvariantViolation("the data are not the training data: their sha256 is not "
                                 "the model's data_sha256")
    fobj = _check_fold(model, fold)
    if fobj.store.members.max(initial=-1) >= data.n:
        raise DimensionMismatch(f"the fold's trees hold subjects beyond the data's {data.n}")
    oob = fobj.oob_mask(data.n)
    if not oob.any(axis=1).all():
        raise EmptyOob("a tree has no out-of-bag subjects")
    return _scored_mean(_oob_errors(
        fobj, fobj.apply(data.X), oob, data.lefts, data.rights, data.tau, model.h,
        monitor_grid(data.tau), model.params.monitor_metric, {}))


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
    entropy = model.params.seed if seed is None else require_count(seed, "seed", InsufficientData)
    fobj = _check_fold(model, None)
    grid = monitor_grid(model.tau)
    leaf_rows = _all_leaf_rows(fobj.store, grid, model.h)

    def metric_of(X):
        rows = _tree_sum(leaf_rows, fobj.apply(X)) / fobj.n_trees
        return _monitor_error(metric, rows, data.lefts, data.rights, data.tau, grid)

    base = metric_of(data.X)
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
