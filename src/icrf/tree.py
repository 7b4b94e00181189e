"""Modified extremely-randomized survival tree.

At each node, mtry features are drawn without replacement; each gets one
cut-off drawn uniformly from the open interval between its in-node min
and max; candidates whose children would fall below n_min are invalid;
the best-scoring valid candidate wins (first index on ties). A node is
terminal when its size is below 2*n_min, no valid candidate exists, or
every candidate scores zero; an SWRS/SLR difference of mean scores within
rounding residue (``SCORE_RESIDUE``) scores zero.

The tree reads everything from its fold's ``FoldContext``: the carried
full-conditional curves as a value matrix on one shared knot grid and the
per-subject SWRS/SLR scores. Each candidate split is scored once by
``_node_score``. ``route`` is the one routing loop: ``Tree.apply`` routes
rows through one tree with it, and a forest fold through all its trees at
once. A leaf is quasi-honest (the NPMLE of the members' raw intervals) or
exploitative (the mean of the members' carried curves).

A tree holds its leaf curves and member ids column-wise, in one
``curves.LeafStore``. Growth only collects each leaf's members; the store
is then built for all leaves of the tree at once (``_leaf_store``): one
sort finds every quasi-honest leaf's Turnbull intervals, the leaves with
one or two of them take the closed-form NPMLE (``npmle.exact_masses``)
and only the others run ``npmle_fit``; exploitative leaves are the
members' mean rows, encoded together by ``curve_from_grid_values``. One
``curves.step_knots`` call encodes every leaf's knots, and the arrays go
into the store as they are, with no ``StepSurvival`` per leaf.
``Tree.leaves`` gives read-only per-leaf views of the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import LeafStore, StepSurvival, step_knots
from .exceptions import InsufficientData
from .npmle import exact_masses, npmle_fit
from .splits import (GLR, GWRS, SWRS, SplitRule, glr_from_sums, glr_node_terms, gwrs_from_sums,
                     slr_scores, swrs_scores)

QUASI_HONEST = "quasi_honest"
EXPLOITATIVE = "exploitative"
PREDICTIONS = (QUASI_HONEST, EXPLOITATIVE)

LEAF_MASS_TOL = 1e-15
ROOT = np.zeros(1, dtype=np.intp)  # the root node of a single tree's arrays
# SWRS/SLR: a difference of group mean scores at or below SCORE_RESIDUE times
# the node's sum of |score| is rounding residue and scores 0. Where all of a
# node's subjects carry one score s, the rounding of the sums leaves up to
# about 0.7 * size * eps * |s| (measured over sizes 12 to 1000)
SCORE_RESIDUE = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class TreeParams:
    mtry: int | None = None  # None -> ceil(sqrt(p))
    n_min: int = 6
    rule: SplitRule = field(default_factory=SplitRule)
    prediction: str = QUASI_HONEST  # one of PREDICTIONS

    def __post_init__(self):
        if not self.n_min >= 1:
            raise InsufficientData(f"n_min must be >= 1, got {self.n_min}")
        if self.prediction not in PREDICTIONS:
            raise InsufficientData(
                f"prediction must be one of {PREDICTIONS}, got {self.prediction!r}"
            )

    def resolved_mtry(self, p: int) -> int:
        m = self.mtry if self.mtry is not None else int(np.ceil(np.sqrt(p)))
        if not 1 <= m <= p:
            raise InsufficientData(f"mtry must be in [1, {p}], got {m}")
        return m


@dataclass
class FoldContext:
    """Everything a tree needs, on one shared knot grid.

    ``values`` holds the carried full-conditional curves row-wise at
    ``grid``; columns [:m_split] are the knots <= tau with tau last.
    ``support_bound`` is the end of the observed time range; leaf NPMLEs
    confine right-unbounded intervals to it.
    """

    X: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    tau: float
    grid: np.ndarray
    m_split: int
    values: np.ndarray
    sw: np.ndarray
    slr: np.ndarray
    support_bound: float

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Leaf:
    """Read-only view of one leaf of a tree's store."""

    curve: StepSurvival
    member_ids: np.ndarray


class Tree:
    """Array-backed binary tree; feature == -1 marks a leaf node, and
    leaf_idx numbers its curve in ``store``."""

    def __init__(self, feature, cutoff, left, right, leaf_idx, store: LeafStore, inbag_ids):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.cutoff = np.asarray(cutoff, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.leaf_idx = np.asarray(leaf_idx, dtype=np.int32)
        self.store = store
        self.inbag_ids = np.asarray(inbag_ids, dtype=np.int64)

    @property
    def n_leaves(self) -> int:
        return self.store.n

    @cached_property
    def leaves(self) -> tuple[Leaf, ...]:
        """Per-leaf views of ``store``, built on first use."""
        return tuple(Leaf(self.store.curve(i), self.store.member_ids(i))
                     for i in range(self.n_leaves))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for each row of X (x <= cutoff routes left)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.leaf_idx[route(self.feature, self.cutoff, self.left, self.right, X, ROOT)]


def route(feature, cutoff, left, right, X: np.ndarray, roots) -> np.ndarray:
    """The leaf node each row of X reaches in each tree whose root is in
    ``roots``, tree after tree: an array of len(roots) * X.shape[0] node
    numbers. The node arrays are one tree's, or several trees' stacked
    with their child numbers shifted to the stacked positions; feature
    -1 marks a leaf node, and x <= cutoff routes left.

    One level-synchronous loop moves every (tree, row) pair that is still
    at a split node one level down; a pair drops out of the active set
    once it reaches a leaf."""
    n = X.shape[0]
    node = np.repeat(np.asarray(roots, dtype=np.intp), n)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        go_left = X[active % n, feature[at]] <= cutoff[at]
        node[active] = np.where(go_left, left[at], right[at])
        active = active[feature[node[active]] >= 0]
    return node


def _node_arrays(kind: str, rows: np.ndarray) -> tuple:
    """What ``_node_score`` reads of a node, from its subjects' carried
    values on the split columns (GWRS, GLR) or their scores (SWRS, SLR):
    those, their total and, for GLR, the node's terms
    (``splits.glr_node_terms``) or, for scores, the bound of rounding
    residue."""
    if kind == GWRS:
        return rows, rows.sum(axis=0)
    if kind == GLR:
        total = rows.sum(axis=0)
        return rows, total, glr_node_terms(total, rows.shape[0])
    return rows, rows.sum(), SCORE_RESIDUE * np.abs(rows).sum()


def _node_score(rule: SplitRule, ctx_arrays, mask: np.ndarray, counts) -> float:
    """Score of one candidate partition from cached node arrays."""
    kind = rule.kind
    n_left, n_right = counts
    if kind == GWRS:
        vn, total = ctx_arrays
        left_sum = mask @ vn
        return abs(gwrs_from_sums(left_sum, n_left, total - left_sum, n_right) - 0.5)
    if kind == GLR:
        vn, total, node = ctx_arrays
        left_sum = mask @ vn
        stat = glr_from_sums(left_sum, n_left, total - left_sum, n_right, node, rule.glr_sign)
        return 0.0 if np.isnan(stat) else abs(stat)
    scores, total, residue = ctx_arrays
    left_sum = mask @ scores
    diff = abs(left_sum / n_left - (total - left_sum) / n_right)
    return 0.0 if diff <= residue else diff


def curve_from_grid_values(grid: np.ndarray, rows: np.ndarray):
    """Compress each row of grid values to a step curve of the masses of
    the cells (grid[j-1], grid[j]] that drop by more than LEAF_MASS_TOL,
    knots as in ``curves.step_knots``: each mass keeps its cell. Returns
    the knot times and values of all rows, one curve after another, and
    the offsets delimiting each."""
    vals = np.minimum.accumulate(np.clip(rows, 0.0, 1.0), axis=1)
    prev = np.concatenate((np.ones((vals.shape[0], 1)), vals[:, :-1]), axis=1)
    row, cell = np.nonzero((prev - vals) > LEAF_MASS_TOL)
    starts = np.concatenate(([0.0], grid[:-1]))
    return step_knots(starts[cell], grid[cell], prev[row, cell], vals[row, cell], row,
                      vals.shape[0])


def _npmle_knots(ctx: FoldContext, members: np.ndarray, member_offsets: np.ndarray,
                 npmle_gaps: list | None):
    """Knots (times, values, offsets) of the quasi-honest leaves whose
    members are ``members``, delimited by ``member_offsets``: each the NPMLE of its
    members' intervals, with right-unbounded intervals confined to the
    observed time range (``ctx.support_bound``) so that the final mass
    stays there; re-allocating a small node's large final mass
    exponentially over (a, inf) would inflate the whole ensemble. The KKT
    gap of each leaf goes to ``npmle_gaps``."""
    sizes = np.diff(member_offsets)
    n = sizes.size
    owner = np.repeat(np.arange(n), sizes)
    lefts = ctx.lefts[members]
    rights = np.minimum(ctx.rights[members], ctx.support_bound)
    # every leaf's Turnbull intervals from one sort by leaf, then value, then
    # R-points before L-points at ties; a leaf's last point is a right end,
    # so no interval spans two leaves
    pts = np.concatenate((lefts, rights))
    is_left = np.repeat(np.array([1, 0], dtype=np.int8), members.size)
    leaf = np.concatenate((owner, owner))
    order = np.lexsort((is_left, pts, leaf))
    pv, pl, leaf = pts[order], is_left[order], leaf[order]
    hit = (pl[:-1] == 1) & (pl[1:] == 0)
    q, p, leaf = pv[:-1][hit], pv[1:][hit], leaf[:-1][hit]
    k = np.bincount(leaf, minlength=n)
    first = np.concatenate(([0], np.cumsum(k)[:-1]))

    # one or two intervals: the exact NPMLE, for all these leaves at once
    rows = np.flatnonzero(k[owner] <= 2)
    j0 = first[owner[rows]]
    two = k[owner[rows]] == 2
    j1 = np.where(two, j0 + 1, j0)
    held = [(lefts[rows] <= q[j]) & (p[j] <= rights[rows]) for j in (j0, j1)]
    small, gaps = exact_masses(held[0], held[1] & two, 1.0 / sizes[owner[rows]], owner[rows], n)
    masses = np.empty(q.size)
    few = np.flatnonzero(k <= 2)
    masses[first[few]] = small[few, 0]
    pair = np.flatnonzero(k == 2)
    masses[first[pair] + 1] = small[pair, 1]
    cum = masses.copy()  # the running sum of each leaf's masses
    cum[first[pair] + 1] += masses[first[pair]]
    # more: the certified Newton fit, leaf by leaf
    for j in np.flatnonzero(k > 2):
        at = slice(first[j], first[j] + k[j])
        own = slice(member_offsets[j], member_offsets[j + 1])
        fit = npmle_fit(lefts[own], rights[own])
        masses[at], cum[at], gaps[j] = fit.masses, np.cumsum(fit.masses), fit.kkt_gap
    if npmle_gaps is not None:
        npmle_gaps.extend(gaps.tolist())

    # the encoding of npmle._curve_from_masses, every leaf in one pass
    keep = masses > 0.0
    after = 1.0 - cum[keep]
    leaf = leaf[keep]
    before = np.concatenate(([1.0], after[:-1]))
    before[np.concatenate(([True], leaf[1:] != leaf[:-1]))] = 1.0
    return step_knots(q[keep], p[keep], before, after, leaf, n)


def _leaf_store(ctx: FoldContext, leaf_members: list, prediction: str,
                npmle_gaps: list | None = None) -> LeafStore:
    """The LeafStore of the leaves with members ``leaf_members``, built for
    all of them at once; values are clipped to [0, 1] as StepSurvival
    clips them."""
    n = len(leaf_members)
    sizes = np.asarray([m.size for m in leaf_members], dtype=np.int64)
    members = np.concatenate(leaf_members)
    member_offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    if prediction == QUASI_HONEST:
        times, values, offsets = _npmle_knots(ctx, members, member_offsets, npmle_gaps)
    else:
        means = np.array([ctx.values[m].mean(axis=0) for m in leaf_members])
        times, values, offsets = curve_from_grid_values(ctx.grid, means)
    return LeafStore(times, np.clip(values, 0.0, 1.0), offsets, np.full(n, np.nan), members,
                     member_offsets)


def grow_tree_ctx(ctx: FoldContext, inbag: np.ndarray, params: TreeParams,
                  rng: np.random.Generator, npmle_gaps: list | None = None) -> Tree:
    """Grow one tree on the in-bag subjects; the KKT gaps of its leaf
    NPMLEs go to ``npmle_gaps``. The split structure comes first; the
    leaves are then built together (``_leaf_store``)."""
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
        node_arrays = _node_arrays(kind, ctx.values[members, split_cols] if kind in (GWRS, GLR)
                                   else (ctx.sw if kind == SWRS else ctx.slr)[members])

        feats = rng.choice(ctx.p, size=mtry, replace=False)
        best = (0.0, None)  # (score, (f, c, mask))
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
            s = _node_score(params.rule, node_arrays, mask, (n_left, size - n_left))
            if s > best[0]:
                best = (s, (f, c, mask))

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

    store = _leaf_store(ctx, leaf_members, params.prediction, npmle_gaps)
    return Tree(feature, cutoff, left, right, leaf_idx, store, inbag)


def support_bound_of(lefts, rights, tau: float) -> float:
    """End of the observed time range: max finite endpoint (and tau),
    strictly above every left endpoint."""
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    finite = rights[np.isfinite(rights)]
    hi = max(float(tau), float(finite.max()) if finite.size else 0.0)
    max_l = float(lefts.max()) if lefts.size else 0.0
    return max(hi, max_l * (1.0 + 1e-9) + 1e-12)


def fold_context(data, grid: np.ndarray, values: np.ndarray, s_l, s_r) -> FoldContext:
    """The FoldContext of ``data`` with carried curves ``values`` on
    ``grid`` and covariate-conditional endpoint values S(L_i), S(R_i)."""
    return FoldContext(
        X=data.X,
        lefts=data.lefts,
        rights=data.rights,
        tau=data.tau,
        grid=grid,
        m_split=int(np.searchsorted(grid, data.tau, side="right")),
        values=values,
        sw=swrs_scores(s_l, s_r),
        slr=slr_scores(s_l, s_r),
        support_bound=support_bound_of(data.lefts, data.rights, data.tau),
    )
