"""Modified extremely-randomized survival tree.

At each node, mtry features are drawn without replacement; each gets one
cut-off drawn uniformly from the open interval between its in-node min
and max; candidates whose children would fall below n_min are invalid;
the best-scoring valid candidate wins (first index on ties). A node is
terminal when its size is below 2*n_min, no valid candidate exists, or
every candidate scores zero.

The tree reads everything from its fold's ``FoldContext``: the carried
full-conditional curves as a value matrix on one shared knot grid and the
per-subject SWRS/SLR scores. Each candidate split is scored once by
``_node_score``, each leaf curve is built once by ``_terminal_curve``, and
``Tree.apply`` routes rows to leaves. A leaf is quasi-honest (the NPMLE
of the members' raw intervals) or exploitative (the mean of the members'
carried curves).

A tree holds its leaf curves and member ids column-wise, in one
``curves.LeafStore`` that growth concatenates once; ``Tree.leaves`` gives
read-only per-leaf views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import LeafStore, StepSurvival, step_knots
from .exceptions import InsufficientData
from .npmle import npmle_fit
from .splits import (GLR, GWRS, SWRS, SplitRule, glr_from_sums, gwrs_from_sums, slr_scores,
                     swrs_scores)

QUASI_HONEST = "quasi_honest"
EXPLOITATIVE = "exploitative"
PREDICTIONS = (QUASI_HONEST, EXPLOITATIVE)

LEAF_MASS_TOL = 1e-15


@dataclass(frozen=True)
class TreeParams:
    mtry: int | None = None  # None -> ceil(sqrt(p))
    n_min: int = 6
    rule: SplitRule = field(default_factory=SplitRule)
    prediction: str = QUASI_HONEST  # one of PREDICTIONS

    def __post_init__(self):
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
        idx = np.zeros(X.shape[0], dtype=np.int32)
        active = self.feature[idx] >= 0
        while active.any():
            rows = np.nonzero(active)[0]
            nodes = idx[rows]
            go_left = X[rows, self.feature[nodes]] <= self.cutoff[nodes]
            idx[rows] = np.where(go_left, self.left[nodes], self.right[nodes])
            active[rows] = self.feature[idx[rows]] >= 0
        return self.leaf_idx[idx]


def _node_score(rule: SplitRule, ctx_arrays, mask: np.ndarray, counts) -> float:
    """Score of one candidate partition from cached node arrays."""
    kind = rule.kind
    n_left, n_right = counts
    if kind in (GWRS, GLR):
        vn, total = ctx_arrays
        left_sum = mask @ vn
        right_sum = total - left_sum
        if kind == GWRS:
            return abs(gwrs_from_sums(left_sum, n_left, right_sum, n_right) - 0.5)
        stat = glr_from_sums(left_sum, n_left, right_sum, n_right, sign=rule.glr_sign)
        return 0.0 if np.isnan(stat) else abs(stat)
    scores, total = ctx_arrays
    left_sum = mask @ scores
    return abs(left_sum / n_left - (total - left_sum) / n_right)


def _terminal_curve(ctx: FoldContext, members: np.ndarray, prediction: str,
                    npmle_gaps: list | None = None) -> StepSurvival:
    """The leaf curve of ``members``.

    Quasi-honest: the NPMLE of the members' raw intervals, with
    right-unbounded intervals confined to the observed time range
    (``ctx.support_bound``) so that the final mass stays there;
    re-allocating a small node's large final mass exponentially over
    (a, inf) would inflate the whole ensemble. Exploitative: the mean of
    the members' carried curves on the fold grid, compressed. A
    quasi-honest leaf appends its NPMLE's KKT gap to ``npmle_gaps``.
    """
    if prediction == QUASI_HONEST:
        rights = np.minimum(ctx.rights[members], ctx.support_bound)
        fit = npmle_fit(ctx.lefts[members], rights)
        if npmle_gaps is not None:
            npmle_gaps.append(fit.kkt_gap)
        return fit.curve
    mean = ctx.values[members].mean(axis=0)
    return curve_from_grid_values(ctx.grid, mean)


def curve_from_grid_values(grid: np.ndarray, vals: np.ndarray) -> StepSurvival:
    """Compress grid values to a step curve of the masses of the cells
    (grid[j-1], grid[j]] that drop by more than LEAF_MASS_TOL, knots as in
    ``curves.step_knots``: each mass keeps its cell."""
    vals = np.minimum.accumulate(np.clip(vals, 0.0, 1.0))
    prev = np.concatenate(([1.0], vals[:-1]))
    drops = (prev - vals) > LEAF_MASS_TOL
    starts = np.concatenate(([0.0], grid[:-1]))
    return StepSurvival(*step_knots(starts[drops], grid[drops], prev[drops], vals[drops]))


def grow_tree_ctx(ctx: FoldContext, inbag: np.ndarray, params: TreeParams,
                  rng: np.random.Generator, npmle_gaps: list | None = None) -> Tree:
    """Grow one tree on the in-bag subjects; the KKT gaps of its leaf
    NPMLEs go to ``npmle_gaps``."""
    inbag = np.asarray(inbag, dtype=np.int64)
    n_min = params.n_min
    if inbag.size < n_min:
        raise InsufficientData(f"in-bag size {inbag.size} < n_min {n_min}")
    mtry = params.resolved_mtry(ctx.p)
    kind = params.rule.kind
    split_cols = slice(0, ctx.m_split)

    feature, cutoff, left, right, leaf_idx = [], [], [], [], []
    curves, leaf_members = [], []

    def new_node():
        feature.append(-1)
        cutoff.append(np.nan)
        left.append(-1)
        right.append(-1)
        leaf_idx.append(-1)
        return len(feature) - 1

    def make_leaf(node_id, members):
        leaf_idx[node_id] = len(curves)
        curves.append(_terminal_curve(ctx, members, params.prediction, npmle_gaps))
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
        if kind in (GWRS, GLR):
            vn = ctx.values[members, split_cols]
            node_arrays = (vn, vn.sum(axis=0))
        else:
            scores = (ctx.sw if kind == SWRS else ctx.slr)[members]
            node_arrays = (scores, scores.sum())

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

    return Tree(feature, cutoff, left, right, leaf_idx, LeafStore.of(curves, leaf_members), inbag)


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
