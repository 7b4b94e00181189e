"""Independent oracles used by the module and acceptance tests.

Each oracle deliberately avoids the code path it checks: the simplex
grid search enumerates Turnbull masses directly, the Wilcoxon and
log-rank oracles work from raw event times via pair counting and risk
tables, and the pairwise-GWRS form lives in splits (it is never used by
the tree grower).
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


def smoothed_rows_per_curve(curves, grid, h):
    """Each curve smoothed on its own: its masses spread over their
    intervals by refine_uniform, turned into atoms by curve_atoms and
    evaluated as one row of smoothed_values_matrix. Reference for the
    interval-column form in forest._leaf_rows."""
    from icrf.curves import refine_uniform
    from icrf.smooth import curve_atoms, smoothed_values_matrix

    atoms = [curve_atoms(refine_uniform(c)) for c in curves]
    return smoothed_values_matrix([a[0] for a in atoms], [a[1] for a in atoms], h, grid)
