"""Nonparametric maximum likelihood for interval censored data.

Turnbull's maximal intersections carry the mass; the fit is the EM /
self-consistency recursion on that simplex. An exponential tail
correction reallocates the final mass when unbounded intervals are
present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import StepSurvival
from .exceptions import EmptyInput, InvalidAnchor

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 2000
PRUNE_MASS = 1e-12


@dataclass(frozen=True)
class TurnbullIntervals:
    """Maximal intersections (q_j, p_j] and the observation membership."""

    lefts: np.ndarray
    rights: np.ndarray  # +inf allowed in the last entry
    membership: np.ndarray  # (n_obs, n_intervals) boolean

    @property
    def n_intervals(self) -> int:
        return self.lefts.size


def turnbull_intervals(lefts, rights) -> TurnbullIntervals:
    """Compute Turnbull's maximal intersections of intervals (L_i, R_i].

    A maximal intersection is an (L-point, R-point) pair adjacent in the
    sorted endpoint sequence, with R-points ordered before L-points at
    ties (the intervals are left-open).
    """
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    if lefts.size == 0:
        raise EmptyInput("no observations")
    if np.any(lefts >= rights):
        raise EmptyInput("every interval must satisfy L < R")

    # sort key: value, then R (0) before L (1) at equal values
    pts = np.concatenate((lefts, rights))
    is_left = np.concatenate(
        (np.ones(lefts.size, dtype=int), np.zeros(rights.size, dtype=int))
    )
    order = np.lexsort((is_left, pts))
    pv, pl = pts[order], is_left[order]

    q, p = [], []
    for k in range(len(pv) - 1):
        if pl[k] == 1 and pl[k + 1] == 0:
            q.append(pv[k])
            p.append(pv[k + 1])
    q = np.asarray(q)
    p = np.asarray(p)
    membership = (lefts[:, None] <= q[None, :]) & (p[None, :] <= rights[:, None])
    if not membership.any(axis=1).all():
        # cannot happen for valid L < R input; guard anyway
        raise EmptyInput("an observation matched no maximal intersection")
    return TurnbullIntervals(q, p, membership)


@dataclass(frozen=True)
class NpmleFit:
    intervals: TurnbullIntervals
    masses: np.ndarray
    curve: StepSurvival
    iterations: int
    converged: bool
    loglik: float


def _loglik(membership, masses, weights):
    probs = membership @ masses
    probs = np.maximum(probs, 1e-300)
    return float(weights @ np.log(probs))


def _curve_from_masses(tb: TurnbullIntervals, masses: np.ndarray) -> StepSurvival:
    """Step curve: survival drops by mass_j at p_j, with a zero-jump knot
    at q_j marking where the j-th mass interval begins.

    Values use the same cumulative-complement arithmetic as the
    empirical survival function, so all-exact fits match it bit-for-bit.
    """
    keep = masses > 0.0
    q, p, m = tb.lefts[keep], tb.rights[keep], masses[keep]
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
        # an unbounded last interval leaves the curve at its plateau
    return StepSurvival(np.asarray(times), np.asarray(values))


def npmle_fit(lefts, rights, weights=None, max_iter: int = DEFAULT_MAX_ITER) -> NpmleFit:
    """Weighted NPMLE via EM on the Turnbull mass simplex.

    Iterates p_j <- sum_i w_i a_ij p_j / (a_i . p) / sum_i w_i from the
    uniform start until max|dp| < DEFAULT_TOL or max_iter. Non-convergence
    is reported through ``converged=False`` (the best iterate is returned).
    """
    tb = turnbull_intervals(lefts, rights)
    n, k = tb.membership.shape
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise EmptyInput("weights must be >= 0 with positive sum")
    wsum = weights.sum()
    a = tb.membership.astype(float)

    p = np.full(k, 1.0 / k)
    converged = False
    iterations = 0

    def em_until(p, budget):
        # ratio-first update keeps p_j/denom_i == 1 exact on identity
        # memberships, so all-exact data lands exactly on w_i / sum(w)
        used = 0
        while used < budget:
            denom = np.maximum(a @ p, 1e-300)
            ratio = p[None, :] / denom[:, None]
            p_new = (weights @ (a * ratio)) / wsum
            delta = np.max(np.abs(p_new - p))
            p = p_new
            used += 1
            if delta < DEFAULT_TOL:
                return p, used, True
        return p, used, False

    budget = max_iter
    while budget > 0:
        p, used, converged = em_until(p, budget)
        iterations += used
        budget -= used
        if not converged:
            break
        # prune numerically dead atoms; if any were dropped, renormalize
        # and resume EM so the returned masses remain a fixed point
        dead = (p > 0.0) & (p < PRUNE_MASS)
        if not dead.any():
            break
        p = np.where(dead, 0.0, p)
        p = p / p.sum()
        converged = False

    return NpmleFit(
        intervals=tb,
        masses=p,
        curve=_curve_from_masses(tb, p),
        iterations=iterations,
        converged=converged,
        loglik=_loglik(tb.membership, p, weights),
    )


def tail_correct(fit: NpmleFit, has_unbounded: bool, tau: float | None = None) -> StepSurvival:
    """Exponential reallocation of the final probability mass.

    When unbounded intervals are present, the mass p in the last
    mass-bearing interval is spread as S(t) = p**(t/a) for t >= a, where
    a is that interval's left endpoint (rate -log(p)/a). Identity when no
    unbounded interval exists.
    """
    if not has_unbounded:
        return fit.curve

    keep = np.nonzero(fit.masses > 0.0)[0]
    if keep.size == 0:
        return fit.curve
    last = keep[-1]
    p_hat = float(fit.masses[last])
    a = float(fit.intervals.lefts[last])

    if a <= 0.0:
        if tau is None:
            raise InvalidAnchor(f"tail anchor must be > 0, got {a}")
        rate = 1.0 / tau
    else:
        rate = -np.log(max(p_hat, 1e-300)) / a if p_hat < 1.0 else 0.0

    # rebuild the curve with the final drop removed (treat the last
    # mass-bearing interval as unbounded), then attach the tail
    rights = fit.intervals.rights.copy()
    rights[last] = np.inf
    tb_mod = TurnbullIntervals(fit.intervals.lefts, rights, fit.intervals.membership)
    base = _curve_from_masses(tb_mod, fit.masses)
    ts, vs = base.times, base.values
    if a > 0.0 and (ts.size == 0 or a > ts[-1]):
        ts = np.concatenate((ts, [a]))
        vs = np.concatenate((vs, [p_hat]))
    return StepSurvival(ts, vs, tail_rate=rate)
