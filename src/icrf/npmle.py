"""Nonparametric maximum likelihood for interval censored data.

Turnbull's maximal intersections carry the mass. With one or two of
them the NPMLE has a closed form (``exact_masses``), which the marginal,
``npmle_fit`` and a tree's leaves all take; with more it is found by
constrained Newton steps (Wang 2007), each one nonnegative least-squares
problem. Either way it is certified by its KKT condition: with d_j the
derivative of the normalized log-likelihood toward the j-th interval, the
masses are optimal when max_j d_j <= 1. A fit reports its gap
max_j d_j - 1 and whether that is within KKT_TOL. An exponential tail
correction reallocates the final mass when unbounded intervals are
present.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import StepSurvival, step_knots
from .exceptions import EmptyInput, InvalidAnchor

KKT_TOL = 1e-9  # certificate: max_j d_j <= 1 + KKT_TOL, near float resolution
DEFAULT_MAX_ITER = 50  # Newton-step budget
ARMIJO = 1.0 / 3.0  # sufficient-increase fraction of the line search
MAX_HALVINGS = 30  # backtracking steps before a Newton step counts as stalled
STALL_EM_STEPS = 100  # EM steps that may follow a stalled Newton step


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

    hit = (pl[:-1] == 1) & (pl[1:] == 0)
    q, p = pv[:-1][hit], pv[1:][hit]
    membership = (lefts[:, None] <= q[None, :]) & (p[None, :] <= rights[:, None])
    if not membership.any(axis=1).all():
        # cannot happen for valid L < R input; guard anyway
        raise EmptyInput("an observation matched no maximal intersection")
    return TurnbullIntervals(q, p, membership)


@dataclass(frozen=True)
class NpmleFit:
    """An NPMLE: masses on the Turnbull intervals and their certificate.
    The step curve and the log-likelihood are computed on first access;
    a tree's leaves read only the masses and the gap."""

    intervals: TurnbullIntervals
    masses: np.ndarray
    iterations: int  # Newton steps taken
    kkt_gap: float  # max_j d_j - 1 at ``masses``
    weights: np.ndarray  # the observations' weights, as given

    @property
    def converged(self) -> bool:
        """Whether the masses carry the optimality certificate."""
        return self.kkt_gap <= KKT_TOL

    @cached_property
    def curve(self) -> StepSurvival:
        return _curve_from_masses(self.intervals.lefts, self.intervals.rights, self.masses)

    @cached_property
    def loglik(self) -> float:
        return _loglik(self.intervals.membership, self.masses, self.weights)


def _loglik(membership, masses, weights):
    probs = membership @ masses
    probs = np.maximum(probs, 1e-300)
    return float(weights @ np.log(probs))


def _curve_from_masses(lefts, rights, masses, tail_rate=None) -> StepSurvival:
    """Step curve of the masses on the Turnbull intervals (lefts_j,
    rights_j], knots as in ``curves.step_knots``.

    Values use the same cumulative-complement arithmetic as the
    empirical survival function, so all-exact fits match it bit-for-bit.
    """
    keep = masses > 0.0
    after = 1.0 - np.cumsum(masses[keep])
    before = np.concatenate(([1.0], after))[:-1]
    times, values, _ = step_knots(lefts[keep], rights[keep], before, after)
    return StepSurvival(times, values, tail_rate=tail_rate)


def _em_step(a: np.ndarray, w: np.ndarray, p: np.ndarray):
    """One self-consistency (EM) step from masses p; returns the new masses,
    a @ p, the ratios a_ij / (a_i . p) and the KKT gap max_j d_j - 1."""
    p = w @ (a * (p[None, :] / (a @ p)[:, None]))
    ap = a @ p
    s = a / ap[:, None]
    return p, ap, s, float((w @ s).max()) - 1.0


def exact_masses(a0, a1, w, problem, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The NPMLE of ``n`` problems with one or two maximal intersections
    each, in closed form, and its KKT gap by ``_em_step``'s formula.

    Row i belongs to problem ``problem[i]``, has weight w[i] (the weights
    of a problem sum to one) and holds the first intersection when a0[i],
    the second when a1[i] (never, with one intersection). Every row holds
    one or both, so the log-likelihood is s10 log p1 + s01 log p2 plus a
    constant, where s10 and s01 weigh the rows that hold only the first
    and only the second intersection. Its maximum on the simplex is
    p = (s10, s01) / (s10 + s01): (1, 0) with one intersection. Rows that
    separate two intersections always exist in a problem without
    zero-weight rows; when none does, every p is optimal and the masses
    stay at the uniform start (1/2, 1/2). Returns the masses, one row of
    two per problem, and the gaps.
    """
    s10 = np.bincount(problem, w * (a0 & ~a1), minlength=n)
    s01 = np.bincount(problem, w * (a1 & ~a0), minlength=n)
    total = s10 + s01
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0.0, np.array((s10, s01)) / total, 0.5).T
        ap = a0 * p[problem, 0] + a1 * p[problem, 1]
        d = (np.bincount(problem, w * a0 / ap, minlength=n),
             np.bincount(problem, w * a1 / ap, minlength=n))
    return p, np.maximum(*d) - 1.0


def _newton(a: np.ndarray, w: np.ndarray, budget: int):
    """Constrained Newton ascent of sum_i w_i log(a_i . p) on the simplex,
    for weights ``w`` summing to one, from the uniform start.

    Each round first takes one self-consistency (EM) step, which never
    lowers the log-likelihood and, ratio first, puts all-exact data
    exactly on w (p_j / (a_i . p) == 1 on identity memberships). It stops
    when the masses then carry the certificate or after ``budget`` Newton
    steps. When no Newton step raises the log-likelihood, up to
    STALL_EM_STEPS further EM steps run until the certificate holds.
    Returns the masses, the Newton steps taken and the KKT gap
    max_j d_j - 1.
    """
    k = a.shape[1]
    p = np.full(k, 1.0 / k)
    target = np.zeros(a.shape[0] + 1)
    target[-1] = 1.0
    for step in range(budget + 1):
        p, ap, s, gap = _em_step(a, w, p)
        if gap <= KKT_TOL or step == budget:
            break
        # the quadratic model at p is -sum_i w_i (s_i . q - 2)^2 / 2 + const;
        # its maximum over the simplex is x / sum(x) for the nonnegative
        # least-squares solution x of [sqrt(w) (s - 2); 1] x = [0; 1].
        # Imported here: scipy.optimize takes about 0.2 s to import, which
        # `import icrf` should not pay
        from scipy.optimize import nnls

        try:
            x = nnls(np.vstack((np.sqrt(w)[:, None] * (s - 2.0), np.ones(k))), target)[0]
        except RuntimeError:  # the active-set solve ran out of iterations
            break
        q = x / x.sum()
        # gain of the log-likelihood of the normalized masses,
        # sum_i w_i log(a_i . p) - log(sum p), toward q: r_i is the relative
        # change of a_i . p, and ``shrink`` the relative change of sum p
        # that rounding leaves in q; in log1p form the gain keeps its
        # precision near the optimum, where log-likelihoods no longer
        # resolve it
        r = (a @ (q - p)) / ap
        shrink = (q - p).sum() / p.sum()
        slope = w @ r - shrink
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = w @ np.log1p(alpha * r) - np.log1p(alpha * shrink)
            if gain > 0.0 and gain >= ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        p = (1.0 - alpha) * p + alpha * q
    if gap > KKT_TOL and step < budget:
        # a Newton step stalled: near the optimum its gain, of order gap**2,
        # falls below the rounding of the log-likelihood sums. EM steps need
        # no such comparison and still close the gap, if slowly
        for _ in range(STALL_EM_STEPS):
            p, ap, s, gap = _em_step(a, w, p)
            if gap <= KKT_TOL:
                break
    return p, step, gap


def npmle_fit(lefts, rights, weights=None, max_iter: int = DEFAULT_MAX_ITER) -> NpmleFit:
    """Weighted NPMLE on the Turnbull mass simplex, exact for one or two
    maximal intersections (``exact_masses``, no Newton step) and by
    constrained Newton steps (Wang 2007) for more, certified by its KKT
    condition.

    With weights normalized to sum one, d_j = sum_i w_i a_ij / (a_i . p)
    is the derivative of the log-likelihood toward the j-th interval; p is
    the NPMLE exactly when max_j d_j <= 1. Each Newton step maximizes the
    quadratic model of the log-likelihood at p over the simplex, as one
    nonnegative least-squares problem, and moves toward that maximum by a
    backtracking Armijo search. Before each step, and before returning,
    one self-consistency (EM) step is taken; the fit stops when its masses
    carry the certificate ``kkt_gap`` = max_j d_j - 1 <= KKT_TOL or after
    ``max_iter`` Newton steps. When no Newton step raises the
    log-likelihood, which happens near the optimum once the gain falls
    below rounding, EM steps (at most STALL_EM_STEPS) continue toward the
    certificate. ``converged`` reports the certificate at the returned
    masses.
    """
    tb = turnbull_intervals(lefts, rights)
    n = tb.membership.shape[0]
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.array(weights, dtype=float)  # a copy: ``loglik`` reads it later
        if np.any(weights < 0) or weights.sum() <= 0:
            raise EmptyInput("weights must be >= 0 with positive sum")
    live = weights > 0.0  # zero-weight rows do not enter the likelihood
    a, w = tb.membership[live], weights[live] / weights.sum()
    k = tb.n_intervals
    if k <= 2:
        a1 = a[:, 1] if k == 2 else np.zeros(w.size, dtype=bool)
        masses, gaps = exact_masses(a[:, 0], a1, w, np.zeros(w.size, dtype=np.intp), 1)
        p, iterations, kkt_gap = masses[0, :k], 0, float(gaps[0])
    else:
        p, iterations, kkt_gap = _newton(a.astype(float), w, max_iter)
    return NpmleFit(intervals=tb, masses=p, iterations=iterations, kkt_gap=kkt_gap,
                    weights=weights)


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

    # the last mass-bearing interval as unbounded: no final drop, so its
    # mass stays in the tail
    rights = fit.intervals.rights.copy()
    rights[last] = np.inf
    return _curve_from_masses(fit.intervals.lefts, rights, fit.masses, tail_rate=rate)
