"""Nonparametric maximum likelihood for interval censored data.

Turnbull's maximal intersections carry the mass. One code fits one
problem (``npmle_fit``, the marginal) or many (``npmle_batch``, a tree's
quasi-honest leaves): one sort finds every problem's intersections, those
with one or two take the closed form (``exact_masses``) all at once, the
others constrained Newton steps (Wang 2007) on the membership the sort
found, and one encoding turns all masses into step-curve knots. Each fit
reports its KKT gap max_j d_j - 1, d_j the derivative of the normalized
log-likelihood toward the j-th interval: the masses are optimal when it
is <= 0, certified when within KKT_TOL. An exponential tail correction
reallocates the final mass when unbounded intervals are present."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import StepSurvival, step_knots
from .exceptions import DimensionMismatch, EmptyInput, InvalidAnchor

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


def _maximal_intersections(lefts, rights, owner):
    """The maximal intersections (q_j, p_j] of the intervals (L_i, R_i] of
    problem owner[i], problem after problem, and the problem of each: the
    (L-point, R-point) pairs adjacent in one sort by problem, value and R
    before L at ties (the intervals are left-open). A problem's last point
    is a right end, so no pair spans two problems."""
    pts = np.concatenate((lefts, rights))
    is_left = np.repeat(np.array([1, 0], dtype=np.int8), lefts.size)
    problem = np.concatenate((owner, owner))
    order = np.lexsort((is_left, pts, problem))
    pv, pl, problem = pts[order], is_left[order], problem[order]
    hit = (pl[:-1] == 1) & (pl[1:] == 0)
    return pv[:-1][hit], pv[1:][hit], problem[:-1][hit]


def _membership(lefts, rights, q, p) -> np.ndarray:
    """Whether (L_i, R_i] holds (q_j, p_j], observations by intervals."""
    return (lefts[:, None] <= q[None, :]) & (p[None, :] <= rights[:, None])


def turnbull_intervals(lefts, rights) -> TurnbullIntervals:
    """Turnbull's maximal intersections of intervals (L_i, R_i], the
    one-problem case of ``_maximal_intersections``, with the membership."""
    lefts, rights = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
    if lefts.ndim != 1 or lefts.shape != rights.shape:
        raise DimensionMismatch("lefts and rights must be 1-D and of one length, got shapes "
                                f"{lefts.shape} and {rights.shape}")
    if lefts.size == 0:
        raise EmptyInput("no observations")
    if np.any(lefts >= rights):
        raise EmptyInput("every interval must satisfy L < R")
    q, p, _ = _maximal_intersections(lefts, rights, np.zeros(lefts.size, dtype=np.intp))
    membership = _membership(lefts, rights, q, p)
    if not membership.any(axis=1).all():
        # cannot happen for valid L < R input; guard anyway
        raise EmptyInput("an observation matched no maximal intersection")
    return TurnbullIntervals(q, p, membership)


@dataclass(frozen=True)
class NpmleFit:
    """An NPMLE: masses on the Turnbull intervals and their certificate.
    The step curve and the log-likelihood are computed on first access."""

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
        probs = np.maximum(self.intervals.membership @ self.masses, 1e-300)
        return float(self.weights @ np.log(probs))


@dataclass(frozen=True)
class NpmleBatch:
    """NPMLEs of several problems: their Turnbull intervals, problem after
    problem, numbered by ``problem``; masses; per problem steps and gap."""

    lefts: np.ndarray
    rights: np.ndarray
    problem: np.ndarray
    masses: np.ndarray
    iterations: np.ndarray
    kkt_gaps: np.ndarray

    def knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Knots (times, values, offsets) of every problem's step curve."""
        return _knots_from_masses(self.lefts, self.rights, self.masses, self.problem,
                                  self.kkt_gaps.size)


def _knots_from_masses(lefts, rights, masses, problem, n: int):
    """Knots (times, values, offsets; ``curves.step_knots``) of ``n``
    problems' masses on their intervals (lefts_j, rights_j], numbered by
    ``problem``, with the cumulative-complement arithmetic of the empirical
    survival function, so all-exact fits match it bit-for-bit. Each problem
    is summed apart, in a row of a zero-padded matrix: one running sum over
    all problems would round differently."""
    k = np.bincount(problem, minlength=n)
    rank = np.arange(problem.size) - (np.cumsum(k) - k)[problem]
    padded = np.zeros((n, k.max(initial=0)))
    padded[problem, rank] = masses
    keep = masses > 0.0
    after = 1.0 - np.cumsum(padded, axis=1)[problem, rank][keep]
    problem = problem[keep]
    before = np.concatenate(([1.0], after))[:-1]
    before[np.flatnonzero(np.diff(problem)) + 1] = 1.0  # each problem's first knot
    return step_knots(lefts[keep], rights[keep], before, after, problem, n)


def _curve_from_masses(lefts, rights, masses, tail_rate=None) -> StepSurvival:
    """The one-curve case of ``_knots_from_masses``, as a StepSurvival."""
    times, values, _ = _knots_from_masses(lefts, rights, masses,
                                          np.zeros(masses.size, dtype=np.intp), 1)
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
    each in closed form, one row of two masses per problem, and its KKT
    gaps by ``_em_step``'s formula. Row i, of problem ``problem[i]`` and
    weight w[i] (a problem's weights sum to one), holds the first
    intersection when a0[i], the second when a1[i], one or both, so the
    log-likelihood is s10 log p1 + s01 log p2 plus a constant, for the
    weights s10 and s01 of the rows that hold only the first and only the
    second; its maximum is p = (s10, s01) / (s10 + s01). When no row
    separates two intersections (only zero-weight rows can), every p is
    optimal and the masses stay at (1/2, 1/2)."""
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
    for weights ``w`` summing to one, from the uniform start; each step
    moves toward the maximum of the quadratic model at p by a backtracking
    Armijo search, after one self-consistency (EM) step, which never lowers
    the log-likelihood and, ratio first, puts all-exact data exactly on w.
    It stops when the masses carry the certificate or after ``budget``
    Newton steps. When no Newton step raises the log-likelihood (near the
    optimum, once the gain falls below rounding), up to STALL_EM_STEPS EM
    steps run until the certificate holds. Returns the masses, the Newton
    steps taken and the KKT gap."""
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
        # gain of sum_i w_i log(a_i . p) - log(sum p) toward q: r_i is the
        # relative change of a_i . p, ``shrink`` that of sum p that rounding
        # leaves in q; in log1p form the gain keeps its precision near the
        # optimum, where log-likelihoods no longer resolve it
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


def _solve(lefts, rights, w, sizes, q, p, problem, max_iter: int) -> NpmleBatch:
    """The NPMLEs of len(sizes) problems with maximal intersections (q_j,
    p_j] numbered by ``problem``, problem j of the next sizes[j] (L_i, R_i]
    of weights w_i summing to one: ``exact_masses`` for all problems with
    one or two intersections at once, ``_newton`` for each other one."""
    n = sizes.size
    owner = np.repeat(np.arange(n), sizes)  # the problem of each observation
    k = np.bincount(problem, minlength=n)
    first = np.cumsum(k) - k
    rows = np.flatnonzero(k[owner] <= 2)
    j0 = first[owner[rows]]
    two = k[owner[rows]] == 2
    held = [(lefts[rows] <= q[j]) & (p[j] <= rights[rows]) for j in (j0, j0 + two)]
    small, gaps = exact_masses(held[0], held[1] & two, w[rows], owner[rows], n)
    masses = np.empty(q.size)
    few = k[problem] <= 2
    masses[few] = small[problem[few], (np.arange(q.size) - first[problem])[few]]
    steps = np.zeros(n, dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    for j in np.flatnonzero(k > 2):
        at, own = slice(first[j], first[j] + k[j]), slice(starts[j], starts[j + 1])
        a = _membership(lefts[own], rights[own], q[at], p[at]).astype(float)
        masses[at], steps[j], gaps[j] = _newton(a, w[own], max_iter)
    return NpmleBatch(q, p, problem, masses, steps, gaps)


def npmle_fit(lefts, rights, weights=None, max_iter: int = DEFAULT_MAX_ITER) -> NpmleFit:
    """Weighted NPMLE on the Turnbull mass simplex, certified by its KKT
    condition: the one-problem case of ``npmle_batch``, with weights.

    With weights normalized to sum one, d_j = sum_i w_i a_ij / (a_i . p);
    p is the NPMLE exactly when max_j d_j <= 1, and ``converged`` reports
    ``kkt_gap`` = max_j d_j - 1 <= KKT_TOL. One or two intersections take
    ``exact_masses`` (no Newton step), more ``_newton`` with a budget of
    ``max_iter`` steps. Zero-weight rows shape the intervals only.
    """
    lefts, rights = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
    tb = turnbull_intervals(lefts, rights)
    # a copy: ``loglik`` reads the weights later
    weights = np.ones(lefts.size) if weights is None else np.array(weights, dtype=float)
    if weights.shape != lefts.shape:
        raise DimensionMismatch(f"weights of shape {weights.shape} for {lefts.size} intervals")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise EmptyInput("weights must be >= 0 with positive sum")
    live = weights > 0.0
    w = weights[live] / weights.sum()
    one = _solve(lefts[live], rights[live], w, np.array([w.size]), tb.lefts, tb.rights,
                 np.zeros(tb.n_intervals, dtype=np.intp), max_iter)
    return NpmleFit(tb, one.masses, int(one.iterations[0]), float(one.kkt_gaps[0]), weights)


def npmle_batch(lefts, rights, sizes, max_iter: int = DEFAULT_MAX_ITER) -> NpmleBatch:
    """The NPMLEs of len(sizes) problems from one sort, problem j of the
    next sizes[j] intervals (L_i, R_i] (unchecked: every L_i < R_i), each
    of weight 1 / sizes[j]: each problem's masses, Newton steps and KKT
    gap are those of ``npmle_fit`` on that problem alone, bit for bit."""
    sizes = np.asarray(sizes)
    owner = np.repeat(np.arange(sizes.size), sizes)
    q, p, problem = _maximal_intersections(lefts, rights, owner)
    return _solve(lefts, rights, 1.0 / sizes[owner], sizes, q, p, problem, max_iter)


def tail_correct(fit: NpmleFit, has_unbounded: bool, tau: float | None = None) -> StepSurvival:
    """Exponential reallocation of the final probability mass: when
    unbounded intervals are present, the mass p in the last mass-bearing
    interval is spread as S(t) = p**(t/a) for t >= a, where a is that
    interval's left endpoint (rate -log(p)/a). Identity when no unbounded
    interval exists."""
    keep = np.nonzero(fit.masses > 0.0)[0]
    if not has_unbounded or keep.size == 0:
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
