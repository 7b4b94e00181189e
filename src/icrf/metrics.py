"""Error functionals: oracle errors against a known truth and the
data-only integrated squared errors IMSE1 / IMSE2.

IMSE2 projects each predicted curve onto the subject's interval with
``curves.project_rows``, the one projection kernel."""

from __future__ import annotations

import numpy as np

from .curves import StepSurvival, endpoint_values, project_rows
from .exceptions import AllSkipped

DEFAULT_GRID_N = 1001
SMOOTH_SEG_N = 201  # per-segment trapezoid resolution for continuous curves


def _oracle_grid(tau: float, grid_resolution: int) -> np.ndarray:
    if grid_resolution < 100:
        raise ValueError("grid_resolution must be >= 100")
    return np.linspace(0.0, tau, grid_resolution)


def oracle_errors(est, s0, grid) -> tuple[float, float]:
    """(eps_int, eps_sup): the mean over rows of the trapezoid integral
    and of the grid supremum of |S0 - S_hat|; ``est`` and ``s0`` hold
    one curve per row on ``grid``."""
    diff = np.abs(np.asarray(s0) - np.asarray(est))
    return float(np.trapezoid(diff, grid, axis=1).mean()), float(diff.max(axis=1).mean())


def _oracle_rows(est_eval, truth_eval, x_set, tau, grid_resolution):
    grid = _oracle_grid(tau, grid_resolution)
    est = np.vstack([np.asarray(est_eval(x, grid), dtype=float) for x in x_set])
    s0 = np.vstack([np.asarray(truth_eval(x, grid), dtype=float) for x in x_set])
    return oracle_errors(est, s0, grid)


def eps_int(est_eval, truth_eval, x_set, tau: float, grid_resolution: int = DEFAULT_GRID_N) -> float:
    """Mean over x of trapezoid integral of |S0 - S_hat| on [0, tau].

    ``est_eval(x, grid)`` and ``truth_eval(x, grid)`` return survival
    values on the grid.
    """
    return _oracle_rows(est_eval, truth_eval, x_set, tau, grid_resolution)[0]


def eps_sup(est_eval, truth_eval, x_set, tau: float, grid_resolution: int = DEFAULT_GRID_N) -> float:
    """Mean over x of the grid supremum of |S0 - S_hat| on [0, tau]."""
    return _oracle_rows(est_eval, truth_eval, x_set, tau, grid_resolution)[1]


# -- exact / generic segment integrals -------------------------------------


def _step_segments(curve: StepSurvival, lo: float, hi: float):
    """(start, end, value_at_start, tail_flag) pieces of a step curve on
    [lo, hi]; tail pieces are integrated in closed form."""
    cuts = curve.times[(curve.times > lo) & (curve.times < hi)]
    pts = np.concatenate(([lo], cuts, [hi]))
    last_t = curve.times[-1] if curve.times.size else 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        in_tail = curve.tail_rate is not None and a >= last_t
        yield a, b, float(curve.eval(a)), in_tail


def _integrate_sq(curve, lo: float, hi: float, one_minus: bool) -> float:
    """Integral of S^2 (or (1-S)^2) on [lo, hi]; exact for step curves."""
    if hi <= lo:
        return 0.0
    if isinstance(curve, StepSurvival):
        total = 0.0
        rate = curve.tail_rate or 0.0
        for a, b, va, in_tail in _step_segments(curve, lo, hi):
            width = b - a
            if not in_tail or rate == 0.0:
                total += ((1.0 - va) ** 2 if one_minus else va**2) * width
                continue
            # S(t) = va * exp(-rate (t - a)) on [a, b]
            e1 = (va / rate) * (1.0 - np.exp(-rate * width))
            e2 = (va**2 / (2 * rate)) * (1.0 - np.exp(-2 * rate * width))
            total += (width - 2 * e1 + e2) if one_minus else e2
        return total
    grid = np.linspace(lo, hi, SMOOTH_SEG_N)
    vals = np.asarray(curve.eval(grid))
    f = (1.0 - vals) ** 2 if one_minus else vals**2
    return float(np.trapezoid(f, grid))


def imse1_curve_terms(curve, left: float, right: float, tau: float):
    """(numerator, known-status length) of one subject's IMSE1 term."""
    lo_len = min(left, tau)
    hi_start = min(right, tau)
    length = tau - hi_start + lo_len
    if length <= 0.0:
        return None
    num = _integrate_sq(curve, 0.0, lo_len, one_minus=True) + _integrate_sq(
        curve, hi_start, tau, one_minus=False
    )
    return num, length


def imse1(predict, dataset) -> float:
    """IMSE1: squared discrepancy from the known survival status, averaged
    over each subject's known-status region then over retained subjects.

    ``predict(x)`` returns a survival curve (step or smoothed). Subjects
    whose interval covers [0, tau] entirely are skipped.
    """
    per_subject = []
    for left, right, x in zip(dataset.lefts, dataset.rights, dataset.X):
        terms = imse1_curve_terms(predict(x), left, right, dataset.tau)
        if terms is None:
            continue
        num, length = terms
        per_subject.append(num / length)
    if not per_subject:
        raise AllSkipped("every subject has zero known-status length")
    return float(np.mean(per_subject))


def imse2(cov_predict, dataset) -> float:
    """IMSE2: mean over subjects of (1/tau) * int (S(t|X,I) - S(t|X))^2 dt,
    where S(t|X,I) is the projection of ``cov_predict``'s curve onto the
    subject's interval, on a DEFAULT_GRID_N-point grid of [0, tau]."""
    tau = dataset.tau
    grid = np.linspace(0.0, tau, DEFAULT_GRID_N)
    lefts, rights = dataset.lefts, dataset.rights
    curves = [cov_predict(x) for x in dataset.X]
    v_cov = np.vstack([np.asarray(c.eval(grid)) for c in curves])
    s_l, s_r = endpoint_values([c.eval for c in curves], lefts, rights)
    v_cond = project_rows(v_cov, s_l, s_r, lefts, rights, grid, tau)
    return float((np.trapezoid((v_cond - v_cov) ** 2, grid, axis=1) / tau).mean())
