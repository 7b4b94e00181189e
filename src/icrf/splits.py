"""Two-sample splitting statistics over carried survival curves.

All four statistics consume the full-conditional curves S_i(t) =
S(t|X_i, I_i) (GWRS, GLR) or covariate-conditional endpoint values
(SWRS, SLR). Integrals are exact Stieltjes sums over the pooled knots;
no quadrature grid is involved.

The module has two faces: the public functions take lists of
StepSurvival, while the tree grower uses the same arithmetic on value
matrices over one shared knot grid (``gwrs_from_sums``,
``glr_from_sums``). Both paths agree to float associativity (tested at
1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import EPS_MASS, endpoint_values
from .exceptions import EmptyGroup, InsufficientData, ZeroRisk

SLR_FLOOR = 1e-12

GWRS, GLR, SWRS, SLR = "GWRS", "GLR", "SWRS", "SLR"
RULE_KINDS = (GWRS, GLR, SWRS, SLR)
GLR_SIGNS = ("difference", "printed_sum")


@dataclass(frozen=True)
class SplitRule:
    kind: str = GWRS  # one of RULE_KINDS
    glr_sign: str = "difference"  # one of GLR_SIGNS

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise InsufficientData(f"rule must be one of {RULE_KINDS}, got {self.kind!r}")
        if self.glr_sign not in GLR_SIGNS:
            raise InsufficientData(f"glr_sign must be one of {GLR_SIGNS}, got {self.glr_sign!r}")


@dataclass
class GroupCurves:
    """A group's full-conditional curves plus their raw intervals."""

    curves: list
    intervals: list = field(default_factory=list)
    tau: float = np.inf


# -- shared-grid machinery ------------------------------------------------


def pooled_grid(curve_lists, tau: float) -> np.ndarray:
    """Union of all knots at or below tau, with tau appended."""
    knots = [np.asarray([tau])]
    for curves in curve_lists:
        for c in curves:
            if c.times.size:
                knots.append(c.times[c.times <= tau])
    return np.unique(np.concatenate(knots))


def values_matrix(curves, grid: np.ndarray) -> np.ndarray:
    out = np.empty((len(curves), grid.size))
    for i, c in enumerate(curves):
        out[i] = c.eval(grid)
    return out


def _mean_with_left(total: np.ndarray, n: int):
    mean = total / n
    left = np.concatenate(([1.0], mean[:-1]))
    return mean, left


def gwrs_from_sums(sum1, n1, sum2, n2) -> float:
    """W = 1 + int S_check_bar1 dS_bar2 - 0.5*S_bar1(tau)*S_bar2(tau).

    The sums are group totals of curve values on the shared grid whose
    last column is tau.
    """
    m1, l1 = _mean_with_left(sum1, n1)
    m2, l2 = _mean_with_left(sum2, n2)
    ds2 = m2 - l2
    check1 = 0.5 * (m1 + l1)
    return float(1.0 + check1 @ ds2 - 0.5 * m1[-1] * m2[-1])


def glr_from_sums(sum1, n1, sum2, n2, sign: str) -> float:
    """Generalized log-rank statistic from group totals on the shared grid.

    Returns nan when the variance term vanishes (no usable events)."""
    m1, l1 = _mean_with_left(sum1, n1)
    m2, l2 = _mean_with_left(sum2, n2)
    dn1 = l1 - m1
    dn2 = l2 - m2
    lam1 = n1 / (n1 + n2)
    lam2 = n2 / (n1 + n2)
    y = lam1 * l1 + lam2 * l2
    dn = lam1 * dn1 + lam2 * dn2

    ok = y > EPS_MASS
    if not ok.all():
        # at-risk mass exhausted: truncate at the last usable point
        first_bad = np.argmin(ok)
        ok = np.zeros_like(ok)
        ok[:first_bad] = True
    y_ok, dn_ok = y[ok], dn[ok]
    if sign == "difference":
        num = float(np.sum((l2[ok] * dn1[ok] - l1[ok] * dn2[ok]) / y_ok))
    else:
        num = float(np.sum((l2[ok] * dn1[ok] + l1[ok] * dn2[ok]) / y_ok))
    var = float(np.sum(l1[ok] * l2[ok] * dn_ok * (y_ok - dn_ok) / y_ok**3))
    if var <= 0.0:
        return np.nan
    return num / np.sqrt(var)


def gwrs_pairwise(v1: np.ndarray, v2: np.ndarray) -> float:
    """O(n1*n2) pairwise-zeta form of GWRS; retained as a test oracle."""
    l1 = np.concatenate((np.ones((v1.shape[0], 1)), v1[:, :-1]), axis=1)
    l2 = np.concatenate((np.ones((v2.shape[0], 1)), v2[:, :-1]), axis=1)
    check1 = 0.5 * (v1 + l1)
    ds2 = v2 - l2
    total = 0.0
    for i in range(v1.shape[0]):
        for j in range(v2.shape[0]):
            total += 1.0 + check1[i] @ ds2[j] - 0.5 * v1[i, -1] * v2[j, -1]
    return total / (v1.shape[0] * v2.shape[0])


# -- per-subject endpoint scores (SWRS / SLR) ------------------------------


def swrs_scores(s_left: np.ndarray, s_right: np.ndarray) -> np.ndarray:
    """SW_i = S(L_i|X_i) + S(R_i|X_i) - 1, with S(inf|X) = 0."""
    return s_left + s_right - 1.0


def slr_scores(s_left: np.ndarray, s_right: np.ndarray) -> np.ndarray:
    """SLR_i = [S(L)logS(L) - S(R)logS(R)] / [S(L) - S(R)], with the
    equal-value branch log S(L) + 1 and the convention 0*log0 = 0."""
    sl = np.maximum(np.asarray(s_left, dtype=float), SLR_FLOOR)
    sr = np.clip(np.asarray(s_right, dtype=float), 0.0, None)
    out = np.empty_like(sl)
    equal = (sl - sr) < SLR_FLOOR
    out[equal] = np.log(sl[equal]) + 1.0
    ne = ~equal
    xlogx_r = np.where(sr[ne] > 0.0, sr[ne] * np.log(np.maximum(sr[ne], 1e-300)), 0.0)
    out[ne] = (sl[ne] * np.log(sl[ne]) - xlogx_r) / (sl[ne] - sr[ne])
    return out


# -- public API ------------------------------------------------------------


def _check_groups(g1: GroupCurves, g2: GroupCurves):
    if len(g1.curves) == 0 or len(g2.curves) == 0:
        raise EmptyGroup("both groups must be non-empty")


def _group_sums(g1: GroupCurves, g2: GroupCurves):
    """Group totals and sizes of the curve values on the pooled grid."""
    _check_groups(g1, g2)
    grid = pooled_grid([g1.curves, g2.curves], min(g1.tau, g2.tau))
    v1 = values_matrix(g1.curves, grid)
    v2 = values_matrix(g2.curves, grid)
    return v1.sum(axis=0), v1.shape[0], v2.sum(axis=0), v2.shape[0]


def gwrs(g1: GroupCurves, g2: GroupCurves) -> float:
    return gwrs_from_sums(*_group_sums(g1, g2))


def glr(g1: GroupCurves, g2: GroupCurves, glr_sign: str = SplitRule.glr_sign) -> float:
    rule = SplitRule(GLR, glr_sign)  # checks glr_sign
    stat = glr_from_sums(*_group_sums(g1, g2), sign=rule.glr_sign)
    if np.isnan(stat):
        raise ZeroRisk("log-rank variance term vanished")
    return stat


def _score_difference(score, g1: GroupCurves, g2: GroupCurves, cov_curves) -> float:
    """Mean endpoint score of g1 minus that of g2; cov_curves holds
    per-subject S(.|X_i), g1's subjects then g2's."""
    _check_groups(g1, g2)
    n1 = len(g1.curves)
    means = []
    for group, covs in ((g1, cov_curves[:n1]), (g2, cov_curves[n1:])):
        s_l, s_r = endpoint_values(
            [c.eval for c in covs],
            [obs.left for obs in group.intervals],
            [obs.right for obs in group.intervals],
        )
        means.append(score(s_l, s_r).mean())
    return float(means[0] - means[1])


def swrs(g1: GroupCurves, g2: GroupCurves, cov_curves) -> float:
    return _score_difference(swrs_scores, g1, g2, cov_curves)


def slr(g1: GroupCurves, g2: GroupCurves, cov_curves) -> float:
    return _score_difference(slr_scores, g1, g2, cov_curves)


def split_score(rule: SplitRule, g1: GroupCurves, g2: GroupCurves, cov_curves=None) -> float:
    """Score to maximize: |W - 1/2|, |LR|, |SW| or |SLR|; 0 on failure."""
    try:
        if rule.kind == GWRS:
            return abs(gwrs(g1, g2) - 0.5)
        if rule.kind == GLR:
            return abs(glr(g1, g2, rule.glr_sign))
        if rule.kind == SWRS:
            return abs(swrs(g1, g2, cov_curves))
        return abs(slr(g1, g2, cov_curves))
    except EmptyGroup:
        raise
    except ZeroRisk:
        return 0.0
