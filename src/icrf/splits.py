"""Two-sample splitting statistics over carried survival curves.

GWRS and GLR compare the two groups' full-conditional curves S_i(t) =
S(t|X_i, I_i); their one implementation (``gwrs_from_sums``,
``glr_from_sums``) takes the group totals of the curves' values on the
fold's shared knot grid, whose last split column is tau, so integrals are
exact Stieltjes sums over the grid. GLR's at-risk mass, drop and
variance weight are the same for every candidate split of a node
(``glr_node_terms``), so the tree computes them once per node and a
candidate costs two dot products. SWRS and SLR compare group means of
per-subject scores of the covariate-conditional endpoint values
S(L_i|X_i), S(R_i|X_i) (``swrs_scores``, ``slr_scores``). The tree grower
turns each into a split score in ``tree._node_score``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import EPS_MASS
from .exceptions import InsufficientData

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


# -- curve statistics (GWRS / GLR) on the shared grid ----------------------


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


def glr_node_terms(total, n) -> tuple:
    """GLR's terms that depend on the node alone, from the total and count
    of its curves on the shared grid. Every candidate split shares them:
    the at-risk mass y = lam1*l1 + lam2*l2 is the node's mean curve shifted
    right (y_0 = 1), and the drop dn = lam1*dn1 + lam2*dn2 is y minus the
    mean. Returns the usable prefix end (y > EPS_MASS up to it: once the
    at-risk mass is exhausted, later points are cut off), 1/y and the
    variance weight dn (y - dn) / y^3 on that prefix."""
    mean, y = _mean_with_left(total, n)
    ok = y > EPS_MASS
    end = y.size if ok.all() else int(np.argmin(ok))
    y = y[:end]
    dn = y - mean[:end]
    return end, 1.0 / y, dn * (y - dn) / y**3


def glr_from_sums(sum1, n1, sum2, n2, node: tuple, sign: str) -> float:
    """Generalized log-rank statistic from group totals on the shared grid:
    num / sqrt(var), with num = sum (l2 dn1 - l1 dn2) / y (``difference``;
    ``printed_sum`` adds the two terms) and var = sum l1 l2 dn (y - dn) / y^3
    over the usable prefix. In terms of the group means m and their right
    shifts l, l2 dn1 - l1 dn2 = l1 m2 - l2 m1 and l2 dn1 + l1 dn2 =
    2 l1 l2 - l1 m2 - l2 m1, so a candidate costs two dot products with
    the node's terms ``node`` (``glr_node_terms`` of the node).

    Returns nan when the variance term vanishes (no usable events)."""
    end, inv_y, weight = node
    m1, l1 = _mean_with_left(sum1[:end], n1)
    m2, l2 = _mean_with_left(sum2[:end], n2)
    l12 = l1 * l2
    if sign == "difference":
        num = float((l1 * m2 - l2 * m1) @ inv_y)
    else:
        num = float((2.0 * l12 - l1 * m2 - l2 * m1) @ inv_y)
    var = float(l12 @ weight)
    if var <= 0.0:
        return np.nan
    return num / np.sqrt(var)


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
