"""Two-sample splitting statistics over carried survival curves.

GWRS and GLR compare the two groups' full-conditional curves S_i(t) =
S(t|X_i, I_i) on the fold's shared knot grid, whose last split column is
tau, so integrals are exact Stieltjes sums over the grid. Their one
implementation takes one group's total s1 of the curves' values and the
node's terms: with the other group's total T - s1, T being the node's,
GWRS is linear in s1 (``gwrs_node_terms``, ``gwrs_from_sums``: one dot
product), and GLR's numerator is one dot product of s1 with a node vector
(the ``printed_sum`` sign adds one product term) and its variance one
more (``glr_node_terms``, ``glr_from_sums``). The tree computes the terms
once per node, from a total it inherits from the parent, and a candidate
costs a sum of its smaller side's rows and those products. SWRS and SLR
compare group means of per-subject scores of the covariate-conditional
endpoint values S(L_i|X_i), S(R_i|X_i) (``swrs_scores``, ``slr_scores``).
The tree grower turns each into a split score in ``tree._node_score``.
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


def gwrs_node_terms(total, n) -> tuple:
    """GWRS's terms that depend on the node alone, from the total T and
    count n of its curves on the shared grid. W is linear in a group's
    total s1 once the other group's is T - s1 (its quadratic terms
    telescope away): W = 1 + (s1 . c + n1 (T_0 - n2)) / (2 n1 n2), with
    c_j = dT_j + dT_{j+1}, dT_j = T_j - T_{j-1}, T_{-1} = n and dT past
    the last column 0, and T's last value (tau) taken off c's last.
    Returns c and T_0."""
    delta = np.diff(total, prepend=float(n))
    c = delta.copy()
    c[:-1] += delta[1:]
    c[-1] -= total[-1]
    return c, float(total[0])


def gwrs_from_sums(sum1, n1, n2, node: tuple) -> float:
    """W = 1 + int S_check_bar1 dS_bar2 - 0.5*S_bar1(tau)*S_bar2(tau) of a
    group of n1 curves with total ``sum1`` on the shared grid against the
    node's n2 other curves, from the node's terms ``node``
    (``gwrs_node_terms``): one dot product. |W - 0.5| is the same whichever
    group is the first, since W(1, 2) + W(2, 1) = 1."""
    c, first = node
    return float(1.0 + (sum1 @ c + n1 * (first - n2)) / (2.0 * n1 * n2))


def glr_node_terms(total, n, sign: str) -> tuple:
    """GLR's terms that depend on the node alone, from the total T and
    count n of its curves on the shared grid. Every candidate split shares
    them: the at-risk mass y = lam1*l1 + lam2*l2 is the node's mean curve
    shifted right (y_0 = 1, y_j = T_{j-1}/n), and the drop dn = lam1*dn1 +
    lam2*dn2 is y minus the mean. Once the at-risk mass is exhausted
    (y <= EPS_MASS), later points are cut off: ``end`` is the usable
    prefix's end.

    With the other group's total T - s1 and T_{j-1} / y_j = n, the
    numerator times n1 n2 is
    s1 . g + n1 * lead (``difference``) plus, for ``printed_sum``,
    sum_j 2/y_j s1_{j-1} (s1_j - s1_{j-1}) with s1_{-1} = n1; g is
    +-dT_{k+1}/y_{k+1} before its last entry, -n there. Returns end,
    g, lead, the variance weight dn (y - dn) / y^3, T_{j-1} for the
    variance's terms past the first, and 2/y (``printed_sum``) or None."""
    mean, y = _mean_with_left(total, n)
    ok = y > EPS_MASS
    end = y.size if ok.all() else int(np.argmin(ok))
    y = y[:end]
    dn = y - mean[:end]
    weight = dn * (y - dn) / y**3
    hazard = np.diff(total[:end]) / y[1:]
    g = np.empty(end)
    g[-1] = -float(n)
    if sign == "difference":
        g[:-1] = hazard
        lead, product = float(total[0]), None
    else:
        g[:-1] = -hazard
        lead, product = 2.0 * n - float(total[0]), 2.0 / y
    return end, g, lead, weight, total[:end - 1], product


def glr_from_sums(sum1, n1, n2, node: tuple) -> float:
    """Generalized log-rank statistic num / sqrt(var) of a group of n1
    curves with total ``sum1`` on the shared grid against the node's n2
    other curves, from the node's terms ``node`` (``glr_node_terms``):
    num = sum (l2 dn1 - l1 dn2) / y (``difference``; ``printed_sum`` adds
    the two terms) and var = sum l1 l2 dn (y - dn) / y^3 over the usable
    prefix, l being a group's mean curve shifted right. The numerator is
    one dot product (and one product term for ``printed_sum``), and the
    variance is w_0 + sum_j w_j s1_{j-1} (T_{j-1} - s1_{j-1}) / (n1 n2),
    so a term whose group is used up on its column is an exact 0. Both
    are the same whichever group is the first, up to num's sign.

    Returns nan when the variance term vanishes (no usable events)."""
    end, g, lead, weight, prev_total, product = node
    s = sum1[:end]
    num = s @ g + n1 * lead
    if product is not None:
        prev = np.concatenate(([float(n1)], s[:-1]))
        num += (prev * (s - prev)) @ product
    rest = s[:-1]
    var = float(weight[0] + (rest * (prev_total - rest)) @ weight[1:] / (n1 * n2))
    if var <= 0.0:
        return np.nan
    return float(num / (n1 * n2) / np.sqrt(var))


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
