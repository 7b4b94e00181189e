"""Output checks made apart from the program.

Nothing here calls into ``icrf`` except to read a model's stored arrays:
the truth, the covariate law of the held-out points, the Turnbull
intervals, the KKT condition, tree routing and knot interpolation are
all recomputed from the paper's definitions.
"""

from __future__ import annotations

import json
import struct

import numpy as np

KKT_EPS = 1e-3  # max_j d_j <= 1 + KKT_EPS at every quasi-honest leaf
MASS_TOL = 1e-9  # |sum_j p_j - 1| at every quasi-honest leaf
MONO_TOL = 1e-12  # slack for rounding in [0, 1] and non-increase checks

# scenario -> (number of covariates, AR(1) correlation), as in the paper
COVARIATE_LAW = {1: (25, 0.9), 5: (10, 0.2)}


class Ledger:
    """Counts operations and keeps the message of every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def op(self, n: int = 1):
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.wrong.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return not self.wrong


# -- truth -------------------------------------------------------------------


def draw_covariates(scenario: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """N_p(0, AR(rho)) covariates, drawn by the AR(1) recursion."""
    p, rho = COVARIATE_LAW[scenario]
    z = rng.standard_normal((n, p))
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        x[:, j] = rho * x[:, j - 1] + scale * z[:, j]
    return x


def mean_time(scenario: int, X: np.ndarray) -> np.ndarray:
    """mu(x), the mean of the exponential failure time."""
    X = np.atleast_2d(X)
    if scenario == 1:
        return np.exp(0.1 * X[:, 10:20].sum(axis=1) - 0.1)
    if scenario == 5:
        return 2.0 / (1.0 + np.exp(-(X[:, 0] + X[:, 1] + X[:, 2])))
    raise ValueError(f"no truth for scenario {scenario}")


def truth(scenario: int, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """S0(t | x) = exp(-t / mu(x)), one row per covariate vector."""
    return np.exp(-grid[None, :] / mean_time(scenario, X)[:, None])


def oracle_errors(est: np.ndarray, s0: np.ndarray, grid: np.ndarray):
    """(eps_int, eps_sup): means over rows of the trapezoid integral and of
    the grid supremum of |S0 - S_hat| on [0, tau]."""
    diff = np.abs(s0 - est)
    widths = np.diff(grid)
    integral = (0.5 * (diff[:, 1:] + diff[:, :-1]) * widths).sum(axis=1)
    return float(integral.mean()), float(diff.max(axis=1).mean())


# -- curve shape -------------------------------------------------------------


def curve_shape_error(rows: np.ndarray, smoothed: bool) -> str:
    """Empty if every row lies in [0, 1] and never increases (and starts
    at 1 when smoothed and the grid starts at 0); else what is wrong."""
    rows = np.atleast_2d(rows)
    if not np.all(np.isfinite(rows)):
        return "non-finite value"
    if rows.min() < -MONO_TOL or rows.max() > 1.0 + MONO_TOL:
        return f"value outside [0, 1]: [{rows.min()}, {rows.max()}]"
    rise = float(np.diff(rows, axis=1).max()) if rows.shape[1] > 1 else 0.0
    if rise > MONO_TOL:
        return f"curve increases by {rise:.3g}"
    if smoothed and np.abs(rows[:, 0] - 1.0).max() > MONO_TOL:
        return f"smoothed S(0) != 1: {rows[:, 0].min()}"
    return ""


def k_opt_error(oob_errors, k_opt: int) -> str:
    errs = np.asarray(oob_errors, dtype=float)
    if errs.size == 0 or not np.all(np.isfinite(errs)) or not np.all(errs > 0.0):
        return f"OOB errors not finite and positive: {errs.tolist()}"
    if k_opt != int(np.argmin(errs)) + 1:
        return f"k_opt {k_opt} is not the argmin of {errs.tolist()}"
    return ""


# -- NPMLE optimality at quasi-honest leaves ---------------------------------


def observed_range_cap(lefts, rights, tau: float) -> float:
    """End of the observed time range: the largest finite endpoint (at
    least tau), moved just above the largest left endpoint if needed."""
    finite = rights[np.isfinite(rights)]
    cap = max(float(tau), float(finite.max()) if finite.size else 0.0)
    top_left = float(lefts.max())
    return cap if cap > top_left else top_left * (1.0 + 1e-9) + 1e-12


def turnbull(lefts, rights):
    """Maximal intersections (q_j, p_j] of the intervals (L_i, R_i]: a
    left endpoint immediately followed by a right endpoint in the sorted
    endpoint list, right endpoints first at ties."""
    ends = sorted(
        [(float(r), 0) for r in rights] + [(float(l), 1) for l in lefts]
    )
    pairs = [
        (a[0], b[0]) for a, b in zip(ends[:-1], ends[1:]) if a[1] == 1 and b[1] == 0
    ]
    q = np.array([a for a, _ in pairs])
    p = np.array([b for _, b in pairs])
    return q, p


def step_value(times, values, t) -> np.ndarray:
    """Right-continuous step curve value at t (1 before the first knot)."""
    idx = np.searchsorted(times, t, side="right") - 1
    return np.where(idx < 0, 1.0, np.asarray(values)[np.maximum(idx, 0)])


def kkt_gap(lefts, rights, times, values) -> tuple[float, float]:
    """(max_j d_j - 1, |sum_j p_j - 1|) for a leaf curve fitted to the
    intervals (lefts, rights], where p_j is the curve's drop over the
    j-th maximal intersection and d_j = mean_i a_ij / (a_i . p).
    """
    q, p_end = turnbull(lefts, rights)
    masses = step_value(times, values, q) - step_value(times, values, p_end)
    a = (lefts[:, None] <= q[None, :]) & (p_end[None, :] <= rights[:, None])
    lik = a.astype(float) @ masses
    with np.errstate(divide="ignore"):
        d = (a / lik[:, None]).mean(axis=0)
    return float(d.max() - 1.0), float(abs(masses.sum() - 1.0))


def leaf_kkt_gaps(model, lefts, rights, tau: float):
    """(worst KKT gap, worst mass defect, leaves checked) over every leaf
    of every fold, with right-unbounded ends capped at the observed range."""
    capped = np.minimum(rights, observed_range_cap(lefts, rights, tau))
    worst_gap, worst_mass, count = -np.inf, 0.0, 0
    for fold in model.folds:
        for tree in fold.trees:
            for leaf in tree.leaves:
                m = leaf.member_ids
                gap, mass = kkt_gap(lefts[m], capped[m], leaf.curve.times, leaf.curve.values)
                worst_gap = max(worst_gap, gap)
                worst_mass = max(worst_mass, mass)
                count += 1
    return worst_gap, worst_mass, count


# -- raw prediction from the stored arrays -----------------------------------


def route(tree, X: np.ndarray) -> np.ndarray:
    """Leaf number of each row, walking the stored node arrays."""
    out = np.empty(X.shape[0], dtype=int)
    for i, x in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            f = tree.feature[node]
            node = tree.left[node] if x[f] <= tree.cutoff[node] else tree.right[node]
        out[i] = tree.leaf_idx[node]
    return out


def knot_interpolation(curve, grid: np.ndarray) -> np.ndarray:
    """Linear between (0, 1) and the knots; beyond the last knot, flat or
    the curve's exponential tail."""
    times, values = np.asarray(curve.times), np.asarray(curve.values)
    if times.size == 0:
        rate = curve.tail_rate or 0.0
        return np.exp(-rate * grid)
    out = np.interp(grid, np.r_[0.0, times], np.r_[1.0, values])
    if curve.tail_rate is not None:
        beyond = grid > times[-1]
        out[beyond] = values[-1] * np.exp(-curve.tail_rate * (grid[beyond] - times[-1]))
    return out


def raw_forest_prediction(fold, X: np.ndarray, grid: np.ndarray) -> np.ndarray:
    acc = np.zeros((X.shape[0], grid.size))
    for tree in fold.trees:
        rows = np.vstack([knot_interpolation(leaf.curve, grid) for leaf in tree.leaves])
        acc += rows[route(tree, X)]
    return acc / len(fold.trees)


# -- model files -------------------------------------------------------------


def manifest_entries(path: str) -> int:
    """Arrays listed in a model file's header (8-byte magic, little-endian
    uint64 header length, JSON header)."""
    with open(path, "rb") as fh:
        fh.read(8)
        (length,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(length).decode())
    return len(header["manifest"])
