"""Step survival curves and the full-conditional projection.

A step survival curve is stored as its jump knots: strictly increasing
times with the curve value *at and after* each knot (right-continuous).
Before the first knot the curve is 1. An optional exponential tail,
``values[-1] * exp(-tail_rate * (t - times[-1]))``, extends the curve
beyond the last knot; without it the curve stays flat there.

``project_rows`` is the one implementation of the projection of a
covariate-conditional curve onto a censoring interval; the carried-curve
update, IMSE2 (both the OOB monitor and ``metrics.imse2``) and
``conditional_project`` all call it. ``endpoint_values_on_grid`` reads the
endpoint values of curves sampled on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInterval, InvariantViolation

EPS_MASS = 1e-12
REFINE_PER_GAP = 8  # sub-drops per mass in refine_uniform


@dataclass(frozen=True)
class IntervalObservation:
    """One subject's censoring interval (left, right]."""

    left: float
    right: float

    def __post_init__(self):
        if not (self.left >= 0.0):
            raise InvariantViolation(f"left endpoint must be >= 0, got {self.left}")
        if not (self.left < self.right):
            raise InvariantViolation(
                f"interval must satisfy left < right, got ({self.left}, {self.right}]"
            )


@dataclass(frozen=True)
class StepSurvival:
    """Right-continuous, non-increasing step survival function."""

    times: np.ndarray
    values: np.ndarray
    tail_rate: float | None = None

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if times.shape != values.shape or times.ndim != 1:
            raise InvariantViolation("times and values must be 1-d and equal length")
        if times.size:
            if not np.all(np.isfinite(times)) or times[0] <= 0.0:
                raise InvariantViolation("jump times must be finite and > 0")
            if np.any(np.diff(times) <= 0.0):
                raise InvariantViolation("jump times must be strictly increasing")
            if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
                raise InvariantViolation("values must lie in [0, 1]")
            if np.any(np.diff(values) > 1e-12):
                raise InvariantViolation("values must be non-increasing")
            values = np.clip(values, 0.0, 1.0)
        if self.tail_rate is not None and not (self.tail_rate >= 0.0):
            raise InvariantViolation("tail_rate must be >= 0")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    # -- evaluation ---------------------------------------------------

    def eval(self, t) -> np.ndarray | float:
        """Right-continuous value S(t)."""
        return self._eval(t, side="right")

    def eval_left(self, t) -> np.ndarray | float:
        """Left limit S(t-)."""
        return self._eval(t, side="left")

    def eval_check(self, t) -> np.ndarray | float:
        """The half-mass-shifted value 0.5*S(t) + 0.5*S(t-)."""
        return 0.5 * (self.eval(t) + self.eval_left(t))

    def _eval(self, t, side):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        if self.times.size == 0:
            out = np.ones_like(t_arr)
            if self.tail_rate is not None:
                out = np.exp(-self.tail_rate * np.maximum(t_arr, 0.0))
        else:
            idx = np.searchsorted(self.times, t_arr, side=side) - 1
            out = np.where(idx < 0, 1.0, self.values[np.clip(idx, 0, None)])
            if self.tail_rate is not None:
                last_t, last_v = self.times[-1], self.values[-1]
                beyond = t_arr > last_t
                if np.any(beyond):
                    out = np.where(
                        beyond,
                        last_v * np.exp(-self.tail_rate * (t_arr - last_t)),
                        out,
                    )
        return float(out[0]) if scalar else out

    def jump_masses(self) -> np.ndarray:
        """Probability mass dropped at each knot (>= 0, excludes the tail)."""
        if self.times.size == 0:
            return np.empty(0)
        prev = np.concatenate(([1.0], self.values[:-1]))
        return prev - self.values

    def interpolate(self, grid) -> np.ndarray:
        """Within-interval uniform (piecewise-linear) interpolation.

        Linear between consecutive knots starting from (0, 1); pinned to
        the step values at the knots; exponential beyond the last knot
        when a tail is present, flat otherwise.
        """
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        if self.times.size == 0:
            return self.eval(grid)
        xs = np.concatenate(([0.0], self.times))
        ys = np.concatenate(([1.0], self.values))
        out = np.interp(grid, xs, ys)
        beyond = grid > self.times[-1]
        if np.any(beyond):
            out = np.where(beyond, self.eval(grid), out)
        return out

    def quantile(self, q: float) -> float:
        """inf{t : S(t) <= q}; may be +inf for defective curves."""
        hit = np.nonzero(self.values <= q)[0]
        if hit.size:
            return float(self.times[hit[0]])
        if self.tail_rate is not None and self.tail_rate > 0.0:
            last_t = self.times[-1] if self.times.size else 0.0
            last_v = self.values[-1] if self.times.size else 1.0
            if last_v > 0.0:
                return float(last_t + np.log(last_v / q) / self.tail_rate)
        return np.inf

    def mass_beyond_knots(self) -> float:
        """Mass not dropped at any knot (tail and/or defect)."""
        return float(self.values[-1]) if self.times.size else 1.0


def constant_curve() -> StepSurvival:
    """The curve S == 1 (no jumps)."""
    return StepSurvival(np.empty(0), np.empty(0))


def endpoint_values(evals, lefts, rights) -> tuple[np.ndarray, np.ndarray]:
    """(S_i(L_i), S_i(R_i)) from one evaluator per subject, with S(L) = 1
    at L <= 0 and S(R) = 0 at R = inf."""
    s_l, s_r = [], []
    for f, left, right in zip(evals, lefts, rights):
        s_l.append(1.0 if left <= 0.0 else np.asarray(f(left)).item())
        s_r.append(0.0 if np.isinf(right) else np.asarray(f(right)).item())
    return np.asarray(s_l, dtype=float), np.asarray(s_r, dtype=float)


def endpoint_values_on_grid(rows, lefts, rights, grid) -> tuple[np.ndarray, np.ndarray]:
    """(S_i(L_i), S_i(R_i)) read off row i of ``rows`` on the increasing
    ``grid`` (a single row serves every subject), with S(L) = 1 at L <= 0
    and S(R) = 0 at R = inf. Each read is np.interp(t, grid, rows[i]) bit
    for bit: linear between grid points, flat beyond the ends."""
    lefts, rights, grid = (np.asarray(a, dtype=float) for a in (lefts, rights, grid))
    rows = np.broadcast_to(rows, (lefts.size, grid.size))
    sub = np.arange(lefts.size)

    def read(t):
        j = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, grid.size - 1)
        k = np.minimum(j + 1, grid.size - 1)
        lo, hi = rows[sub, j], rows[sub, k]
        between = (t > grid[j]) & (t < grid[-1])
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = (hi - lo) / (grid[k] - grid[j])
            return np.where(between, slope * (t - grid[j]) + lo, lo)

    return (np.where(lefts <= 0.0, 1.0, read(lefts)),
            np.where(np.isinf(rights), 0.0, read(rights)))


def project_rows(rows, s_l, s_r, lefts, rights, grid, tau: float) -> np.ndarray:
    """Full-conditional curves S(t | X_i, I_i) on ``grid``, one row per subject.

    ``rows`` holds S(grid | X_i) (a single row serves every subject);
    ``s_l``/``s_r`` are S(L_i | X_i) and S(R_i | X_i) (0 at R_i = inf).
    Row i is 1 on t <= L_i, the clipped renormalization of S(t | X_i) on
    (L_i, R_i] and 0 beyond a finite R_i. When S(. | X_i) carries no mass
    on the interval, the row falls back to the uniform curve on
    (L_i, min(R_i, tau)], or to the exponential with mean tau beyond L_i
    when R_i = inf. Rows are monotone up to rounding; the carried update
    takes their running minimum.
    """
    lefts, rights, s_l, s_r, grid = (
        np.asarray(a, dtype=float) for a in (lefts, rights, s_l, s_r, grid)
    )
    rows = np.broadcast_to(rows, (lefts.size, grid.size))
    out = np.empty(rows.shape)
    unbounded = np.isinf(rights)
    mass = np.where(unbounded, s_l, s_l - s_r)
    empty = mass <= EPS_MASS
    i = unbounded & ~empty
    out[i] = np.minimum(rows[i] / s_l[i, None], 1.0)
    i = ~unbounded & ~empty
    out[i] = np.clip((rows[i] - s_r[i, None]) / mass[i, None], 0.0, 1.0)
    i = unbounded & empty
    out[i] = np.exp(-(grid - lefts[i, None]) / tau)
    for i in np.nonzero(~unbounded & empty)[0]:
        hi = min(rights[i], tau)
        if hi <= lefts[i]:
            hi = rights[i]  # interval entirely beyond tau; keep it
        out[i] = np.where(grid > hi, 0.0, np.interp(grid, [lefts[i], hi], [1.0, 0.0]))
    out[grid <= lefts[:, None]] = 1.0
    out[grid > rights[:, None]] = 0.0
    return out


def conditional_project(s_x: StepSurvival, interval: IntervalObservation) -> StepSurvival:
    """Project a covariate-conditional curve onto a censoring interval.

    Returns S(t | X, I): 1 on [0, L], clipped renormalization of s_x on
    (L, R], 0 beyond finite R. Knots are s_x's knots inside (L, R) plus
    L and R themselves.

    Raises DegenerateInterval when s_x carries no mass on (L, R].
    """
    left, right = interval.left, interval.right
    bounded = bool(np.isfinite(right))
    knots = s_x.times
    inner = knots[(knots > left) & (knots < right)]
    ts = np.concatenate(([left] if left > 0.0 else [], inner, [right] if bounded else []))
    vals = np.asarray(s_x.eval(ts))
    s_left = float(s_x.eval(left)) if left > 0.0 else 1.0
    s_right = float(vals[-1]) if bounded else 0.0
    if s_left - s_right <= EPS_MASS:
        raise DegenerateInterval(
            f"no mass on ({left}, {right}]: S(L)-S(R)={s_left - s_right:.3e}"
        )
    if ts.size == 0:
        return StepSurvival(np.empty(0), np.empty(0), tail_rate=s_x.tail_rate)
    # never degenerate here, so tau (used only by the fallback) is moot
    vs = project_rows(vals, [s_left], [s_right], [left], [right], ts, tau=np.inf)[0]
    vs = np.maximum.accumulate(vs[::-1])[::-1]  # guard fp monotonicity
    return StepSurvival(ts, vs, tail_rate=None if bounded else s_x.tail_rate)


def narrow_gaps(t0, t1):
    """Whether each gap (t0, t1] is too narrow to cut into REFINE_PER_GAP
    sub-intervals without rounding them away; its mass stays at t1."""
    return (t1 - t0) <= 4 * REFINE_PER_GAP * np.finfo(float).eps * np.maximum(t1, 1.0)


def refine_uniform(curve: StepSurvival) -> StepSurvival:
    """Re-discretize each probability mass uniformly over its interval.

    The mass dropping at knot t_j is spread over (t_{j-1}, t_j] (with
    t_0 = 0) in REFINE_PER_GAP equal sub-drops, matching the piecewise-linear
    ``interpolate`` reading of the curve. Zero-jump marker knots keep
    genuinely flat stretches flat. Used before kernel smoothing so that
    wide-interval masses are not treated as right-endpoint atoms.
    """
    if curve.times.size == 0:
        return curve
    masses = curve.jump_masses()
    prev = np.concatenate(([0.0], curve.times[:-1]))
    narrow = narrow_gaps(prev, curve.times)
    ts, vs = [], []
    level = 1.0
    for j in range(curve.times.size):
        t0, t1, m = prev[j], curve.times[j], masses[j]
        if m <= 0.0 or narrow[j]:
            level = float(curve.values[j])
            ts.append(t1)
            vs.append(level)
            continue
        sub = np.linspace(t0, t1, REFINE_PER_GAP + 1)[1:]
        drops = np.full(REFINE_PER_GAP, m / REFINE_PER_GAP)
        for t, d in zip(sub, drops):
            level -= d
            ts.append(t)
            vs.append(level)
        level = float(curve.values[j])
        vs[-1] = level  # pin the endpoint exactly
    return StepSurvival(np.asarray(ts), np.asarray(vs), tail_rate=curve.tail_rate)
