"""Step survival curves and the full-conditional projection.

A step survival curve is stored as its knots: strictly increasing times
with the curve value *at and after* each knot (right-continuous). Before
the first knot the curve is 1. An optional exponential tail,
``values[-1] * exp(-tail_rate * (t - times[-1]))``, extends the curve
beyond the last knot; without it the curve stays flat there.

Every step curve a fit builds (leaf NPMLEs, the tail-corrected marginal,
exploitative leaves) holds masses on disjoint, ordered intervals
(start_j, end_j], encoded by ``step_knots``: a drop knot at each finite
end_j, valued the survival after its mass, and a flat marker knot at
start_j, valued the survival before it, where start_j is beyond the
previous end (0 for the first). A mass thus lies on (previous knot, its
knot], as interpolation and ``smooth.mass_intervals_of`` read it; an
unbounded last interval keeps its mass in the plateau or the tail.

Many curves are held column-wise in a ``LeafStore``: the knot times and
values of all of them concatenated, int64 offsets delimiting each curve,
one tail rate per curve (NaN: no tail) and, for a tree's leaves, the
member ids with their offsets. These are the arrays a model file stores.
A tree holds its leaves this way, and ``LeafStore.interpolate`` (here)
and ``smooth.mass_intervals_of`` read any subset of the curves in one
vectorized pass. A single curve is read as the one-curve store:
``StepSurvival.interpolate`` and ``smooth.smooth_curve`` call them.

Curves that take part in a fit are sampled on a grid, one row per
subject. ``endpoint_values_on_grid`` is the one reader of S(L_i), S(R_i)
off such rows, and ``project_rows`` the one implementation of the
projection of a covariate-conditional curve onto a censoring interval;
the carried-curve update and IMSE2 both call them.

``refine_uniform``, the per-curve spreading of each mass over its
interval, is on no fit or predict path; it is kept as the per-curve
reference that the tests compare the smoothing against, and because the
benchmark harness (``perfbench``) calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvariantViolation

EPS_MASS = 1e-12
REFINE_PER_GAP = 8  # equal sub-drops each mass is spread over before smoothing


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
            if not np.all((values >= -1e-12) & (values <= 1.0 + 1e-12)):
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
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        if self.times.size == 0:
            out = np.ones_like(t_arr)
            if self.tail_rate is not None:
                out = np.exp(-self.tail_rate * np.maximum(t_arr, 0.0))
        else:
            idx = np.searchsorted(self.times, t_arr, side="right") - 1
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
        """Within-interval uniform (piecewise-linear) interpolation: the
        one-curve case of ``LeafStore.interpolate``."""
        return LeafStore.of([self]).interpolate(grid)[0]

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


@dataclass(frozen=True)
class LeafStore:
    """Step curves held column-wise (see the module docstring): curve i
    has the knots times[offsets[i]:offsets[i + 1]] with their values, the
    tail rate rates[i] (NaN: none) and, for a tree's leaf, the members
    members[member_offsets[i]:member_offsets[i + 1]]. The arrays are
    taken as they are: a store built here holds validated curves, and
    ``serialize.load_model`` validates the arrays it reads."""

    times: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    rates: np.ndarray
    members: np.ndarray
    member_offsets: np.ndarray

    @classmethod
    def of(cls, curves, members=None) -> LeafStore:
        """The store of ``curves`` (StepSurvival) and their member ids."""
        members = [np.empty(0, dtype=np.int64)] * len(curves) if members is None else members

        def flat(parts, dtype):
            return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype)

        def offsets(parts):
            return np.cumsum([0] + [part.size for part in parts]).astype(np.int64)

        rates = [np.nan if c.tail_rate is None else c.tail_rate for c in curves]
        return cls(flat([c.times for c in curves], float), flat([c.values for c in curves], float),
                   offsets([c.times for c in curves]), np.asarray(rates, dtype=float),
                   flat(members, np.int64), offsets(members))

    @classmethod
    def stack(cls, stores) -> LeafStore:
        """The curves of ``stores``, store after store, in one store
        without member ids."""
        knots = np.cumsum([0] + [s.times.size for s in stores])
        n = sum(s.n for s in stores)
        return cls(np.concatenate([s.times for s in stores]),
                   np.concatenate([s.values for s in stores]),
                   np.concatenate([[0]] + [s.offsets[1:] + k for s, k in zip(stores, knots)]),
                   np.concatenate([s.rates for s in stores]),
                   np.empty(0, dtype=np.int64), np.zeros(n + 1, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.offsets.size - 1

    def curve(self, i: int) -> StepSurvival:
        a, b = self.offsets[i], self.offsets[i + 1]
        rate = self.rates[i]
        return StepSurvival(self.times[a:b], self.values[a:b],
                            tail_rate=None if np.isnan(rate) else float(rate))

    def member_ids(self, i: int) -> np.ndarray:
        ids = self.members[self.member_offsets[i]:self.member_offsets[i + 1]]
        ids.flags.writeable = False
        return ids

    def knots(self, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The knots of curves ``idx``, curve after curve: their positions
        in times/values and the entry of ``idx`` each belongs to; and each
        curve's knot count."""
        lo = self.offsets[idx]
        counts = self.offsets[idx + 1] - lo
        owner = np.repeat(np.arange(lo.size), counts)
        return np.arange(owner.size) + (lo - (np.cumsum(counts) - counts))[owner], owner, counts

    def last_knots(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """(time, value) of the last knot of each curve ``idx``; (0, 1) for
        a curve without knots."""
        end = self.offsets[idx + 1] - 1
        has = end >= self.offsets[idx]
        t, v = np.zeros(end.size), np.ones(end.size)
        t[has], v[has] = self.times[end[has]], self.values[end[has]]
        return t, v

    def interpolate(self, grid, idx=None) -> np.ndarray:
        """Rows of curves ``idx`` (all by default) on ``grid``, read
        through within-interval uniform interpolation: np.interp on (0, 1)
        and the knots, pinned to the step values at the knots, then the
        exponential tail beyond the last knot (beyond 0 for a curve without
        knots), flat there without one.

        One curve is read by np.interp itself. More are read in one pass:
        a count of each curve's knots at or before each grid point finds
        the segment, and the segment is read with np.interp's arithmetic,
        slope * (t - x_j) + y_j."""
        idx = np.arange(self.n) if idx is None else np.asarray(idx, dtype=np.intp)
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        # np.interp reads one curve ~5x faster than _segment_rows (358 knots:
        # 10 vs 52 us), and a one-tree fold's 1-query raw predict reads one
        if idx.size == 1:
            knots = slice(self.offsets[idx[0]], self.offsets[idx[0] + 1])
            out = np.interp(grid, np.concatenate(([0.0], self.times[knots])),
                            np.concatenate(([1.0], self.values[knots])))[None, :]
        else:
            out = self._segment_rows(grid, idx)
        rate = self.rates[idx]
        tail = np.flatnonzero(~np.isnan(rate))
        if tail.size:
            last_t, last_v = (a[:, None] for a in self.last_knots(idx[tail]))
            knotless = (self.offsets[idx[tail] + 1] == self.offsets[idx[tail]])[:, None]
            t = np.where(knotless, np.maximum(grid, 0.0), grid)
            with np.errstate(over="ignore"):
                beyond = last_v * np.exp(-rate[tail, None] * (t - last_t))
            out[tail] = np.where(knotless | (grid > last_t), beyond, out[tail])
        return out

    def _segment_rows(self, grid, idx) -> np.ndarray:
        """np.interp of curves ``idx`` on (0, 1) and their knots, tails aside."""
        order = np.argsort(grid, kind="stable") if np.any(grid[1:] < grid[:-1]) else None
        if order is not None:
            grid = grid[order]
        m, g = idx.size, grid.size
        pos, owner, counts = self.knots(idx)
        if not pos.size:
            return np.ones((m, g))
        lo = self.offsets[idx]
        # c[r, j]: knots of curve r at or before grid[j]
        hits = np.bincount(owner * (g + 1) + np.searchsorted(grid, self.times[pos]),
                           minlength=m * (g + 1))
        c = np.cumsum(hits.reshape(m, g + 1)[:, :g], axis=1)
        # the last point at or before each grid point, (0, 1) before the
        # first knot, and the knot after it
        j = lo[:, None] + c - 1
        first = c == 0
        at = np.maximum(j, 0)
        x0 = np.where(first, 0.0, self.times[at])
        y0 = np.where(first, 1.0, self.values[at])
        nxt = np.minimum(j + 1, self.times.size - 1)
        inside = (c < counts[:, None]) & (grid > x0)
        # outside its segment, slope * (grid - x0) may overflow (a knot at
        # 1e308) and is discarded; inside, it is at most the value drop, 1
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            slope = (self.values[nxt] - y0) / (self.times[nxt] - x0)
            out = np.where(inside, slope * (grid - x0) + y0, y0)
        if order is not None:
            out[:, order] = out.copy()
        return out


def step_knots(starts, ends, before, after, curve=None,
               n_curves: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knot times and values of the masses on (starts[j], ends[j]], with
    survival before[j] before and after[j] (floored at 0) after each; the
    encoding of the module docstring. The intervals make one curve, or
    ``n_curves`` curves one after another when ``curve`` (non-decreasing)
    numbers the curve of each; the int64 offsets delimit each curve's
    knots."""
    prev_end = np.concatenate(([0.0], ends))[:-1]
    if curve is not None:
        prev_end[np.flatnonzero(np.diff(curve)) + 1] = 0.0  # a curve's first interval
    keep = np.array((starts > prev_end, np.isfinite(ends))).T
    times = np.array((starts, ends)).T[keep]
    values = np.array((before, np.where(after < 0.0, 0.0, after))).T[keep]
    counts = (keep.sum() if curve is None
              else np.bincount(curve, keep.sum(axis=1), minlength=n_curves))
    return times, values, np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


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


def project_rows(rows, s_l, s_r, lefts, rights, grid, tau: float,
                 floor: float = EPS_MASS) -> np.ndarray:
    """Full-conditional curves S(t | X_i, I_i) on ``grid``, one row per subject.

    ``rows`` holds S(grid | X_i) (a single row serves every subject);
    ``s_l``/``s_r`` are S(L_i | X_i) and S(R_i | X_i) (0 at R_i = inf).
    Row i is 1 on t <= L_i, the clipped renormalization of S(t | X_i) on
    (L_i, R_i] and 0 beyond a finite R_i. When S(. | X_i) carries no mass
    (at most ``floor``) on the interval, the row falls back to the uniform curve on
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
    empty = mass <= floor
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


def narrow_gaps(t0, t1):
    """Whether each gap (t0, t1] is too narrow to cut into REFINE_PER_GAP
    sub-intervals without rounding them away; its mass stays at t1."""
    return (t1 - t0) <= 4 * REFINE_PER_GAP * np.finfo(float).eps * np.maximum(t1, 1.0)


def refine_uniform(curve: StepSurvival) -> StepSurvival:
    """Re-discretize each probability mass uniformly over its interval.

    The mass dropping at knot t_j is spread over (t_{j-1}, t_j] (with
    t_0 = 0) in REFINE_PER_GAP equal sub-drops, matching the piecewise-linear
    ``interpolate`` reading of the curve. Zero-jump marker knots keep
    genuinely flat stretches flat.

    No fit or predict path calls it: smoothing spreads the masses itself
    (``smooth.mass_intervals_of`` and ``smooth.interval_atoms``). It is
    kept only as the per-curve reference that the tests compare against,
    and because ``perfbench`` calls it.
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
