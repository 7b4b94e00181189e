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
one tail rate per curve (NaN: no tail) and, for leaves, the member ids
with their offsets. These are the arrays a model file stores. A forest
fold holds all its trees' leaves in one store, and a tree's store is a
view of its leaves' part of it; ``LeafStore.interpolate`` (here) and
``smooth.mass_intervals_of`` read any subset of the curves in one
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
        if self.tail_rate is not None and not (0.0 <= self.tail_rate < np.inf):
            raise InvariantViolation("tail_rate must be finite and >= 0")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    # -- evaluation ---------------------------------------------------

    def eval(self, t) -> np.ndarray | float:
        """Right-continuous value S(t); the tail, if any, past the last knot (or 0)."""
        t_arr = np.asarray(t, dtype=float)
        x, values = np.atleast_1d(t_arr), np.concatenate(([1.0], self.values))
        out = values[np.searchsorted(self.times, x, side="right")]
        if self.tail_rate is not None:
            last_t = self.times[-1] if self.times.size else 0.0
            beyond = values[-1] * np.exp(-self.tail_rate * np.maximum(x - last_t, 0.0))
            out = np.where(x > last_t, beyond, out)
        return float(out[0]) if t_arr.ndim == 0 else out

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
            last_t, last_v = (self.times[-1], self.values[-1]) if self.times.size else (0.0, 1.0)
            if last_v > 0.0:
                return float(last_t + np.log(last_v / q) / self.tail_rate)
        return np.inf


@dataclass(frozen=True)
class LeafStore:
    """Step curves held column-wise (see the module docstring): curve i
    has the knots times[offsets[i]:offsets[i + 1]] with their values, the
    tail rate rates[i] (NaN: none) and, for a leaf, the members
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
    def of(cls, curves) -> LeafStore:
        """The store of ``curves`` (StepSurvival), with no members."""
        rates = [np.nan if c.tail_rate is None else c.tail_rate for c in curves]
        return cls(np.concatenate([np.empty(0)] + [c.times for c in curves]),
                   np.concatenate([np.empty(0)] + [c.values for c in curves]),
                   np.cumsum([0] + [c.times.size for c in curves]).astype(np.int64),
                   np.asarray(rates, dtype=float), np.empty(0, dtype=np.int64),
                   np.zeros(len(curves) + 1, dtype=np.int64))

    @classmethod
    def stack(cls, stores) -> LeafStore:
        """The curves and members of ``stores``, one after another."""
        def cat(name):
            return np.concatenate([getattr(s, name) for s in stores])

        return cls(cat("times"), cat("values"), stack_offsets([s.offsets for s in stores]),
                   cat("rates"), cat("members"),
                   stack_offsets([s.member_offsets for s in stores]))

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
            # time past the last knot (or 0), and 0 before it, where exp is unread
            with np.errstate(over="ignore"):
                beyond = last_v * np.exp(-rate[tail, None] * np.maximum(grid - last_t, 0.0))
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


def stack_offsets(parts) -> np.ndarray:
    """Offsets of the items that ``parts`` (offsets) delimit, one after another."""
    return np.cumsum(np.concatenate([[0]] + [np.diff(p) for p in parts]))


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
    """Full-conditional curves S(t | X_i, I_i) on the increasing ``grid``,
    one row per subject.

    ``rows`` holds S(grid | X_i) (a single row serves every subject);
    ``s_l``/``s_r`` are S(L_i | X_i) and S(R_i | X_i), and S(R_i) is taken
    as 0 at R_i = inf whatever ``s_r`` holds there. Row i is 1 on t <= L_i,
    the clipped renormalization clip((S(t | X_i) - S(R_i)) / (S(L_i) -
    S(R_i)), 0, 1) on (L_i, R_i] and 0 beyond a finite R_i. When S(. | X_i)
    carries no mass (at most ``floor``) on the interval, the row falls back
    to the uniform curve on (L_i, min(R_i, tau)], or to the exponential with
    mean tau beyond L_i when R_i = inf.

    Every row is renormalized in one pass into one output (an empty row by
    1, not by its mass, and then overwritten by its fallback), and the spans
    before L_i and beyond R_i are written from each row's column bounds.
    Rows are monotone up to rounding; the carried update takes their
    running minimum in place (``np.minimum.accumulate(..., out=)``).
    """
    lefts, rights, s_l, s_r, grid = (
        np.asarray(a, dtype=float) for a in (lefts, rights, s_l, s_r, grid)
    )
    unbounded = np.isinf(rights)
    s_r = np.where(unbounded, 0.0, s_r)
    mass = s_l - s_r
    empty = mass <= floor
    out = np.subtract(rows, s_r[:, None], out=np.empty((lefts.size, grid.size)))
    np.divide(out, np.where(empty, 1.0, mass)[:, None], out=out)
    np.clip(out, 0.0, 1.0, out=out)
    i = np.flatnonzero(unbounded & empty)
    out[i] = np.exp(-(grid - lefts[i, None]) / tau)
    for i in np.flatnonzero(~unbounded & empty):
        hi = min(rights[i], tau)
        if hi <= lefts[i]:
            hi = rights[i]  # interval entirely beyond tau; keep it
        out[i] = np.where(grid > hi, 0.0, np.interp(grid, [lefts[i], hi], [1.0, 0.0]))
    # row i is 1 on its columns [0, before[i]) (grid <= L_i) and 0 on
    # [after[i], g) (grid > R_i)
    before = np.searchsorted(grid, lefts, side="right")
    after = np.searchsorted(grid, rights, side="right")
    ones, zeros = np.flatnonzero(before), np.flatnonzero(after < grid.size)
    for i, b in zip(ones.tolist(), before[ones].tolist()):
        out[i, :b] = 1.0
    for i, a in zip(zeros.tolist(), after[zeros].tolist()):
        out[i, a:] = 0.0
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
