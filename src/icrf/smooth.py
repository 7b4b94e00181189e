"""Gaussian kernel smoothing of step survival curves.

The smoothed curve is the kernel-convolved distribution function,
S~(t) = 1 - sum_j dF_j * [Phi((t-u_j)/h) - Phi((-t-u_j)/h)],
where dF_j are the base curve's jump masses at u_j. The reflected term
is the mirror boundary correction near t = 0; it guarantees S~(0) = 1
and monotonicity, and is below Phi(-4) ~ 3e-5 once t > 4h.

Phi is evaluated saturated (``kernel_cdf``): 0 for z <= -CUT_Z, 1 for
z >= CUT_Z and ``scipy.special.ndtr`` between. With CUT_Z = 9 a value
moves by at most Phi(-9) ~ 1.1e-19, so a curve of unit mass moves by at
most 2 Phi(-9) ~ 2.3e-19 in exact arithmetic, and by at most 1e-15 after
rounding. Most kernel values of a forest's curves saturate, and
``smoothed_values_matrix`` writes them as constants without calling
``ndtr``.

S~ is linear in the jump masses. Before smoothing, each mass is spread
uniformly over its interval (``curves.refine_uniform``), so a curve's
smoothed distribution function is the mass-weighted sum of the smoothed
unit-mass distribution functions of its mass intervals
(``mass_intervals``). Many curves that share intervals, such as the
leaves of a tree, are therefore smoothed by evaluating one kernel column
per distinct interval (``interval_atoms``) and mixing the columns with
one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .curves import REFINE_PER_GAP, StepSurvival, narrow_gaps
from .exceptions import DegenerateQuantiles

TAIL_ATOMS = 64
# the most kernel values (curves x grid points x atoms) one step of
# ``smoothed_values_matrix`` evaluates, 512 KB per array: large enough that
# the per-step cost vanishes, small enough to stay in cache
KERNEL_BLOCK = 1 << 16
# the kernel CDF saturates beyond CUT_Z bandwidths from an atom: there Phi
# is within Phi(-9) ~ 1.1e-19 of 0 or 1 (a Gaussian tail bound, with no
# claim about ndtr's own error), so a unit mass moves by at most 2 Phi(-9)
CUT_Z = 9.0


def mass_intervals(base: StepSurvival):
    """Where a step curve's mass lies: arrays (t0, t1, mass), one entry
    per interval (t0, t1] that ``refine_uniform`` spreads a mass over.

    A jump mass m_j > 0 at t_j spreads over (t_{j-1}, t_j], t_0 = 0. A
    gap too narrow to refine is the point interval t0 = t1, and so is
    each of the TAIL_ATOMS equal-mass atoms of an exponential tail, at
    the tail's conditional quantiles. Defective mass (plateau without a
    tail) is left unplaced.
    """
    times = base.times
    masses = base.jump_masses()
    prev = np.concatenate(([0.0], times))[:-1]
    pos = masses > 0.0
    t0 = np.where(narrow_gaps(prev, times), times, prev)[pos]
    t1, masses = times[pos], masses[pos]
    rest = base.mass_beyond_knots()
    if base.tail_rate is not None and base.tail_rate > 0.0 and rest > 0.0:
        last = base.times[-1] if base.times.size else 0.0
        k = np.arange(1, TAIL_ATOMS + 1)
        qs = last - np.log(1.0 - (k - 0.5) / TAIL_ATOMS) / base.tail_rate
        t0, t1 = np.concatenate((t0, qs)), np.concatenate((t1, qs))
        masses = np.concatenate((masses, np.full(TAIL_ATOMS, rest / TAIL_ATOMS)))
    return t0, t1, masses


def mass_intervals_of(store, idx) -> tuple[np.ndarray, ...]:
    """``mass_intervals`` of the curves ``idx`` of a ``curves.LeafStore``
    in one pass: arrays (t0, t1, mass), each curve's entries in its own
    order and curve after curve, and each curve's entry count. Every entry
    is the one ``mass_intervals`` gives, bit for bit."""
    idx = np.asarray(idx, dtype=np.intp)
    pos, owner, counts = store.knots(idx)
    times, values = store.times[pos], store.values[pos]
    # each knot's predecessor within its curve; (0, 1) before the first
    starts = (np.cumsum(counts) - counts)[counts > 0]
    prev_t, prev_v = np.roll(times, 1), np.roll(values, 1)
    prev_t[starts], prev_v[starts] = 0.0, 1.0
    masses = prev_v - values
    keep = masses > 0.0
    t0 = np.where(narrow_gaps(prev_t, times), times, prev_t)[keep]
    t1, masses = times[keep], masses[keep]
    owner = owner[keep]
    last_t, rest = store.last_knots(idx)  # rest: the mass beyond the last knot
    rate = store.rates[idx]
    tail = np.flatnonzero((rate > 0.0) & (rest > 0.0))  # a NaN rate is no tail
    if tail.size:
        k = np.arange(1, TAIL_ATOMS + 1)
        qs = (last_t[tail, None] - np.log(1.0 - (k - 0.5) / TAIL_ATOMS) / rate[tail, None]).ravel()
        owner = np.concatenate((owner, np.repeat(tail, TAIL_ATOMS)))
        # a curve's tail atoms follow its own intervals
        order = np.argsort(owner, kind="stable")
        t0, t1 = np.concatenate((t0, qs))[order], np.concatenate((t1, qs))[order]
        masses = np.concatenate((masses, np.repeat(rest[tail] / TAIL_ATOMS, TAIL_ATOMS)))[order]
        owner = owner[order]
    return t0, t1, masses, np.bincount(owner, minlength=idx.size)


def curve_atoms(base: StepSurvival) -> tuple[np.ndarray, np.ndarray]:
    """Mass locations and sizes of a step curve: each mass at the right
    end of its interval (see ``mass_intervals``)."""
    _, locs, masses = mass_intervals(base)
    return locs, masses


def interval_atoms(t0: np.ndarray, t1: np.ndarray):
    """Unit-mass atoms of each interval (t0, t1], as lists for
    ``smoothed_values_matrix``: the REFINE_PER_GAP sub-interval ends that
    ``refine_uniform`` places, of equal mass, or one atom at t1 for a
    point interval."""
    point = t0 == t1
    subs = np.linspace(t0[~point], t1[~point], REFINE_PER_GAP + 1, axis=1)[:, 1:]
    sub_masses = np.full(REFINE_PER_GAP, 1.0 / REFINE_PER_GAP)
    locs, masses, rows = [], [], iter(subs)
    for is_point, t in zip(point, t1):
        locs.append(np.array([t]) if is_point else next(rows))
        masses.append(np.ones(1) if is_point else sub_masses)
    return locs, masses


@dataclass(frozen=True)
class SmoothedSurvival:
    """Continuous survival curve: Gaussian-smoothed step curve."""

    bandwidth: float
    support_end: float
    locs: np.ndarray
    masses: np.ndarray

    def eval(self, t) -> np.ndarray | float:
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        tt = np.minimum(t_arr, self.support_end)  # clamp beyond tau
        out = smoothed_values_matrix([self.locs], [self.masses], self.bandwidth, tt)[0]
        return float(out[0]) if scalar else out


def bandwidth(
    marginal: StepSurvival, n_min: int, tau: float | None = None
) -> float:
    """h = c * n_min**(-1/5) with c = half the survival-quantile IQR.

    c = 0.5*(S^{-1}(0.25) - S^{-1}(0.75)) where S^{-1}(q) = inf{t: S(t) <= q}.
    Falls back to c = tau/10 when the quantiles are degenerate.
    """
    q25 = marginal.quantile(0.25)
    q75 = marginal.quantile(0.75)
    c = 0.5 * (q25 - q75) if np.isfinite(q25) and np.isfinite(q75) else 0.0
    if not (c > 0.0):
        if tau is None:
            raise DegenerateQuantiles(
                f"survival quantile IQR is degenerate (c={c})"
            )
        c = tau / 10.0
    return float(c * n_min ** (-0.2))


def smooth_curve(base: StepSurvival, h: float, support_end: float) -> SmoothedSurvival:
    """Gaussian-kernel smoothing with mirror boundary correction at 0, each
    mass at the right end of its interval (``curve_atoms``). The forest
    spreads each mass over its interval, which moves the curve by up to
    about 5e-3; ``smooth_curve(refine_uniform(base), h, support_end)``
    matches it."""
    if not (h > 0.0):
        raise DegenerateQuantiles(f"bandwidth must be > 0, got {h}")
    locs, masses = curve_atoms(base)
    return SmoothedSurvival(
        bandwidth=float(h),
        support_end=float(support_end),
        locs=locs,
        masses=masses,
    )


def kernel_cdf(z: np.ndarray) -> np.ndarray:
    """The kernel's saturated CDF, entry by entry: 0 for z <= -CUT_Z, 1 for
    z >= CUT_Z and ``ndtr(z)`` between."""
    p = ndtr(z)
    p[z <= -CUT_Z] = 0.0
    p[z >= CUT_Z] = 1.0
    return p


def smoothed_values_matrix(
    atom_locs: list[np.ndarray],
    atom_masses: list[np.ndarray],
    h: float,
    grid: np.ndarray,
) -> np.ndarray:
    """Evaluate many smoothed curves on one grid; rows follow the inputs.

    The one implementation of the mirror-form evaluation: SmoothedSurvival.eval
    calls it for a single curve, the forest for its kernel columns.

    Curves with the same number of atoms are evaluated together, in blocks
    of at most KERNEL_BLOCK kernel values (curves x grid points x atoms).
    On a sorted grid, a block's direct term is 0 before and 1 after a band
    of grid points, and its mirror term is 0 after a prefix; both are found
    from the block's smallest and largest atom, and only the band and the
    prefix call ``kernel_cdf``. An unsorted grid, or one with NaN, is all
    band. Rounded subtraction and division are monotone, so every value
    written as a constant is the one ``kernel_cdf`` gives, and every kernel
    value is a function of its own z, whatever block or band it falls in.
    A stacked matrix product then takes each curve's (grid points x atoms)
    @ (atoms) product on its own, so every row is what the curve alone
    gives, bit for bit.
    """
    out = np.ones((len(atom_locs), grid.size))
    banded = np.all(grid[1:] >= grid[:-1]) and not np.isnan(grid).any()
    sizes = [locs.size for locs in atom_locs]
    for size in sorted(set(sizes) - {0}):
        rows = [i for i, s in enumerate(sizes) if s == size]
        step = max(1, KERNEL_BLOCK // max(grid.size * size, 1))
        for lo in range(0, len(rows), step):
            at = rows[lo:lo + step]
            locs = np.concatenate([atom_locs[i] for i in at]).reshape(len(at), 1, size)
            masses = np.concatenate([atom_masses[i] for i in at]).reshape(len(at), size, 1)
            first, last = locs.min(), locs.max()
            # direct z is at most (x - first)/h and at least (x - last)/h;
            # mirror z is at most -(x + first)/h
            a, b, m = 0, grid.size, grid.size
            if banded:
                a = np.searchsorted((grid - first) / h, -CUT_Z, side="right")
                b = np.searchsorted((grid - last) / h, CUT_Z)
                m = np.searchsorted((grid + first) / h, CUT_Z)
            diff = np.empty((len(at), grid.size, size))
            diff[:, :a] = 0.0
            diff[:, a:b] = kernel_cdf((grid[a:b, None] - locs) / h)
            diff[:, b:] = 1.0
            if m:
                diff[:, :m] -= kernel_cdf((-grid[:m, None] - locs) / h)
            out[at] = 1.0 - (diff @ masses)[:, :, 0]
    return np.clip(out, 0.0, 1.0, out=out)
