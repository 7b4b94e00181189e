"""Gaussian kernel smoothing of step survival curves.

The smoothed curve is the kernel-convolved distribution function,
S~(t) = 1 - sum_j dF_j * [Phi((t-u_j)/h) - Phi((-t-u_j)/h)],
where dF_j are the base curve's jump masses at u_j. The reflected term
is the mirror boundary correction near t = 0; it guarantees S~(0) = 1
and monotonicity, and is below Phi(-4) ~ 3e-5 once t > 4h.

Phi is evaluated saturated (``kernel_cdf``): 0 for z <= -CUT_Z, 1 for
z >= CUT_Z and ``scipy.special.ndtr`` between, imported at its first
call: ``import icrf`` and the paths that never smooth (load, save, raw
predict, simulation) do not load SciPy for it. With CUT_Z = 9 a value
moves by at most Phi(-9) ~ 1.1e-19, so a curve of unit mass moves by at
most 2 Phi(-9) ~ 2.3e-19 in exact arithmetic, and by at most 1e-15 after
rounding. Most kernel values of a forest's curves saturate, and
``smoothed_values_matrix`` writes them as constants without calling
``ndtr``: those outside a band of grid points around each block of
curves, and, where the block's curves hold short bands of their own
beside a wide one, every saturated value inside the band as well.

S~ is linear in the jump masses. Before smoothing, each mass is spread
uniformly over its interval: ``mass_intervals_of`` finds the intervals
and ``interval_atoms`` cuts each into equal-mass atoms. A curve's
smoothed distribution function is therefore the mass-weighted sum of the
smoothed unit-mass distribution functions of its mass intervals. Many
curves that share intervals, such as the leaves of a tree, are smoothed
by evaluating one kernel column per distinct interval and mixing the
columns with one matrix product (``forest._leaf_rows``); ``smooth_curve``
is the same smoothing of a single curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import REFINE_PER_GAP, LeafStore, StepSurvival, narrow_gaps
from .exceptions import DegenerateQuantiles

TAIL_ATOMS = 64
# the most kernel values (curves x grid points x atoms) one step of
# ``smoothed_values_matrix`` evaluates, 256 KB per array: large enough that the
# per-step cost vanishes, small enough to stay in cache and in reused memory
KERNEL_BLOCK = 1 << 15
# the kernel CDF saturates beyond CUT_Z bandwidths from an atom: there Phi
# is within Phi(-9) ~ 1.1e-19 of 0 or 1 (a Gaussian tail bound, with no
# claim about ndtr's own error), so a unit mass moves by at most 2 Phi(-9)
CUT_Z = 9.0
# a block of ``smoothed_values_matrix`` whose curves' own bands hold at most
# this share of the block's band skips ndtr on its saturated values one by
# one; above it, masking them costs more than ndtr saves
SPARSE_SHARE = 0.8


def mass_intervals_of(store, idx) -> tuple[np.ndarray, ...]:
    """Where the mass of each curve ``idx`` of a ``curves.LeafStore`` lies,
    in one pass: arrays (t0, t1, mass), one entry per interval (t0, t1]
    that a mass spreads over, each curve's entries in its own order and
    curve after curve; and each curve's entry count.

    A jump mass m_j > 0 at t_j spreads over (t_{j-1}, t_j], t_0 = 0. A
    gap too narrow to cut into REFINE_PER_GAP pieces is the point interval
    t0 = t1, and so is each of the TAIL_ATOMS equal-mass atoms of an
    exponential tail, at the tail's conditional quantiles. Defective mass
    (plateau without a tail) is left unplaced."""
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


def interval_atoms(t0: np.ndarray, t1: np.ndarray):
    """Unit-mass atoms of each interval (t0, t1], as lists for
    ``smoothed_values_matrix``: the REFINE_PER_GAP sub-interval ends, of
    equal mass, or one atom at t1 for a point interval."""
    point = t0 == t1
    subs = np.linspace(t0[~point], t1[~point], REFINE_PER_GAP + 1, axis=1)[:, 1:]
    sub_masses = np.full(REFINE_PER_GAP, 1.0 / REFINE_PER_GAP)
    locs, masses, rows = [], [], iter(subs)
    for is_point, t in zip(point, t1):
        locs.append(np.array([t]) if is_point else next(rows))
        masses.append(np.ones(1) if is_point else sub_masses)
    return locs, masses


def curve_atoms(base: StepSurvival) -> tuple[np.ndarray, np.ndarray]:
    """Kernel atoms (locations, masses) of a step curve: its mass
    intervals (``mass_intervals_of`` of the one-curve store), each cut
    into unit-mass atoms by ``interval_atoms`` and scaled by its mass."""
    t0, t1, masses, _ = mass_intervals_of(LeafStore.of([base]), [0])
    locs, unit = interval_atoms(t0, t1)
    return (np.concatenate([np.empty(0), *locs]),
            np.concatenate([np.empty(0), *(u * m for u, m in zip(unit, masses))]))


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


def check_bandwidth(h, error=DegenerateQuantiles, what: str = "bandwidth") -> float:
    """``h`` as a float if it is a usable kernel bandwidth or support
    end, a finite number > 0; otherwise raises ``error``."""
    if not 0.0 < h < np.inf:  # False for NaN
        raise error(f"{what} must be finite and > 0, got {h}")
    return float(h)


def smooth_curve(base: StepSurvival, h: float, support_end: float) -> SmoothedSurvival:
    """Gaussian-kernel smoothing with mirror boundary correction at 0, held
    flat beyond ``support_end``: the forest's smoothing of ``base``, each
    mass spread over its interval (``curve_atoms``)."""
    h = check_bandwidth(h)
    support_end = check_bandwidth(support_end, what="support_end")
    locs, masses = curve_atoms(base)
    return SmoothedSurvival(bandwidth=h, support_end=support_end, locs=locs, masses=masses)


def ndtr(z):
    """``scipy.special.ndtr``, imported on first use."""
    from scipy.special import ndtr as phi
    return phi(z)


def kernel_cdf(z: np.ndarray, sparse: bool = False) -> np.ndarray:
    """The kernel's saturated CDF, entry by entry: 0 for z <= -CUT_Z, 1 for
    z >= CUT_Z and ``ndtr(z)`` between (NaN for NaN). ``sparse`` gives the
    same values but calls ``ndtr`` only on the entries between, which pays
    where most entries saturate and costs a few masks where few do."""
    if sparse:
        high = z >= CUT_Z
        live = ~(high | (z <= -CUT_Z))
        p = high.astype(float)
        p[live] = ndtr(z[live])
        return p
    p = ndtr(z)
    p[z <= -CUT_Z] = 0.0
    p[z >= CUT_Z] = 1.0
    return p


# a z that overflows (an atom near 1e308) is far past CUT_Z: +-inf saturates alike
@np.errstate(over="ignore")
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
    from the block's smallest and largest atom. One wide curve stretches
    the band for every curve of its block, so each curve's own band and
    prefix are also sized, from its first and last atom: where they hold
    at most SPARSE_SHARE of the block's, ``kernel_cdf`` calls ``ndtr`` only
    on the band's values that do not saturate, and elsewhere on the whole
    band. An unsorted grid, or one with NaN, is all band. Rounded
    subtraction and division are monotone, so every value written as a
    constant is the one ``kernel_cdf`` gives, and every kernel value is a
    function of its own z, whatever block, band or path it falls in. A
    stacked matrix product then takes each curve's (grid points x atoms)
    @ (atoms) product on its own, so every row is what the curve alone
    gives, bit for bit.
    """
    out = np.ones((len(atom_locs), grid.size))
    banded = np.all(grid[1:] >= grid[:-1]) and not np.isnan(grid).any()
    sizes = [locs.size for locs in atom_locs]
    reach = CUT_Z * h
    for size in sorted(set(sizes) - {0}):
        rows = [i for i, s in enumerate(sizes) if s == size]
        step = max(1, KERNEL_BLOCK // max(grid.size * size, 1))
        for lo in range(0, len(rows), step):
            at = rows[lo:lo + step]
            locs = np.concatenate([atom_locs[i] for i in at]).reshape(len(at), 1, size)
            masses = np.concatenate([atom_masses[i] for i in at]).reshape(len(at), size, 1)
            a, b, m, sparse = 0, grid.size, grid.size, False
            if banded:
                first, last = locs.min(), locs.max()
                # direct z is at most (x - first)/h and at least (x - last)/h;
                # mirror z is at most -(x + first)/h
                a = np.searchsorted((grid - first) / h, -CUT_Z, side="right")
                b = np.searchsorted((grid - last) / h, CUT_Z)
                m = np.searchsorted((grid + first) / h, CUT_Z)
                # each curve's band and prefix, sized (not placed) on the grid
                # from its first and last atom (its smallest and largest where
                # its atoms are sorted, as every caller's are)
                firsts, lasts = locs[:, 0, 0], locs[:, 0, -1]
                own = (np.searchsorted(grid, lasts + reach) - np.searchsorted(grid, firsts - reach)
                       + np.searchsorted(grid, reach - firsts)).sum()
                sparse = own <= SPARSE_SHARE * len(at) * (b - a + m)
            diff = np.empty((len(at), grid.size, size))
            diff[:, :a] = 0.0
            diff[:, a:b] = kernel_cdf((grid[a:b, None] - locs) / h, sparse)
            diff[:, b:] = 1.0
            if m:
                diff[:, :m] -= kernel_cdf((-grid[:m, None] - locs) / h, sparse)
            out[at] = 1.0 - (diff @ masses)[:, :, 0]
    return np.clip(out, 0.0, 1.0, out=out)
