"""Gaussian kernel smoothing of step survival curves.

The smoothed curve is the kernel-convolved distribution function,
S~(t) = 1 - sum_j dF_j * [Phi((t-u_j)/h) - Phi((-t-u_j)/h)],
where dF_j are the base curve's jump masses at u_j. The reflected term
is the mirror boundary correction near t = 0; it guarantees S~(0) = 1
and monotonicity, and is below Phi(-4) ~ 3e-5 once t > 4h.

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

    base: StepSurvival
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
    """Gaussian-kernel smoothing with mirror boundary correction at 0."""
    if not (h > 0.0):
        raise DegenerateQuantiles(f"bandwidth must be > 0, got {h}")
    locs, masses = curve_atoms(base)
    return SmoothedSurvival(
        base=base,
        bandwidth=float(h),
        support_end=float(support_end),
        locs=locs,
        masses=masses,
    )


def smoothed_values_matrix(
    atom_locs: list[np.ndarray],
    atom_masses: list[np.ndarray],
    h: float,
    grid: np.ndarray,
) -> np.ndarray:
    """Evaluate many smoothed curves on one grid; rows follow the inputs.

    The one implementation of the mirror-form evaluation: SmoothedSurvival.eval
    calls it for a single curve, the forest for its leaf curves.
    """
    out = np.empty((len(atom_locs), grid.size))
    for i, (locs, masses) in enumerate(zip(atom_locs, atom_masses)):
        if locs.size == 0:
            out[i] = 1.0
            continue
        direct = ndtr((grid[:, None] - locs[None, :]) / h)
        mirror = ndtr((-grid[:, None] - locs[None, :]) / h)
        out[i] = np.clip(1.0 - (direct - mirror) @ masses, 0.0, 1.0)
    return out
