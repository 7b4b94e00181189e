"""Oracle errors of predicted survival curves against a known truth.

The data-only errors IMSE1 and IMSE2 need no truth; their one
implementation is ``forest.imse1_on_rows`` / ``forest.imse2_on_rows``,
which OOB monitoring, variable importance and ``icrf evaluate`` share."""

from __future__ import annotations

import numpy as np


def oracle_errors(est, s0, grid) -> tuple[float, float]:
    """(eps_int, eps_sup): the mean over rows of the trapezoid integral
    and of the grid supremum of |S0 - S_hat|; ``est`` and ``s0`` hold
    one curve per row on ``grid``."""
    diff = np.abs(np.asarray(s0) - np.asarray(est))
    return float(np.trapezoid(diff, grid, axis=1).mean()), float(diff.max(axis=1).mean())
