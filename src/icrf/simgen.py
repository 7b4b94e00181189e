"""Generative models for the six benchmark scenarios, monitoring-time
interval construction, and oracle access to the true conditional
survival function.

Scenario summary (tau = 5 throughout):

  1 PH-L    X ~ N25(0, AR(0.9)),  T ~ Exp(mu),   U_k ~ Exp(mu_bar),
            mu = exp(0.1 * sum(X_11..X_20) - 0.1)
  2 PH-NL   X ~ U[0,1]^10,        T ~ Exp(mu),   U_k ~ U[0, tau],
            mu = sin(pi X_1) + 2|X_2 - 1/2| + X_3^3
  3 non-PH  X ~ N25(0, AR(0.75)), T ~ Gamma(shape mu, scale 2),
            U_k ~ U[0, 1.5 tau],  mu = 0.5 + 0.3 |sum(X_11..X_15)|
  4 CNIC    X ~ N25(0, AR(0.75)), T ~ LN(mu),    U_k ~ LN(0.8 mu),
            mu = 0.3|sum(X_1..X_5)| + 0.3|sum(X_21..X_25)|
  5 IC      X ~ N10(0, AR(0.2)),  T ~ Exp(mu),   U_k ~ LN(T),
            mu = 2 expit(X_1 + X_2 + X_3)
  6 non-SM  as scenario 1 but T ~ SDE(mu) = (Exp(mu) + ceil(2 Exp(mu))/2)/2

LN(m) denotes exp(N(m, 1)) (log-scale location m, unit log-scale
variance). Exp(m) has mean m. The monitoring count M is 1 or 3 with the
M draws conditionally independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataio import Dataset, require_count
from .exceptions import InvariantViolation

TAU_DEFAULT = 5.0

SCENARIO_P = {1: 25, 2: 10, 3: 25, 4: 25, 5: 10, 6: 25}
SCENARIO_RHO = {1: 0.9, 2: None, 3: 0.75, 4: 0.75, 5: 0.2, 6: 0.9}

# the mean of mu in scenarios 1 and 6 over a fixed pre-draw of 100,000
# covariate rows (stream SeedSequence([987_654_321, scenario])), stored as
# the values it gives; tests/test_simgen.py recomputes the pre-draw
_MU_BAR = {1: float.fromhex("0x1.4c55b25cfe52cp+0"), 6: float.fromhex("0x1.4ce58affc864ap+0")}
_GEN_SALT = 20_230_615


@dataclass(frozen=True)
class Scenario:
    id: int
    n: int = 300
    M: int = 1
    tau: float = TAU_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if self.id not in SCENARIO_P:
            raise InvariantViolation(f"scenario id must be 1..6, got {self.id}")
        if self.M < 1:
            raise InvariantViolation("monitoring count M must be >= 1")
        require_count(self.n, "sample size n")
        require_count(self.seed, "seed")

    @property
    def p(self) -> int:
        return SCENARIO_P[self.id]


@dataclass(frozen=True)
class SimulatedDataset:
    dataset: Dataset
    latent_times: np.ndarray
    scenario: Scenario

    def truth(self, t, x):
        return truth_eval(self.scenario.id, t, x)


def _chol(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    return np.linalg.cholesky(rho ** np.abs(idx[:, None] - idx[None, :]))


@lru_cache(maxsize=None)
def _chol_cached(p: int, rho: float):
    m = _chol(p, rho)
    m.flags.writeable = False
    return m


def draw_covariates(scenario_id: int, n: int, rng: np.random.Generator) -> np.ndarray:
    p = SCENARIO_P[scenario_id]
    rho = SCENARIO_RHO[scenario_id]
    if rho is None:
        return rng.uniform(size=(n, p))
    z = rng.standard_normal((n, p))
    return z @ _chol_cached(p, rho).T


def mu_of(scenario_id: int, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if scenario_id in (1, 6):
        return np.exp(0.1 * X[:, 10:20].sum(axis=1) - 0.1)
    if scenario_id == 2:
        return np.sin(np.pi * X[:, 0]) + 2.0 * np.abs(X[:, 1] - 0.5) + X[:, 2] ** 3
    if scenario_id == 3:
        return 0.5 + 0.3 * np.abs(X[:, 10:15].sum(axis=1))
    if scenario_id == 4:
        return 0.3 * np.abs(X[:, 0:5].sum(axis=1)) + 0.3 * np.abs(X[:, 20:25].sum(axis=1))
    return 2.0 * np.fromiter(map(_expit, (X[:, 0] + X[:, 1] + X[:, 2]).tolist()), float)


def _expit(x: float) -> float:
    """1 / (1 + e^-x) with the platform libm's exp, as scipy.special.expit
    computes it (numpy's exp can differ in the last bit)."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # e^-x beyond the largest double: libm gives inf
        return 0.0


def mu_bar(scenario_id: int) -> float:
    """Empirical mean of mu over a large fixed pre-draw of covariates
    (scenarios 1 and 6, whose monitoring times have this mean)."""
    return _MU_BAR[scenario_id]


def _sde_transform(e: np.ndarray) -> np.ndarray:
    """Semi-discretized exponential: T = (E + ceil(2E)/2) / 2."""
    return 0.5 * e + 0.25 * np.ceil(2.0 * e)


def draw_failure_times(scenario_id: int, mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if scenario_id in (1, 2, 5):
        return rng.exponential(1.0, size=mu.shape) * mu
    if scenario_id == 3:
        return rng.gamma(shape=mu, scale=2.0)
    if scenario_id == 4:
        return np.exp(mu + rng.standard_normal(mu.shape))
    return _sde_transform(rng.exponential(1.0, size=mu.shape) * mu)


def draw_monitoring_times(
    scenario_id: int,
    mu: np.ndarray,
    latent_t: np.ndarray,
    M: int,
    tau: float,
    rng: np.random.Generator,
) -> np.ndarray:
    n = mu.size
    if scenario_id in (1, 6):
        return rng.exponential(mu_bar(scenario_id), size=(n, M))
    if scenario_id == 2:
        return rng.uniform(0.0, tau, size=(n, M))
    if scenario_id == 3:
        return rng.uniform(0.0, 1.5 * tau, size=(n, M))
    if scenario_id == 4:
        return np.exp(0.8 * mu[:, None] + rng.standard_normal((n, M)))
    return np.exp(latent_t[:, None] + rng.standard_normal((n, M)))


def _brackets(t: np.ndarray, monitors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each subject's bracketing pair (L, R] of T among its row of monitors:
    the largest below T (0 if none), the smallest at or above it (+inf if none)."""
    below, above = monitors < t[:, None], monitors >= t[:, None]
    lefts = np.where(below, monitors, -np.inf).max(axis=1, initial=-np.inf)
    rights = np.where(above, monitors, np.inf).min(axis=1, initial=np.inf)
    return np.where(below.any(axis=1), lefts, 0.0), rights


def intervals_from_monitoring(t: float, monitors) -> tuple[float, float]:
    """Bracketing pair (L, R] of T among its monitors, with the sentinels
    U_(0) = 0 and U_(M+1) = +inf: ``generate``'s bracket for one subject."""
    lefts, rights = _brackets(np.array([t], dtype=float), np.array(monitors, dtype=float, ndmin=2))
    return float(lefts[0]), float(rights[0])


def _sde_exposure(t) -> np.ndarray:
    """Inverse of the SDE transform: T > t iff E > g(t)."""
    t = np.asarray(t, dtype=float)
    k = np.ceil(2.0 * t)
    lo = (2.0 * k - 1.0) / 4.0
    return np.where(t > lo, 2.0 * t - 0.5 * k, 0.5 * (k - 1.0))


def truth_eval(scenario_id: int, t, x) -> np.ndarray | float:
    """True conditional survival S0(t | x), exact closed forms."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    mu = float(mu_of(scenario_id, np.atleast_2d(x))[0])
    if scenario_id in (1, 2, 5):
        out = np.exp(-t_arr / mu)
    elif scenario_id == 3:
        from scipy.special import gammaincc
        out = gammaincc(mu, t_arr / 2.0)
    elif scenario_id == 4:
        from scipy.special import ndtr
        with np.errstate(divide="ignore"):
            out = ndtr(mu - np.log(np.maximum(t_arr, 1e-300)))
        out[t_arr <= 0.0] = 1.0
    else:
        out = np.exp(-_sde_exposure(t_arr) / mu)
    return out if np.asarray(t).ndim else float(out[0])


def generate(scenario: Scenario) -> SimulatedDataset:
    """Draw a dataset under the scenario's generative law.

    Draw order (fixed for reproducibility): covariates, failure times,
    monitoring times.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [_GEN_SALT, scenario.id, scenario.M, scenario.n, scenario.seed]
        )
    )
    X = draw_covariates(scenario.id, scenario.n, rng)
    mu = mu_of(scenario.id, X)
    t = draw_failure_times(scenario.id, mu, rng)
    monitors = draw_monitoring_times(
        scenario.id, mu, t, scenario.M, scenario.tau, rng
    )
    lefts, rights = _brackets(t, monitors)
    names = [f"x{j + 1}" for j in range(scenario.p)]
    ds = Dataset(lefts=lefts, rights=rights, X=X, feature_names=names, tau=scenario.tau)
    return SimulatedDataset(dataset=ds, latent_times=t, scenario=scenario)
