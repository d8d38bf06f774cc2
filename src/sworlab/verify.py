"""Monte Carlo estimation of tail probabilities and domination checks.

Empirical tails come with exact (Clopper-Pearson style) binomial
confidence bounds; a bound is only flagged as violated when the lower
confidence bound at delta = 0.01 exceeds it, so noise cannot produce
false alarms against a proved inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.stats import beta

from . import bounds as bank
from .bounds import BoundParams, Center
from .errors import ConfigurationError, ContractError

#: confidence level of every binomial bound
DELTA = 0.01


def _checked_counts(k, n: int) -> np.ndarray:
    k = np.asarray(k)
    if n < 1 or np.any((k < 0) | (k > n)):
        raise ConfigurationError(f"need 0 <= k <= n, n >= 1; got k={k}, n={n}")
    return k


def _float_or_array(x: np.ndarray) -> float | np.ndarray:
    return float(x) if x.ndim == 0 else x


def binomial_upper_ci(k, n: int) -> float | np.ndarray:
    """One-sided exact upper confidence bound for a binomial proportion.

    Smallest p whose lower tail probability of seeing <= k successes is
    DELTA; equals 1 when k = n.  k may be an array of counts.
    """
    k = _checked_counts(k, n)
    upper = np.ones(k.shape)
    below = k < n
    if below.any():  # beta.ppf costs ~0.1 ms even on no arguments
        upper[below] = beta.ppf(1.0 - DELTA, k[below] + 1, n - k[below])
    return _float_or_array(upper)


def binomial_lower_ci(k, n: int) -> float | np.ndarray:
    """One-sided exact lower confidence bound; equals 0 when k = 0."""
    k = _checked_counts(k, n)
    lower = np.zeros(k.shape)
    above = k > 0
    if above.any():
        lower[above] = beta.ppf(DELTA, k[above], n - k[above] + 1)
    return _float_or_array(lower)


def default_eps_grid(m: int, sigma2: float) -> np.ndarray:
    """Geometric 20-point grid spanning the sub-Gaussian shoulder into the deep tail."""
    lo = 0.05 * math.sqrt(max(m * sigma2, 1e-12))
    hi = 3.0 * m * sigma2 + 3.0
    return np.geomspace(lo, hi, 20)


@dataclass
class TailCurve:
    """Empirical tail of Q' - center over an ascending eps grid."""

    eps_grid: np.ndarray
    tail_estimate: np.ndarray
    upper_ci: np.ndarray
    lower_ci: np.ndarray
    trials: int
    center: Center
    center_value: float
    center_std_error: float

    def __post_init__(self):
        if np.any(np.diff(self.eps_grid) <= 0):
            raise ConfigurationError("eps grid must be strictly ascending")
        if np.any(np.diff(self.tail_estimate) > 0):
            raise ConfigurationError("tail estimates must be nonincreasing in eps")
        if np.any(self.tail_estimate > self.upper_ci + 1e-15):
            raise ConfigurationError("tail estimate exceeds its upper CI")

    def to_dict(self) -> dict:
        return {
            "eps_grid": [float(e) for e in self.eps_grid],
            "tail_estimate": [float(p) for p in self.tail_estimate],
            "upper_ci": [float(p) for p in self.upper_ci],
            "lower_ci": [float(p) for p in self.lower_ci],
            "trials": self.trials,
            "center": self.center.name,
            "center_value": self.center_value,
            "center_std_error": self.center_std_error,
            "delta": DELTA,
        }


def tail_curve_from_draws(
    draws: np.ndarray,
    eps_grid: np.ndarray,
    center: Center,
    center_value: float,
    center_std_error: float = 0.0,
) -> TailCurve:
    """Build a TailCurve from precomputed supremum draws."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    n = draws.size
    if n < 1:
        raise ConfigurationError("need at least one draw")
    dev = np.sort(draws - center_value)
    ks = n - np.searchsorted(dev, eps_grid, side="left")  # #{dev >= eps}
    return TailCurve(
        eps_grid=eps_grid,
        tail_estimate=ks / n,
        upper_ci=binomial_upper_ci(ks, n),
        lower_ci=binomial_lower_ci(ks, n),
        trials=n,
        center=center,
        center_value=center_value,
        center_std_error=center_std_error,
    )


def check_domination(
    curve: TailCurve,
    theorem_tag: str,
    params: BoundParams,
    tail_fn: Optional[Callable] = None,
) -> dict:
    """Compare an empirical tail curve against one theorem's bound:
    {"theorem_tag", "passed", "violations": [{"eps", "empirical_lower_ci",
    "bound_value"}]}.

    Refuses to compare when the curve's centering convention does not
    match the bound's.  A grid point is a violation when the exact lower
    confidence bound of the empirical tail exceeds the analytic bound.
    """
    expected_center = bank.BOUND_CENTERS.get(theorem_tag)
    if expected_center is None:
        raise ConfigurationError(f"unknown theorem tag {theorem_tag!r}")
    if curve.center is not expected_center:
        raise ContractError(
            f"{theorem_tag} bounds deviations around {expected_center.value}, "
            f"but the curve is centered around {curve.center.value}"
        )
    if tail_fn is None:
        tail_fn = bank.TAIL_BOUNDS[theorem_tag]
    violations = []
    for eps, lo in zip(curve.eps_grid.tolist(), curve.lower_ci.tolist()):
        bound = tail_fn(replace(params, eps=eps))
        if lo > bound:
            violations.append({"eps": eps, "empirical_lower_ci": lo, "bound_value": bound})
    return {"theorem_tag": theorem_tag, "passed": not violations, "violations": violations}
