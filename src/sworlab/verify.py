"""Monte Carlo estimation of tail probabilities and domination checks.

Empirical tails come with exact (Clopper-Pearson style) binomial
confidence bounds; a bound is only flagged as violated when the lower
confidence bound at delta = 0.01 exceeds it, so noise cannot produce
false alarms against a proved inequality.

The draws of a run are sorted once.  Rounding is monotone, so the sorted
draws minus a centre are the sorted deviations around it, element for
element: every count of deviations at or above a level, for any centre,
is one searchsorted on them.  The curves around several centres share
one binomial_upper_ci and one binomial_lower_ci call.  A check takes its
bound's values on the whole grid, one array from one call of the bound,
so the checks of one configuration share one BoundParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv  # beta.ppf's own kernel; scipy.stats costs ~0.6 s to import

from . import bounds as bank
from .bounds import Center
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
    upper[below] = betaincinv(k[below] + 1, n - k[below], 1.0 - DELTA)
    return _float_or_array(upper)


def binomial_lower_ci(k, n: int) -> float | np.ndarray:
    """One-sided exact lower confidence bound; equals 0 when k = 0."""
    k = _checked_counts(k, n)
    lower = np.zeros(k.shape)
    above = k > 0
    lower[above] = betaincinv(k[above], n - k[above] + 1, DELTA)
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
    center: Center

    def __post_init__(self):
        if np.any(np.diff(self.eps_grid) <= 0):
            raise ConfigurationError("eps grid must be strictly ascending")
        if np.any(np.diff(self.tail_estimate) > 0):
            raise ConfigurationError("tail estimates must be nonincreasing in eps")
        if np.any(self.tail_estimate > self.upper_ci + 1e-15):
            raise ConfigurationError("tail estimate exceeds its upper CI")

    def to_dict(self) -> dict:
        return {
            "tail_estimate": [float(p) for p in self.tail_estimate],
            "upper_ci": [float(p) for p in self.upper_ci],
            "lower_ci": [float(p) for p in self.lower_ci],
        }


def exceedances(sorted_draws: np.ndarray, center: float, levels) -> np.ndarray:
    """#{draw - center >= level} for each of `levels`, from the draws sorted
    ascending: sorted_draws - center is sorted too, so one searchsorted
    counts them all."""
    return sorted_draws.size - np.searchsorted(sorted_draws - center, levels, side="left")


def tail_curves(
    sorted_draws: np.ndarray, eps_grid: np.ndarray, centers: dict[Center, float]
) -> dict[Center, TailCurve]:
    """The TailCurve of the same supremum draws, sorted ascending, around
    each centre's value, on one eps grid; one binomial_upper_ci and one
    binomial_lower_ci call serve every curve."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    n = sorted_draws.size
    if n < 1:
        raise ConfigurationError("need at least one draw")
    if np.any(sorted_draws[1:] < sorted_draws[:-1]):
        raise ConfigurationError("tail curves need the draws sorted ascending")
    ks = np.array([exceedances(sorted_draws, value, eps_grid) for value in centers.values()])
    upper, lower = binomial_upper_ci(ks, n), binomial_lower_ci(ks, n)
    return {
        center: TailCurve(eps_grid, k / n, up, lo, center)
        for center, k, up, lo in zip(centers, ks, upper, lower)
    }


def check_domination(curve: TailCurve, theorem_tag: str, bound) -> dict:
    """Compare an empirical tail curve against one theorem's bound, its values
    on the curve's eps grid: {"passed", "violations":
    [{"eps", "empirical_lower_ci", "bound_value"}]}.

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
    bound = np.asarray(bound, dtype=float)
    if bound.shape != curve.eps_grid.shape:
        raise ConfigurationError("the bound needs one value per eps of the curve's grid")
    violations = [
        {"eps": eps, "empirical_lower_ci": lo, "bound_value": b}
        for eps, lo, b in zip(curve.eps_grid.tolist(), curve.lower_ci.tolist(), bound.tolist())
        if lo > b
    ]
    return {"passed": not violations, "violations": violations}
