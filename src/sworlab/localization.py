"""Localized complexity: excess loss classes, the variance-to-mean
constant B, sub-root majorants with their fixed points, and the localized
excess-risk bound formulas.

The modulus of continuity is estimated on the nested variance slices
{f : E f^2 <= r} of the excess loss class, all radii from one draw, and
majorized within the c*sqrt(r) family, whose fixed point is c^2 exactly.
Upper-confidence fitting (estimate + 2 standard errors) keeps the majorant
statistically conservative when the modulus is only estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .empirical_process import (
    FunctionClass,
    SupremumStats,
    expected_sup,
)
from .errors import BernsteinConditionError, ConfigurationError
from .ground_set import RngStream, SampleMode, SampleScheme
from .transductive import TransductiveProblem

ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ExcessLossClass:
    """Rows f_h = loss_h - loss_{h*}, where h* minimizes the overall risk."""

    star_index: int
    rows: np.ndarray

    @property
    def means(self) -> np.ndarray:
        """E f per row (all >= 0 by optimality of h*)."""
        return self.rows.mean(axis=1)

    @property
    def second_moments(self) -> np.ndarray:
        """E f^2 per row."""
        return (self.rows**2).mean(axis=1)


def build_excess_class(tp: TransductiveProblem) -> ExcessLossClass:
    """Subtract the overall-risk minimizer's loss row (index tie-break)."""
    star = int(np.argmin(tp.overall_risk))
    rows = tp.loss_table - tp.loss_table[star]
    return ExcessLossClass(star_index=star, rows=rows)


def compute_B(ec: ExcessLossClass) -> tuple[float, int]:
    """(B, witness): the smallest B with E f^2 <= B E f across the class,
    computed exactly, and the row attaining it.

    A row with E f = 0 but E f^2 > 0 (a distinct hypothesis tied in
    overall risk) admits no finite B: BernsteinConditionError names it.
    """
    means = ec.means
    seconds = ec.second_moments
    zero_mean = means <= ZERO_TOL
    violators = np.flatnonzero(zero_mean & (seconds > ZERO_TOL))
    if violators.size:
        raise BernsteinConditionError(
            f"hypothesis {int(violators[0])} has zero mean excess loss but positive "
            "second moment; no finite variance-to-mean constant exists"
        )
    positive = ~zero_mean
    if not positive.any():
        return 1.0, ec.star_index
    ratios = seconds[positive] / means[positive]
    local = int(np.argmax(ratios))
    return float(ratios[local]), int(np.flatnonzero(positive)[local])


def _as_B(B: float) -> float:
    if B <= 0 or not math.isfinite(B):
        raise ConfigurationError(f"B must be a positive finite number, got {B}")
    return B


def modulus_curve(
    ec: ExcessLossClass,
    m: int,
    flavor: SampleMode,
    trials: int,
    rng: RngStream,
    B: float = 1.0,
) -> tuple[np.ndarray, SupremumStats]:
    """(radii, psi_hat): at every r of default_r_grid(ec), B times the
    expected supremum over the slice {f : E f^2 <= r} of
    E f - (empirical mean of f over the size-m sample).

    With the rows sorted by E f^2 each slice is a prefix (h* at least), so
    one expected_sup call, exact or `trials` draws from `rng`, gives every
    radius, nondecreasing in r; means and std_errors are scaled by B/m.
    """
    b_val = _as_B(B)
    radii = default_r_grid(ec)
    order = np.argsort(ec.second_moments, kind="stable")
    ends = np.searchsorted(ec.second_moments[order], radii + ZERO_TOL, "right")
    rows = ec.rows[order]
    # per-sample statistic: sup over slice rows of the sum of g = Ef - f
    gfc = FunctionClass(rows.mean(axis=1, keepdims=True) - rows)
    stats = expected_sup(gfc, SampleScheme(flavor, m), trials, rng, ends=ends)
    mean, std_error = (b_val * x / m for x in (stats.mean, stats.std_error))
    return radii, SupremumStats(mean, std_error, stats.provenance)


def default_r_grid(ec: ExcessLossClass) -> np.ndarray:
    """Geometric 12-point grid spanning the nonzero second moments of the class."""
    seconds = ec.second_moments
    nonzero = seconds[seconds > ZERO_TOL]
    if nonzero.size == 0:
        return np.array([1.0])
    return np.geomspace(nonzero.min() / 2.0, seconds.max() * 2.0, 12)


def fit_subroot(radii: np.ndarray, psi_hat: np.ndarray, std_error: np.ndarray) -> float:
    """The smallest c >= 0 with c*sqrt(r) >= psi_hat(r) + 2 se at every
    radius of the grid: a certified majorant with fixed point r* = c^2."""
    if radii.size == 0:
        raise ConfigurationError("empty modulus grid")
    if np.any(radii <= 0):
        raise ConfigurationError("grid radii must be positive")
    return max(0.0, float(np.max((psi_hat + 2.0 * std_error) / np.sqrt(radii))))


def fixed_point(
    psi: Callable[[float], float],
    r_lo: float,
    r_hi: float,
    tol: float = 1e-10,
) -> float:
    """Unique positive fixed point of a sub-root psi, by at most 200 bisection steps.

    psi(r) - r crosses zero exactly once on (0, inf) because psi(r)/r is
    strictly decreasing; the bracket [r_lo, r_hi] must exhibit the sign
    change.
    """
    g_lo = psi(r_lo) - r_lo
    g_hi = psi(r_hi) - r_hi
    if g_lo < 0 or g_hi > 0:
        raise ConfigurationError(
            f"no sign change: psi(r)-r is {g_lo:.3g} at r_lo and {g_hi:.3g} at r_hi"
        )
    lo, hi = r_lo, r_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = psi(mid) - mid
        if abs(g) <= tol:
            return mid
        if g > 0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if abs(psi(mid) - mid) > tol:
        raise ConfigurationError(f"bisection stalled at residual {psi(mid) - mid:.3g}")
    return mid


def excess_bound_thm8(B: float, r_star: float, N: int, m: int, t: float) -> float:
    """51 r*/B + 17 B t (N/m^2); without-replacement localized bound."""
    b = _as_B(B)
    return 51.0 * r_star / b + 17.0 * b * t * (N / m**2)


def excess_bound_thm9(B: float, r_star: float, m: int, t: float) -> float:
    """901 r*/B + t (16 + 25 B)/(3 m); with-replacement-flavor bound."""
    b = _as_B(B)
    return 901.0 * r_star / b + t * (16.0 + 25.0 * b) / (3.0 * m)


def excess_bound_cor10(
    B: float,
    r_star_m: float,
    r_star_u: float,
    N: int,
    m: int,
    u: int,
    t: float,
) -> float:
    """Test-excess-risk bound at confidence 2e^{-t}: Thm 8 on the training
    and on the test sample, (N/u) thm8(r*_m, m) + (N/m) thm8(r*_u, u)."""
    on_train = excess_bound_thm8(B, r_star_m, N, m, t)
    on_test = excess_bound_thm8(B, r_star_u, N, u, t)
    return (N / u) * on_train + (N / m) * on_test


def excess_bound_cor11(
    B: float,
    r_star_m: float,
    r_star_u: float,
    N: int,
    m: int,
    u: int,
    t: float,
    K: float = 1.0,
) -> float:
    """Thm 9 analogue of Cor 10 at K r*; K is stated but unquantified in the
    source result, exposed as an explicit parameter defaulting to 1."""
    on_train = excess_bound_thm9(B, K * r_star_m, m, t)
    on_test = excess_bound_thm9(B, K * r_star_u, u, t)
    return (N / u) * on_train + (N / m) * on_test


def stability_bound_appD(
    B: float,
    K: float,
    r_star_m: float,
    r_star_u: float,
    N: int,
    m: int,
    u: int,
    t: float,
) -> float:
    """|L_N(erm) - L_N(test minimizer)| bound, any K > 1:

    2 K (r*_m + r*_u)/B + 16 K B t N (1/m^2 + 1/u^2).
    """
    if K <= 1.0:
        raise ConfigurationError(f"K must exceed 1, got {K}")
    b = _as_B(B)
    return 2.0 * K * (r_star_m + r_star_u) / b + 16.0 * K * b * t * N * (
        1.0 / m**2 + 1.0 / u**2
    )


DEFAULT_APPD_K = 1.0001
