"""Localized complexity: excess loss classes, the variance-to-mean
constant B, sub-root majorants with their fixed points, and the localized
excess-risk bound formulas.

The modulus of continuity is estimated on the nested variance slices
{f : E f^2 <= r} of the excess loss class, all slices from one draw.  A
slice changes only where r crosses a row's E f^2, so the modulus is a step
function whose breakpoints are the distinct positive second moments; the
least sub-root function above it at those breakpoints has a closed-form
fixed point (fit_subroot).  Upper-confidence fitting (estimate + 2
standard errors) keeps the majorant statistically conservative when the
modulus is only estimated.

The slices are a property of the class alone: its breakpoints, its rows
sorted by E f^2 and the prefix end of each slice are built once per class
(ExcessLossClass.slices), so the four fits of a localize report (m and u,
with and without replacement) share one sorted class and its level sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class VarianceSlices(NamedTuple):
    """The slices {f : E f^2 <= r} at their breakpoints, the distinct
    positive E f^2 in increasing order: with the rows sorted by E f^2
    (stable), the slice at radii[i] is the first ends[i] rows (h* and
    every row with E f^2 <= radii[i]) of gclass, whose rows are g = E f - f.
    Below radii[0] the slice holds only rows equal to h*: its modulus is 0."""

    radii: np.ndarray
    ends: np.ndarray
    gclass: FunctionClass


@dataclass(frozen=True)
class ExcessLossClass:
    """Rows f_h = loss_h - loss_{h*}, where h* minimizes the overall risk."""

    star_index: int
    rows: np.ndarray

    @property
    def means(self) -> np.ndarray:
        """E f per row (all >= 0 by optimality of h*)."""
        return self.rows.mean(axis=1)

    @cached_property
    def second_moments(self) -> np.ndarray:
        """E f^2 per row."""
        return (self.rows**2).mean(axis=1)

    @cached_property
    def slices(self) -> VarianceSlices:
        """The variance slices, built once per class, so that every
        modulus fit on it shares one sorted g-class and its level sets."""
        order = np.argsort(self.second_moments, kind="stable")
        moments = self.second_moments[order]
        radii = np.unique(moments[moments > 0.0])
        ends = np.searchsorted(moments, radii, "right")
        rows = self.rows[order]
        # per-sample statistic: sup over slice rows of the sum of g = Ef - f
        return VarianceSlices(radii, ends, FunctionClass(rows.mean(axis=1, keepdims=True) - rows))


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
    """(radii, psi_hat): at every breakpoint r of ec.slices, B times the
    expected supremum over the slice {f : E f^2 <= r} of
    E f - (empirical mean of f over the size-m sample).

    Each slice is a row prefix of ec.slices, so one expected_sup call,
    exact or `trials` draws from `rng`, gives every radius, nondecreasing
    in r; means and std_errors are scaled by B/m.
    """
    b_val = _as_B(B)
    radii, ends, gclass = ec.slices
    stats = expected_sup(gclass, SampleScheme(flavor, m), trials, rng, ends=ends)
    mean, std_error = (b_val * x / m for x in (stats.mean, stats.std_error))
    return radii, SupremumStats(mean, std_error, stats.provenance)


def fit_subroot(radii: np.ndarray, psi_hat: np.ndarray, std_error: np.ndarray) -> float:
    """r*, the fixed point of the least sub-root majorant of the modulus.

    With y = psi_hat + 2 se at the slice breakpoints r_k, that majorant is
    psi(r) = max_k y_k min(1, sqrt(r / r_k)): a sub-root function at least
    y_k at r_k lies above each term, and the modulus holds its value at a
    breakpoint up to the next one.  r* = max(0, max_k min(y_k, y_k^2 / r_k)),
    the largest of the terms' fixed points; 0 with no breakpoints.
    """
    if np.any(radii <= 0):
        raise ConfigurationError("slice radii must be positive")
    y = psi_hat + 2.0 * std_error
    return float(np.max(np.minimum(y, y * y / radii), initial=0.0))


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
