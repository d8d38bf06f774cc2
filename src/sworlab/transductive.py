"""Transductive ERM over a finite hypothesis table.

The learner sees losses of every hypothesis on every population point as
an H x N table with entries in [0, 1].  A uniform without-replacement
split of size m defines training risk, test risk, and the (nonrandom)
overall risk, linked by the exact identity N L_N = m L_m + u L_u.  A
split is a without-replacement sample of the loss table, listed or drawn
by empirical_process and scored by split_statistics; split_route picks
the route before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import BoundParams, deviation_subgaussian
from .empirical_process import (
    DEFAULT_ENUM_BUDGET,
    FunctionClass,
    class_variance,
    draw_blocks,
    law_blocks,
    law_size,
)
from .errors import ConfigurationError
from .ground_set import RngStream, SampleMode, SampleScheme


@dataclass(frozen=True)
class TransductiveProblem:
    """Losses of H hypotheses on a fixed population of N points."""

    loss_table: np.ndarray

    def __post_init__(self):
        lt = np.asarray(self.loss_table, dtype=float)
        if lt.ndim != 2 or lt.shape[0] < 1 or lt.shape[1] < 1:
            raise ConfigurationError("loss table must be a nonempty 2-D array")
        if not np.all(np.isfinite(lt)):
            raise ConfigurationError("loss table must be finite")
        if lt.min() < 0.0 or lt.max() > 1.0:
            raise ConfigurationError("losses must lie in [0, 1]")
        object.__setattr__(self, "loss_table", lt)

    @property
    def n_hypotheses(self) -> int:
        return self.loss_table.shape[0]

    @property
    def N(self) -> int:
        return self.loss_table.shape[1]

    @cached_property
    def overall_risk(self) -> np.ndarray:
        """L_N per hypothesis: population mean of each loss row, computed
        once per problem and read-only, since every caller shares it."""
        risk = self.loss_table.mean(axis=1)
        risk.flags.writeable = False
        return risk

    @cached_property
    def centered_class(self) -> FunctionClass:
        """The associated centered class f_h(X) = L_N(h) - loss_h(X), built
        once per problem.

        Its normalized supremum process is sup_h (L_N(h) - train risk),
        so expected suprema of the table problem reduce to E[Q]/m.
        """
        vals = self.overall_risk[:, None] - self.loss_table
        return FunctionClass(vals, centered=True)

    @cached_property
    def loss_class(self) -> FunctionClass:
        """The loss table as a class: a split's risks depend on it only
        through how many points it takes from each of its level sets.
        These merge the losses themselves, not the centered class, where
        L_N - loss can round distinct columns together."""
        return FunctionClass(self.loss_table)

    @cached_property
    def sigma2_H(self) -> float:
        """Largest population variance of a loss row; always <= 1/4."""
        return class_variance(self.centered_class)


def require_split(tp: TransductiveProblem, m: int) -> None:
    """Refuse a training size that leaves no test point."""
    if not 1 <= m < tp.N:
        raise ConfigurationError(f"need 1 <= m < N for a nonempty test set, got m={m}")


def split_route(tp: TransductiveProblem, m: int, splits: int) -> dict:
    """How the validity checks see the law of a uniform m-split, decided
    without a draw: "exact" when the splits' count vectors over the level
    sets of tp.loss_class number at most min(`splits`, DEFAULT_ENUM_BUDGET)
    (split_statistics then lists them all, so it never scores more rows
    than a draw would nor holds more vectors than expected_sup may), else
    "monte_carlo" (split_statistics draws `splits` of them).  As {route,
    enumeration_size, splits}; refuses m outside [1, N) and splits < 1."""
    require_split(tp, m)
    if splits < 1:
        raise ConfigurationError(f"splits must be >= 1, got {splits}")
    size = law_size(tp.loss_class, SampleScheme(SampleMode.WITHOUT_REPLACEMENT, m))
    route = "exact" if size <= min(splits, DEFAULT_ENUM_BUDGET) else "monte_carlo"
    return {"route": route, "enumeration_size": size, "splits": splits}


def split_statistics(
    tp: TransductiveProblem, m: int, route: dict, rng: RngStream, *statistics
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """(weights, values): each statistic(train, test) -> per-split values,
    on (rows, H) train and test risks of the uniform m-splits of `route`
    (see split_route), scored a block at a time.  On the exact route these
    are every count vector over the level sets of tp.loss_class once, with
    its probability in weights (law_blocks; `rng` goes unused); else
    route["splits"] splits drawn from `rng` (draw_blocks), and weights is
    None.  Test risks come from N L_N = m L_m + u L_u, without forming the
    complement."""
    require_split(tp, m)
    exact = route["route"] == "exact"
    loss, scheme = tp.loss_class, SampleScheme(SampleMode.WITHOUT_REPLACEMENT, m)
    blocks = law_blocks(loss, scheme) if exact else draw_blocks(loss, scheme, route["splits"], rng)
    out, weights = [[] for _ in statistics], []
    for table, counts, probabilities in blocks:
        train = np.asarray(counts @ table.T) / m
        test = (tp.N * tp.overall_risk - m * train) / (tp.N - m)
        weights.append(probabilities)
        for acc, statistic in zip(out, statistics):
            acc.append(statistic(train, test))
    return (np.concatenate(weights) if exact else None), [np.concatenate(acc) for acc in out]


def erm(tp: TransductiveProblem, train_risk: np.ndarray, test_risk: np.ndarray) -> dict:
    """Argmins of one split's train and test risks (a row pair as
    split_statistics scores them) and of the overall risk, ties broken by lowest
    hypothesis index, as {"h_hat_m", "h_star_u", "h_star_N"}, and the
    test excess risk of the ERM choice, "excess_risk"."""
    h_hat_m = int(np.argmin(train_risk))
    h_star_u = int(np.argmin(test_risk))
    return {
        "h_hat_m": h_hat_m,
        "h_star_u": h_star_u,
        "h_star_N": int(np.argmin(tp.overall_risk)),
        "excess_risk": float(test_risk[h_hat_m] - test_risk[h_star_u]),
    }


def gen_bound_thm5(
    tp: TransductiveProblem, m: int, t: float, sup_expectation: float
) -> float:
    """Uniform bound on L_N(h) - train risk at confidence t: sup_expectation
    plus the sub-Gaussian deviation of the centered class, over m."""
    p = BoundParams(N=tp.N, m=m, sigma2=tp.sigma2_H)
    return sup_expectation + float(deviation_subgaussian(p, t)) / m


def gen_bound_thm6(tp: TransductiveProblem, m: int, t: float, e_m: float) -> float:
    """With-replacement flavor: 2 E_m + sqrt(2 sigma2_H t / m) + 4t/(3m)."""
    return 2.0 * e_m + math.sqrt(2.0 * tp.sigma2_H * t / m) + 4.0 * t / (3.0 * m)
