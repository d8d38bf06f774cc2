"""Transductive ERM over a finite hypothesis table.

The learner sees losses of every hypothesis on every population point as
an H x N table with entries in [0, 1].  A uniform without-replacement
split of size m defines training risk, test risk, and the (nonrandom)
overall risk, linked by the exact identity N L_N = m L_m + u L_u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .bounds import BoundParams, deviation_subgaussian
from .empirical_process import FunctionClass, class_variance
from .errors import ConfigurationError
from .ground_set import RngStream, SampleMode, block_generators, sample_counts


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

    @property
    def overall_risk(self) -> np.ndarray:
        """L_N per hypothesis: population mean of each loss row."""
        return self.loss_table.mean(axis=1)

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
    def sigma2_H(self) -> float:
        """Largest population variance of a loss row; always <= 1/4."""
        return class_variance(self.centered_class)


def require_split(tp: TransductiveProblem, m: int) -> None:
    """Refuse a training size that leaves no test point."""
    if not 1 <= m < tp.N:
        raise ConfigurationError(f"need 1 <= m < N for a nonempty test set, got m={m}")


def sampled_split_risks(
    tp: TransductiveProblem, m: int, splits: int, rng: RngStream
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Train and test risks of `splits` uniform splits, one block at a time.

    Block b holds at most ground_set.BLOCK_ROWS splits, drawn from
    rng.substream(b) as a (rows, N) 0/1 count matrix C by `sample_counts`;
    its (rows, H) train risks are C L^T / m, and its test risks follow
    from N L_N = m L_m + u L_u without forming the complement.
    """
    require_split(tp, m)
    if splits < 1:
        raise ConfigurationError("splits must be >= 1")
    total = tp.N * tp.overall_risk
    for rows, gen in block_generators(splits, rng):
        counts = sample_counts(tp.N, m, rows, SampleMode.WITHOUT_REPLACEMENT, gen)
        train = np.asarray(counts @ tp.loss_table.T) / m
        yield train, (total - m * train) / (tp.N - m)


def erm(tp: TransductiveProblem, train_risk: np.ndarray, test_risk: np.ndarray) -> dict:
    """Argmins of one split's train and test risks (a row pair of
    sampled_split_risks) and of the overall risk, ties broken by lowest
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
