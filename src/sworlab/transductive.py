"""Transductive ERM over a finite hypothesis table.

The learner sees losses of every hypothesis on every population point as
an H x N table with entries in [0, 1].  A uniform without-replacement
split of size m defines training risk, test risk, and the (nonrandom)
overall risk, linked by the exact identity N L_N = m L_m + u L_u.  The
law of the split is scored exactly, once per count vector over the
table's level sets (exact_split_risks), or through drawn splits
(sampled_split_risks); split_route picks the route before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from . import ground_set
from .bounds import BoundParams, deviation_subgaussian
from .empirical_process import (
    DEFAULT_ENUM_BUDGET,
    FunctionClass,
    LevelSets,
    _count_vectors,
    _vector_count,
    class_variance,
)
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
    def levels(self) -> LevelSets:
        """The loss table's identical columns merged into level sets: a
        split's risks depend on it only through how many points it takes
        from each.  Merged on the losses themselves, not on the centered
        class, where L_N - loss can round distinct columns together."""
        return FunctionClass(self.loss_table).level_sets

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
    without a draw: "exact" when the splits' count vectors over tp.levels
    number at most min(`splits`, DEFAULT_ENUM_BUDGET) (exact_split_risks
    lists them all at once, so it never scores more rows than a draw would
    nor holds more vectors than expected_sup may), else "monte_carlo"
    (sampled_split_risks draws `splits` of them).  As {route,
    enumeration_size, splits}; refuses m outside [1, N) and splits < 1."""
    require_split(tp, m)
    if splits < 1:
        raise ConfigurationError(f"splits must be >= 1, got {splits}")
    sizes = tuple(tp.levels.sizes.tolist())
    size = _vector_count(sizes, m, SampleMode.WITHOUT_REPLACEMENT)
    route = "exact" if size <= min(splits, DEFAULT_ENUM_BUDGET) else "monte_carlo"
    return {"route": route, "enumeration_size": size, "splits": splits}


def _risks(tp: TransductiveProblem, m: int, counts, columns: np.ndarray):
    """Train risks C L^T / m of a block of count vectors C over the points
    (or level sets) whose loss columns are `columns`, and test risks from
    N L_N = m L_m + u L_u without forming the complement."""
    train = np.asarray(counts @ columns.T) / m
    return train, (tp.N * tp.overall_risk - m * train) / (tp.N - m)


def sampled_split_risks(
    tp: TransductiveProblem, m: int, splits: int, rng: RngStream
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Train and test risks of `splits` uniform splits, one block at a time.

    Block b holds at most ground_set.BLOCK_ROWS splits, drawn from
    rng.substream(b) as a (rows, N) 0/1 count matrix by `sample_counts`,
    and gives (rows, H) train and test risks.
    """
    require_split(tp, m)
    for rows, gen in block_generators(splits, rng):
        counts = sample_counts(tp.N, m, rows, SampleMode.WITHOUT_REPLACEMENT, gen)
        yield _risks(tp, m, counts, tp.loss_table)


def exact_split_risks(
    tp: TransductiveProblem, m: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Train and test risks of every uniform m-split, with probabilities,
    one block at a time.

    A split's risks depend on it only through its count vector k over the
    loss table's level sets (tp.levels), so each vector is scored once,
    with probability prod C(s_i, k_i) / C(N, m), as listed by the
    enumeration exact_law uses.  Block b holds at most
    ground_set.BLOCK_ROWS vectors and gives (rows, H) train and test risks
    and (rows,) probabilities.
    """
    require_split(tp, m)
    levels = tp.levels
    sizes = tuple(levels.sizes.tolist())
    counts, weights = _count_vectors(sizes, m, SampleMode.WITHOUT_REPLACEMENT)
    rows, step = counts.shape[0], ground_set.BLOCK_ROWS
    for start in range(0, rows, step):
        block = counts if rows <= step else counts[start : start + step]  # a row slice copies
        yield *_risks(tp, m, block, levels.columns), weights[start : start + step]


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
