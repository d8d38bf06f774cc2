"""Finite function classes and suprema of their empirical processes.

A class is an M x N table: row j holds the values of f_j on the population.
Centered classes (row means zero, entries in [-1, 1]) are the objects the
concentration inequalities speak about.  Q denotes the supremum over rows
of the sum of values on a sample; the with-replacement and
without-replacement variants differ only in how the sample is drawn.

Points with identical columns form a level set, and Q depends on a sample
only through how many points it takes from each level set.  Monte Carlo
draws those counts directly when a class has few level sets (the
antipodal class {f, -f} has two); the population, where every point is
its own level set, is the general case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, combinations, combinations_with_replacement
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import gammaln

from .errors import ConfigurationError, OracleScaleError
from .ground_set import (
    RngStream,
    SampleMode,
    SampleScheme,
    block_generators,
    counts_matrix,
    sample_counts,
    sample_level_counts,
)

CENTER_TOL = 1e-12
#: expected_sup enumerates when exact enumeration visits at most this many
#: samples (subsets or multisets), and runs Monte Carlo otherwise
DEFAULT_ENUM_BUDGET = 10**6
#: Monte Carlo samples a class with L level sets over those sets when
#: LEVEL_RATIO * L <= N without replacement (a population sample draws N
#: random keys) or LEVEL_RATIO * L <= m with replacement (m indices).  A
#: level sample draws one hypergeometric or binomial variate per set, each
#: costing several keys or indices; at 32 the level path was at least 1.9x
#: faster wherever the rule picks it, over M in {2, 64}, N in {100, 1000,
#: 4000}, m/N in {0.1, 0.5, 0.9} and N/L from 1 to 64.
LEVEL_RATIO = 32


class LevelSets(NamedTuple):
    """A table's identical columns merged: set i holds sizes[i] points,
    each with the column columns[:, i]."""

    sizes: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True)
class FunctionClass:
    """M functions on a population of N points, stored as an (M, N) table."""

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ConfigurationError("values must be a nonempty 2-D table")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("values must be finite")
        object.__setattr__(self, "values", v)
        if self.centered:
            if np.max(np.abs(v.mean(axis=1))) > CENTER_TOL:
                raise ConfigurationError("centered class has a nonzero row mean")
            if np.max(np.abs(v)) > 1 + CENTER_TOL:
                raise ConfigurationError("centered class has entries outside [-1, 1]")

    @property
    def n_functions(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    @cached_property
    def level_sets(self) -> Optional[LevelSets]:
        """The table's identical columns merged into L level sets, when
        LEVEL_RATIO * L <= N; None otherwise (no level path would pay)."""
        # points with equal projections w @ v form the candidate sets:
        # sorting N projections finds them without sorting columns, and the
        # comparison below confirms that each set's points share its column
        weights = np.sqrt(np.arange(2.0, self.n_functions + 2.0))
        _, first, inverse, sizes = np.unique(
            weights @ self.values, return_index=True, return_inverse=True, return_counts=True
        )
        if LEVEL_RATIO * sizes.size > self.n_points:
            return None
        columns = self.values[:, first]
        if not np.array_equal(columns[:, inverse], self.values):
            return None  # distinct columns share a projection: keep the population
        return LevelSets(sizes, columns)


@dataclass(frozen=True)
class SupremumStats:
    """An expected supremum, its standard error (0 when exact) and how it
    was obtained: provenance holds route ("exact" or "monte_carlo"),
    enumeration_size, budget and trials (see expected_sup)."""

    mean: float
    std_error: float
    provenance: dict


def center_class(raw: np.ndarray) -> FunctionClass:
    """Center each row against the uniform law and rescale into [-1, 1].

    Rows are shifted to zero mean and divided by max(1, max |entry|) after
    the shift, so the range condition holds without inflating small rows.
    All-constant rows become identically zero.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 1:
        raw = raw[None, :]
    if not np.all(np.isfinite(raw)):
        raise ConfigurationError("values must be finite")
    shifted = raw - raw.mean(axis=1, keepdims=True)
    scale = np.maximum(1.0, np.abs(shifted).max(axis=1, keepdims=True))
    vals = shifted / scale
    # one exact re-centering pass to land within the rounding-scale tolerance
    vals = vals - vals.mean(axis=1, keepdims=True)
    return FunctionClass(vals, centered=True)


def sup_sums(values: np.ndarray, counts) -> np.ndarray:
    """Per sample (row of a count matrix), the sup over the rows of the
    (M, N) table `values` of the count-weighted sum: (C V^T).max(axis=1)."""
    return np.asarray(counts @ values.T).max(axis=1)


def class_variance(fc: FunctionClass) -> float:
    """sigma^2: max over rows of the population mean of squared values."""
    if not fc.centered:
        raise ConfigurationError("class variance is defined for centered classes")
    return float((fc.values**2).mean(axis=1).max())


def _enumerated_counts(samples, m: int, n: int):
    idx = np.fromiter(chain.from_iterable(samples), dtype=np.intp).reshape(-1, m)
    return counts_matrix(idx, n)


def _exact_mean(fc: FunctionClass, scheme: SampleScheme) -> float:
    """E[Q] by enumeration, whatever its size (expected_sup checks that).

    Without replacement: the mean over all m-subsets.  With replacement:
    the supremum depends on an ordered sequence only through its counts,
    so sum over multisets, each weighted by its probability
    m!/prod(k_i!) N^-m.
    """
    n, m = fc.n_points, scheme.m
    if scheme.mode is SampleMode.WITHOUT_REPLACEMENT:
        subsets = combinations(range(n), m)
        return float(sup_sums(fc.values, _enumerated_counts(subsets, m, n)).mean())
    counts = _enumerated_counts(combinations_with_replacement(range(n), m), m, n)
    counts.sum_duplicates()  # one entry k_i per distinct point
    log_fact = np.add.reduceat(gammaln(counts.data + 1.0), counts.indptr[:-1])
    prob = np.exp(gammaln(m + 1.0) - log_fact - m * math.log(n))
    return float(prob @ sup_sums(fc.values, counts))


def simulate_suprema(
    fc: FunctionClass,
    scheme: SampleScheme,
    trials: int,
    rng: RngStream,
    block: int = 10_000,
) -> np.ndarray:
    """Draw `trials` independent suprema, vectorized in fixed-size blocks.

    A supremum depends on a sample only through how many points it takes
    from each level set, so a class with few level sets (see
    FunctionClass.level_sets) draws those counts directly; any other class
    draws samples of the population.  Block b uses rng.substream(b), so the
    result is bit-identical however the blocks are scheduled.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    m, mode, levels = scheme.m, scheme.mode, fc.level_sets
    population_draws = fc.n_points if mode is SampleMode.WITHOUT_REPLACEMENT else m
    if levels is not None and LEVEL_RATIO * levels.sizes.size > population_draws:
        levels = None
    if levels is None:
        table, draw = fc.values, partial(sample_counts, fc.n_points)
    else:
        table, draw = levels.columns, partial(sample_level_counts, levels.sizes)
    blocks = block_generators(trials, rng, block)
    return np.concatenate([sup_sums(table, draw(m, rows, mode, gen)) for rows, gen in blocks])


def expected_sup(
    fc: FunctionClass,
    scheme: SampleScheme,
    trials: int = 0,
    rng: Optional[RngStream] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> SupremumStats:
    """E[Q] for the sampling scheme: the one place that picks exact
    enumeration or Monte Carlo.

    The route is decided once, by counting.  Enumeration visits C(N, m)
    subsets without replacement, or C(N + m - 1, m) multisets with
    replacement, each weighted by its multinomial probability.  When that
    count is at most `budget` (10^6 by default) the mean is exact and
    std_error is 0; budget = 0 always takes Monte Carlo (verify-bounds
    passes it, so its centres carry a standard error).  Otherwise
    `trials` suprema are drawn from `rng`, and the sample mean is reported
    with std_error = sample std / sqrt(trials); with trials = 0 the call
    raises OracleScaleError.  The provenance records the route ("exact" or
    "monte_carlo"), the enumeration size, the budget and the trials drawn.
    """
    scheme.validate_for(fc.n_points)
    n, m = fc.n_points, scheme.m
    without = scheme.mode is SampleMode.WITHOUT_REPLACEMENT
    size = math.comb(n, m) if without else math.comb(n + m - 1, m)
    provenance = {"route": "exact", "enumeration_size": size, "budget": budget, "trials": 0}
    if size <= budget:
        return SupremumStats(_exact_mean(fc, scheme), 0.0, provenance)
    if trials < 1:
        kind = "subsets" if without else "multisets"
        raise OracleScaleError(
            f"{size} {kind} exceed the enumeration budget {budget}"
            " and no Monte Carlo trials were given"
        )
    if rng is None:
        raise ConfigurationError("Monte Carlo needs an rng")
    draws = simulate_suprema(fc, scheme, trials, rng)
    se = float(draws.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    provenance.update(route="monte_carlo", trials=trials)
    return SupremumStats(float(draws.mean()), se, provenance)
