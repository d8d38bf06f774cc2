"""Finite function classes and suprema of their empirical processes.

A class is an M x N table: row j holds the values of f_j on the population.
Centered classes (row means zero, entries in [-1, 1]) are the objects the
concentration inequalities speak about.  Q denotes the supremum over rows
of the sum of values on a sample; the with-replacement and
without-replacement variants differ only in how the sample is drawn.

Points with identical columns form a level set, and Q depends on a sample
only through its count vector over the level sets: exact_law lists them
all, and Monte Carlo draws them when a class has few level sets.  The
population, where every point is its own level set, is the general case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import gammaln, logsumexp

from .errors import ConfigurationError, OracleScaleError
from .ground_set import (
    RngStream,
    SampleMode,
    SampleScheme,
    block_generators,
    sample_counts,
    sample_level_counts,
)

CENTER_TOL = 1e-12
#: expected_sup is exact when the class has at most this many count
#: vectors over its level sets, and runs Monte Carlo otherwise
DEFAULT_ENUM_BUDGET = 10**6
#: Monte Carlo samples a class with L level sets over those sets when
#: LEVEL_RATIO * L <= N without replacement or LEVEL_RATIO * L <= min(N, m)
#: with replacement (m indices).  A level sample draws one hypergeometric
#: or binomial variate per set.  Against a population sample by Floyd's
#: algorithm (one 10^4-row block, M = 2, N from 100 to 4000), the level
#: path was 1.4-5.2x faster in every shape timed with m >= N / 2 or
#: L <= N / 50.  At m = N / 10 with L near N / 32 it was slower: 0.7x at
#: N = 1000 and 4000, 0.9x at N = 100, L = 3, and 0.7-1.2x from run to
#: run at N = 400, L = 12.
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
    def level_sets(self) -> LevelSets:
        """The table's identical columns merged into L level sets."""
        # points with equal projections w @ v form the candidate sets:
        # sorting N projections finds them without sorting columns, and the
        # comparison below confirms that each set's points share its column
        weights = np.sqrt(np.arange(2.0, self.n_functions + 2.0))
        _, first, inverse, sizes = np.unique(
            weights @ self.values, return_index=True, return_inverse=True, return_counts=True
        )
        columns = self.values[:, first]
        if not np.array_equal(columns[:, inverse], self.values):
            # distinct columns share a projection: keep the population
            return LevelSets(np.ones(self.n_points, dtype=sizes.dtype), self.values)
        return LevelSets(sizes, columns)


@dataclass(frozen=True)
class SupremumStats:
    """An expected supremum, its standard error (0 when exact) and how it
    was obtained: provenance holds route ("exact" or "monte_carlo"),
    enumeration_size, budget and trials (see expected_sup)."""

    mean: float | np.ndarray
    std_error: float | np.ndarray
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


def sup_sums(values: np.ndarray, counts, ends=None) -> np.ndarray:
    """Per sample (row of a count matrix), the sup over the rows of the
    (M, N) table `values` of the count-weighted sum C V^T, or with `ends`
    (prefix lengths >= 1) over each prefix of the rows: the running max,
    taken in place, at the prefix's end.  The plain sup is the prefix that
    ends at the last row, which a max finds 4x faster at M = 64."""
    sums = np.asarray(counts @ values.T)
    if ends is None:
        return sums.max(axis=1)
    return np.maximum.accumulate(sums, axis=1, out=sums)[:, np.asarray(ends) - 1]


def class_variance(fc: FunctionClass) -> float:
    """sigma^2: max over rows of the population mean of squared values."""
    if not fc.centered:
        raise ConfigurationError("class variance is defined for centered classes")
    return float((fc.values**2).mean(axis=1).max())


def _vector_count(sizes: np.ndarray, m: int, mode: SampleMode) -> int:
    """How many count vectors over level sets of these sizes sum to m (with
    k_i <= sizes[i] without replacement): the x^m coefficient of
    prod_i (1 - x^(cap_i + 1)) / (1 - x)^L, where only caps below m bind."""
    poly = {0: 1}  # the binding factors multiplied out, one size at a time
    if mode is SampleMode.WITHOUT_REPLACEMENT:
        for step, c in zip(*np.unique(sizes[sizes < m] + 1, return_counts=True)):
            product: dict = {}
            for t in range(min(c, m // step) + 1):  # (1 - x^step)^c, term by term
                term = (-1) ** t * math.comb(c, t)
                for j, a in poly.items():
                    if j + t * step <= m:
                        product[j + t * step] = product.get(j + t * step, 0) + term * a
            poly = product
    return sum(a * math.comb(m - j + sizes.size - 1, m - j) for j, a in poly.items())


def _ragged(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, v) for every v in range(start[i], stop[i]), for every i."""
    owner = np.repeat(np.arange(stop.size), stop - start)
    return owner, np.arange(owner.size) - (np.cumsum(stop - start) - stop)[owner]


@lru_cache(maxsize=32)  # a few (sizes, m, mode) keys recur across a run
def _count_vectors(sizes: tuple, m: int, mode: SampleMode) -> tuple[csr_matrix, np.ndarray]:
    """The count vectors over level sets of these sizes that sum to m, as
    sparse rows, and their probabilities.  A vector grows one nonzero entry
    at a time, in set order, while the later sets can take the rest of m;
    its log-weight (log C(s, k), or k log s - log k!, per entry) with it."""
    s, without = np.array(sizes), mode is SampleMode.WITHOUT_REPLACEMENT
    caps = np.minimum(s, m) if without else np.full(s.size, m)
    tail = np.append(np.cumsum(caps[::-1])[::-1], 0)  # tail[j] = sum(caps[j:])
    sets = vals = np.zeros((1, 0), np.int32)
    nxt, rem, logw, done = np.zeros(1, int), np.array([m]), np.zeros(1), []
    while rem.size:
        # k points of a set j >= nxt with tail[j] >= rem, leaving rem - k <= tail[j + 1]
        p, j = _ragged(nxt, np.searchsorted(-tail, -rem, side="right"))
        q, k = _ragged(np.maximum(1, rem[p] - tail[j + 1]), np.minimum(caps[j], rem[p]) + 1)
        p, j, k = p[q], j[q].astype(np.int32), k.astype(np.int32)
        pick = gammaln(s[j] + 1.0) - gammaln(s[j] - k + 1.0) if without else k * np.log(s[j])
        rem, logw = rem[p] - k, logw[p] + pick - gammaln(k + 1.0)
        end, go = rem == 0, rem > 0
        finished = np.column_stack([sets[p[end]], j[end]]), np.column_stack([vals[p[end]], k[end]])
        done.append((*finished, logw[end]))
        sets, vals = np.column_stack([sets[p[go]], j[go]]), np.column_stack([vals[p[go]], k[go]])
        nxt, rem, logw = j[go] + 1, rem[go], logw[go]
    lengths = np.repeat(np.arange(1, len(done) + 1), [w.size for *_, w in done])  # block d: d each
    indptr = np.append(0, np.cumsum(lengths))
    sets, vals, logw = (np.concatenate([part.ravel() for part in parts]) for parts in zip(*done))
    del done, finished  # free the blocks before the float copy below
    weights = np.exp(logw - logsumexp(logw))
    weights.setflags(write=False)  # cached: callers share it
    return csr_matrix((vals.astype(float), sets, indptr), (indptr.size - 1, s.size)), weights


def exact_law(fc: FunctionClass, scheme: SampleScheme, ends=None) -> tuple[np.ndarray, np.ndarray]:
    """The law of Q: (sups, weights) over every count vector k of the level
    sets with sum m (k_i <= s_i without replacement), weighted by
    prod C(s_i, k_i) / C(N, m) without replacement, m!/prod k_i! prod
    (s_i/N)^k_i with.  E[Q] = weights @ sups; P{Q >= x} sums weights.
    `ends` gives sups a column per row prefix (see sup_sums)."""
    scheme.validate_for(fc.n_points)
    levels = fc.level_sets
    counts, weights = _count_vectors(tuple(levels.sizes.tolist()), scheme.m, scheme.mode)
    return sup_sums(levels.columns, counts, ends), weights


def simulate_suprema(
    fc: FunctionClass,
    scheme: SampleScheme,
    trials: int,
    rng: RngStream,
    ends=None,
) -> np.ndarray:
    """Draw `trials` independent suprema (per row prefix with `ends`, see
    sup_sums), vectorized in blocks of ground_set.BLOCK_ROWS trials.

    A supremum depends on a sample only through how many points it takes
    from each level set, so a class with few level sets (see LEVEL_RATIO)
    draws those counts directly; any other class draws samples of the
    population.  Block b uses rng.substream(b), so the result is
    bit-identical however the blocks are scheduled.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    m, mode, levels, n = scheme.m, scheme.mode, fc.level_sets, fc.n_points
    population_draws = n if mode is SampleMode.WITHOUT_REPLACEMENT else min(n, m)
    if LEVEL_RATIO * levels.sizes.size <= population_draws:
        table, draw = levels.columns, partial(sample_level_counts, levels.sizes)
    else:
        table, draw = fc.values, partial(sample_counts, n)
    blocks = block_generators(trials, rng)
    sups = [sup_sums(table, draw(m, rows, mode, gen), ends) for rows, gen in blocks]
    return np.concatenate(sups)


def expected_sup(
    fc: FunctionClass,
    scheme: SampleScheme,
    trials: int = 0,
    rng: Optional[RngStream] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    ends=None,
) -> SupremumStats:
    """E[Q] for the sampling scheme, from exact_law or Monte Carlo: floats,
    or with `ends` arrays over the row prefixes from one law or draw.

    The route is decided once, by counting the vectors exact_law would
    list: C(N, m) or C(N + m - 1, m) on distinct columns, at most m + 1
    for the antipodal class.  Within `budget` the mean is exact, std_error 0;
    budget = 0 always takes Monte Carlo (verify-bounds passes it).  Else
    `trials` draws from `rng` give the mean and std_error = sample std /
    sqrt(trials); with trials = 0 it raises OracleScaleError, and trials < 0
    is a ConfigurationError on either route.  provenance holds route
    ("exact" or "monte_carlo"), enumeration_size (the count), budget and
    trials.
    """
    if trials < 0:
        raise ConfigurationError(f"trials must be >= 0, got {trials}")
    scheme.validate_for(fc.n_points)
    levels = fc.level_sets
    size = _vector_count(levels.sizes, scheme.m, scheme.mode)
    provenance = {"route": "exact", "enumeration_size": size, "budget": budget, "trials": 0}
    if size <= budget:
        sups, weights = exact_law(fc, scheme, ends)
        mean, se = weights @ sups, np.zeros(np.shape(ends))
    elif trials < 1:
        raise OracleScaleError(
            f"{size} count vectors over {levels.sizes.size} level sets exceed the"
            f" enumeration budget {budget} and no Monte Carlo trials were given"
        )
    elif rng is None:
        raise ConfigurationError("Monte Carlo needs an rng")
    else:
        draws = simulate_suprema(fc, scheme, trials, rng, ends=ends)
        mean = draws.mean(axis=0)
        se = draws.std(ddof=1, axis=0) / math.sqrt(trials) if trials > 1 else np.zeros_like(mean)
        provenance.update(route="monte_carlo", trials=trials)
    if ends is None:  # one supremum: plain floats for the callers
        mean, se = float(mean), float(se)
    return SupremumStats(mean, se, provenance)
