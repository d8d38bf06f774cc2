"""Finite function classes and suprema of their empirical processes.

A class is an M x N table: row j holds the values of f_j on the population.
Centered classes (row means zero, entries in [-1, 1]) are the objects the
concentration inequalities speak about.  Q denotes the supremum over rows
of the sum of values on a sample; the with-replacement and
without-replacement variants differ only in how the sample is drawn.

Points with identical columns form a level set, and Q depends on a sample
only through its count vector over the level sets.  law_blocks lists them
all, and draw_blocks draws them, over the level sets when that costs less
than drawing samples of the population (see LEVEL_COST); no other code
lists or draws a sample.  The population, where every point is its own
level set, is the general case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterator, NamedTuple, Optional

import numpy as np
from scipy.sparse import csr_array, csr_matrix, issparse
from scipy.special import gammaln, logsumexp

from . import ground_set
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
#: Monte Carlo draws a class's counts over its L level sets, not samples
#: of its N points, when that is the cheaper draw.  A level sample takes
#: L - 1 variates (hypergeometric without replacement, binomial with); the
#: first is set against the population path's fixed cost (a sparse count
#: matrix and product).  Counted in with-replacement index draws, the
#: population path draws m indices with replacement, and without takes
#: s = min(m, N - m) Floyd steps plus, for m > N / 2, a complement pass of
#: about one unit per point:
#:   with:     LEVEL_COST * (L - 2) <= m
#:   without:  LEVEL_COST * (L - 2) <= FLOYD_COST * s + N [m > N / 2]
#: Fitted to the time of one 10^4-row block in 63 shapes (M = 2, N from 20
#: to 4000; table in CHANGES.md): the slower path in 3 of them, by at most
#: 1.13x.  Two level sets, as in the antipodal class, always qualify.
#: FLOYD_COST was fitted when every Floyd step looked its pick up in a
#: bitmap; short subsets now compare picks (ground_set.COMPARE_STEPS) and
#: cost less per step.  It is left as fitted on purpose: a refit moves
#: classes between the level and population paths, and so moves the draws.
LEVEL_COST = 24
FLOYD_COST = 6
#: Monte Carlo draws Q from exact_law, one uniform per trial inverted on
#: the cumulative weights by an indexed search (_inverse_cdf, the atoms
#: Generator.choice draws), when LAW_COST times the class's count vectors
#: are at most min(trials, BLOCK_ROWS): listing the law then costs about
#: as much as drawing the counts of one block, and less once it is cached.
#: Fitted to the time of one 10^4-row block at L = 2 to 6 level sets with
#: Generator.choice, and timed again with the indexed search (tables in
#: CHANGES.md).  At up to 0.33 vectors per row, with the law listed
#: afresh, it took 0.27-0.80x the level path's time, except with
#: replacement at L = 2 (one binomial per row: 0.57-0.93x up to 500
#: vectors, 1.20-2.48x at 901 and 2 500), and 0.49-1.44x the population
#: path's at the small m where L = 4 to 6 take that path; with the law
#: cached, 0.06-0.35x all of these, and 0.12-0.57x the binomials.  At one
#: vector per row it took up to 7.4x with the law afresh.  The value stays
#: as fitted: a new one would move classes between paths, and their draws.
LAW_COST = 4


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


def count_sums(values: np.ndarray, counts) -> np.ndarray:
    """C V^T for a count matrix C (a sample per row) and the (M, N) table
    `values`, held as (M, samples): the one product of a sample block with
    a table.  Dense (level) counts multiply a sparse copy of `values`, so
    each sum adds its terms in the order, and with the rounding, of the CSR
    product that sparse counts take: the same counts give the same sums,
    drawn or listed, where a BLAS product would fuse multiply-adds."""
    if issparse(counts):
        return np.asarray(counts @ values.T).T
    n_funcs, width = values.shape
    columns = np.tile(np.arange(width), n_funcs)
    table = csr_array((values.ravel(), columns, width * np.arange(n_funcs + 1)), values.shape)
    return table @ counts.T


def sup_sums(values: np.ndarray, counts, ends=None) -> np.ndarray:
    """Per sample (row of a count matrix), the sup over the rows of the
    (M, N) table `values` of the count-weighted sum (count_sums), or with
    `ends` (prefix lengths >= 1) over each prefix of the rows: the running
    max, taken in place, at the prefix's end.  The plain sup is the prefix
    that ends at the last row, which a max finds 4x faster at M = 64.
    Either reduces along the sample axis, contiguous for dense counts: a
    max across each row of a C-ordered (10^4, 2) block cost 70x more."""
    sums = count_sums(values, counts)
    if ends is None:
        return sums.max(axis=0)
    for j in range(1, len(sums)):  # 4x faster than np.maximum.accumulate at (4, 2002)
        np.maximum(sums[j], sums[j - 1], out=sums[j])
    return sums[np.asarray(ends) - 1].T


def class_variance(fc: FunctionClass) -> float:
    """sigma^2: max over rows of the population mean of squared values."""
    if not fc.centered:
        raise ConfigurationError("class variance is defined for centered classes")
    return float((fc.values**2).mean(axis=1).max())


# a report asks for one key several times, through law_size from sup_route,
# split_route and simulate_suprema
@lru_cache(maxsize=32)
def _vector_count(sizes: tuple, m: int, mode: SampleMode) -> int:
    """How many count vectors over level sets of these sizes sum to m (with
    k_i <= sizes[i] without replacement): the x^m coefficient of the
    product over sets of 1 + x + ... + x^cap_i.  Without replacement the c
    one-point sets give (1 + x)^c, and the L' larger ones
    prod (1 - x^(size + 1)) / (1 - x)^L', where only sizes below m bind: a
    population counts C(N, m) from one product, and with replacement every
    set gives 1 / (1 - x)."""
    sizes = np.array(sizes)
    if mode is SampleMode.WITH_REPLACEMENT:
        return math.comb(m + sizes.size - 1, m)
    ones, sizes = int(np.sum(sizes == 1)), sizes[sizes > 1]
    poly = {0: 1}  # (1 + x)^ones, then the binding factors, one size at a time
    for t in range(min(ones, m)):
        poly[t + 1] = poly[t] * (ones - t) // (t + 1)
    for step, c in zip(*np.unique(sizes[sizes < m] + 1, return_counts=True)):
        product: dict = {}
        for t in range(min(c, m // step) + 1):  # (1 - x^step)^c, term by term
            term = (-1) ** t * math.comb(c, t)
            for j, a in poly.items():
                if j + t * step <= m:
                    product[j + t * step] = product.get(j + t * step, 0) + term * a
        poly = product
    if not sizes.size:
        return poly.get(m, 0)
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


def law_size(fc: FunctionClass, scheme: SampleScheme) -> int:
    """How many count vectors law_blocks lists, counted without a list."""
    return _vector_count(tuple(fc.level_sets.sizes.tolist()), scheme.m, scheme.mode)


def law_blocks(fc: FunctionClass, scheme: SampleScheme) -> Iterator[tuple]:
    """The law of a sample's count vector k over fc's level sets, as (level
    columns, counts, weights) per block of at most ground_set.BLOCK_ROWS
    vectors: each k with sum m (k_i <= s_i without replacement), weighted
    by prod C(s_i, k_i) / C(N, m) without replacement, m!/prod k_i! prod
    (s_i/N)^k_i with.  The cached, read-only law, in row slices if longer
    than a block."""
    scheme.validate_for(fc.n_points)
    levels = fc.level_sets
    counts, weights = _count_vectors(tuple(levels.sizes.tolist()), scheme.m, scheme.mode)
    rows, step = weights.size, ground_set.BLOCK_ROWS
    if rows <= step:  # the cached law itself: a row slice copies
        yield levels.columns, counts, weights
        return
    for start in range(0, rows, step):
        yield levels.columns, counts[start : start + step], weights[start : start + step]


def draw_blocks(fc: FunctionClass, scheme: SampleScheme, rows: int, rng: RngStream) -> Iterator:
    """`rows` uniform samples, as (table, counts, None) per block of at most
    ground_set.BLOCK_ROWS, block b from rng.substream(b): counts over the
    level sets, with their columns as table, when they cost less to draw
    than samples of the population (see LEVEL_COST), else over the points
    of fc.values.  None stands for law_blocks' weights: drawn rows weigh
    alike."""
    scheme.validate_for(fc.n_points)
    m, mode, levels, n = scheme.m, scheme.mode, fc.level_sets, fc.n_points
    population_cost = m
    if mode is SampleMode.WITHOUT_REPLACEMENT:
        population_cost = FLOYD_COST * min(m, n - m) + (n if 2 * m > n else 0)
    if LEVEL_COST * (levels.sizes.size - 2) <= population_cost:
        table, draw = levels.columns, partial(sample_level_counts, levels.sizes)
    else:
        table, draw = fc.values, partial(sample_counts, n)
    for count, gen in block_generators(rows, rng):
        yield table, draw(m, count, mode, gen), None


def exact_law(fc: FunctionClass, scheme: SampleScheme, ends=None) -> tuple[np.ndarray, np.ndarray]:
    """The law of Q: (sups, weights) over the count vectors of law_blocks,
    reduced a block at a time.  E[Q] = weights @ sups; P{Q >= x} sums
    weights, read-only.  `ends` gives sups a column per row prefix (see
    sup_sums)."""
    law = [(sup_sums(table, counts, ends), w) for table, counts, w in law_blocks(fc, scheme)]
    if len(law) == 1:
        return law[0]
    sups, weights = map(np.concatenate, zip(*law))
    weights.setflags(write=False)
    return sups, weights


def _guide_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generator.choice's cumulative weights, after its checks of p (a
    ValueError), and the guide table of an indexed search over them (Chen
    & Asau, 1974): cell g of the smallest power of two cells >= 4K holds
    the number of breakpoints <= g / cells."""
    if weights.min() < 0:
        raise ValueError("probabilities are not non-negative")
    if not abs(weights.sum() - 1.0) <= math.sqrt(np.finfo(float).eps):  # NaN fails too
        raise ValueError("probabilities do not sum to 1")
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    cells = 1 << (4 * cdf.size - 1).bit_length()
    # c <= g / cells iff g >= ceil(c * cells), a product exact for a power of
    # two: counted in O(K + cells), not searched for each cell
    starts = np.bincount(np.ceil(cdf * cells).astype(np.intp), minlength=cells + 1)
    return cdf, starts.cumsum()[:cells]


def _inverse_cdf(cdf: np.ndarray, first: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right"), the atoms Generator.choice draws
    for uniforms u.  The cell of u (u * cells is exact, cells being a power
    of two) counts the breakpoints up to its start, which is the answer
    unless one lies between that start and u: at most K / cells <= 1/4 of
    the uniforms in expectation, searched in full."""
    idx = first[(u * first.size).astype(np.intp)]
    miss = np.flatnonzero(cdf[idx] <= u)
    idx[miss] = cdf.searchsorted(u[miss], side="right")
    return idx


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
    from each level set.  A class with few count vectors next to a block
    (see LAW_COST) lists its exact_law once and draws each supremum from
    it: one uniform per trial, inverted on the cumulative weights by an
    indexed search (_inverse_cdf), so the draws are i.i.d., in trial order,
    bit for bit the law's atoms and the very atoms that gen.choice(sups,
    rows, p=weights) draws; any other class draws from draw_blocks.  Block
    b uses rng.substream(b), so the result is bit-identical however the
    blocks are scheduled.  A run touches no state but its own generators
    and arrays, so runs on distinct streams may go on separate threads (see
    experiments._concurrently) and give the same draws as in turn.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    scheme.validate_for(fc.n_points)
    if LAW_COST * law_size(fc, scheme) <= min(trials, ground_set.BLOCK_ROWS):
        sups, weights = exact_law(fc, scheme, ends)
        cdf, first = _guide_table(weights)
        blocks = block_generators(trials, rng)
        return sups[np.concatenate([_inverse_cdf(cdf, first, gen.random(n)) for n, gen in blocks])]
    blocks = draw_blocks(fc, scheme, trials, rng)
    return np.concatenate([sup_sums(table, counts, ends) for table, counts, _ in blocks])


def sup_route(fc: FunctionClass, scheme: SampleScheme, trials: int = 0) -> dict:
    """The provenance expected_sup reports for these arguments, decided
    without a draw, and its refusals: callers may check before they start
    other work."""
    if trials < 0:
        raise ConfigurationError(f"trials must be >= 0, got {trials}")
    scheme.validate_for(fc.n_points)
    size, budget = law_size(fc, scheme), DEFAULT_ENUM_BUDGET
    if size <= budget:
        return {"route": "exact", "enumeration_size": size, "budget": budget, "trials": 0}
    if trials < 1:
        raise OracleScaleError(
            f"{size} count vectors over {fc.level_sets.sizes.size} level sets exceed the"
            f" enumeration budget {budget} and no Monte Carlo trials were given"
        )
    if trials < 2:  # one draw has no standard error; 0 would pass it off as exact
        raise ConfigurationError(f"Monte Carlo needs trials >= 2 for a standard error, got {trials}")
    return {"route": "monte_carlo", "enumeration_size": size, "budget": budget, "trials": trials}


def expected_sup(
    fc: FunctionClass,
    scheme: SampleScheme,
    trials: int = 0,
    rng: Optional[RngStream] = None,
    ends=None,
) -> SupremumStats:
    """E[Q] for the sampling scheme, from exact_law or Monte Carlo: floats,
    or with `ends` arrays over the row prefixes from one law or draw.

    The route is decided once, by sup_route, counting the vectors exact_law
    would list: C(N, m) or C(N + m - 1, m) on distinct columns, at most m + 1
    for the antipodal class.  Within DEFAULT_ENUM_BUDGET the mean is exact,
    std_error 0.  Else `trials` draws from `rng` give the mean and std_error
    = sample std / sqrt(trials); with trials = 0 it raises OracleScaleError,
    and trials = 1 (no standard error) is a ConfigurationError, as is
    trials < 0 on either route.  provenance holds route ("exact" or
    "monte_carlo"), enumeration_size (the count), budget and trials.
    """
    provenance = sup_route(fc, scheme, trials)
    if provenance["route"] == "exact":
        sups, weights = exact_law(fc, scheme, ends)
        mean, se = weights @ sups, np.zeros(np.shape(ends))
    elif rng is None:
        raise ConfigurationError("Monte Carlo needs an rng")
    else:
        draws = simulate_suprema(fc, scheme, trials, rng, ends=ends)
        mean = draws.mean(axis=0)
        se = draws.std(ddof=1, axis=0) / math.sqrt(trials)
    if ends is None:  # one supremum: plain floats for the callers
        mean, se = float(mean), float(se)
    return SupremumStats(mean, se, provenance)
