"""Finite populations and uniform sampling with/without replacement.

The population is always identified with the index set {0, ..., N-1}.  A
sample is a count vector over level sets, disjoint sets of points that
split the population: how many points the sample takes from each.  A
block of k samples is a (k, L) count matrix, and every supremum in the
package is one product of such a matrix with a value table (see
empirical_process.sup_sums).  When every point is its own level set, a
block is a (k, N) sparse matrix, a 0/1 row for an m-subset and
multinomial counts for m draws with replacement, drawn by
`sample_counts`; `sample_level_counts` draws the per-set counts of larger
sets directly.

An m-subset is drawn by Floyd's algorithm, s = min(m, N - m) integers per
sample: the subset itself or, for m > N / 2, its complement.  Each step
tests its pick for membership among the sample's earlier picks: by
comparing it with each of them when the picks are the subset itself and
number at most COMPARE_STEPS, else in a (rows, N) bitmap of taken points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ConfigurationError

#: rows per block of a Monte Carlo run; block b draws from substream b, so
#: a run's draws depend on this constant
BLOCK_ROWS = 10_000

#: Floyd steps up to which a pick is compared with the row's earlier picks
#: (s^2 / 2 comparisons per row, in an (s, rows) array that stays in
#: cache) rather than looked up in a (rows, N) bitmap (one random
#: access per step into rows * N bytes); a complement (m > N / 2) keeps the
#: bitmap, which its pass reads (see _compares).  Fitted to the time of one
#: 10^4-row block at N in {100, 400, 1000, 4000} and s up to N / 2 (table in
#: CHANGES.md): comparing is the faster test up to s = 128 at every N, and
#: the slower from s = 160 at N = 400.  The draws do not depend on it.
COMPARE_STEPS = 128


class SampleMode(Enum):
    WITH_REPLACEMENT = "with_replacement"
    WITHOUT_REPLACEMENT = "without_replacement"


@dataclass(frozen=True)
class SampleScheme:
    """How to draw: mode plus sample size m."""

    mode: SampleMode
    m: int

    def validate_for(self, n: int) -> None:
        """Check that the scheme can draw from a population of n points."""
        if n < 1:
            raise ConfigurationError(f"population size must be >= 1, got {n}")
        if self.m < 1:
            raise ConfigurationError(f"sample size must be >= 1, got {self.m}")
        if self.mode is SampleMode.WITHOUT_REPLACEMENT and self.m > n:
            raise ConfigurationError(
                f"cannot draw {self.m} distinct items from population of {n}"
            )


@dataclass(frozen=True)
class RngStream:
    """A reproducible, independently-seeded random stream.

    The stream seeds its generator with SeedSequence(master_seed,
    spawn_key=(stream_index, *path)), so identical fields always yield the
    identical draw sequence and distinct ones are statistically
    independent.  Monte Carlo experiments give each block of trials its
    own substream, so results do not depend on scheduling.
    """

    master_seed: int
    stream_index: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.stream_index < 0:
            raise ConfigurationError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = (self.stream_index, *self.path)
        ss = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.default_rng(ss)

    def substream(self, index: int) -> "RngStream":
        """Derive a child stream; used to split one experiment into blocks."""
        return RngStream(self.master_seed, self.stream_index, self.path + (index,))


def counts_matrix(idx, n: int) -> csr_matrix:
    """The (k, n) count matrix of k samples given as a (k, m) index array.

    Row i counts how often each population point occurs in sample i:
    repeated indices (a with-replacement draw, a multiset) sum as
    multiplicities.
    """
    idx = np.asarray(idx)
    k, m = idx.shape
    return csr_matrix((np.ones(k * m), idx.ravel(), m * np.arange(k + 1)), shape=(k, n))


def _compares(n: int, m: int) -> bool:
    """Whether sample_counts tests the Floyd picks of an m-subset of n
    points by comparing them, not in a bitmap (see COMPARE_STEPS)."""
    return m <= min(n - m, COMPARE_STEPS)


def sample_counts(
    n: int, m: int, count: int, mode: SampleMode, gen: np.random.Generator
) -> csr_matrix:
    """Draw `count` independent uniform samples of size m as a count matrix.

    Without replacement each row is the 0/1 indicator of a uniform
    m-subset, drawn by Floyd's algorithm on all rows at once: it picks
    s = min(m, n - m) points, the subset itself or, for m > n / 2, its
    complement (m = n picks none).  Each step tests its pick against the
    row's earlier picks, compared one by one when m <= min(n - m,
    COMPARE_STEPS), otherwise looked up in a (count, n) table of taken
    points, which is freed before the count matrix is built.  The two
    tests give the same subsets from the same draws.  With replacement
    each row holds the multinomial counts of m i.i.d. uniform indices.
    """
    SampleScheme(mode, m).validate_for(n)
    if mode is SampleMode.WITH_REPLACEMENT:
        return counts_matrix(gen.integers(0, n, size=(count, m), dtype=np.int32), n)
    # step j draws t uniform in [0, j] and takes j in its place when t is
    # already taken
    if _compares(n, m):
        # int16 picks where they fit: the comparisons read half the bytes
        picks = np.empty((m, count), dtype=np.int16 if n <= np.iinfo(np.int16).max else np.int32)
        for i, j in enumerate(range(n - m, n)):
            t = picks[i]
            t[:] = gen.integers(0, j + 1, size=count)
            t[(picks[:i] == t).any(axis=0)] = j
        return counts_matrix(picks.T, n)
    s = min(m, n - m)
    taken = np.zeros(count * n, dtype=bool)
    offsets = np.arange(count) * n
    picks = np.empty((s, count), dtype=np.int32)
    for i, j in enumerate(range(n - s, n)):
        t = gen.integers(0, j + 1, size=count)
        t[taken[offsets + t]] = j
        taken[offsets + t] = True
        picks[i] = t
    idx = picks.T
    if s < m:  # the sample is the complement of the picks
        np.logical_not(taken, out=taken)
        columns = np.broadcast_to(np.arange(n, dtype=np.int32), (count, n))
        idx = columns[taken.reshape(count, n)].reshape(count, m)
    del taken
    return counts_matrix(idx, n)


def sample_level_counts(
    sizes: np.ndarray, m: int, count: int, mode: SampleMode, gen: np.random.Generator
) -> np.ndarray:
    """Draw `count` uniform samples of size m from a population split into
    level sets of the given sizes, as a (count, L) matrix of how many
    points each sample takes from each set.

    Without replacement the rows are multivariate hypergeometric, with
    replacement multinomial with probabilities sizes / N: the laws of the
    per-set counts of `sample_counts` rows.
    """
    n = int(sizes.sum())
    SampleScheme(mode, m).validate_for(n)
    if mode is SampleMode.WITH_REPLACEMENT:
        return gen.multinomial(m, sizes / n, size=count)
    return gen.multivariate_hypergeometric(sizes, m, size=count, method="marginals")


def block_generators(count: int, rng: RngStream) -> Iterator[tuple[int, np.random.Generator]]:
    """(rows, generator) for each block of at most BLOCK_ROWS of `count` rows.

    Block b draws from rng.substream(b), so the draws do not depend on how
    the blocks are scheduled.
    """
    for b, start in enumerate(range(0, count, BLOCK_ROWS)):
        yield min(BLOCK_ROWS, count - start), rng.substream(b).generator()
