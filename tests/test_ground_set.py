import math
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from scipy.stats import multinomial, multivariate_hypergeom

from sworlab import ground_set
from sworlab.errors import ConfigurationError
from sworlab.ground_set import (
    RngStream,
    SampleMode,
    SampleScheme,
    block_generators,
    counts_matrix,
    sample_counts,
    sample_level_counts,
)

WITHOUT = SampleMode.WITHOUT_REPLACEMENT
WITH = SampleMode.WITH_REPLACEMENT


def subset_frequencies(counts) -> Counter:
    """How often each distinct 0/1 row (an unordered subset) occurs."""
    return Counter(map(tuple, counts.toarray().astype(int).tolist()))


def test_singleton_population_both_modes():
    for mode in (WITH, WITHOUT):
        counts = sample_counts(1, 1, 1, mode, RngStream(7).generator())
        assert counts.toarray().tolist() == [[1.0]]


def test_exhaustive_sample_is_permutation():
    counts = sample_counts(4, 4, 3, WITHOUT, RngStream(3).generator())
    assert np.array_equal(counts.toarray(), np.ones((3, 4)))


def test_determinism_same_stream_same_draw():
    a = sample_counts(50, 20, 5, WITHOUT, RngStream(11, 4).generator()).toarray()
    b = sample_counts(50, 20, 5, WITHOUT, RngStream(11, 4).generator()).toarray()
    assert np.array_equal(a, b)
    c = sample_counts(50, 20, 5, WITHOUT, RngStream(11, 5).generator()).toarray()
    assert not np.array_equal(a, c)


def test_invalid_schemes_rejected():
    gen = RngStream(0).generator()
    with pytest.raises(ConfigurationError):
        sample_counts(3, 4, 1, WITHOUT, gen)
    with pytest.raises(ConfigurationError):
        sample_counts(3, 0, 1, WITH, gen)
    with pytest.raises(ConfigurationError):
        SampleScheme(WITH, 1).validate_for(0)


def test_pair_frequencies_uniform():
    # N=4, m=2: each of the 6 unordered pairs should appear with freq 1/6 +- 0.01
    draws = 60_000
    gen = RngStream(2024).generator()
    counts = subset_frequencies(sample_counts(4, 2, draws, WITHOUT, gen))
    assert len(counts) == 6
    for pair, c in counts.items():
        assert abs(c / draws - 1 / 6) < 0.01, (pair, c)


@pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (6, 3), (9, 2), (9, 7), (12, 3), (5, 5)])
def test_subset_uniformity_four_sigma(n, m):
    draws = 50_000
    p = 1 / math.comb(n, m)
    tol = 4 * math.sqrt(p * (1 - p) / draws)
    gen = RngStream(99).generator()
    counts = subset_frequencies(sample_counts(n, m, draws, WITHOUT, gen))
    assert len(counts) == math.comb(n, m)
    for c in counts.values():
        assert abs(c / draws - p) <= tol


def test_batch_sampler_uniform_and_shaped():
    counts = sample_counts(4, 2, 60_000, WITHOUT, np.random.default_rng(5))
    assert counts.shape == (60_000, 4)
    freqs = subset_frequencies(counts)
    assert len(freqs) == 6
    for c in freqs.values():
        assert abs(c / 60_000 - 1 / 6) < 0.01


@pytest.mark.parametrize("mode", [WITH, WITHOUT])
@pytest.mark.parametrize("n,m", [(1, 1), (7, 3), (10, 10), (30, 29)])
def test_sample_counts_rows_sum_to_m(mode, n, m):
    dense = sample_counts(n, m, 200, mode, np.random.default_rng(n + m)).toarray()
    assert dense.shape == (200, n)
    assert np.all(dense.sum(axis=1) == m)
    assert np.all(dense >= 0)
    if mode is WITHOUT:
        assert np.all((dense == 0) | (dense == 1))


def floyd_reference(n, m, k, gen):
    """k subsets by Floyd's algorithm, one row at a time, drawing each
    step's k integers as one vector as the sampler does."""
    s = min(m, n - m)
    rows = [set() for _ in range(k)]
    for j in range(n - s, n):
        for row, t in zip(rows, gen.integers(0, j + 1, size=k).tolist()):
            row.add(j if t in row else t)
    if s < m:
        rows = [set(range(n)) - row for row in rows]
    return [sorted(row) for row in rows]


@pytest.mark.parametrize(
    "n,m",
    [(5, 1), (9, 2), (9, 7), (10, 5), (12, 4), (100, 50), (100, 90), (400, 40), (6, 6)],
)
def test_sample_counts_selects_the_floyd_subsets(n, m):
    # same subsets as plain Floyd on the same generator state
    k = 300
    counts = sample_counts(n, m, k, WITHOUT, np.random.default_rng(42))
    ref = floyd_reference(n, m, k, np.random.default_rng(42))
    got = [np.flatnonzero(row).tolist() for row in counts.toarray()]
    assert got == ref


class AllDrawSequences:
    """A generator stub: row r of integers(0, j + 1, size=count) is step j
    of the r-th of all prod(j + 1) draw sequences of Floyd's s steps."""

    def __init__(self, n, s):
        self.first = n - s
        self.sequences = np.array(list(product(*(range(j + 1) for j in range(n - s, n)))))

    def integers(self, low, high, size):
        assert low == 0 and size == len(self.sequences)
        return self.sequences[:, high - 1 - self.first].copy()


@pytest.mark.parametrize("n,m,multiplicity", [(9, 2, 2), (9, 7, 2), (8, 4, 24), (9, 5, 24)])
def test_floyd_route_draws_every_subset_equally_often(n, m, multiplicity):
    # the N! / (N - s)! equally likely sequences of s = min(m, N - m) steps
    # map onto the C(N, m) subsets, each N! / (N - s)! / C(N, m) = s! times,
    # for the subset and its complement
    gen = AllDrawSequences(n, min(m, n - m))
    counts = sample_counts(n, m, len(gen.sequences), WITHOUT, gen)
    freqs = subset_frequencies(counts)
    subsets = {tuple(int(i in c) for i in range(n)) for c in combinations(range(n), m)}
    assert set(freqs) == subsets
    assert set(freqs.values()) == {multiplicity}


def test_floyd_inclusion_frequencies_four_sigma():
    # each of N = 400 points lies in an m = 40 subset with probability m / N
    n, m, draws = 400, 40, 10_000
    counts = sample_counts(n, m, draws, WITHOUT, RngStream(400).generator())
    p = m / n
    freq = np.asarray(counts.sum(axis=0)).ravel() / draws
    assert np.all(np.abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / draws))


@pytest.mark.parametrize("m,limit_mb", [(40, 16), (200, 40), (220, 40), (360, 61)])
def test_traced_peak_of_a_block_stays_small(m, limit_mb):
    # one 10^4-row block at N = 400: Floyd's (rows, N) mask, the picks or
    # the complement's indices, and the count matrix
    tracemalloc.start()
    try:
        counts = sample_counts(400, m, 10_000, WITHOUT, RngStream(1).generator())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.nnz == 10_000 * m
    assert peak <= limit_mb * 2**20


def test_sample_counts_with_replacement_counts_the_integer_draws():
    k, n, m = 300, 6, 9
    counts = sample_counts(n, m, k, WITH, np.random.default_rng(8)).toarray()
    idx = np.random.default_rng(8).integers(0, n, size=(k, m))
    expected = [np.bincount(row, minlength=n) for row in idx]
    assert np.array_equal(counts, np.array(expected))


def test_counts_matrix_sums_repeats_as_multiplicities():
    counts = counts_matrix(np.array([[0, 0, 2], [1, 2, 3]]), 4)
    assert counts.toarray().tolist() == [[2, 0, 1, 0], [0, 1, 1, 1]]
    empty = counts_matrix(np.zeros((1, 0), dtype=int), 3)
    assert empty.toarray().tolist() == [[0, 0, 0]]


def test_block_generators_draw_from_substreams(monkeypatch):
    monkeypatch.setattr(ground_set, "BLOCK_ROWS", 10)
    rng = RngStream(5, 2)
    blocks = [sample_counts(9, 4, rows, WITHOUT, gen) for rows, gen in block_generators(25, rng)]
    assert [b.shape[0] for b in blocks] == [10, 10, 5]
    for i, block in enumerate(blocks):
        size = block.shape[0]
        ref = sample_counts(9, 4, size, WITHOUT, rng.substream(i).generator())
        assert np.array_equal(block.toarray(), ref.toarray())


def test_substreams_are_reproducible():
    s = RngStream(123, 9)
    a = s.substream(3).generator().random(4)
    b = s.substream(3).generator().random(4)
    assert np.array_equal(a, b)
    c = s.substream(4).generator().random(4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**40 + 3])
def test_stream_paths_match_seed_sequence_spawn_keys(seed):
    def ref(*key):
        ss = np.random.SeedSequence(seed, spawn_key=key)
        return np.random.default_rng(ss).random(6)

    s = RngStream(seed, 9)
    assert np.array_equal(s.generator().random(6), ref(9))
    assert np.array_equal(s.substream(3).generator().random(6), ref(9, 3))
    grandchild = s.substream(3).substream(0)
    assert np.array_equal(grandchild.generator().random(6), ref(9, 3, 0))
    assert grandchild == RngStream(seed, 9, (3, 0))


@pytest.mark.parametrize("mode", [WITH, WITHOUT])
@pytest.mark.parametrize("sizes,m", [([1], 1), ([3, 1, 4], 5), ([2, 2, 2], 6), ([500, 500], 900)])
def test_sample_level_counts_rows_sum_to_m_within_sizes(mode, sizes, m):
    sizes = np.array(sizes)
    counts = sample_level_counts(sizes, m, 300, mode, np.random.default_rng(m))
    assert counts.shape == (300, sizes.size)
    assert np.all(counts.sum(axis=1) == m)
    assert np.all(counts >= 0)
    if mode is WITHOUT:
        assert np.all(counts <= sizes)


@pytest.mark.parametrize("mode", [WITH, WITHOUT])
def test_sample_level_counts_follow_the_level_laws(mode):
    # per-set counts of a uniform sample of a population split 2 / 3 / 1:
    # multivariate hypergeometric without replacement, multinomial with
    sizes, m, draws = np.array([2, 3, 1]), 3, 60_000
    counts = sample_level_counts(sizes, m, draws, mode, np.random.default_rng(12))
    freqs = Counter(map(tuple, counts.tolist()))
    if mode is WITHOUT:
        law = multivariate_hypergeom(sizes, m)
    else:
        law = multinomial(m, sizes / sizes.sum())
    cells = [c for c in product(range(m + 1), repeat=3) if sum(c) == m]
    assert set(freqs) <= set(cells)
    for cell in cells:
        p = float(law.pmf(cell))
        if mode is WITHOUT and p == 0.0:
            assert cell not in freqs
            continue
        sd = math.sqrt(draws * p * (1 - p))
        assert abs(freqs[cell] - draws * p) <= 4 * sd, cell
