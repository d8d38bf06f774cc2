import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.stats import binom, hypergeom

from sworlab import empirical_process, ground_set
from sworlab.empirical_process import (
    DEFAULT_ENUM_BUDGET,
    FLOYD_COST,
    LAW_COST,
    LEVEL_COST,
    FunctionClass,
    _count_vectors,
    _guide_table,
    _inverse_cdf,
    _vector_count,
    center_class,
    class_variance,
    exact_law,
    expected_sup,
    simulate_suprema,
    sup_sums,
)
from sworlab.errors import ConfigurationError, OracleScaleError
from sworlab.experiments import ACCEPTANCE_GRID, make_antipodal_class
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


class TestCenterClass:
    def test_constant_row_becomes_zero(self):
        fc = center_class(np.array([[5.0, 5.0, 5.0, 5.0]]))
        assert np.allclose(fc.values, 0.0)
        assert fc.centered

    def test_symmetric_row_no_rescale(self):
        fc = center_class(np.array([[0.0, 2.0]]))
        assert np.allclose(fc.values, [[-1.0, 1.0]])

    def test_skewed_row_rescaled(self):
        fc = center_class(np.array([[0.0, 0.0, 0.0, 4.0]]))
        assert np.allclose(fc.values, [[-1 / 3, -1 / 3, -1 / 3, 1.0]])
        assert abs(fc.values.mean()) < 1e-12
        assert abs(np.abs(fc.values).max() - 1.0) < 1e-12

    def test_small_rows_not_inflated(self):
        fc = center_class(np.array([[0.1, -0.1]]))
        assert np.allclose(fc.values, [[0.1, -0.1]])

    def test_invariants_hold_for_random_tables(self):
        gen = np.random.default_rng(0)
        fc = center_class(gen.normal(scale=10, size=(7, 13)))
        assert np.abs(fc.values.mean(axis=1)).max() < 1e-12
        assert np.abs(fc.values).max() <= 1 + 1e-12


def sup_on(fc, sample) -> float:
    """The supremum over the class of the sum on one sample of indices."""
    idx = np.asarray(sample, dtype=int).reshape(1, -1)
    return float(sup_sums(fc.values, counts_matrix(idx, fc.n_points))[0])


class TestSupProcess:
    def test_empty_sample(self):
        fc = center_class(np.array([[1.0, -1.0]]))
        assert sup_on(fc, []) == 0.0

    def test_two_row_example(self):
        fc = FunctionClass(np.array([[-1.0, 1.0], [1.0, -1.0]]), centered=True)
        assert sup_on(fc, [0]) == 1.0

    def test_matches_bruteforce_over_subsets(self):
        gen = np.random.default_rng(1)
        fc = center_class(gen.uniform(-1, 1, size=(3, 4)))
        for subset in combinations(range(4), 2):
            expected = max(sum(fc.values[j, i] for i in subset) for j in range(3))
            assert sup_on(fc, list(subset)) == pytest.approx(expected)


class TestClassVariance:
    def test_zero_class(self):
        fc = FunctionClass(np.zeros((2, 3)), centered=True)
        assert class_variance(fc) == 0.0

    def test_full_range_row(self):
        fc = FunctionClass(np.array([[-1.0, 1.0]]), centered=True)
        assert class_variance(fc) == 1.0

    def test_skewed_row(self):
        fc = FunctionClass(np.array([[-1 / 3, -1 / 3, -1 / 3, 1.0]]), centered=True)
        assert class_variance(fc) == pytest.approx(1 / 3)

    def test_requires_centered(self):
        with pytest.raises(ConfigurationError):
            class_variance(FunctionClass(np.ones((1, 2))))


def brute_mean_without(fc, m):
    n = fc.n_points
    vals = [
        max(fc.values[j, list(s)].sum() for j in range(fc.n_functions))
        for s in combinations(range(n), m)
    ]
    return float(np.mean(vals))


def brute_mean_with(fc, m):
    n = fc.n_points
    vals = [
        max(fc.values[j, list(s)].sum() for j in range(fc.n_functions))
        for s in product(range(n), repeat=m)
    ]
    return float(np.mean(vals))


class TestExpectedSup:
    def test_full_sample_of_single_function_is_zero(self):
        fc = center_class(np.array([[0.3, -0.2, 0.6, 0.1]]))
        stats = expected_sup(fc, SampleScheme(WITHOUT, 4))
        assert stats.mean == pytest.approx(0.0, abs=1e-12)
        assert stats.provenance["route"] == "exact" and stats.std_error == 0.0

    def test_exact_matches_bruteforce(self):
        gen = np.random.default_rng(2)
        fc = center_class(gen.uniform(-1, 1, size=(2, 4)))
        without = expected_sup(fc, SampleScheme(WITHOUT, 2))
        with_ = expected_sup(fc, SampleScheme(WITH, 2))
        assert without.mean == pytest.approx(brute_mean_without(fc, 2))
        assert with_.mean == pytest.approx(brute_mean_with(fc, 2))

    def test_multiset_weighting_matches_product_enumeration(self):
        gen = np.random.default_rng(3)
        for n, m in [(3, 3), (4, 3), (5, 2)]:
            fc = center_class(gen.uniform(-1, 1, size=(3, n)))
            with_ = expected_sup(fc, SampleScheme(WITH, m))
            assert with_.mean == pytest.approx(brute_mean_with(fc, m), abs=1e-12)

    def test_gap_within_lemma_bound(self):
        gen = np.random.default_rng(4)
        fc = center_class(gen.uniform(-1, 1, size=(2, 4)))
        m = 2
        without = expected_sup(fc, SampleScheme(WITHOUT, m))
        with_ = expected_sup(fc, SampleScheme(WITH, m))
        gap = with_.mean - without.mean
        assert 0.0 <= gap <= 2 * m**3 / 4

    def test_domination_exact_small_scales(self):
        gen = np.random.default_rng(5)
        for n in range(2, 7):
            fc = center_class(gen.uniform(-1, 1, size=(3, n)))
            for m in range(1, n + 1):
                ew = expected_sup(fc, SampleScheme(WITHOUT, m))
                er = expected_sup(fc, SampleScheme(WITH, m))
                assert ew.mean <= er.mean + 1e-12

    def test_nonnegative_for_symmetric_class(self):
        # class containing f and -f: the sup dominates |sum| >= 0
        f = np.array([0.5, -0.5, 0.25, -0.25])
        fc = FunctionClass(np.vstack([f, -f]), centered=True)
        stats = expected_sup(fc, SampleScheme(WITHOUT, 2))
        assert stats.mean >= 0.0

    def test_budget_error(self, monkeypatch):
        fc = center_class(np.random.default_rng(6).uniform(-1, 1, size=(2, 30)))
        monkeypatch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", 100)
        with pytest.raises(OracleScaleError):
            expected_sup(fc, SampleScheme(WITHOUT, 15))

    def test_monte_carlo_within_four_se_of_exact(self, monkeypatch):
        gen = np.random.default_rng(7)
        hits = 0
        runs = 30
        for seed in range(runs):
            fc = center_class(gen.uniform(-1, 1, size=(3, 5)))
            exact = expected_sup(fc, SampleScheme(WITHOUT, 3))
            with monkeypatch.context() as patch:
                patch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", 0)
                mc = expected_sup(fc, SampleScheme(WITHOUT, 3), 4000, RngStream(seed))
            if abs(mc.mean - exact.mean) <= 4 * mc.std_error:
                hits += 1
        assert hits >= runs - 1

    def test_monte_carlo_requires_rng(self, monkeypatch):
        fc = center_class(np.array([[1.0, -1.0]]))
        monkeypatch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", 0)
        with pytest.raises(ConfigurationError, match="Monte Carlo needs an rng"):
            expected_sup(fc, SampleScheme(WITHOUT, 1), trials=10)


def _budget_class():
    return center_class(np.random.default_rng(18).uniform(-1, 1, size=(3, 6)))


class TestRouteDecision:
    """expected_sup enumerates C(6, 3) = 20 subsets or C(8, 3) = 56 multisets
    when the count fits the budget, and runs Monte Carlo otherwise; each
    test sets the budget by patching DEFAULT_ENUM_BUDGET, which expected_sup
    reads on every call."""

    SIZES = {WITHOUT: 20, WITH: 56}

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_count_equal_to_budget_is_exact(self, monkeypatch, mode):
        size = self.SIZES[mode]
        fc, scheme = _budget_class(), SampleScheme(mode, 3)
        monkeypatch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", size)
        stats = expected_sup(fc, scheme, 500, RngStream(0))
        assert stats.std_error == 0.0
        assert stats.provenance == {
            "route": "exact", "enumeration_size": size, "budget": size, "trials": 0
        }
        brute = brute_mean_without if mode is WITHOUT else brute_mean_with
        assert stats.mean == pytest.approx(brute(fc, 3), abs=1e-12)

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_count_above_budget_with_trials_is_monte_carlo(self, monkeypatch, mode):
        size = self.SIZES[mode]
        fc, scheme = _budget_class(), SampleScheme(mode, 3)
        monkeypatch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", size - 1)
        stats = expected_sup(fc, scheme, 500, RngStream(1))
        assert stats.provenance == {
            "route": "monte_carlo",
            "enumeration_size": size,
            "budget": size - 1,
            "trials": 500,
        }
        draws = simulate_suprema(fc, scheme, 500, RngStream(1))
        assert stats.mean == float(draws.mean())
        assert stats.std_error > 0.0
        assert stats.std_error == pytest.approx(draws.std(ddof=1) / math.sqrt(500))

    @pytest.mark.parametrize("budget", [0, DEFAULT_ENUM_BUDGET])
    def test_one_supremum_gives_python_floats(self, monkeypatch, budget):
        monkeypatch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", budget)
        stats = expected_sup(_budget_class(), SampleScheme(WITHOUT, 3), 500, RngStream(2))
        assert stats.provenance["route"] == ("exact" if budget else "monte_carlo")
        assert type(stats.mean) is float and type(stats.std_error) is float

    @pytest.mark.parametrize("budget", [0, DEFAULT_ENUM_BUDGET])
    def test_prefix_ends_share_one_law_or_one_draw(self, monkeypatch, budget):
        fc, scheme = _budget_class(), SampleScheme(WITH, 3)
        monkeypatch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", budget)
        curve = expected_sup(fc, scheme, 500, RngStream(3), ends=[1, 2, 3])
        assert curve.provenance["route"] == ("exact" if budget else "monte_carlo")
        assert curve.mean.shape == curve.std_error.shape == (3,)
        assert np.all(np.diff(curve.mean) >= 0)
        whole = expected_sup(fc, scheme, 500, RngStream(3))
        assert curve.mean[-1] == pytest.approx(whole.mean, rel=1e-12)
        assert curve.std_error[-1] == pytest.approx(whole.std_error, rel=1e-12)

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_count_above_budget_without_trials_raises(self, monkeypatch, mode):
        size = self.SIZES[mode]
        with monkeypatch.context() as patch:
            patch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", size - 1)
            with pytest.raises(OracleScaleError, match=f"{size} .* budget {size - 1}"):
                expected_sup(_budget_class(), SampleScheme(mode, 3))
        # the default budget refuses C(40, 20) subsets and C(29, 10) multisets
        n, m = (40, 20) if mode is WITHOUT else (20, 10)
        fc = center_class(np.random.default_rng(19).uniform(-1, 1, size=(2, n)))
        assert math.comb(n + (0 if mode is WITHOUT else m - 1), m) > DEFAULT_ENUM_BUDGET
        with pytest.raises(OracleScaleError):
            expected_sup(fc, SampleScheme(mode, m))


class TestSupSums:
    def test_matches_gather_sum(self):
        gen = np.random.default_rng(10)
        values = gen.uniform(-1, 1, size=(4, 9))
        for mode, m in [(WITHOUT, 5), (WITH, 7)]:
            counts = sample_counts(9, m, 50, mode, gen)
            idx = [np.repeat(np.arange(9), row.astype(int)) for row in counts.toarray()]
            expected = [values[:, i].sum(axis=1).max() for i in idx]
            assert np.allclose(sup_sums(values, counts), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "n_functions,ends", [(5, [1, 3, 3, 5]), (1, [1]), (64, [1, 2, 17, 17, 40, 64])]
    )
    def test_prefix_ends_give_each_prefix_sup(self, n_functions, ends):
        gen = np.random.default_rng(11)
        values = gen.uniform(-1, 1, size=(n_functions, 8))
        counts = sample_counts(8, 4, 60, WITHOUT, gen)
        per_prefix = np.column_stack([sup_sums(values[:e], counts) for e in ends])
        assert np.array_equal(sup_sums(values, counts, ends), per_prefix)
        whole = sup_sums(values, counts, [n_functions])[:, 0]
        assert np.array_equal(whole, sup_sums(values, counts))

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    @pytest.mark.parametrize("n_functions,ends", [(2, [1, 2, 2]), (64, [1, 17, 40, 64])])
    def test_dense_level_counts_match_the_same_counts_held_sparse(self, mode, n_functions, ends):
        # the dense block is reduced along its sample axis, the sparse one as
        # it always was: the same counts must give the same bits either way
        gen = np.random.default_rng(13)
        sizes = gen.integers(1, 40, size=12)
        values = gen.uniform(-1, 1, size=(n_functions, sizes.size))
        counts = sample_level_counts(sizes, 60, 500, mode, gen)
        sparse = csr_matrix(counts.astype(float))
        assert np.array_equal(sup_sums(values, counts), sup_sums(values, sparse))
        assert np.array_equal(sup_sums(values, counts, ends), sup_sums(values, sparse, ends))
        assert sup_sums(values, counts, ends).shape == (500, len(ends))

    def test_running_max_is_taken_in_place(self):
        # a second copy of the (K, M) sums would take the peak past 2 tables
        gen = np.random.default_rng(12)
        values = gen.uniform(-1, 1, size=(16, 6))
        counts = gen.integers(0, 3, size=(20_000, 6)).astype(float)
        table = counts.shape[0] * values.shape[0] * 8
        tracemalloc.start()
        try:
            sup_sums(values, counts, ends=[1, 8, 16])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_exact_antipodal_at_n1000_is_sparse_and_matches_closed_form(self, mode):
        # Q = a |2K - m| with K ~ Hypergeom(1000, 500, 2) or Bin(2, 1/2);
        # about 5e5 samples, which a dense (samples x N) matrix would need
        # some 3.8 GB to hold
        fc = make_antipodal_class(1000, 0.25)
        a, m = float(fc.values[0, 0]), 2
        law = hypergeom(1000, 500, m) if mode is WITHOUT else binom(m, 0.5)
        k = np.arange(m + 1)
        closed = a * float((law.pmf(k) * np.abs(2 * k - m)).sum())
        tracemalloc.start()
        try:
            stats = expected_sup(fc, SampleScheme(mode, m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.mean == pytest.approx(closed, abs=1e-12)
        assert peak < 256 * 2**20


class TestSimulateSuprema:
    def test_block_structure_is_schedule_independent(self, monkeypatch):
        monkeypatch.setattr(ground_set, "BLOCK_ROWS", 10)
        fc = center_class(np.random.default_rng(8).uniform(-1, 1, size=(2, 10)))
        scheme = SampleScheme(WITHOUT, 4)
        a = simulate_suprema(fc, scheme, 25, RngStream(1))
        b = simulate_suprema(fc, scheme, 25, RngStream(1))
        assert np.array_equal(a, b)

    def test_with_replacement_mode(self):
        fc = center_class(np.random.default_rng(9).uniform(-1, 1, size=(2, 6)))
        draws = simulate_suprema(fc, SampleScheme(WITH, 3), 100, RngStream(2))
        assert draws.shape == (100,)
        assert np.all(draws <= 3.0 + 1e-12)


def level_draws(fc, scheme, trials, rng):
    """The suprema simulate_suprema gives on the level path, drawn block by
    block from the level-count sampler itself."""
    levels = fc.level_sets
    blocks = [
        sample_level_counts(levels.sizes, scheme.m, rows, scheme.mode, gen)
        for rows, gen in block_generators(trials, rng)
    ]
    return np.concatenate([sup_sums(levels.columns, counts) for counts in blocks])


class TestLevelPath:
    @pytest.mark.parametrize(
        "mode,m,repeats", [(WITHOUT, 120, (48, 144, 96)), (WITH, 96, (32, 32, 32))]
    )
    def test_repeated_columns_agree_with_exact_mean(self, mode, m, repeats):
        # three distinct columns shared by the points in shuffled order
        base = center_class(np.random.default_rng(14).uniform(-1, 1, size=(4, 3)))
        order = np.random.default_rng(15).permutation(sum(repeats))
        fc = FunctionClass(np.repeat(base.values, repeats, axis=1)[:, order])
        levels = fc.level_sets
        for size, column in zip(levels.sizes, levels.columns.T):
            assert np.sum(np.all(fc.values == column[:, None], axis=0)) == size
        if mode is WITHOUT:
            exact = expected_sup(fc, SampleScheme(mode, m))
        else:
            # equal sets: m uniform draws from the 96 points take each set
            # as often as m uniform draws from its 3 columns
            exact = expected_sup(FunctionClass(base.values), SampleScheme(mode, m))
        assert exact.provenance["route"] == "exact"
        # too many count vectors for the law path (4 453 and 4 753)
        size = _vector_count(tuple(levels.sizes.tolist()), m, mode)
        assert LAW_COST * size > ground_set.BLOCK_ROWS
        trials = 20_000
        draws = simulate_suprema(fc, SampleScheme(mode, m), trials, RngStream(15))
        # the draws come from the level path
        assert np.array_equal(draws, level_draws(fc, SampleScheme(mode, m), trials, RngStream(15)))
        se = draws.std(ddof=1) / math.sqrt(trials)
        assert abs(draws.mean() - exact.mean) <= 4 * se

    @pytest.mark.parametrize("m", [100, 500, 900])
    def test_antipodal_n1000_matches_closed_form(self, monkeypatch, m):
        # Q = a |2K - m| with K ~ Hypergeom(1000, 500, m) or Bin(m, 1/2),
        # drawn by the level sampler: m + 1 vectors would take the law path
        monkeypatch.setattr(empirical_process, "LAW_COST", 10**9)
        fc = make_antipodal_class(1000, 0.1)
        a, k, trials = float(fc.values[0, 0]), np.arange(m + 1), 20_000
        assert fc.level_sets.sizes.tolist() == [500, 500]
        for mode, law in [(WITHOUT, hypergeom(1000, 500, m)), (WITH, binom(m, 0.5))]:
            closed = a * float(law.pmf(k) @ np.abs(2 * k - m))
            scheme, rng = SampleScheme(mode, m), RngStream(m)
            draws = simulate_suprema(fc, scheme, trials, rng)
            assert np.array_equal(draws, level_draws(fc, scheme, trials, rng)), mode
            se = draws.std(ddof=1) / math.sqrt(trials)
            assert abs(draws.mean() - closed) <= 5 * se, mode

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_level_draws_land_on_the_exact_atoms(self, monkeypatch, mode):
        # dense level counts add in the sparse product's order, so every draw
        # is bit for bit one of the values exact_law enumerates; 11 vectors
        # would take the law path, whose draws are the atoms by construction
        monkeypatch.setattr(empirical_process, "LAW_COST", 10**9)
        fc = make_antipodal_class(100, 0.1)
        scheme, rng = SampleScheme(mode, 10), RngStream(19)
        sups, _ = exact_law(fc, scheme)
        draws = simulate_suprema(fc, scheme, 2_000, rng)
        assert np.array_equal(draws, level_draws(fc, scheme, 2_000, rng))
        assert np.isin(draws, sups).all()

    @pytest.mark.parametrize("mode,m", [(WITHOUT, 40), (WITH, 40)])
    def test_distinct_columns_keep_the_population_draws(self, monkeypatch, mode, m):
        monkeypatch.setattr(ground_set, "BLOCK_ROWS", 10)
        fc = center_class(np.random.default_rng(16).uniform(0, 1, size=(64, 400)))
        # 400 level sets: 398 variates per sample cost more than 40 Floyd
        # steps or 40 indices, so the population path draws in both modes
        population_cost = FLOYD_COST * m if mode is WITHOUT else m
        assert LEVEL_COST * (fc.level_sets.sizes.size - 2) > population_cost
        rng = RngStream(17, 3)
        draws = simulate_suprema(fc, SampleScheme(mode, m), 25, rng)
        blocks = [sample_counts(400, m, rows, mode, gen) for rows, gen in block_generators(25, rng)]
        assert [counts.shape[0] for counts in blocks] == [10, 10, 5]
        expected = np.concatenate([sup_sums(fc.values, counts) for counts in blocks])
        assert np.array_equal(draws, expected)


def law_draws(fc, scheme, trials, rng, ends=None):
    """The suprema simulate_suprema gives on the law path: block b chooses
    its rows from exact_law with rng.substream(b)."""
    sups, weights = exact_law(fc, scheme, ends)
    blocks = block_generators(trials, rng)
    return np.concatenate([gen.choice(sups, rows, p=weights) for rows, gen in blocks])


class TestLawPath:
    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    @pytest.mark.parametrize(
        "n,frac", [(n, frac) for n in ACCEPTANCE_GRID["N"] for frac in ACCEPTANCE_GRID["m_frac"]]
    )
    def test_antipodal_grid_takes_the_law_path(self, mode, n, frac):
        # every verify-bounds shape, centres and tail alike, draws from its
        # law at 10^4 trials: at most 901 count vectors against 2 500
        fc = make_antipodal_class(n, 0.1)
        scheme = SampleScheme(mode, max(1, round(frac * n)))
        rng = RngStream(18, 5)
        draws = simulate_suprema(fc, scheme, 10_000, rng)
        assert np.array_equal(draws, law_draws(fc, scheme, 10_000, rng))

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    @pytest.mark.parametrize("ends", [None, [1, 2, 3]])
    def test_blocks_choose_from_the_exact_law(self, mode, ends):
        # 3 blocks (10^4, 10^4, 5 000) of a 3-row class on 4 level sets
        fc = repeated_columns(30, 40, 4)
        scheme = SampleScheme(mode, 12)
        assert LAW_COST * _vector_count(tuple(fc.level_sets.sizes.tolist()), 12, mode) <= 10_000
        rng = RngStream(31, 2)
        draws = simulate_suprema(fc, scheme, 25_000, rng, ends=ends)
        assert draws.shape == ((25_000,) if ends is None else (25_000, 3))
        assert np.array_equal(draws, law_draws(fc, scheme, 25_000, rng, ends))

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_each_atom_is_drawn_at_its_probability(self, mode):
        # Q = a |2K - m| takes 6 values at N = 20, m = 10; each is drawn a
        # Binomial(trials, p) number of times
        fc, trials = make_antipodal_class(20, 0.25), 100_000
        scheme = SampleScheme(mode, 10)
        sups, weights = exact_law(fc, scheme)
        draws = simulate_suprema(fc, scheme, trials, RngStream(32))
        values = np.unique(sups)
        assert values.size == 6 and np.isin(draws, values).all()
        for value in values:
            p = float(weights[sups == value].sum())
            low, high = binom.interval(1 - 1e-4, trials, p)
            assert low <= np.sum(draws == value) <= high, (value, p)

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    @pytest.mark.parametrize("m,law", [(2499, True), (2500, False)])
    def test_the_rule_admits_a_quarter_of_a_block(self, mode, m, law):
        # two level sets of 2 500 points: m + 1 count vectors, so m = 2 499
        # gives 4 x 2 500 = 10^4 = BLOCK_ROWS and m = 2 500 one vector more
        fc, rng = make_antipodal_class(5000, 0.25), RngStream(33)
        scheme = SampleScheme(mode, m)
        assert _vector_count((2500, 2500), m, mode) == m + 1
        draws = simulate_suprema(fc, scheme, 10_000, rng)
        expected = (law_draws if law else level_draws)(fc, scheme, 10_000, rng)
        assert np.array_equal(draws, expected)

    def test_the_rule_counts_short_runs_by_their_trials(self):
        fc, scheme = make_antipodal_class(20, 0.25), SampleScheme(WITH, 9)  # 10 vectors
        rng = RngStream(34)
        for trials, path in [(40, law_draws), (39, level_draws)]:
            draws = simulate_suprema(fc, scheme, trials, rng)
            assert np.array_equal(draws, path(fc, scheme, trials, rng))

    def test_draws_do_not_depend_on_the_block_schedule(self, monkeypatch):
        monkeypatch.setattr(ground_set, "BLOCK_ROWS", 100)
        fc, scheme = make_antipodal_class(20, 0.25), SampleScheme(WITHOUT, 10)  # 11 vectors
        rng = RngStream(35, 1)
        draws = simulate_suprema(fc, scheme, 250, rng)
        # the blocks drawn last to first, each from its own substream
        sups, weights = exact_law(fc, scheme)
        blocks = {
            b: rng.substream(b).generator().choice(sups, rows, p=weights)
            for b, rows in reversed(list(enumerate([100, 100, 50])))
        }
        assert np.array_equal(draws, np.concatenate([blocks[b] for b in range(3)]))


def synthetic_law(atoms, zeros=(), columns=None):
    """(sups, weights) of `atoms` atoms with random weights, the atoms in
    `zeros` weighing 0: sups a column per row prefix when `columns`."""
    gen = np.random.default_rng(atoms)
    weights = gen.dirichlet(np.ones(atoms))
    weights[list(zeros)] = 0.0
    weights /= weights.sum()
    shape = atoms if columns is None else (atoms, columns)
    return gen.uniform(-1, 1, size=shape), weights


SYNTHETIC_LAWS = {
    "one_atom": synthetic_law(1),
    # flat runs of the cumulative weights at both ends and in the middle
    "zero_runs": synthetic_law(40, [0, 1, 2, 17, 18, 19, 20, 21, 37, 38, 39]),
    "law_path_limit": synthetic_law(2_500, [0, 1249, 2499]),
    "ends": synthetic_law(30, [0, 14, 15, 29], columns=3),
}


class _SearchCounter(np.ndarray):
    """A cumulative weight array that counts the keys searched in it."""

    def searchsorted(self, keys, *args, **kwargs):
        self.searched += np.size(keys)
        return np.asarray(self).searchsorted(keys, *args, **kwargs)


class TestIndexedSearch:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_LAWS))
    def test_edge_uniforms_invert_as_a_full_search(self, name):
        sups, weights = SYNTHETIC_LAWS[name]
        cdf, first = _guide_table(weights)
        # Generator.choice's cumulative weights, and at least 4 cells per atom
        choice_cdf = weights.cumsum()
        assert np.array_equal(cdf, choice_cdf / choice_cdf[-1])
        assert first.size >= 4 * weights.size and first.size & (first.size - 1) == 0
        # cell g counts the breakpoints up to g / cells
        cell_starts = np.arange(first.size) / first.size
        assert np.array_equal(first, cdf.searchsorted(cell_starts, side="right"))
        # every breakpoint below 1 and the float just below it, and both ends of [0, 1)
        inner = cdf[cdf < 1.0]
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], inner, np.nextafter(inner, 0.0)])
        assert np.array_equal(_inverse_cdf(cdf, first, u), cdf.searchsorted(u, side="right"))
        # no zero-weight atom is ever drawn
        assert np.all(weights[_inverse_cdf(cdf, first, u)] > 0)

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_LAWS))
    def test_draws_equal_generator_choice(self, monkeypatch, name):
        sups, weights = SYNTHETIC_LAWS[name]
        # an 11-vector class takes the law path; its law is replaced
        monkeypatch.setattr(empirical_process, "exact_law", lambda *args: (sups, weights))
        fc, scheme = make_antipodal_class(20, 0.25), SampleScheme(WITHOUT, 10)
        rng = RngStream(37, 4)
        draws = simulate_suprema(fc, scheme, 25_000, rng)
        blocks = block_generators(25_000, rng)
        chosen = np.concatenate([gen.choice(sups, rows, p=weights) for rows, gen in blocks])
        assert draws.shape == (25_000, *sups.shape[1:])
        assert np.array_equal(draws, chosen)

    @pytest.mark.parametrize(
        "weights",
        [np.array([0.5, 0.6, -0.1]), np.array([0.5, 0.5 + 1e-6]), np.array([0.5, np.nan])],
        ids=["negative", "sum_1_plus_1e-6", "nan"],
    )
    def test_the_checks_of_p_still_fire(self, monkeypatch, weights):
        sups = np.arange(weights.size, dtype=float)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(sups, 10, p=weights)
        monkeypatch.setattr(empirical_process, "exact_law", lambda *args: (sups, weights))
        fc, scheme = make_antipodal_class(20, 0.25), SampleScheme(WITHOUT, 10)
        with pytest.raises(ValueError):
            simulate_suprema(fc, scheme, 100, RngStream(38))

    def test_few_uniforms_reach_the_full_search_on_the_grid(self):
        # deterministic guard on the guide table: a uniform is searched in
        # full only when a breakpoint lies in its cell below it, at most
        # K / cells <= 1/4 of them in expectation.  Measured at these
        # uniforms: 0.0 % (m = 2 with replacement, whose breakpoints 1/4 and
        # 3/4 start cells) to 7.7 % (m = 10 with replacement, 11 atoms in 64
        # cells)
        shares = {}
        for mode in (WITHOUT, WITH):
            for n in ACCEPTANCE_GRID["N"]:
                for frac in ACCEPTANCE_GRID["m_frac"]:
                    scheme = SampleScheme(mode, max(1, round(frac * n)))
                    sups, weights = exact_law(make_antipodal_class(n, 0.1), scheme)
                    cdf, first = _guide_table(weights)
                    (rows, gen), = block_generators(10_000, RngStream(18, 5))
                    u = gen.random(rows)
                    spy = cdf.view(_SearchCounter)
                    spy.searched = 0
                    idx = _inverse_cdf(spy, first, u)
                    assert np.array_equal(idx, cdf.searchsorted(u, side="right"))
                    shares[mode, n, scheme.m] = spy.searched / rows
        assert len(shares) == 18
        assert max(shares.values()) <= 0.25, shares


def repeated_columns(seed, n, distinct, m_funcs=3):
    """An uncentred random class on n points whose columns repeat `distinct`
    base columns."""
    gen = np.random.default_rng(seed)
    base = gen.uniform(-1, 1, size=(m_funcs, distinct))
    return FunctionClass(base[:, gen.integers(0, distinct, size=n)])


class TestExactLaw:
    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    @pytest.mark.parametrize("seed,n,distinct", [(20, 6, 2), (21, 5, 3), (22, 5, 5)])
    def test_matches_brute_force_on_repeated_columns(self, mode, seed, n, distinct):
        fc = repeated_columns(seed, n, distinct)
        brute = brute_mean_without if mode is WITHOUT else brute_mean_with
        for m in (1, n // 2, n):
            sups, weights = exact_law(fc, SampleScheme(mode, m))
            assert float(weights @ sups) == pytest.approx(brute(fc, m), abs=1e-12)
            assert expected_sup(fc, SampleScheme(mode, m)).mean == float(weights @ sups)

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_counted_size_is_the_number_of_vectors(self, mode):
        for seed, n, distinct in [(23, 9, 2), (24, 9, 4), (25, 12, 5), (26, 8, 8)]:
            fc = repeated_columns(seed, n, distinct)
            for m in range(1, n + 1):
                stats = expected_sup(fc, SampleScheme(mode, m))
                sups, weights = exact_law(fc, SampleScheme(mode, m))
                assert stats.provenance["enumeration_size"] == sups.size == weights.size

    @pytest.mark.parametrize("n,m", [(11, 5), (4000, 2000), (10_000, 5000)])
    def test_a_population_counts_subsets_in_closed_form(self, n, m):
        assert _vector_count((1,) * n, m, WITHOUT) == math.comb(n, m)
        assert _vector_count((1,) * n, m, WITH) == math.comb(n + m - 1, m)

    def test_counts_mixing_single_points_and_sets_match_the_enumeration(self):
        gen = np.random.default_rng(36)
        for _ in range(60):
            sizes = tuple(gen.choice([1, 1, 1, 2, 3, 5], size=int(gen.integers(1, 10))).tolist())
            for mode in (WITHOUT, WITH):
                m = int(gen.integers(1, sum(sizes) + 1))
                listed = _count_vectors.__wrapped__(sizes, m, mode)[0].shape[0]
                assert _vector_count(sizes, m, mode) == listed, (sizes, m, mode)

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_distinct_columns_count_subsets_and_multisets(self, mode):
        fc = center_class(np.random.default_rng(27).uniform(-1, 1, size=(2, 11)))
        for m in range(1, 12):
            size = expected_sup(fc, SampleScheme(mode, m)).provenance["enumeration_size"]
            assert size == (math.comb(11, m) if mode is WITHOUT else math.comb(11 + m - 1, m))
        # refused counts are exact too
        wide = center_class(np.random.default_rng(28).uniform(0, 1, size=(64, 400)))
        stats = expected_sup(wide, SampleScheme(mode, 40), 10, RngStream(0))
        expected = math.comb(400, 40) if mode is WITHOUT else math.comb(439, 40)
        assert stats.provenance["enumeration_size"] == expected

    @pytest.mark.parametrize("m", [100, 500, 900])
    def test_antipodal_n1000_matches_closed_form(self, m):
        # Q = a |2K - m| with K ~ Hypergeom(1000, 500, m) or Bin(m, 1/2)
        fc = make_antipodal_class(1000, 0.1)
        a, k = float(fc.values[0, 0]), np.arange(m + 1)
        # one vector per value of K: 0..m with replacement, and
        # max(0, m - 500)..min(m, 500) without
        sizes = {WITHOUT: min(m, 500) - max(0, m - 500) + 1, WITH: m + 1}
        for mode, law in [(WITHOUT, hypergeom(1000, 500, m)), (WITH, binom(m, 0.5))]:
            closed = a * float(law.pmf(k) @ np.abs(2 * k - m))
            stats = expected_sup(fc, SampleScheme(mode, m))
            assert stats.provenance == {
                "route": "exact", "enumeration_size": sizes[mode], "budget": 10**6, "trials": 0
            }
            assert stats.mean == pytest.approx(closed, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_weights_sum_to_one_at_n10000(self, mode):
        _, weights = exact_law(make_antipodal_class(10_000, 0.25), SampleScheme(mode, 5000))
        assert weights.size == 5001
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert not weights.flags.writeable  # shared with later calls

    @pytest.mark.parametrize(
        "mode,n,m,rows",
        [(WITH, 100, 3, 2), (WITHOUT, 20, 10, 2), (WITHOUT, 20, 10, 64)],
        ids=[f"{WITH}-100-3", f"{WITHOUT}-20-10", f"{WITHOUT}-20-10-64_rows"],
    )
    def test_traced_peak_stays_small(self, mode, n, m, rows):
        # 171 700 multisets and 184 756 subsets of distinct columns.  The
        # law's sums are reduced a block at a time: at 64 rows, all of them
        # at once would hold 90 MB
        fc = center_class(np.random.default_rng(29).uniform(-1, 1, size=(rows, n)))
        scheme = SampleScheme(mode, m)
        _count_vectors.cache_clear()
        tracemalloc.start()
        try:
            stats = expected_sup(fc, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.provenance["route"] == "exact"
        assert peak <= 64 * 2**20
        # the blocks give the sups and the mean of the whole count matrix
        counts, weights = _count_vectors(tuple(fc.level_sets.sizes.tolist()), m, mode)
        whole = sup_sums(fc.level_sets.columns, counts)
        sups, law_weights = exact_law(fc, scheme)
        assert np.array_equal(sups, whole) and np.array_equal(law_weights, weights)
        assert not law_weights.flags.writeable
        assert stats.mean == float(weights @ whole)

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            exact_law(make_antipodal_class(10, 0.25), SampleScheme(WITHOUT, 11))
