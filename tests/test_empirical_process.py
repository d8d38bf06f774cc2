import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from scipy.stats import binom, hypergeom

from sworlab import ground_set
from sworlab.empirical_process import (
    DEFAULT_ENUM_BUDGET,
    LEVEL_RATIO,
    FunctionClass,
    center_class,
    class_variance,
    exact_law,
    expected_sup,
    simulate_suprema,
    sup_sums,
)
from sworlab.errors import ConfigurationError, OracleScaleError
from sworlab.experiments import make_antipodal_class
from sworlab.ground_set import (
    RngStream,
    SampleMode,
    SampleScheme,
    block_generators,
    counts_matrix,
    sample_counts,
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

    def test_budget_error(self):
        fc = center_class(np.random.default_rng(6).uniform(-1, 1, size=(2, 30)))
        with pytest.raises(OracleScaleError):
            expected_sup(fc, SampleScheme(WITHOUT, 15), budget=100)

    def test_monte_carlo_within_four_se_of_exact(self):
        gen = np.random.default_rng(7)
        hits = 0
        runs = 30
        for seed in range(runs):
            fc = center_class(gen.uniform(-1, 1, size=(3, 5)))
            exact = expected_sup(fc, SampleScheme(WITHOUT, 3))
            mc = expected_sup(fc, SampleScheme(WITHOUT, 3), 4000, RngStream(seed), budget=0)
            if abs(mc.mean - exact.mean) <= 4 * mc.std_error:
                hits += 1
        assert hits >= runs - 1

    def test_monte_carlo_requires_rng(self):
        fc = center_class(np.array([[1.0, -1.0]]))
        with pytest.raises(ConfigurationError):
            expected_sup(fc, SampleScheme(WITHOUT, 1), trials=10, budget=0)


def _budget_class():
    return center_class(np.random.default_rng(18).uniform(-1, 1, size=(3, 6)))


class TestRouteDecision:
    """expected_sup enumerates C(6, 3) = 20 subsets or C(8, 3) = 56 multisets
    when the count fits the budget, and runs Monte Carlo otherwise."""

    SIZES = {WITHOUT: 20, WITH: 56}

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_count_equal_to_budget_is_exact(self, mode):
        size = self.SIZES[mode]
        fc, scheme = _budget_class(), SampleScheme(mode, 3)
        stats = expected_sup(fc, scheme, 500, RngStream(0), size)
        assert stats.std_error == 0.0
        assert stats.provenance == {
            "route": "exact", "enumeration_size": size, "budget": size, "trials": 0
        }
        brute = brute_mean_without if mode is WITHOUT else brute_mean_with
        assert stats.mean == pytest.approx(brute(fc, 3), abs=1e-12)

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_count_above_budget_with_trials_is_monte_carlo(self, mode):
        size = self.SIZES[mode]
        fc, scheme = _budget_class(), SampleScheme(mode, 3)
        stats = expected_sup(fc, scheme, 500, RngStream(1), size - 1)
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
    def test_one_supremum_gives_python_floats(self, budget):
        stats = expected_sup(_budget_class(), SampleScheme(WITHOUT, 3), 500, RngStream(2), budget)
        assert type(stats.mean) is float and type(stats.std_error) is float

    @pytest.mark.parametrize("budget", [0, DEFAULT_ENUM_BUDGET])
    def test_prefix_ends_share_one_law_or_one_draw(self, budget):
        fc, scheme = _budget_class(), SampleScheme(WITH, 3)
        curve = expected_sup(fc, scheme, 500, RngStream(3), budget, ends=[1, 2, 3])
        assert curve.mean.shape == curve.std_error.shape == (3,)
        assert np.all(np.diff(curve.mean) >= 0)
        whole = expected_sup(fc, scheme, 500, RngStream(3), budget)
        assert curve.mean[-1] == pytest.approx(whole.mean, rel=1e-12)
        assert curve.std_error[-1] == pytest.approx(whole.std_error, rel=1e-12)

    @pytest.mark.parametrize("mode", [WITHOUT, WITH])
    def test_count_above_budget_without_trials_raises(self, mode):
        size = self.SIZES[mode]
        with pytest.raises(OracleScaleError, match=f"{size} .* budget {size - 1}"):
            expected_sup(_budget_class(), SampleScheme(mode, 3), budget=size - 1)
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

    def test_prefix_ends_give_each_prefix_sup(self):
        gen = np.random.default_rng(11)
        values = gen.uniform(-1, 1, size=(5, 8))
        counts = sample_counts(8, 4, 60, WITHOUT, gen)
        ends = [1, 3, 3, 5]
        per_prefix = np.column_stack([sup_sums(values[:e], counts) for e in ends])
        assert np.array_equal(sup_sums(values, counts, ends), per_prefix)
        assert np.array_equal(sup_sums(values, counts, [5])[:, 0], sup_sums(values, counts))

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


class TestLevelPath:
    @pytest.mark.parametrize(
        "mode,m,repeats", [(WITHOUT, 3, (16, 48, 32)), (WITH, 3 * LEVEL_RATIO, (32, 32, 32))]
    )
    def test_repeated_columns_agree_with_exact_mean(self, mode, m, repeats):
        # three distinct columns shared by 96 points in shuffled order
        base = center_class(np.random.default_rng(14).uniform(-1, 1, size=(4, 3)))
        order = np.random.default_rng(15).permutation(96)
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
        trials = 20_000
        draws = simulate_suprema(fc, SampleScheme(mode, m), trials, RngStream(15))
        se = draws.std(ddof=1) / math.sqrt(trials)
        assert abs(draws.mean() - exact.mean) <= 4 * se

    @pytest.mark.parametrize("m", [100, 500, 900])
    def test_antipodal_n1000_matches_closed_form(self, m):
        # Q = a |2K - m| with K ~ Hypergeom(1000, 500, m) or Bin(m, 1/2)
        fc = make_antipodal_class(1000, 0.1)
        a, k, trials = float(fc.values[0, 0]), np.arange(m + 1), 20_000
        assert fc.level_sets.sizes.tolist() == [500, 500]
        for mode, law in [(WITHOUT, hypergeom(1000, 500, m)), (WITH, binom(m, 0.5))]:
            closed = a * float(law.pmf(k) @ np.abs(2 * k - m))
            draws = simulate_suprema(fc, SampleScheme(mode, m), trials, RngStream(m))
            se = draws.std(ddof=1) / math.sqrt(trials)
            assert abs(draws.mean() - closed) <= 5 * se, mode

    @pytest.mark.parametrize("mode,m", [(WITHOUT, 40), (WITH, 40)])
    def test_distinct_columns_keep_the_population_draws(self, monkeypatch, mode, m):
        monkeypatch.setattr(ground_set, "BLOCK_ROWS", 10)
        fc = center_class(np.random.default_rng(16).uniform(0, 1, size=(64, 400)))
        # 400 level sets: the 32 L rule picks the population in both modes
        assert LEVEL_RATIO * fc.level_sets.sizes.size > 400
        rng = RngStream(17, 3)
        draws = simulate_suprema(fc, SampleScheme(mode, m), 25, rng)
        blocks = [sample_counts(400, m, rows, mode, gen) for rows, gen in block_generators(25, rng)]
        assert [counts.shape[0] for counts in blocks] == [10, 10, 5]
        expected = np.concatenate([sup_sums(fc.values, counts) for counts in blocks])
        assert np.array_equal(draws, expected)


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

    @pytest.mark.parametrize("mode,n,m", [(WITH, 100, 3), (WITHOUT, 20, 10)])
    def test_traced_peak_stays_small(self, mode, n, m):
        # 171 700 multisets and 184 756 subsets of distinct columns
        fc = center_class(np.random.default_rng(29).uniform(-1, 1, size=(2, n)))
        tracemalloc.start()
        try:
            stats = expected_sup(fc, SampleScheme(mode, m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.provenance["route"] == "exact"
        assert peak <= 64 * 2**20

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            exact_law(make_antipodal_class(10, 0.25), SampleScheme(WITHOUT, 11))
