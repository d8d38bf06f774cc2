import math
from itertools import combinations, product

import numpy as np
import pytest

from sworlab import empirical_process, ground_set
from sworlab.empirical_process import (
    DEFAULT_ENUM_BUDGET,
    count_sums,
    draw_blocks,
    expected_sup,
    law_blocks,
    law_size,
)
from sworlab.errors import ConfigurationError
from sworlab.ground_set import (
    RngStream,
    SampleMode,
    SampleScheme,
    block_generators,
    sample_counts,
    sample_level_counts,
)
from sworlab.transductive import (
    TransductiveProblem,
    erm,
    gen_bound_thm5,
    gen_bound_thm6,
    require_split,
    split_route,
    split_statistics,
)
from sworlab.verify import binomial_lower_ci, binomial_upper_ci

WITHOUT = SampleMode.WITHOUT_REPLACEMENT


def drawn(splits):
    """A split route that draws `splits` splits, whatever the law's size."""
    return {"route": "monte_carlo", "splits": splits}


def scored(tp, m, route, rng):
    """(weights, train risks, test risks, rows per block): split_statistics
    with identity statistics, the first of which notes each block's rows."""
    rows = []
    weights, (train, test) = split_statistics(
        tp, m, route, rng, lambda tr, te: rows.append(len(tr)) or tr, lambda tr, te: te
    )
    return weights, train, test, rows


def one_split(tp, m, rng):
    """Train and test risks of one uniform split, drawn by split_statistics."""
    _, train, test, _ = scored(tp, m, drawn(1), rng)
    return train[0], test[0]


def count_blocks(n, m, splits, rng):
    """The 0/1 count matrix of each block of splits, as drawn from the
    block's substream when the loss table's splits sample the population."""
    return [
        sample_counts(n, m, rows, WITHOUT, gen).toarray()
        for rows, gen in block_generators(splits, rng)
    ]


def split_rows(tp, m, splits, rng):
    """Per split: the 0/1 indicator of its training points, its train risks
    and its test risks."""
    indicators = np.vstack(count_blocks(tp.N, m, splits, rng))
    _, train, test, _ = scored(tp, m, drawn(splits), rng)
    return indicators, train, test


class TestProblemValidation:
    def test_rejects_out_of_range_losses(self):
        with pytest.raises(ConfigurationError):
            TransductiveProblem(np.array([[0.5, 1.2]]))
        with pytest.raises(ConfigurationError):
            TransductiveProblem(np.array([[-0.1, 0.5]]))


class TestSplitAndRisks:
    def test_constant_table(self):
        tp = TransductiveProblem(np.full((3, 6), 0.5))
        train, test = one_split(tp, 2, RngStream(0))
        assert np.allclose(train, 0.5)
        assert np.allclose(test, 0.5)
        assert np.allclose(tp.overall_risk, 0.5)

    def test_overall_risk_is_computed_once_and_read_only(self):
        tp = TransductiveProblem(np.random.default_rng(5).uniform(size=(3, 7)))
        risk = tp.overall_risk
        assert tp.overall_risk is risk
        assert np.array_equal(risk, tp.loss_table.mean(axis=1))
        with pytest.raises(ValueError, match="read-only"):
            risk[0] = 0.0

    def test_hand_computed_split(self):
        # two level sets, {0, 1} with loss 0 and {2, 3} with loss 1: the
        # splits are drawn as how many points they take from each
        tp = TransductiveProblem(np.array([[0.0, 0.0, 1.0, 1.0]]))
        levels = tp.loss_class.level_sets
        assert levels.sizes.tolist() == [2, 2] and levels.columns.tolist() == [[0.0, 1.0]]
        ((rows, gen),) = block_generators(60, RngStream(1))
        counts = sample_level_counts(levels.sizes, 2, rows, WITHOUT, gen)
        _, train, test, _ = scored(tp, 2, drawn(60), RngStream(1))
        # by hand: each risk counts the split's points among {2, 3}
        assert np.array_equal(train[:, 0], counts[:, 1] / 2)
        assert np.array_equal(test[:, 0], (2 - counts[:, 1]) / 2)
        first = np.flatnonzero((counts == [2, 0]).all(axis=1))[0]
        assert train[first, 0] == 0.0
        assert test[first, 0] == 1.0
        assert tp.overall_risk[0] == 0.5
        # N L_N = m L_m + u L_u: 4*0.5 = 2*0 + 2*1
        assert 4 * tp.overall_risk[0] == pytest.approx(
            2 * train[first, 0] + 2 * test[first, 0]
        )

    def test_risk_identity_on_random_splits(self):
        gen = np.random.default_rng(1)
        tp = TransductiveProblem(gen.uniform(size=(4, 10)))
        m = 3
        _, train, test, _ = scored(tp, m, drawn(20), RngStream(2))
        assert np.allclose(tp.N * tp.overall_risk, m * train + (tp.N - m) * test, atol=1e-12)

    def test_partition(self):
        tp = TransductiveProblem(np.random.default_rng(3).uniform(size=(2, 9)))
        indicators, train, test = split_rows(tp, 4, 10, RngStream(4))
        assert set(np.unique(indicators)) == {0.0, 1.0}
        assert np.array_equal(indicators.sum(axis=1), np.full(10, 4))
        for row, tr, te in zip(indicators, train, test):
            assert np.allclose(tr, tp.loss_table[:, row == 1].mean(axis=1), atol=1e-12)
            assert np.allclose(te, tp.loss_table[:, row == 0].mean(axis=1), atol=1e-12)

    def test_single_test_point(self):
        tp = TransductiveProblem(np.random.default_rng(5).uniform(size=(2, 5)))
        indicators, _, test = split_rows(tp, 4, 10, RngStream(6))
        for row, te in zip(indicators, test):
            (point,) = np.flatnonzero(row == 0)
            assert np.allclose(te, tp.loss_table[:, point], atol=1e-12)

    def test_sampled_blocks_match_per_split_risks(self, monkeypatch):
        monkeypatch.setattr(ground_set, "BLOCK_ROWS", 10)
        tp = TransductiveProblem(np.random.default_rng(7).uniform(size=(3, 11)))
        m, rng = 4, RngStream(12, 3)
        counts = np.vstack(count_blocks(11, m, 25, rng))
        _, train, test, rows = scored(tp, m, drawn(25), rng)
        assert rows == [10, 10, 5]
        for row, tr, te in zip(counts, train, test, strict=True):
            assert np.allclose(tr, tp.loss_table[:, row > 0].mean(axis=1), atol=1e-12)
            assert np.allclose(te, tp.loss_table[:, row == 0].mean(axis=1), atol=1e-12)

    def test_degenerate_sizes_rejected(self):
        tp = TransductiveProblem(np.full((1, 4), 0.5))
        for m in (0, 4):
            with pytest.raises(ConfigurationError, match=f"got m={m}"):
                split_statistics(tp, m, drawn(1), RngStream(0))
            with pytest.raises(ConfigurationError, match=f"got m={m}"):
                require_split(tp, m)


class TestErm:
    def test_single_hypothesis(self):
        tp = TransductiveProblem(np.array([[0.2, 0.4, 0.6]]))
        out = erm(tp, *one_split(tp, 1, RngStream(0)))
        assert out["h_hat_m"] == out["h_star_u"] == out["h_star_N"] == 0
        assert out["excess_risk"] == 0.0

    def test_train_test_disagreement(self):
        # h0 wins on train {0,1}, h1 wins on test {2,3}
        tp = TransductiveProblem(np.array([[0.0, 0.0, 1.0, 1.0], [0.5, 0.5, 0.0, 0.0]]))
        out = erm(tp, tp.loss_table[:, :2].mean(axis=1), tp.loss_table[:, 2:].mean(axis=1))
        assert out["h_hat_m"] == 0 and out["h_star_u"] == 1
        assert out["excess_risk"] == pytest.approx(1.0)

    def test_tie_broken_to_lowest_index(self):
        tp = TransductiveProblem(np.tile(np.array([0.1, 0.6, 0.2, 0.7]), (3, 1)))
        out = erm(tp, *one_split(tp, 2, RngStream(7)))
        assert out["h_hat_m"] == out["h_star_u"] == out["h_star_N"] == 0

    def test_determinism(self):
        tp = TransductiveProblem(np.random.default_rng(8).uniform(size=(5, 8)))
        a = erm(tp, *one_split(tp, 3, RngStream(9, 2)))
        b = erm(tp, *one_split(tp, 3, RngStream(9, 2)))
        assert a == b

    def test_excess_risk_zero_when_erm_optimal(self):
        tp = TransductiveProblem(np.array([[0.0, 0.0, 0.0, 0.0], [0.9, 0.9, 0.9, 0.9]]))
        out = erm(tp, *one_split(tp, 2, RngStream(10)))
        assert out["h_hat_m"] == out["h_star_u"]
        assert out["excess_risk"] == 0.0


class TestSigma2H:
    def test_constant_rows(self):
        assert TransductiveProblem(np.full((3, 5), 0.7)).sigma2_H == 0.0

    def test_half_half_row(self):
        tp = TransductiveProblem(np.array([[0.0, 0.0, 1.0, 1.0]]))
        assert tp.sigma2_H == pytest.approx(0.25)

    def test_never_exceeds_quarter(self):
        gen = np.random.default_rng(11)
        for _ in range(25):
            tp = TransductiveProblem(gen.uniform(size=(4, 7)))
            assert tp.sigma2_H <= 0.25 + 1e-12


def brute_sup_expectation(tp, m):
    ln = tp.overall_risk
    vals = []
    for subset in combinations(range(tp.N), m):
        vals.append((ln - tp.loss_table[:, list(subset)].mean(axis=1)).max())
    return float(np.mean(vals))


def brute_with_replacement(tp, m):
    ln = tp.overall_risk
    vals = []
    for seq in product(range(tp.N), repeat=m):
        vals.append((ln - tp.loss_table[:, list(seq)].mean(axis=1)).max())
    return float(np.mean(vals))


def exact_sup_expectation(tp, m, mode=WITHOUT):
    """E[sup_h (L_N(h) - mean loss on the sample)], enumerated by expected_sup."""
    stats = expected_sup(tp.centered_class, SampleScheme(mode, m))
    assert stats.provenance["route"] == "exact"
    return stats.mean / m


def exact_with_replacement_expectation(tp, m):
    return exact_sup_expectation(tp, m, SampleMode.WITH_REPLACEMENT)


class TestGenBounds:
    def test_exact_expectations_match_bruteforce(self):
        gen = np.random.default_rng(12)
        tp = TransductiveProblem(gen.uniform(size=(2, 4)))
        assert exact_sup_expectation(tp, 2) == pytest.approx(brute_sup_expectation(tp, 2))
        tp3 = TransductiveProblem(gen.uniform(size=(2, 3)))
        assert exact_with_replacement_expectation(tp3, 2) == pytest.approx(
            brute_with_replacement(tp3, 2)
        )

    def test_thm5_at_t_zero(self):
        tp = TransductiveProblem(np.random.default_rng(13).uniform(size=(2, 4)))
        sup_exp = exact_sup_expectation(tp, 2)
        assert gen_bound_thm5(tp, 2, 0.0, sup_exp) == pytest.approx(sup_exp)

    def test_thm5_substitution(self):
        tp = TransductiveProblem(np.random.default_rng(14).uniform(size=(2, 4)))
        m, t = 2, 1.0
        sup_exp = exact_sup_expectation(tp, m)
        expected = sup_exp + 2 * math.sqrt(2 * (4 / m**2) * tp.sigma2_H * t)
        assert gen_bound_thm5(tp, m, t, sup_exp) == pytest.approx(expected)

    def test_thm6_at_t_zero(self):
        tp = TransductiveProblem(np.random.default_rng(15).uniform(size=(2, 3)))
        e_m = exact_with_replacement_expectation(tp, 2)
        assert gen_bound_thm6(tp, 2, 0.0, e_m) == pytest.approx(2 * e_m)

    def test_thm6_substitution(self):
        tp = TransductiveProblem(np.random.default_rng(16).uniform(size=(2, 3)))
        m, t = 2, 1.5
        e_m = exact_with_replacement_expectation(tp, m)
        expected = 2 * e_m + math.sqrt(2 * tp.sigma2_H * t / m) + 4 * t / (3 * m)
        assert gen_bound_thm6(tp, m, t, e_m) == pytest.approx(expected)

    def test_with_replacement_dominates_without(self):
        gen = np.random.default_rng(17)
        for n, m in [(4, 2), (5, 3), (6, 2)]:
            tp = TransductiveProblem(gen.uniform(size=(3, n)))
            assert exact_sup_expectation(tp, m) <= (
                exact_with_replacement_expectation(tp, m) + 1e-12
            )

    def test_thm5_scaling_half_split(self):
        # with N = 2m the sqrt term scales like m^{-1/2}
        tp8 = TransductiveProblem(np.full((1, 8), 0.5))
        tp32 = TransductiveProblem(np.full((1, 32), 0.5))
        s = 0.1
        term_m4 = 2 * math.sqrt(2 * (8 / 16) * s * 1.0)
        term_m16 = 2 * math.sqrt(2 * (32 / 256) * s * 1.0)
        assert term_m16 == pytest.approx(term_m4 / 2)  # m grew 4x
        del tp8, tp32


class TestEmpiricalValidity:
    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    def test_thm5_and_thm6_hold_over_seeded_splits(self, t):
        gen = np.random.default_rng(18)
        tp = TransductiveProblem(gen.uniform(size=(3, 10)))
        m, runs = 5, 2000
        sup_exp = exact_sup_expectation(tp, m)
        e_m = exact_with_replacement_expectation(tp, m)
        b5 = gen_bound_thm5(tp, m, t, sup_exp)
        b6 = gen_bound_thm6(tp, m, t, e_m)
        _, train, _ = split_rows(tp, m, runs, RngStream(19))
        worst = (tp.overall_risk - train).max(axis=1)
        viol5, viol6 = int((worst > b5).sum()), int((worst > b6).sum())
        assert binomial_lower_ci(viol5, runs) <= math.exp(-t)
        assert binomial_lower_ci(viol6, runs) <= math.exp(-t)


def merged_table(gen, sizes=(3, 2, 4, 3)):
    """A 3-row loss table whose columns repeat: len(sizes) distinct columns,
    column i on sizes[i] points, interleaved."""
    base = gen.uniform(size=(3, len(sizes)))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return base[:, gen.permutation(owner)]


class Undrawable(RngStream):
    """A stream that refuses every draw, its substreams' too."""

    def generator(self):
        raise AssertionError("the exact split route drew from its stream")

    def substream(self, index):
        return self


def exact_scores(tp, m):
    """scored() over every distinct split, which draws nothing."""
    route = split_route(tp, m, DEFAULT_ENUM_BUDGET)
    assert route["route"] == "exact"
    return scored(tp, m, route, Undrawable(0))


def split_law(tp, m):
    """(sup gaps, train risks, probabilities) over every distinct split."""
    weights, train, _, _ = exact_scores(tp, m)
    return (tp.overall_risk - train).max(axis=1), train, weights


class TestExactSplits:
    TABLES = {
        "distinct": lambda gen: gen.uniform(size=(4, 12)),
        "merged": merged_table,
        "two_levels": lambda gen: merged_table(gen, (6, 6)),
    }

    @pytest.mark.parametrize("kind", list(TABLES))
    def test_law_matches_every_subset(self, kind):
        tp = TransductiveProblem(self.TABLES[kind](np.random.default_rng(30)))
        m = 6
        gaps, train, weights = split_law(tp, m)
        assert weights.size == law_size(tp.loss_class, SampleScheme(WITHOUT, m))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        subsets = [list(s) for s in combinations(range(tp.N), m)]
        brute_train = np.array([tp.loss_table[:, s].mean(axis=1) for s in subsets])
        brute_gaps = (tp.overall_risk - brute_train).max(axis=1)
        assert weights @ train == pytest.approx(brute_train.mean(axis=0), abs=1e-12)
        assert weights @ gaps == pytest.approx(brute_gaps.mean(), abs=1e-12)
        for level in np.unique(brute_gaps)[:-1]:
            assert weights[gaps > level + 1e-12].sum() == pytest.approx(
                (brute_gaps > level + 1e-12).mean(), abs=1e-12
            )

    @pytest.mark.parametrize("kind", list(TABLES))
    def test_drawn_splits_agree_with_the_exact_law(self, monkeypatch, kind):
        # two level sets draw their splits as level counts; the other kinds
        # cost less to draw as samples of the population
        calls = []
        level_counts = empirical_process.sample_level_counts
        monkeypatch.setattr(
            empirical_process,
            "sample_level_counts",
            lambda *args: calls.append(args) or level_counts(*args),
        )
        tp = TransductiveProblem(self.TABLES[kind](np.random.default_rng(31)))
        m, splits = 6, 20_000
        gaps, _, weights = split_law(tp, m)
        _, train, _, _ = scored(tp, m, drawn(splits), RngStream(32))
        assert len(calls) == (2 if kind == "two_levels" else 0)
        drawn_gaps = (tp.overall_risk - train).max(axis=1)
        mean = weights @ gaps
        assert abs(drawn_gaps.mean() - mean) <= 4 * drawn_gaps.std(ddof=1) / math.sqrt(splits)
        for q in (0.25, 0.5, 0.75, 0.95):
            level = float(np.quantile(drawn_gaps, q))
            p = weights[gaps > level + 1e-12].sum()
            k = int((drawn_gaps > level + 1e-12).sum())
            assert binomial_lower_ci(k, splits) <= p <= binomial_upper_ci(k, splits), (q, k, p)

    def test_blocks_hold_at_most_block_rows(self, monkeypatch):
        monkeypatch.setattr(ground_set, "BLOCK_ROWS", 100)
        tp = TransductiveProblem(np.random.default_rng(33).uniform(size=(2, 10)))
        *blocks, rows = exact_scores(tp, 5)
        assert rows == [100, 100, 52]
        monkeypatch.setattr(ground_set, "BLOCK_ROWS", 10_000)
        *whole, rows = exact_scores(tp, 5)
        assert rows == [252] and all(np.array_equal(a, b) for a, b in zip(blocks, whole))

    def test_a_drawn_level_split_scores_like_the_same_split_listed(self):
        # five level sets of non-integer losses: the splits are drawn as
        # dense level counts, whose sums a BLAS product would round apart
        # from the sparse product of the listed law
        tp = TransductiveProblem(merged_table(np.random.default_rng(40), (12, 9, 11, 10, 8)))
        m, splits = 20, 2000
        scheme = SampleScheme(WITHOUT, m)
        ((table, counts, _),) = draw_blocks(tp.loss_class, scheme, splits, RngStream(41))
        assert isinstance(counts, np.ndarray) and table.shape == (3, 5)
        _, train, _, _ = scored(tp, m, drawn(splits), RngStream(41))
        assert np.array_equal(train, count_sums(table, counts).T / m)
        ((_, listed, _),) = law_blocks(tp.loss_class, scheme)
        row_of = {tuple(k): i for i, k in enumerate(listed.toarray())}
        _, law_train, _, _ = exact_scores(tp, m)
        assert np.array_equal(train, law_train[[row_of[tuple(k)] for k in counts]])

    def test_levels_come_from_the_losses_not_the_centred_class(self):
        # L_N = 0.5 exactly, and 0.5 - 1e-17 rounds to 0.5: centring merges
        # the first two points, whose losses differ
        tp = TransductiveProblem(np.array([[0.0, 1e-17, 1.0, 1.0]]))
        assert tp.centered_class.level_sets.sizes.tolist() == [2, 2]
        assert tp.loss_class.level_sets.sizes.tolist() == [1, 1, 2]
        # (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2); the centred sets give 3
        assert split_route(tp, 2, 10)["enumeration_size"] == 4


class TestSplitRoute:
    def test_exact_iff_the_count_is_at_most_splits(self):
        tp = TransductiveProblem(np.random.default_rng(34).uniform(size=(4, 10)))
        assert split_route(tp, 5, 252) == {"route": "exact", "enumeration_size": 252, "splits": 252}
        assert split_route(tp, 5, 251)["route"] == "monte_carlo"

    def test_repeated_columns_go_exact_beyond_the_subset_count(self):
        # 4 columns on 5 points each: C(20, 10) = 184 756 subsets, but
        # only the count vectors (k_1..k_4), k_i <= 5, summing to 10 matter
        tp = TransductiveProblem(merged_table(np.random.default_rng(35), (5, 5, 5, 5)))
        route = split_route(tp, 10, 1000)
        assert route["route"] == "exact" and route["enumeration_size"] == 146 < math.comb(20, 10)

    def test_a_count_past_the_enumeration_budget_is_drawn(self, monkeypatch):
        # C(24, 12) = 2 704 156 distinct splits would take some 0.6 GB to
        # list at once: a larger --splits draws them, and nothing enumerates
        def enumerate_vectors(*args):
            raise AssertionError("the split law was enumerated")

        class Drawn(Exception):
            pass

        def first_block(train, test):
            raise Drawn(train.shape)

        monkeypatch.setattr(empirical_process, "_count_vectors", enumerate_vectors)
        tp = TransductiveProblem(np.random.default_rng(36).uniform(size=(2, 24)))
        route = split_route(tp, 12, 10**7)
        assert route["route"] == "monte_carlo"
        assert route["enumeration_size"] == math.comb(24, 12) > 10**6
        with pytest.raises(Drawn, match=r"\(10000, 2\)"):
            split_statistics(tp, 12, route, RngStream(0), first_block)

    def test_a_patched_budget_reaches_the_route(self, monkeypatch):
        # 252 splits fit --splits but not a budget of 251, read at call time
        tp = TransductiveProblem(np.random.default_rng(34).uniform(size=(4, 10)))
        monkeypatch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", 251)
        assert split_route(tp, 5, 1000) == {
            "route": "monte_carlo", "enumeration_size": 252, "splits": 1000
        }

    @pytest.mark.parametrize("m, splits", [(0, 10), (5, 0), (5, -1)])
    def test_refusals(self, m, splits):
        tp = TransductiveProblem(np.full((2, 6), 0.5))
        with pytest.raises(ConfigurationError, match="got"):
            split_route(tp, m, splits)
