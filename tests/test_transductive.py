import math
from itertools import combinations, product

import numpy as np
import pytest

from sworlab import ground_set
from sworlab.empirical_process import expected_sup
from sworlab.errors import ConfigurationError
from sworlab.ground_set import (
    RngStream,
    SampleMode,
    SampleScheme,
    block_generators,
    sample_counts,
)
from sworlab.transductive import (
    TransductiveProblem,
    erm,
    gen_bound_thm5,
    gen_bound_thm6,
    require_split,
    sampled_split_risks,
    sigma2_H,
)

WITHOUT = SampleMode.WITHOUT_REPLACEMENT


def one_split(tp, m, rng):
    """Train and test risks of one uniform split: row 0 of sampled_split_risks."""
    train, test = next(sampled_split_risks(tp, m, 1, rng))
    return train[0], test[0]


def count_blocks(n, m, splits, rng):
    """The 0/1 count matrix of each block of splits, as drawn from the
    block's substream."""
    return [
        sample_counts(n, m, rows, WITHOUT, gen).toarray()
        for rows, gen in block_generators(splits, rng)
    ]


def split_rows(tp, m, splits, rng):
    """Per split: the 0/1 indicator of its training points, its train risks
    and its test risks."""
    indicators = np.vstack(count_blocks(tp.N, m, splits, rng))
    train, test = zip(*sampled_split_risks(tp, m, splits, rng))
    return indicators, np.vstack(train), np.vstack(test)


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

    def test_hand_computed_split(self):
        tp = TransductiveProblem(np.array([[0.0, 0.0, 1.0, 1.0]]))
        indicators, train, test = split_rows(tp, 2, 60, RngStream(1))
        # by hand: each risk counts the split's points among {2, 3}
        assert np.array_equal(train[:, 0], indicators[:, 2:].sum(axis=1) / 2)
        assert np.array_equal(test[:, 0], (2 - indicators[:, 2:].sum(axis=1)) / 2)
        first = np.flatnonzero((indicators == [1, 1, 0, 0]).all(axis=1))[0]
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
        for train, test in sampled_split_risks(tp, m, 20, RngStream(2)):
            lhs = tp.N * tp.overall_risk
            rhs = m * train + (tp.N - m) * test
            assert np.allclose(lhs, rhs, atol=1e-12)

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
        blocks = count_blocks(11, m, 25, rng)
        risks = list(sampled_split_risks(tp, m, 25, rng))
        assert [len(train) for train, _ in risks] == [10, 10, 5]
        for (train, test), counts in zip(risks, blocks):
            for row, tr, te in zip(counts, train, test):
                assert np.allclose(tr, tp.loss_table[:, row > 0].mean(axis=1), atol=1e-12)
                assert np.allclose(te, tp.loss_table[:, row == 0].mean(axis=1), atol=1e-12)

    def test_degenerate_sizes_rejected(self):
        tp = TransductiveProblem(np.full((1, 4), 0.5))
        for m in (0, 4):
            with pytest.raises(ConfigurationError, match=f"got m={m}"):
                next(sampled_split_risks(tp, m, 1, RngStream(0)))
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
        assert sigma2_H(TransductiveProblem(np.full((3, 5), 0.7))) == 0.0

    def test_half_half_row(self):
        tp = TransductiveProblem(np.array([[0.0, 0.0, 1.0, 1.0]]))
        assert sigma2_H(tp) == pytest.approx(0.25)

    def test_never_exceeds_quarter(self):
        gen = np.random.default_rng(11)
        for _ in range(25):
            tp = TransductiveProblem(gen.uniform(size=(4, 7)))
            assert sigma2_H(tp) <= 0.25 + 1e-12


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
    stats = expected_sup(tp.centered_class(), SampleScheme(mode, m))
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
        expected = sup_exp + 2 * math.sqrt(2 * (4 / m**2) * sigma2_H(tp) * t)
        assert gen_bound_thm5(tp, m, t, sup_exp) == pytest.approx(expected)

    def test_thm6_at_t_zero(self):
        tp = TransductiveProblem(np.random.default_rng(15).uniform(size=(2, 3)))
        e_m = exact_with_replacement_expectation(tp, 2)
        assert gen_bound_thm6(tp, 2, 0.0, e_m) == pytest.approx(2 * e_m)

    def test_thm6_substitution(self):
        tp = TransductiveProblem(np.random.default_rng(16).uniform(size=(2, 3)))
        m, t = 2, 1.5
        e_m = exact_with_replacement_expectation(tp, m)
        expected = 2 * e_m + math.sqrt(2 * sigma2_H(tp) * t / m) + 4 * t / (3 * m)
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
        from sworlab.verify import binomial_lower_ci

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
