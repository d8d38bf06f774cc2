import math
from itertools import combinations, product

import numpy as np
import pytest

from sworlab.errors import ConfigurationError
from sworlab.ground_set import RngStream, SampleMode, sample_blocks
from sworlab.transductive import (
    TransductiveProblem,
    erm,
    exact_sup_expectation,
    exact_with_replacement_expectation,
    gen_bound_thm5,
    gen_bound_thm6,
    risks_for_split,
    sampled_split_risks,
    sigma2_H,
    split_and_risks,
)


class TestProblemValidation:
    def test_rejects_out_of_range_losses(self):
        with pytest.raises(ConfigurationError):
            TransductiveProblem(np.array([[0.5, 1.2]]))
        with pytest.raises(ConfigurationError):
            TransductiveProblem(np.array([[-0.1, 0.5]]))

    def test_csv_loading(self, tmp_path):
        table = np.array([[0.1, 0.9, 0.5], [0.2, 0.3, 0.4]])
        path = tmp_path / "loss.csv"
        np.savetxt(path, table, delimiter=",")
        tp = TransductiveProblem.from_csv(path)
        assert np.allclose(tp.loss_table, table)


class TestSplitAndRisks:
    def test_constant_table(self):
        tp = TransductiveProblem(np.full((3, 6), 0.5))
        sr = split_and_risks(tp, 2, RngStream(0))
        assert np.allclose(sr.train_risk, 0.5)
        assert np.allclose(sr.test_risk, 0.5)
        assert np.allclose(sr.overall_risk, 0.5)

    def test_hand_computed_split(self):
        tp = TransductiveProblem(np.array([[0.0, 0.0, 1.0, 1.0]]))
        sr = risks_for_split(tp, np.array([0, 1]), np.array([2, 3]))
        assert sr.train_risk[0] == 0.0
        assert sr.test_risk[0] == 1.0
        assert sr.overall_risk[0] == 0.5
        # N L_N = m L_m + u L_u: 4*0.5 = 2*0 + 2*1
        assert 4 * sr.overall_risk[0] == pytest.approx(
            2 * sr.train_risk[0] + 2 * sr.test_risk[0]
        )

    def test_risk_identity_on_random_splits(self):
        gen = np.random.default_rng(1)
        tp = TransductiveProblem(gen.uniform(size=(4, 10)))
        for seed in range(20):
            m = 3
            sr = split_and_risks(tp, m, RngStream(2, seed))
            lhs = tp.N * sr.overall_risk
            rhs = m * sr.train_risk + (tp.N - m) * sr.test_risk
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_partition(self):
        tp = TransductiveProblem(np.random.default_rng(3).uniform(size=(2, 9)))
        sr = split_and_risks(tp, 4, RngStream(4))
        both = np.concatenate([sr.train_indices, sr.test_indices])
        assert sorted(both.tolist()) == list(range(9))

    def test_single_test_point(self):
        tp = TransductiveProblem(np.random.default_rng(5).uniform(size=(2, 5)))
        sr = split_and_risks(tp, 4, RngStream(6))
        assert sr.test_indices.size == 1

    def test_sampled_blocks_match_per_split_risks(self):
        tp = TransductiveProblem(np.random.default_rng(7).uniform(size=(3, 11)))
        m, rng = 4, RngStream(12, 3)
        blocks = sample_blocks(11, m, 25, SampleMode.WITHOUT_REPLACEMENT, rng)
        for (train, test), counts in zip(sampled_split_risks(tp, m, 25, rng), blocks):
            for row, tr, te in zip(counts.toarray(), train, test):
                sr = risks_for_split(tp, np.flatnonzero(row), np.flatnonzero(row == 0))
                assert np.allclose(tr, sr.train_risk, atol=1e-12)
                assert np.allclose(te, sr.test_risk, atol=1e-12)

    def test_degenerate_sizes_rejected(self):
        tp = TransductiveProblem(np.full((1, 4), 0.5))
        with pytest.raises(ConfigurationError):
            split_and_risks(tp, 0, RngStream(0))
        with pytest.raises(ConfigurationError):
            split_and_risks(tp, 4, RngStream(0))


class TestErm:
    def test_single_hypothesis(self):
        tp = TransductiveProblem(np.array([[0.2, 0.4, 0.6]]))
        sr = split_and_risks(tp, 1, RngStream(0))
        out = erm(tp, sr)
        assert out.h_hat_m == out.h_star_u == out.h_star_N == 0
        assert out.excess_risk == 0.0

    def test_train_test_disagreement(self):
        # h0 wins on train {0,1}, h1 wins on test {2,3}
        tp = TransductiveProblem(np.array([[0.0, 0.0, 1.0, 1.0], [0.5, 0.5, 0.0, 0.0]]))
        sr = risks_for_split(tp, np.array([0, 1]), np.array([2, 3]))
        out = erm(tp, sr)
        assert out.h_hat_m == 0 and out.h_star_u == 1
        assert out.excess_risk == pytest.approx(1.0)

    def test_tie_broken_to_lowest_index(self):
        tp = TransductiveProblem(np.tile(np.array([0.1, 0.6, 0.2, 0.7]), (3, 1)))
        sr = split_and_risks(tp, 2, RngStream(7))
        out = erm(tp, sr)
        assert out.h_hat_m == out.h_star_u == out.h_star_N == 0

    def test_determinism(self):
        tp = TransductiveProblem(np.random.default_rng(8).uniform(size=(5, 8)))
        a = erm(tp, split_and_risks(tp, 3, RngStream(9, 2)))
        b = erm(tp, split_and_risks(tp, 3, RngStream(9, 2)))
        assert a == b

    def test_excess_risk_zero_when_erm_optimal(self):
        tp = TransductiveProblem(np.array([[0.0, 0.0, 0.0, 0.0], [0.9, 0.9, 0.9, 0.9]]))
        sr = split_and_risks(tp, 2, RngStream(10))
        out = erm(tp, sr)
        assert out.h_hat_m == out.h_star_u
        assert out.excess_risk == 0.0


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
        viol5 = viol6 = 0
        for seed in range(runs):
            sr = split_and_risks(tp, m, RngStream(19, seed))
            worst = (sr.overall_risk - sr.train_risk).max()
            viol5 += worst > b5
            viol6 += worst > b6
        assert binomial_lower_ci(viol5, runs) <= math.exp(-t)
        assert binomial_lower_ci(viol6, runs) <= math.exp(-t)
