import math
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from subroot import fixed_point
from sworlab import localization
from sworlab.empirical_process import FunctionClass, expected_sup
from sworlab.errors import BernsteinConditionError, ConfigurationError
from sworlab.ground_set import RngStream, SampleMode, SampleScheme
from sworlab.localization import (
    build_excess_class,
    compute_B,
    excess_bound_cor10,
    excess_bound_thm8,
    excess_bound_thm9,
    fit_subroot,
    modulus_curve,
)
from sworlab.transductive import TransductiveProblem

WITHOUT = SampleMode.WITHOUT_REPLACEMENT
WITH = SampleMode.WITH_REPLACEMENT


class TestBuildExcessClass:
    def test_single_hypothesis(self):
        ec = build_excess_class(TransductiveProblem(np.array([[0.2, 0.4]])))
        assert ec.star_index == 0
        assert np.allclose(ec.rows, 0.0)

    def test_two_hypothesis_example(self):
        table = np.array([[0.5, 0.5, 0.5, 0.5], [0.25, 0.25, 0.25, 0.25]])
        ec = build_excess_class(TransductiveProblem(table))
        assert ec.star_index == 1
        assert np.allclose(ec.rows[0], table[0] - table[1])
        assert np.allclose(ec.rows[1], 0.0)

    def test_means_nonnegative(self):
        gen = np.random.default_rng(0)
        for _ in range(10):
            ec = build_excess_class(TransductiveProblem(gen.uniform(size=(5, 8))))
            assert np.all(ec.means >= -1e-12)

    def test_star_tie_breaks_to_lowest_index(self):
        table = np.array([[0.3, 0.3], [0.2, 0.4], [0.4, 0.2]])
        ec = build_excess_class(TransductiveProblem(table))
        assert ec.star_index == 0


class TestComputeB:
    def test_vacuous_class_defaults_to_one(self):
        ec = build_excess_class(TransductiveProblem(np.array([[0.5, 0.5]])))
        assert compute_B(ec) == (1.0, 0)

    def test_single_spike_ratio(self):
        table = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        ec = build_excess_class(TransductiveProblem(table))
        B, witness = compute_B(ec)
        # excess row (1,0,0,0): E f = 1/4, E f^2 = 1/4 -> ratio 1
        assert B == pytest.approx(1.0)
        assert witness == 1

    def test_equal_risks_unsatisfiable(self):
        table = np.array([[0.0, 1.0], [1.0, 0.0]])  # same overall risk, different rows
        ec = build_excess_class(TransductiveProblem(table))
        with pytest.raises(BernsteinConditionError, match="hypothesis 1"):
            compute_B(ec)

    def test_condition_holds_with_computed_B(self):
        gen = np.random.default_rng(1)
        ec = build_excess_class(TransductiveProblem(gen.uniform(size=(6, 9))))
        B, _ = compute_B(ec)
        assert np.all(ec.second_moments <= B * ec.means + 1e-9)


def slice_reference(ec, r, m, flavor, B):
    """psi_hat(r) from expected_sup on the slice's own class, built from
    the rows with E f^2 <= r alone."""
    sub = ec.rows[ec.second_moments <= r + 1e-12]
    gfc = FunctionClass(sub.mean(axis=1)[:, None] - sub)
    return B * expected_sup(gfc, SampleScheme(flavor, m)).mean / m


class TestModulusCurve:
    def make_ec(self):
        gen = np.random.default_rng(2)
        return build_excess_class(TransductiveProblem(gen.uniform(size=(4, 6))))

    def make_tied_ec(self):
        # h* is the zero-loss row 0, so f_h is row h: row 2 repeats row 1,
        # and row 4, row 3 reversed, ties it in E f^2 (quarter steps: exact)
        table = np.random.default_rng(5).integers(0, 5, size=(6, 8)) / 4.0
        table[0] = 0.0
        table[2] = table[1]
        table[4] = table[3][::-1]
        ec = build_excess_class(TransductiveProblem(table))
        assert ec.star_index == 0 and ec.second_moments[3] == ec.second_moments[4]
        return ec

    def test_last_slice_is_the_whole_class(self):
        ec = self.make_ec()
        radii, psi = modulus_curve(ec, 3, WITHOUT, 0, RngStream(0))
        assert radii[-1] == ec.second_moments.max()
        assert psi.mean[-1] == pytest.approx(slice_reference(ec, math.inf, 3, WITHOUT, 1.0))

    def test_first_slice_is_the_smallest_positive_moment(self):
        ec = self.make_ec()
        radii, psi = modulus_curve(ec, 3, WITHOUT, 100, RngStream(0))
        nonzero = ec.second_moments[ec.second_moments > 0]
        assert radii[0] == nonzero.min()
        assert psi.mean[0] == pytest.approx(slice_reference(ec, radii[0], 3, WITHOUT, 1.0))
        assert psi.std_error[0] == 0.0
        assert psi.provenance["route"] == "exact"

    @pytest.mark.parametrize("route", ["exact", "monte_carlo"])
    def test_a_class_of_h_star_alone_has_no_breakpoints(self, monkeypatch, route):
        ec = build_excess_class(TransductiveProblem(np.full((3, 5), 0.25)))
        if route == "monte_carlo":
            monkeypatch.setattr(localization, "expected_sup", partial(expected_sup, budget=0))
        radii, psi = modulus_curve(ec, 2, WITH, 100, RngStream(0))
        assert psi.provenance["route"] == route
        assert radii.size == psi.mean.size == psi.std_error.size == 0
        assert fit_subroot(radii, psi.mean, psi.std_error) == 0.0

    def test_exact_matches_enumeration(self):
        gen = np.random.default_rng(3)
        tp = TransductiveProblem(gen.uniform(size=(3, 4)))
        ec = build_excess_class(tp)
        m = 2
        _, psi = modulus_curve(ec, m, WITHOUT, 0, RngStream(0), B=2.0)
        assert np.all(psi.std_error == 0.0) and psi.provenance["enumeration_size"] == 6
        # direct oracle over the 6 splits, on the last slice: the whole class
        vals = []
        for subset in combinations(range(4), m):
            vals.append(max((ec.means - ec.rows[:, list(subset)].mean(axis=1)).max(), 0.0))
        # the zero row is always in the slice, so the sup is >= 0 already
        expected = 2.0 * float(np.mean(vals))
        assert psi.mean[-1] == pytest.approx(expected)

    def test_monte_carlo_agrees_with_exact(self, monkeypatch):
        ec = self.make_ec()
        m = 3
        _, exact = modulus_curve(ec, m, WITHOUT, 0, RngStream(0))
        monkeypatch.setattr(localization, "expected_sup", partial(expected_sup, budget=0))
        _, mc = modulus_curve(ec, m, WITHOUT, 20_000, RngStream(1))
        assert exact.provenance["route"] == "exact"
        assert mc.provenance["route"] == "monte_carlo"
        assert abs(mc.mean[-1] - exact.mean[-1]) <= 4 * mc.std_error[-1]

    def test_radii_are_positive_and_B_is_checked(self):
        ec = self.make_ec()
        radii, _ = modulus_curve(ec, 2, WITHOUT, 0, RngStream(0))
        assert radii.size == 3 and np.all(radii > 0)
        with pytest.raises(ConfigurationError, match="B must be"):
            modulus_curve(ec, 2, WITHOUT, 0, RngStream(0), B=0.0)

    @pytest.mark.parametrize("flavor", [WITHOUT, WITH])
    def test_every_radius_matches_its_own_slice(self, flavor):
        ec = self.make_tied_ec()
        m, B = 3, 1.5
        radii, psi = modulus_curve(ec, m, flavor, 0, RngStream(0), B=B)
        assert psi.provenance["route"] == "exact"
        # one slice per distinct moment: each tied pair (rows 1 and 2, 3 and 4) enters together
        sizes = [int(np.sum(ec.second_moments <= r)) for r in radii]
        assert sizes == [3, 4, 6]
        for r, p in zip(radii, psi.mean):
            assert p == pytest.approx(slice_reference(ec, r, m, flavor, B), rel=1e-12, abs=0)

    @pytest.mark.parametrize("flavor", [WITHOUT, WITH])
    def test_monte_carlo_curve_is_monotone_and_near_exact(self, monkeypatch, flavor):
        ec = self.make_tied_ec()
        _, exact = modulus_curve(ec, 3, flavor, 0, RngStream(0))
        monkeypatch.setattr(localization, "expected_sup", partial(expected_sup, budget=0))
        _, mc = modulus_curve(ec, 3, flavor, 20_000, RngStream(4))
        assert mc.provenance["route"] == "monte_carlo"
        assert np.all(np.diff(mc.mean) >= 0)
        assert np.all(np.abs(mc.mean - exact.mean) <= 4 * mc.std_error)


class TestFitSubroot:
    def test_zero_grid(self):
        assert fit_subroot(np.array([0.1, 1.0]), np.zeros(2), np.zeros(2)) == 0.0

    def test_noiseless_subroot_recovered(self):
        # pure c sqrt(r) at radii that span c^2 = 0.25
        radii = np.geomspace(0.01, 4.0, 10)
        assert fit_subroot(radii, 0.5 * np.sqrt(radii), np.zeros(10)) == pytest.approx(0.25)

    @pytest.mark.parametrize("seed", range(5))
    def test_r_star_is_the_fixed_point_of_the_least_majorant(self, seed):
        gen = np.random.default_rng(seed)
        radii = np.sort(gen.uniform(0.01, 1.0, size=6))
        psi = gen.uniform(0.0, 0.5, size=6)
        se = gen.uniform(0.0, 0.02, size=6)
        y = psi + 2 * se
        r_star = fit_subroot(radii, psi, se)
        terms = y * np.minimum(1.0, np.sqrt(r_star / radii))
        # r* never falls below a term, and one term is tight
        assert np.all(terms <= r_star + 1e-12)
        assert np.any(terms >= r_star - 1e-12)
        # the bisection solver finds the same fixed point of
        # psi(r) = max_k y_k min(1, sqrt(r / r_k))
        fixed = fixed_point(
            lambda r: float(np.max(y * np.minimum(1.0, np.sqrt(r / radii)))), 1e-12, 10.0, tol=1e-13
        )
        assert fixed == pytest.approx(r_star, abs=1e-10)

    def test_empty_radii_give_zero_and_radii_must_be_positive(self):
        assert fit_subroot(np.array([]), np.array([]), np.array([])) == 0.0
        with pytest.raises(ConfigurationError, match="radii must be positive"):
            fit_subroot(np.array([0.5, 0.0]), np.zeros(2), np.zeros(2))


class TestFixedPoint:
    @pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 10.0])
    def test_sqrt_family(self, c):
        r = fixed_point(lambda x: c * math.sqrt(x), 1e-12, max(4 * c * c, 1.0), tol=1e-10)
        assert abs(r - c * c) <= 1e-8 * max(c * c, 1.0) + 1e-10

    def test_affine_family_closed_form(self):
        a, c = 0.1, 0.2
        root = ((c + math.sqrt(c * c + 4 * a)) / 2) ** 2
        r = fixed_point(lambda x: a + c * math.sqrt(x), 1e-12, 10.0, tol=1e-12)
        assert r == pytest.approx(root, abs=1e-10)

    def test_constant_function(self):
        r = fixed_point(lambda x: 0.3, 1e-12, 10.0, tol=1e-12)
        assert r == pytest.approx(0.3, abs=1e-10)

    def test_residual_contract(self):
        c = 2.0
        r = fixed_point(lambda x: c * math.sqrt(x), 1e-12, 100.0, tol=1e-10)
        assert abs(c * math.sqrt(r) - r) <= 1e-10

    def test_bracket_without_sign_change(self):
        with pytest.raises(ConfigurationError):
            fixed_point(lambda x: 0.1 * math.sqrt(x), 5.0, 10.0)


class TestExcessBoundFormulas:
    def test_thm8(self):
        assert excess_bound_thm8(1.0, 0.01, 100, 50, 0.0) == pytest.approx(0.51)
        assert excess_bound_thm8(1.0, 0.01, 100, 50, 1.0) == pytest.approx(1.19)

    def test_thm8_diverges_for_small_m(self):
        vals = [excess_bound_thm8(1.0, 0.01, n, int(math.sqrt(n) / 2) + 1, 1.0) for n in (10**2, 10**4, 10**6)]
        assert vals[0] < vals[1] < vals[2]

    def test_thm9(self):
        assert excess_bound_thm9(1.0, 0.01, 50, 0.0) == pytest.approx(9.01)
        assert excess_bound_thm9(1.0, 0.01, 50, 1.0) == pytest.approx(9.01 + 41 / 150)

    def test_cor10_value_and_symmetry(self):
        val = excess_bound_cor10(1.0, 0.01, 0.01, 100, 50, 50, 1.0)
        assert val == pytest.approx(4.76)
        a = excess_bound_cor10(1.0, 0.02, 0.03, 100, 50, 50, 1.0)
        b = excess_bound_cor10(1.0, 0.03, 0.02, 100, 50, 50, 1.0)
        assert a == pytest.approx(b)

    @pytest.mark.parametrize("b", [0.3, 1.0, 4.0])
    def test_corollaries_compose_their_theorems(self, b):
        # Cor 10 is Thm 8 on both samples, each weighted by N over the
        # other sample's size
        for n, m, r_m, r_u, t in [(100, 50, 0.01, 0.02, 1.0), (37, 5, 0.3, 1e-4, 2.5)]:
            u = n - m
            cor10 = (n / u) * excess_bound_thm8(b, r_m, n, m, t) + (n / m) * excess_bound_thm8(
                b, r_u, n, u, t
            )
            assert excess_bound_cor10(b, r_m, r_u, n, m, u, t) == pytest.approx(cor10, rel=1e-15)

    def test_monotone_in_t_and_rstar(self):
        for t1, t2 in [(0.0, 1.0), (1.0, 3.0)]:
            assert excess_bound_thm8(1.5, 0.02, 60, 20, t1) <= excess_bound_thm8(
                1.5, 0.02, 60, 20, t2
            )
            assert excess_bound_thm9(1.5, 0.02, 20, t1) <= excess_bound_thm9(1.5, 0.02, 20, t2)
        assert excess_bound_thm8(1.5, 0.01, 60, 20, 1.0) <= excess_bound_thm8(
            1.5, 0.03, 60, 20, 1.0
        )

    @pytest.mark.parametrize("b", [math.inf, 0.0])
    def test_infinite_or_zero_B_refused_everywhere(self, b):
        for call in (
            lambda: excess_bound_thm8(b, 0.01, 100, 50, 1.0),
            lambda: excess_bound_thm9(b, 0.01, 50, 1.0),
            lambda: excess_bound_cor10(b, 0.01, 0.01, 100, 50, 50, 1.0),
        ):
            with pytest.raises(ConfigurationError, match="B must be a positive finite"):
                call()


def test_slice_radii_are_the_distinct_positive_second_moments():
    gen = np.random.default_rng(5)
    table = gen.uniform(size=(4, 7))
    table[3] = table[2]  # a tie: one radius, both rows enter there
    ec = build_excess_class(TransductiveProblem(table))
    moments = ec.second_moments
    radii, ends, gclass = ec.slices
    assert radii.tolist() == sorted(set(moments[moments > 0].tolist()))
    assert ends.tolist() == [int(np.sum(moments <= r)) for r in radii]
    assert gclass.n_functions == 4
