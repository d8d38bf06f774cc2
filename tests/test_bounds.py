import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sworlab.bounds import (
    BOUND_CENTERS,
    BoundParams,
    Center,
    compare_exponents,
    deviation_bousquet,
    deviation_subgaussian,
    deviation_talagrand_swor,
    gap_bound,
    h_fn,
    TAIL_BOUNDS,
    tail_bousquet,
    tail_elyaniv_pechyony,
    tail_subgaussian,
    tail_talagrand_swor,
)
from sworlab.empirical_process import class_variance, exact_law
from sworlab.errors import ConfigurationError
from sworlab.experiments import ACCEPTANCE_GRID, make_antipodal_class
from sworlab.ground_set import SampleMode, SampleScheme
from sworlab.verify import default_eps_grid


class TestElementaryFunctions:
    def test_values_at_zero(self):
        assert h_fn(0.0) == 0.0

    def test_h_analytic_identity(self):
        # h(e-1) = e*1 - (e-1) = 1
        assert h_fn(math.e - 1) == pytest.approx(1.0, abs=1e-14)

    def test_h_domain(self):
        with pytest.raises(ConfigurationError):
            h_fn(-1.0)

    @given(st.floats(min_value=1e-6, max_value=10.0))
    def test_h_dominates_bernstein_quadratic(self, u):
        assert h_fn(u) >= u * u / (2 * (1 + u / 3)) - 1e-12

    @given(st.floats(min_value=-0.99, max_value=10.0))
    def test_h_nonnegative(self, u):
        assert h_fn(u) >= -1e-15


class TestSubgaussian:
    def test_eps_zero(self):
        p = BoundParams(N=10, m=5, sigma2=0.2, eps=0.0)
        assert tail_subgaussian(p) == 1.0

    def test_degenerate_class(self):
        p = BoundParams(N=10, m=5, sigma2=0.0, eps=0.1)
        assert tail_subgaussian(p) == 0.0

    def test_direct_substitution(self):
        p = BoundParams(N=100, m=50, sigma2=0.25, eps=10.0)
        assert tail_subgaussian(p) == pytest.approx(math.exp(-0.51))

    def test_deviation_examples(self):
        assert deviation_subgaussian(BoundParams(N=8, m=4, sigma2=0.25, t=0.0)) == 0.0
        val = deviation_subgaussian(BoundParams(N=8, m=4, sigma2=0.25, t=2.0))
        assert val == pytest.approx(2 * math.sqrt(8))

    def test_deviation_sqrt_t_scaling(self):
        v1 = deviation_subgaussian(BoundParams(N=20, m=5, sigma2=0.1, t=1.0))
        v2 = deviation_subgaussian(BoundParams(N=20, m=5, sigma2=0.1, t=2.0))
        assert v2 == pytest.approx(math.sqrt(2) * v1)


class TestTalagrandSwor:
    def test_eps_zero_both_forms(self):
        p = BoundParams(N=100, m=50, sigma2=0.1, eq_m=2.0, eps=0.0)
        assert tail_talagrand_swor(p) == 1.0
        assert tail_bousquet(p) == 1.0

    def test_direct_substitution(self):
        # v = 50*0.1 + 2*2 = 9, eps=6 -> exp(-9 h(2/3))
        p = BoundParams(N=100, m=50, sigma2=0.1, eq_m=2.0, eps=6.0)
        h = (5 / 3) * math.log(5 / 3) - 2 / 3
        assert p.v == pytest.approx(9.0)
        assert tail_talagrand_swor(p) == pytest.approx(math.exp(-9 * h))

    def test_deviation_examples(self):
        p0 = BoundParams(N=100, m=50, sigma2=0.1, eq_m=2.0, t=0.0)
        assert deviation_talagrand_swor(p0) == 0.0
        p = BoundParams(N=100, m=50, sigma2=0.1, eq_m=2.0, t=2.0)
        assert deviation_talagrand_swor(p) == pytest.approx(6 + 2 / 3)

    def test_degenerate_v(self):
        p = BoundParams(N=10, m=5, sigma2=0.0, eq_m=0.0, eps=0.5)
        assert tail_talagrand_swor(p) == 0.0


class TestBousquet:
    def test_bitwise_equality_with_swor_twin(self):
        for eps in (0.0, 0.3, 2.0, 17.5):
            p = BoundParams(N=200, m=60, sigma2=0.17, eq_m=1.3, eps=eps)
            assert tail_bousquet(p) == tail_talagrand_swor(p)

    def test_deviation_value(self):
        # v = 9, t = 2 -> sqrt(36) + 2/3 = 6.6667
        p = BoundParams(N=100, m=50, sigma2=0.1, eq_m=2.0, t=2.0)
        assert deviation_bousquet(p) == pytest.approx(6.666666666, rel=1e-6)


class TestElYanivPechyony:
    def test_eps_zero(self):
        p = BoundParams(N=100, m=50, sigma2=0.1, eps=0.0)
        assert tail_elyaniv_pechyony(p) == 1.0

    def test_direct_substitution(self):
        p = BoundParams(N=100, m=50, sigma2=0.1, eps=10.0)
        expo = -(100 / 100) * (99.5 / 50) * (1 - 1 / 100)
        assert expo == pytest.approx(-1.9701)
        assert tail_elyaniv_pechyony(p) == pytest.approx(math.exp(-1.9701))

    def test_variance_independent(self):
        a = tail_elyaniv_pechyony(BoundParams(N=100, m=50, sigma2=0.01, eps=3.0))
        b = tail_elyaniv_pechyony(BoundParams(N=100, m=50, sigma2=0.25, eps=3.0))
        assert a == b

    def test_exhaustive_sample_degenerate(self):
        assert tail_elyaniv_pechyony(BoundParams(N=5, m=5, sigma2=0.1, eps=0.5)) == 0.0
        assert tail_elyaniv_pechyony(BoundParams(N=5, m=5, sigma2=0.1, eps=0.0)) == 1.0


class TestDuality:
    """Plugging the deviation level into the tail form must give <= e^{-t}."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    def test_subgaussian(self, t):
        for n, m, s2 in [(20, 10, 0.25), (100, 50, 0.1), (1000, 100, 0.01)]:
            eps = deviation_subgaussian(BoundParams(N=n, m=m, sigma2=s2, t=t))
            tail = tail_subgaussian(BoundParams(N=n, m=m, sigma2=s2, eps=eps))
            assert tail <= math.exp(-t) * (1 + 1e-9)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    def test_talagrand(self, t):
        for n, m, s2, eq in [(20, 10, 0.25, 0.5), (100, 50, 0.1, 2.0), (400, 300, 0.2, 1.0)]:
            p_t = BoundParams(N=n, m=m, sigma2=s2, eq_m=eq, t=t)
            eps = deviation_talagrand_swor(p_t)
            tail = tail_talagrand_swor(
                BoundParams(N=n, m=m, sigma2=s2, eq_m=eq, eps=eps)
            )
            assert tail <= math.exp(-t) * (1 + 1e-9)


class TestShapeProperties:
    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_tails_nonincreasing_in_eps(self, e1, e2):
        lo, hi = sorted([e1, e2])
        for fn in (tail_subgaussian, tail_talagrand_swor, tail_elyaniv_pechyony):
            a = fn(BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7, eps=lo))
            b = fn(BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7, eps=hi))
            assert b <= a + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_deviations_nondecreasing_in_t(self, t1, t2):
        lo, hi = sorted([t1, t2])
        for fn in (deviation_subgaussian, deviation_talagrand_swor, deviation_bousquet):
            a = fn(BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7, t=lo))
            b = fn(BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7, t=hi))
            assert a <= b + 1e-12
            assert fn(BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7, t=0.0)) == 0.0

    def test_tail_values_in_unit_interval(self):
        for eps in np.linspace(0, 100, 31):
            for fn in (tail_subgaussian, tail_talagrand_swor, tail_elyaniv_pechyony):
                v = fn(BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7, eps=float(eps)))
                assert 0.0 <= v <= 1.0


class TestGapBound:
    def test_single_draw(self):
        assert gap_bound(10, 1) == pytest.approx(0.2)

    def test_substitution(self):
        assert gap_bound(4, 2) == 4.0

    def test_small_m_regime(self):
        # m = o(N^{2/5}): bound far below sqrt(m)
        assert gap_bound(10**5, 10) == pytest.approx(0.02)
        assert gap_bound(10**5, 10) < math.sqrt(10)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            gap_bound(5, 6)


class TestCompareExponents:
    def test_small_sample_fraction_favors_baseline(self):
        report = compare_exponents(N=10_000, m=100, sigma2=0.25, eps=1.0)
        ex = report["exponents"]
        assert ex["elyaniv_pechyony"] < ex["subgaussian"]

    def test_half_split_low_variance_favors_subgaussian(self):
        report = compare_exponents(N=200, m=100, sigma2=1 / 64, eps=1.0)
        ex = report["exponents"]
        assert ex["subgaussian"] < ex["elyaniv_pechyony"]

    def test_crossover_at_sixteenth(self):
        m = 100
        report = compare_exponents(N=2 * m, m=m, sigma2=1 / 16, eps=1.0)
        ex = report["exponents"]
        # the comparison forms agree up to the finite-sample correction factors
        ratio = ex["elyaniv_pechyony_uncorrected"] / ex["subgaussian_loose"]
        assert ratio == pytest.approx((2 * m - 0.5) / (2 * m))
        full_ratio = ex["elyaniv_pechyony"] / ex["subgaussian_loose"]
        assert (1 - 1 / (2 * m)) ** 2 <= full_ratio <= 1.0

    @pytest.mark.parametrize("n", [10, 100])
    def test_exponents_are_the_log_tails(self, n):
        # includes the deterministic cases sigma2 = 0 (with E[Q] = 0) and m = N
        for m in (1, n // 2, n):
            for s2 in (0.0, 0.01, 0.25):
                for eq in (0.0, 1.5):
                    for eps in (0.0, 0.3, 5.0, 50.0):
                        ex = compare_exponents(N=n, m=m, sigma2=s2, eps=eps, eq_m=eq)
                        p = BoundParams(N=n, m=m, sigma2=s2, eq_m=eq, eps=eps)
                        for tag, tail in TAIL_BOUNDS.items():
                            expo = ex["exponents"][tag]
                            assert min(1.0, math.exp(expo)) == tail(p), (tag, m, s2, eq, eps)

    def test_degenerate_inputs_report_log_one_at_eps_zero(self):
        ex = compare_exponents(N=10, m=10, sigma2=0.0, eps=0.0)["exponents"]
        assert set(ex.values()) == {0.0}
        ex = compare_exponents(N=10, m=10, sigma2=0.0, eps=0.1)["exponents"]
        assert set(ex.values()) == {-math.inf}

    def test_report_names_tightest(self):
        report = compare_exponents(N=10_000, m=100, sigma2=0.25, eps=1.0)
        compared = {
            k: report["exponents"][k]
            for k in ("subgaussian", "talagrand_swor", "elyaniv_pechyony")
        }
        assert report["tightest"] == min(compared, key=compared.get)


class TestBoundParamsValidation:
    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            BoundParams(N=5, m=6, sigma2=0.1)
        with pytest.raises(ConfigurationError):
            BoundParams(N=5, m=2, sigma2=1.5)
        for bad in ({"t": -1.0}, {"t": math.nan}, {"eps": math.inf}, {"eq_m": math.nan}):
            with pytest.raises(ConfigurationError):
                BoundParams(N=5, m=2, sigma2=0.5, **bad)

    def test_negative_eq_m_rejected(self):
        # v = m sigma2 + 2 E[Q] < 0 would make the Bennett tail 0 at every eps
        with pytest.raises(ConfigurationError, match="E\\[Q_m\\]"):
            BoundParams(N=100, m=50, sigma2=0.01, eq_m=-10.0)
        assert BoundParams(N=100, m=50, sigma2=0.01, eq_m=0.0).v == 0.5


EXACT_TAIL_CONFIGS = [
    (n, max(1, int(round(frac * n))), s2)
    for n in ACCEPTANCE_GRID["N"]
    for frac in ACCEPTANCE_GRID["m_frac"]
    for s2 in ACCEPTANCE_GRID["sigma2"]
] + [(10_000, m, s2) for m in (1000, 5000, 9000) for s2 in (0.01, 0.1, 0.25)]


@pytest.mark.parametrize("n,m,s2", EXACT_TAIL_CONFIGS)
def test_every_tail_bound_dominates_the_exact_tail(n, m, s2):
    """P{Q' - c >= eps} from exact_law, with exact centres c = E[Q'] or
    E[Q], never exceeds any tail bound on the default grid: no confidence
    band, only float tolerance."""
    fc = make_antipodal_class(n, s2)
    sups, weights = exact_law(fc, SampleScheme(SampleMode.WITHOUT_REPLACEMENT, m))
    with_sups, with_weights = exact_law(fc, SampleScheme(SampleMode.WITH_REPLACEMENT, m))
    eq_m = float(with_weights @ with_sups)
    centres = {Center.AROUND_EQ_PRIME: float(weights @ sups), Center.AROUND_EQ: eq_m}
    sigma2 = class_variance(fc)
    for eps in default_eps_grid(m, sigma2):
        p = BoundParams(N=n, m=m, sigma2=sigma2, eq_m=max(eq_m, 0.0), eps=float(eps))
        for tag, tail in TAIL_BOUNDS.items():
            exact = float(weights[sups - centres[BOUND_CENTERS[tag]] >= eps].sum())
            assert exact <= tail(p) * (1 + 1e-9), (tag, eps, exact)
