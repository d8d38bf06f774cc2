import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sworlab.bounds import (
    BOUND_CENTERS,
    BoundParams,
    Center,
    compare_exponents,
    DEVIATION_BOUNDS,
    deviation_bennett,
    deviation_subgaussian,
    gap_bound,
    h_fn,
    TAIL_BOUNDS,
    tail_bennett,
    tail_elyaniv_pechyony,
    tail_subgaussian,
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
        with pytest.raises(ConfigurationError):
            h_fn(np.array([0.5, -1.5]))

    def test_h_on_arrays_and_at_infinity(self):
        u = np.array([0.0, math.e - 1, 1e300, 1e308, math.inf])
        h = h_fn(u)
        assert h.shape == u.shape
        assert h[0] == 0.0 and h[1] == pytest.approx(1.0, abs=1e-14)
        assert h[2] == pytest.approx(1e300 * (math.log(1e300) - 1.0), rel=1e-12)
        assert h[3] == math.inf and h[4] == math.inf  # overflow, then h(inf) = inf

    @given(st.floats(min_value=1e-6, max_value=10.0))
    def test_h_dominates_bernstein_quadratic(self, u):
        assert h_fn(u) >= u * u / (2 * (1 + u / 3)) - 1e-12

    @given(st.floats(min_value=-0.99, max_value=10.0))
    def test_h_nonnegative(self, u):
        assert h_fn(u) >= -1e-15


class TestSubgaussian:
    def test_eps_zero(self):
        assert tail_subgaussian(BoundParams(N=10, m=5, sigma2=0.2), 0.0) == 1.0

    def test_degenerate_class(self):
        p = BoundParams(N=10, m=5, sigma2=0.0)
        assert tail_subgaussian(p, np.array([0.0, 0.1])).tolist() == [1.0, 0.0]

    def test_direct_substitution(self):
        p = BoundParams(N=100, m=50, sigma2=0.25)
        assert tail_subgaussian(p, 10.0) == pytest.approx(math.exp(-0.51))

    def test_deviation_examples(self):
        p = BoundParams(N=8, m=4, sigma2=0.25)
        assert deviation_subgaussian(p, 0.0) == 0.0
        assert deviation_subgaussian(p, 2.0) == pytest.approx(2 * math.sqrt(8))

    def test_deviation_sqrt_t_scaling(self):
        v1, v2 = deviation_subgaussian(BoundParams(N=20, m=5, sigma2=0.1), np.array([1.0, 2.0]))
        assert v2 == pytest.approx(math.sqrt(2) * v1)


class TestBennett:
    def test_eps_zero(self):
        p = BoundParams(N=100, m=50, sigma2=0.1, eq_m=2.0)
        assert tail_bennett(p, 0.0) == 1.0

    def test_direct_substitution(self):
        # v = 50*0.1 + 2*2 = 9, eps=6 -> exp(-9 h(2/3))
        p = BoundParams(N=100, m=50, sigma2=0.1, eq_m=2.0)
        h = (5 / 3) * math.log(5 / 3) - 2 / 3
        assert p.v == pytest.approx(9.0)
        assert tail_bennett(p, 6.0) == pytest.approx(math.exp(-9 * h))

    def test_deviation_examples(self):
        # v = 9, t = 2 -> sqrt(36) + 2/3
        p = BoundParams(N=100, m=50, sigma2=0.1, eq_m=2.0)
        assert deviation_bennett(p, 0.0) == 0.0
        assert deviation_bennett(p, 2.0) == pytest.approx(6 + 2 / 3)

    def test_degenerate_v(self):
        p = BoundParams(N=10, m=5, sigma2=0.0, eq_m=0.0)
        assert tail_bennett(p, np.array([0.0, 0.5])).tolist() == [1.0, 0.0]

    def test_both_tags_share_one_formula(self):
        # the without-replacement Talagrand-type bound and Bousquet's original
        for table, fn in ((TAIL_BOUNDS, tail_bennett), (DEVIATION_BOUNDS, deviation_bennett)):
            assert table["talagrand_swor"] is table["bousquet"] is fn
        assert BOUND_CENTERS["talagrand_swor"] is BOUND_CENTERS["bousquet"] is Center.AROUND_EQ


class TestElYanivPechyony:
    def test_eps_zero(self):
        assert tail_elyaniv_pechyony(BoundParams(N=100, m=50, sigma2=0.1), 0.0) == 1.0

    def test_direct_substitution(self):
        p = BoundParams(N=100, m=50, sigma2=0.1)
        expo = -(100 / 100) * (99.5 / 50) * (1 - 1 / 100)
        assert expo == pytest.approx(-1.9701)
        assert tail_elyaniv_pechyony(p, 10.0) == pytest.approx(math.exp(-1.9701))

    def test_variance_independent(self):
        a = tail_elyaniv_pechyony(BoundParams(N=100, m=50, sigma2=0.01), 3.0)
        b = tail_elyaniv_pechyony(BoundParams(N=100, m=50, sigma2=0.25), 3.0)
        assert a == b

    def test_exhaustive_sample_degenerate(self):
        p = BoundParams(N=5, m=5, sigma2=0.1)
        assert tail_elyaniv_pechyony(p, np.array([0.0, 0.5])).tolist() == [1.0, 0.0]


class TestDuality:
    """Plugging the deviation level into the tail form must give <= e^{-t}."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    def test_subgaussian(self, t):
        for n, m, s2 in [(20, 10, 0.25), (100, 50, 0.1), (1000, 100, 0.01)]:
            p = BoundParams(N=n, m=m, sigma2=s2)
            assert tail_subgaussian(p, deviation_subgaussian(p, t)) <= math.exp(-t) * (1 + 1e-9)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    def test_talagrand(self, t):
        for n, m, s2, eq in [(20, 10, 0.25, 0.5), (100, 50, 0.1, 2.0), (400, 300, 0.2, 1.0)]:
            p = BoundParams(N=n, m=m, sigma2=s2, eq_m=eq)
            tail = tail_bennett(p, deviation_bennett(p, t))
            assert tail <= math.exp(-t) * (1 + 1e-9)


class TestShapeProperties:
    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_tails_nonincreasing_in_eps(self, e1, e2):
        p = BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7)
        for fn in (tail_subgaussian, tail_bennett, tail_elyaniv_pechyony):
            a, b = fn(p, np.array(sorted([e1, e2])))
            assert b <= a + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_deviations_nondecreasing_in_t(self, t1, t2):
        p = BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7)
        for fn in (deviation_subgaussian, deviation_bennett):
            a, b = fn(p, np.array(sorted([t1, t2])))
            assert a <= b + 1e-12
            assert fn(p, 0.0) == 0.0

    def test_tail_values_in_unit_interval(self):
        p = BoundParams(N=60, m=30, sigma2=0.2, eq_m=0.7)
        for fn in (tail_subgaussian, tail_bennett, tail_elyaniv_pechyony):
            v = fn(p, np.linspace(0, 100, 31))
            assert v.shape == (31,) and np.all((0.0 <= v) & (v <= 1.0))


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
                    p = BoundParams(N=n, m=m, sigma2=s2, eq_m=eq)
                    for eps in (0.0, 0.3, 5.0, 50.0):
                        ex = compare_exponents(N=n, m=m, sigma2=s2, eps=eps, eq_m=eq)
                        for tag, tail in TAIL_BOUNDS.items():
                            # through numpy's exp, as the bound takes it
                            expo = ex["exponents"][tag]
                            assert np.minimum(1.0, np.exp(expo)) == tail(p, eps), (tag, m, s2, eq)

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
        for eq_m in (math.nan, math.inf, 1e308):  # 1e308: v = m sigma2 + 2 E[Q_m] overflows
            with pytest.raises(ConfigurationError, match="E\\[Q_m\\]"):
                BoundParams(N=5, m=2, sigma2=0.5, eq_m=eq_m)

    @pytest.mark.parametrize("fn", [*TAIL_BOUNDS.values(), *DEVIATION_BOUNDS.values()])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, [0.5, -1e-300], [1.0, math.nan]])
    def test_eps_and_t_checked_at_the_call(self, fn, bad):
        with pytest.raises(ConfigurationError, match="t and eps must be nonnegative and finite"):
            fn(BoundParams(N=5, m=2, sigma2=0.5), bad)

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
    eps_grid = default_eps_grid(m, sigma2)
    p = BoundParams(N=n, m=m, sigma2=sigma2, eq_m=max(eq_m, 0.0))
    for tag, tail in TAIL_BOUNDS.items():
        deviations = sups - centres[BOUND_CENTERS[tag]]
        exact = np.array([weights[deviations >= eps].sum() for eps in eps_grid])
        bound = tail(p, eps_grid)
        assert np.all(exact <= bound * (1 + 1e-9)), (tag, exact, bound)


def _scalar_log_tails(n, m, s2, eq, eps):
    """Each closed form at one eps, in Python floats, as a per-eps reference."""
    v = m * s2 + 2.0 * eq

    def point_mass():
        return 0.0 if eps == 0.0 else -math.inf

    u = eps / v if v else 0.0
    bennett = -v * ((1.0 + u) * math.log1p(u) - u) if v else point_mass()
    return {
        "subgaussian": -(n + 2) * eps**2 / (8.0 * n**2 * s2) if s2 else point_mass(),
        "talagrand_swor": bennett,
        "bousquet": bennett,
        "elyaniv_pechyony": (
            -(eps**2 / (2.0 * m)) * ((n - 0.5) / (n - m)) * (1.0 - 1.0 / (2.0 * max(m, n - m)))
            if m < n
            else point_mass()
        ),
    }


@pytest.mark.parametrize("n,m,s2", EXACT_TAIL_CONFIGS[:27] + [(10, 10, 0.1), (10, 5, 0.0)])
def test_array_tails_equal_the_per_eps_closed_forms(n, m, s2):
    eps_grid = np.concatenate([[0.0], default_eps_grid(m, s2)])
    for eq in (0.0, 0.5 * math.sqrt(m * s2), 3.0):
        p = BoundParams(N=n, m=m, sigma2=s2, eq_m=eq)
        arrays = {tag: tail(p, eps_grid) for tag, tail in TAIL_BOUNDS.items()}
        for i, eps in enumerate(eps_grid.tolist()):
            for tag, log_tail in _scalar_log_tails(n, m, s2, eq, eps).items():
                expected = min(1.0, math.exp(log_tail))
                assert arrays[tag][i] == pytest.approx(expected, rel=1e-12, abs=0.0), (tag, eps)


def test_no_exponent_or_tail_is_nan_at_extreme_inputs():
    # eps / v and eps^2 overflow here; h(inf) = inf makes the log-tail -inf
    eps = np.array([0.0, 1e-300, 1e10, 1e300])
    for s2 in (1e-300, 0.25):
        for eq in (0.0, 1e300):
            for n, m in ((100, 1), (100, 50), (100, 100)):
                p = BoundParams(N=n, m=m, sigma2=s2, eq_m=eq)
                for tail in TAIL_BOUNDS.values():
                    values = tail(p, eps)
                    assert np.all((0.0 <= values) & (values <= 1.0)), (tail, values)
                for e in eps.tolist():
                    report = compare_exponents(N=n, m=m, sigma2=s2, eps=e, eq_m=eq)
                    assert not any(map(math.isnan, report["exponents"].values())), report
                    assert all(x <= 0.0 for x in report["exponents"].values()), report


def test_a_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # under this project's warning filters, hypothesis's report of a failing
    # @given test (which imports libcst) must not end the session
    (tmp_path / "test_broken.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_broken(x):\n"
        "    assert x < 0\n\n"
        "def test_after():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [
            *(sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"),
            *("-c", str(config), "--rootdir", str(tmp_path), str(tmp_path / "test_broken.py")),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
