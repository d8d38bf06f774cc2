import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import bisect
from scipy.stats import binom, binomtest

from sworlab.bounds import BoundParams, Center, tail_subgaussian
from sworlab.cli import _write_curves
from sworlab.empirical_process import (
    FunctionClass,
    center_class,
    class_variance,
    exact_law,
    expected_sup,
    simulate_suprema,
)
from sworlab.errors import ConfigurationError, ContractError
from sworlab.experiments import make_antipodal_class
from sworlab.ground_set import RngStream, SampleMode, SampleScheme
from sworlab.verify import (
    TailCurve,
    binomial_lower_ci,
    binomial_upper_ci,
    check_domination,
    default_eps_grid,
    tail_curve_from_draws,
)

WITHOUT = SampleMode.WITHOUT_REPLACEMENT


class TestClopperPearson:
    def test_edge_cases(self):
        assert binomial_upper_ci(10, 10) == 1.0
        assert binomial_lower_ci(0, 10) == 0.0
        assert 0 < binomial_upper_ci(0, 10) < 1
        assert 0 < binomial_lower_ci(10, 10) < 1

    @pytest.mark.parametrize("k,n", [(0, 50), (3, 50), (25, 50), (49, 50)])
    def test_matches_binomial_tail_inversion(self, k, n):
        # independent oracle: invert the binomial cdf by bisection
        delta = 0.01
        if k < n:
            upper = bisect(lambda p: binom.cdf(k, n, p) - delta, 1e-12, 1 - 1e-12)
            assert binomial_upper_ci(k, n) == pytest.approx(upper, abs=1e-9)
        if k > 0:
            lower = bisect(
                lambda p: binom.sf(k - 1, n, p) - delta, 1e-12, 1 - 1e-12
            )
            assert binomial_lower_ci(k, n) == pytest.approx(lower, abs=1e-9)

    def test_interval_orders(self):
        for k in range(0, 21):
            lo = binomial_lower_ci(k, 20)
            hi = binomial_upper_ci(k, 20)
            assert lo <= k / 20 <= hi

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            binomial_upper_ci(5, 4)


class TestDefaultGrid:
    def test_spans_and_ascends(self):
        grid = default_eps_grid(50, 0.1)
        assert len(grid) == 20
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == pytest.approx(0.05 * math.sqrt(5.0))
        assert grid[-1] == pytest.approx(3 * 5.0 + 3)


def antipodal(n, a=0.5):
    f = np.concatenate([np.full(n // 2, a), np.full(n - n // 2, -a)])
    return FunctionClass(np.vstack([f, -f]), centered=True)


def estimate_tail(fc, scheme, eps_grid, trials, rng):
    """P{Q' - E[Q'] >= eps} with its binomial bands: the centre from
    expected_sup (exact within the budget, else Monte Carlo on an
    independent substream), the curve from `trials` fresh draws."""
    centre = expected_sup(fc, scheme, trials, rng.substream(1_000_003))
    draws = simulate_suprema(fc, scheme, trials, rng)
    return tail_curve_from_draws(
        draws, eps_grid, Center.AROUND_EQ_PRIME, centre.mean, centre.std_error
    )


class TestEstimateTail:
    def test_beyond_range_is_zero(self):
        fc = antipodal(8)
        grid = np.array([1.0, 2 * 4 + 1.0])  # |sum| <= m = 4
        curve = estimate_tail(fc, SampleScheme(WITHOUT, 4), grid, 2000, RngStream(0))
        assert curve.tail_estimate[-1] == 0.0

    def test_eps_zero_probability_positive(self):
        fc = antipodal(8)
        curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.0, 1.0]),
            2000,
            RngStream(1),
        )
        assert 0.0 < curve.tail_estimate[0] <= 1.0

    def test_single_function_matches_exhaustive_tail(self):
        fc = center_class(np.array([[0.6, -0.2, -0.3, -0.1]]))
        m = 2
        subsets = list(combinations(range(4), m))
        sums = np.array([fc.values[0, list(s)].sum() for s in subsets])
        exact_mean = sums.mean()
        grid = np.array([0.1, 0.4, 0.8])
        exact_tail = np.array([(sums - exact_mean >= e).mean() for e in grid])
        curve = estimate_tail(fc, SampleScheme(WITHOUT, m), grid, 20_000, RngStream(2))
        assert curve.center_value == pytest.approx(exact_mean)  # enumerable -> exact
        for est, up, exact, e in zip(
            curve.tail_estimate, curve.upper_ci, exact_tail, grid
        ):
            lo = binomial_lower_ci(round(est * 20_000), 20_000)
            assert lo - 1e-9 <= exact <= up + 1e-9, e

    def test_trials_required(self):
        with pytest.raises(ConfigurationError):
            estimate_tail(
                antipodal(6),
                SampleScheme(WITHOUT, 3),
                np.array([0.5]),
                0,
                RngStream(0),
            )

    def test_curve_invariants(self):
        fc = antipodal(10)
        curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 5),
            default_eps_grid(5, 0.25),
            5000,
            RngStream(3),
        )
        assert np.all(np.diff(curve.tail_estimate) <= 0)
        assert np.all(curve.tail_estimate <= curve.upper_ci + 1e-15)
        assert np.all(curve.lower_ci <= curve.tail_estimate + 1e-15)


class TestCheckDomination:
    def test_all_zero_class_trivially_dominated(self):
        fc = FunctionClass(np.zeros((2, 6)), centered=True)
        grid = np.array([0.1, 0.5, 1.0])
        curve = estimate_tail(fc, SampleScheme(WITHOUT, 3), grid, 1000, RngStream(4))
        params = BoundParams(N=6, m=3, sigma2=0.0)
        for tag in ("subgaussian", "elyaniv_pechyony"):
            assert check_domination(curve, tag, params)["passed"]

    def test_theorems_pass_on_real_runs(self):
        n, m = 40, 20
        fc = antipodal(n)
        sigma2 = 0.25
        curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, m),
            default_eps_grid(m, sigma2),
            30_000,
            RngStream(5),
        )
        params = BoundParams(N=n, m=m, sigma2=sigma2)
        assert check_domination(curve, "subgaussian", params)["passed"]
        assert check_domination(curve, "elyaniv_pechyony", params)["passed"]

    def test_centering_mismatch_refused(self):
        fc = antipodal(8)
        curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.5]),
            1000,
            RngStream(6),
        )
        with pytest.raises(ContractError):
            check_domination(curve, "talagrand_swor", BoundParams(N=8, m=4, sigma2=0.25))

    def test_corrupted_bound_detected(self):
        # dividing the sub-Gaussian constant by 100 must produce violations
        n, m, sigma2 = 20, 10, 0.25
        fc = antipodal(n)
        curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, m),
            default_eps_grid(m, sigma2),
            50_000,
            RngStream(7),
        )
        params = BoundParams(N=n, m=m, sigma2=sigma2)
        honest = check_domination(curve, "subgaussian", params)
        corrupted = check_domination(
            curve,
            "subgaussian",
            params,
            tail_fn=lambda p: tail_subgaussian(p, constant=0.08),
        )
        assert honest["passed"]
        assert not corrupted["passed"]
        assert corrupted["violations"]

    def test_unknown_tag(self):
        fc = antipodal(8)
        curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.5]),
            500,
            RngStream(8),
        )
        with pytest.raises(ConfigurationError):
            check_domination(curve, "nonsense", BoundParams(N=8, m=4, sigma2=0.25))


class TestSerialization:
    def test_curve_dict_and_csv(self, tmp_path):
        fc = antipodal(8)
        curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.2, 0.6, 1.4]),
            2000,
            RngStream(9),
        )
        d = curve.to_dict()
        assert d["trials"] == 2000 and len(d["eps_grid"]) == 3
        _write_curves(tmp_path, {"configurations": [{"curves": {"around_eq_prime": d}}]})
        lines = (tmp_path / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "config_index,center,eps,estimate,upper_ci,lower_ci"
        assert len(lines) == 4

    def test_report_dict(self):
        fc = antipodal(8)
        curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.5]),
            500,
            RngStream(10),
        )
        d = check_domination(curve, "subgaussian", BoundParams(N=8, m=4, sigma2=0.25))
        assert set(d) == {"theorem_tag", "passed", "violations"}
        assert d["theorem_tag"] == "subgaussian"
        assert d["passed"] == (not d["violations"])


@pytest.mark.parametrize("n", [1, 2, 10, 10_000])
def test_tail_curve_bands_equal_the_scalar_intervals(n):
    # suprema are discrete, so draws can equal grid points; the outer grid
    # points give k = n and k = 0, the edge cases
    draws = np.random.default_rng(n).integers(-4, 5, n).astype(float)
    eps = np.concatenate([[-1e9], np.linspace(-4.0, 4.0, 17), [1e9]])
    curve = tail_curve_from_draws(draws, eps, Center.AROUND_EQ_PRIME, 0.0)
    ks = [int((draws >= e).sum()) for e in eps]
    assert np.array_equal(curve.tail_estimate, np.array(ks) / n)
    assert curve.upper_ci.tolist() == [binomial_upper_ci(k, n) for k in ks]
    assert curve.lower_ci.tolist() == [binomial_lower_ci(k, n) for k in ks]


def test_tail_curve_rejects_bad_grids():
    with pytest.raises(ConfigurationError):
        TailCurve(
            eps_grid=np.array([1.0, 0.5]),
            tail_estimate=np.array([0.5, 0.4]),
            upper_ci=np.array([0.6, 0.5]),
            lower_ci=np.array([0.4, 0.3]),
            trials=100,
            center=Center.AROUND_EQ_PRIME,
            center_value=0.0,
            center_std_error=0.0,
        )


def test_deviation_exceedance_calibrated():
    # fraction of draws above E[Q'] + deviation(t) stays below e^{-t} + slack
    from sworlab.bounds import deviation_subgaussian
    n, m, sigma2, trials = 30, 15, 0.25, 30_000
    fc = antipodal(n)
    scheme = SampleScheme(WITHOUT, m)
    center = expected_sup(fc, scheme, trials, RngStream(11), budget=0)
    draws = simulate_suprema(fc, scheme, trials, RngStream(12))
    for t in (1.0, 2.0, 4.0):
        level = deviation_subgaussian(BoundParams(N=n, m=m, sigma2=sigma2, t=t))
        k = int((draws - center.mean > level).sum())
        assert binomial_lower_ci(k, trials) <= math.exp(-t)


@pytest.mark.parametrize("n,m", [(20, 10), (100, 50)])
def test_monte_carlo_harness_agrees_with_the_exact_law(n, m):
    """Over 200 seeds, the delta = 0.01 upper band of tail_curve_from_draws
    covers the exact tail at no less than the nominal rate (one-sided
    binomial test at each eps), and every simulate_suprema mean lies within
    4 standard errors of the exact mean.  N = 20 samples the population,
    N = 100 the two level sets."""
    fc, scheme, seeds, trials = make_antipodal_class(n, 0.25), SampleScheme(WITHOUT, m), 200, 2000
    sups, weights = exact_law(fc, scheme)
    mean = float(weights @ sups)
    grid = default_eps_grid(m, class_variance(fc))
    exact_tail = np.array([weights[sups - mean >= eps].sum() for eps in grid])
    misses = np.zeros(grid.size, dtype=int)
    for seed in range(seeds):
        draws = simulate_suprema(fc, scheme, trials, RngStream(seed))
        curve = tail_curve_from_draws(draws, grid, Center.AROUND_EQ_PRIME, mean)
        misses += curve.upper_ci < exact_tail
        assert abs(draws.mean() - mean) <= 4 * draws.std(ddof=1) / math.sqrt(trials), seed
    for eps, k in zip(grid, misses):
        assert binomtest(int(k), seeds, 0.01, alternative="greater").pvalue >= 0.01, (eps, k)
