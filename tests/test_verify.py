import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import bisect
from scipy.stats import beta, binom, binomtest

from sworlab.bounds import TAIL_BOUNDS, BoundParams, Center, tail_subgaussian
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
    exceedances,
    tail_curves,
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

    @pytest.mark.parametrize("n", [1, 7, 10_000])
    def test_equals_beta_quantiles_at_every_count(self, n):
        # the limits are Beta quantiles (Clopper-Pearson); 0 and 1 at the edges
        k = np.arange(n + 1)
        upper, lower = binomial_upper_ci(k, n), binomial_lower_ci(k, n)
        assert upper[n] == 1.0 and lower[0] == 0.0
        below, above = k[:-1], k[1:]
        np.testing.assert_allclose(upper[:-1], beta.ppf(0.99, below + 1, n - below), rtol=1e-12)
        np.testing.assert_allclose(lower[1:], beta.ppf(0.01, above, n - above + 1), rtol=1e-12)

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
    """(E[Q'], the curve of P{Q' - E[Q'] >= eps} with its binomial bands):
    the centre from expected_sup (exact within the budget, else Monte Carlo
    on an independent substream), the curve from `trials` fresh draws."""
    centre = expected_sup(fc, scheme, trials, rng.substream(1_000_003)).mean
    draws = np.sort(simulate_suprema(fc, scheme, trials, rng))
    curves = tail_curves(draws, eps_grid, {Center.AROUND_EQ_PRIME: centre})
    return centre, curves[Center.AROUND_EQ_PRIME]


def domination(curve, tag, params):
    return check_domination(curve, tag, TAIL_BOUNDS[tag](params, curve.eps_grid))


class TestEstimateTail:
    def test_beyond_range_is_zero(self):
        fc = antipodal(8)
        grid = np.array([1.0, 2 * 4 + 1.0])  # |sum| <= m = 4
        _, curve = estimate_tail(fc, SampleScheme(WITHOUT, 4), grid, 2000, RngStream(0))
        assert curve.tail_estimate[-1] == 0.0

    def test_eps_zero_probability_positive(self):
        fc = antipodal(8)
        _, curve = estimate_tail(
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
        centre, curve = estimate_tail(fc, SampleScheme(WITHOUT, m), grid, 20_000, RngStream(2))
        assert centre == pytest.approx(exact_mean)  # enumerable -> exact
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
        _, curve = estimate_tail(
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
        _, curve = estimate_tail(fc, SampleScheme(WITHOUT, 3), grid, 1000, RngStream(4))
        params = BoundParams(N=6, m=3, sigma2=0.0)
        for tag in ("subgaussian", "elyaniv_pechyony"):
            assert domination(curve, tag, params)["passed"]

    def test_theorems_pass_on_real_runs(self):
        n, m = 40, 20
        fc = antipodal(n)
        sigma2 = 0.25
        _, curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, m),
            default_eps_grid(m, sigma2),
            30_000,
            RngStream(5),
        )
        params = BoundParams(N=n, m=m, sigma2=sigma2)
        assert domination(curve, "subgaussian", params)["passed"]
        assert domination(curve, "elyaniv_pechyony", params)["passed"]

    def test_centering_mismatch_refused(self):
        fc = antipodal(8)
        _, curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.5]),
            1000,
            RngStream(6),
        )
        with pytest.raises(ContractError):
            domination(curve, "talagrand_swor", BoundParams(N=8, m=4, sigma2=0.25))

    def test_corrupted_bound_detected(self):
        # dividing the sub-Gaussian constant by 100 must produce violations
        n, m, sigma2 = 20, 10, 0.25
        fc = antipodal(n)
        _, curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, m),
            default_eps_grid(m, sigma2),
            50_000,
            RngStream(7),
        )
        params = BoundParams(N=n, m=m, sigma2=sigma2)
        honest = domination(curve, "subgaussian", params)
        weakened = tail_subgaussian(params, curve.eps_grid, constant=0.08)
        corrupted = check_domination(curve, "subgaussian", weakened)
        assert honest["passed"]
        assert not corrupted["passed"]
        assert corrupted["violations"]

    def test_unknown_tag(self):
        fc = antipodal(8)
        _, curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.5]),
            500,
            RngStream(8),
        )
        # "bousquet" would repeat talagrand_swor's formula and centre under a second tag
        for tag in ("nonsense", "bousquet"):
            with pytest.raises(ConfigurationError, match="unknown theorem tag"):
                check_domination(curve, tag, np.ones(1))


class TestSerialization:
    def test_curve_dict_and_csv(self, tmp_path):
        fc = antipodal(8)
        _, curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.2, 0.6, 1.4]),
            2000,
            RngStream(9),
        )
        d = curve.to_dict()
        # the eps grid, the trial count, the centre and delta live beside the curve, not in it
        assert set(d) == {"tail_estimate", "upper_ci", "lower_ci"}
        assert all(len(values) == 3 for values in d.values())
        assert d["tail_estimate"] == curve.tail_estimate.tolist()
        config = {"eps_grid": curve.eps_grid.tolist(), "curves": {"around_eq_prime": d}}
        _write_curves(tmp_path, {"configurations": [config]})
        lines = (tmp_path / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "config_index,center,eps,estimate,upper_ci,lower_ci"
        assert len(lines) == 4
        assert [float(line.split(",")[2]) for line in lines[1:]] == [0.2, 0.6, 1.4]

    def test_report_dict(self):
        fc = antipodal(8)
        _, curve = estimate_tail(
            fc,
            SampleScheme(WITHOUT, 4),
            np.array([0.5]),
            500,
            RngStream(10),
        )
        d = domination(curve, "subgaussian", BoundParams(N=8, m=4, sigma2=0.25))
        assert set(d) == {"passed", "violations"}
        assert d["passed"] == (not d["violations"])


@pytest.mark.parametrize("n", [1, 2, 10, 10_000])
def test_tail_curve_bands_equal_the_scalar_intervals(n):
    # suprema are discrete, so draws can equal grid points; the outer grid
    # points give k = n and k = 0, the edge cases; both centres' limits come
    # from one batched call per side and equal the per-count calls
    draws = np.random.default_rng(n).integers(-4, 5, n).astype(float)
    eps = np.concatenate([[-1e9], np.linspace(-4.0, 4.0, 17), [1e9]])
    centres = {Center.AROUND_EQ_PRIME: 0.0, Center.AROUND_EQ: 0.5}
    curves = tail_curves(np.sort(draws), eps, centres)
    for center, value in centres.items():
        curve = curves[center]
        ks = [int((draws - value >= e).sum()) for e in eps]
        assert curve.center is center
        assert np.array_equal(curve.tail_estimate, np.array(ks) / n)
        assert curve.upper_ci.tolist() == [binomial_upper_ci(k, n) for k in ks]
        assert curve.lower_ci.tolist() == [binomial_lower_ci(k, n) for k in ks]


@pytest.mark.parametrize("center", [0.0, 0.1, -1.0 / 3.0, 1e-17, 2.5])
def test_one_sort_counts_every_centre_exactly(center):
    # rounding is monotone: sorted draws minus a centre are the sorted
    # deviations, so the counts equal those of the unsorted deviations
    gen = np.random.default_rng(17)
    draws = np.concatenate([gen.normal(size=500), gen.integers(-3, 4, 500) / 3.0])
    levels = np.concatenate([np.linspace(-3.0, 3.0, 61), draws[:50] - center])
    direct = [int((draws - center >= level).sum()) for level in levels]
    assert exceedances(np.sort(draws), center, levels).tolist() == direct


def test_tail_curves_refuse_unsorted_or_no_draws():
    centres = {Center.AROUND_EQ_PRIME: 0.0}
    with pytest.raises(ConfigurationError, match="sorted ascending"):
        tail_curves(np.array([1.0, 0.0]), np.array([0.5]), centres)
    with pytest.raises(ConfigurationError, match="at least one draw"):
        tail_curves(np.array([]), np.array([0.5]), centres)


def test_domination_refuses_a_bound_off_the_curve_grid():
    fc = antipodal(8)
    _, curve = estimate_tail(fc, SampleScheme(WITHOUT, 4), np.array([0.5, 1.0]), 500, RngStream(8))
    params = BoundParams(N=8, m=4, sigma2=0.25)
    for eps in ([0.5], [0.5, 1.0, 2.0], [[0.5, 1.0]]):
        with pytest.raises(ConfigurationError, match="one value per eps"):
            check_domination(curve, "subgaussian", tail_subgaussian(params, eps))


def test_tail_curve_rejects_bad_grids():
    with pytest.raises(ConfigurationError):
        TailCurve(
            eps_grid=np.array([1.0, 0.5]),
            tail_estimate=np.array([0.5, 0.4]),
            upper_ci=np.array([0.6, 0.5]),
            lower_ci=np.array([0.4, 0.3]),
            center=Center.AROUND_EQ_PRIME,
        )


def test_deviation_exceedance_calibrated():
    # fraction of draws above E[Q'] + deviation(t) stays below e^{-t} + slack
    from sworlab.bounds import deviation_subgaussian
    n, m, sigma2, trials = 30, 15, 0.25, 30_000
    fc = antipodal(n)
    scheme = SampleScheme(WITHOUT, m)
    # a Monte Carlo centre, drawn as verify-bounds draws its centres
    center = simulate_suprema(fc, scheme, trials, RngStream(11)).mean()
    draws = simulate_suprema(fc, scheme, trials, RngStream(12))
    levels = deviation_subgaussian(BoundParams(N=n, m=m, sigma2=sigma2), np.array([1.0, 2.0, 4.0]))
    for t, level in zip((1.0, 2.0, 4.0), levels):
        k = int((draws - center > level).sum())
        assert binomial_lower_ci(k, trials) <= math.exp(-t)


@pytest.mark.parametrize("n,m", [(20, 10), (100, 50)])
def test_monte_carlo_harness_agrees_with_the_exact_law(n, m):
    """Over 200 seeds, the delta = 0.01 upper band of tail_curves
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
        curve = tail_curves(np.sort(draws), grid, {Center.AROUND_EQ_PRIME: mean})[
            Center.AROUND_EQ_PRIME
        ]
        misses += curve.upper_ci < exact_tail
        assert abs(draws.mean() - mean) <= 4 * draws.std(ddof=1) / math.sqrt(trials), seed
    for eps, k in zip(grid, misses):
        assert binomtest(int(k), seeds, 0.01, alternative="greater").pvalue >= 0.01, (eps, k)
