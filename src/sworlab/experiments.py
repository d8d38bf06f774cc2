"""Batch experiments binding the bank, the verifier, and the labs.

Each run_* function is deterministic given its arguments (seed included),
returns a plain-dict payload suitable for JSON, and reports pass/fail of
its validity checks under a "passed" key.

Each run_<name> also declares the CLI subcommand <name> (dashes for
underscores): its keyword-only parameters are the subcommand's options, and
a positional parameter x is a table read from the CSV file at --x-csv.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

from . import bounds as bank, empirical_process
from .bounds import BoundParams, Center
from .empirical_process import (
    FunctionClass,
    center_class,
    class_variance,
    expected_sup,
    law_size,
    simulate_suprema,
    sup_route,
)
from .errors import ConfigurationError, OracleScaleError
from .ground_set import RngStream, SampleMode, SampleScheme
from .kernels import KernelSpec, eigen_spectrum, gram_matrix, tailsum_bound
from .localization import (
    build_excess_class,
    compute_B,
    excess_bound_cor10,
    excess_bound_thm8,
    excess_bound_thm9,
    fit_modulus,
)
from .transductive import (
    TransductiveProblem,
    erm,
    gen_bound_thm5,
    gen_bound_thm6,
    require_split,
    split_route,
    split_statistics,
)
from .verify import (
    binomial_lower_ci,
    check_domination,
    default_eps_grid,
    exceedances,
    tail_curves,
)

WITHOUT = SampleMode.WITHOUT_REPLACEMENT
WITH = SampleMode.WITH_REPLACEMENT


#: runs all calls of a _concurrently but the first, one at a time; its
#: thread starts on the first submit, so importing the package starts none
_POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sworlab")


def _concurrently(*calls) -> list:
    """The results of the zero-argument calls, in call order.  The first
    runs on the caller's thread and the others on _POOL; scipy's sparse
    products and numpy's array loops release the GIL, so their work overlaps.

    No call outlives this one: if a call raises, the calls not yet started
    are cancelled and the running ones awaited before the exception of
    the first failing call, in call order, propagates."""
    futures = [_POOL.submit(call) for call in calls[1:]]
    try:
        return [calls[0](), *(future.result() for future in futures)]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


def make_antipodal_class(n: int, sigma2: float) -> FunctionClass:
    """The two-function class {f, -f} with variance sigma2: f is +a on the
    first half of the population and -a on the rest (one zero if n is odd)."""
    if n < 2:
        raise ConfigurationError(f"the antipodal class needs n >= 2 points, got n={n}")
    if not 0.0 < sigma2 <= 1.0:
        raise ConfigurationError("sigma2 must be in (0, 1]")
    half = n // 2
    a = math.sqrt(sigma2 * n / (2 * half))
    if a > 1.0:
        raise ConfigurationError(f"sigma2={sigma2} needs entries above 1 at n={n}")
    f = np.zeros(n)
    f[:half] = a
    f[half : 2 * half] = -a
    return FunctionClass(np.vstack([f, -f]), centered=True)


MAX_PROBLEM_DRAWS = 25
"""Tables make_random_problem draws before it gives up on distinct risks."""


def make_random_problem(n: int, hypotheses: int, rng: RngStream) -> TransductiveProblem:
    """A random loss table whose overall risks differ to 9 digits (finite B)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if hypotheses < 1:
        raise ConfigurationError(f"hypotheses must be >= 1, got {hypotheses}")
    gen = rng.generator()
    for _ in range(MAX_PROBLEM_DRAWS):
        table = gen.uniform(0.0, 1.0, size=(hypotheses, n))
        risks = table.mean(axis=1)
        if np.unique(np.round(risks, 9)).size == hypotheses:
            return TransductiveProblem(table)
    raise ConfigurationError(
        f"no random table of {hypotheses} hypotheses on n={n} points with distinct"
        f" risks in {MAX_PROBLEM_DRAWS} draws; lower --hypotheses or give --loss-csv"
    )


def _check_t_grid(t_grid) -> None:
    """Refuse a --t-grid value that is negative or not finite, before any draw."""
    for t in t_grid:
        if not 0.0 <= t < math.inf:
            raise ConfigurationError(f"--t-grid values must be nonnegative and finite, got {t:g}")


def run_oracle_check(
    *, n_max: int = 6, classes: int = 20, max_funcs: int = 5, seed: int = 0
) -> dict:
    """Exhaustive check of E[Q'] <= E[Q] and the 2 m^3/N gap bound."""
    if n_max < 2:
        raise ConfigurationError(f"n_max must be >= 2, got {n_max}")
    if max_funcs < 1:
        raise ConfigurationError(f"max_funcs must be >= 1, got {max_funcs}")
    if classes < 1:
        raise ConfigurationError(f"classes must be >= 1, got {classes}")
    fcs = []
    for i in range(classes):  # class i draws from stream indices 2 i and 2 i + 1
        gen = RngStream(seed, 2 * i).generator()
        n = int(gen.integers(2, n_max + 1))
        m_funcs = int(gen.integers(1, max_funcs + 1))
        raw = RngStream(seed, 2 * i + 1).generator().uniform(-1.0, 1.0, size=(m_funcs, n))
        fcs.append(center_class(raw))
    # every scheme in the order it runs, so the first refusal comes before any enumeration
    schemes = [
        (fc, SampleScheme(mode, m))
        for fc in fcs
        for m in range(1, fc.n_points + 1)
        for mode in (WITHOUT, WITH)
    ]
    for fc, scheme in schemes:
        size = law_size(fc, scheme)
        if size > empirical_process.DEFAULT_ENUM_BUDGET:
            raise OracleScaleError(
                f"oracle-check enumerates exactly, and the class drawn with N = {fc.n_points},"
                f" m = {scheme.m}, {scheme.mode.value} has {size} count vectors, more than"
                " the enumeration budget; lower --n-max"
            )
    means = [expected_sup(fc, scheme).mean for fc, scheme in schemes]
    cases = []
    for (fc, scheme), without, with_ in zip(schemes[::2], means[::2], means[1::2]):
        n, m = fc.n_points, scheme.m
        gap, gap_bound = with_ - without, bank.gap_bound(n, m)
        ok = gap >= -1e-12 and gap <= gap_bound + 1e-12
        cases.append(
            {
                "N": n,
                "m": m,
                "n_functions": fc.n_functions,
                "mean_without": without,
                "mean_with": with_,
                "gap": gap,
                "gap_bound": gap_bound,
                "ok": ok,
            }
        )
    return {
        "passed": all(case["ok"] for case in cases),
        "n_cases": len(cases),
        "cases": cases,
        "provenance": {"expectations": "exact enumeration"},
    }


def _config_checks(
    n: int,
    m: int,
    sigma2: float,
    trials: int,
    seed: int,
    stream_base: int,
    t_grid,
    corrupt_thm1: bool,
) -> dict:
    """Domination and deviation-calibration checks for one configuration."""
    fc = make_antipodal_class(n, sigma2)
    scheme = SampleScheme(WITHOUT, m)
    s2 = class_variance(fc)

    center_rng = RngStream(seed, stream_base)
    eq_rng = RngStream(seed, stream_base + 1)
    tail_rng = RngStream(seed, stream_base + 2)

    # the centres stay Monte Carlo, with the mean and standard error that
    # expected_sup takes from draws, even where exact_law is short enough
    # that their draws come from it.  The three draws run in turn: on such
    # draws a pool handoff costs more than it overlaps
    def center(mode, rng):
        sups = simulate_suprema(fc, SampleScheme(mode, m), trials, rng)
        return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(trials))

    (eq_prime, eq_prime_se), (eq_m, eq_m_se) = center(WITHOUT, center_rng), center(WITH, eq_rng)
    draws = np.sort(simulate_suprema(fc, scheme, trials, tail_rng))
    centers = {Center.AROUND_EQ_PRIME: eq_prime, Center.AROUND_EQ: eq_m}
    eps_grid = default_eps_grid(m, s2)
    curves = tail_curves(draws, eps_grid, centers)

    params = BoundParams(N=n, m=m, sigma2=s2, eq_m=max(eq_m, 0.0))
    domination = {}
    for tag, center in bank.BOUND_CENTERS.items():
        if corrupt_thm1 and tag == "subgaussian":  # the power check weakens the constant 8 to 0.08
            bound = bank.tail_subgaussian(params, eps_grid, constant=0.08)
        else:
            bound = bank.TAIL_BOUNDS[tag](params, eps_grid)
        domination[tag] = check_domination(curves[center], tag, bound)

    table = {}
    for tag, fn in bank.DEVIATION_BOUNDS.items():
        levels = fn(params, np.asarray(t_grid, dtype=float))
        counts = exceedances(draws, centers[bank.BOUND_CENTERS[tag]], levels)
        for t, level, k in zip(t_grid, levels.tolist(), counts.tolist()):
            table[f"{tag}@t={t}"] = level, k, math.exp(-float(t))
    deviation = _validity_frequencies(("level", "exceedance"), table, draws.size)

    passed = all(r["passed"] for r in domination.values()) and all(
        d["ok"] for d in deviation.values()
    )
    return {
        "N": n,
        "m": m,
        "sigma2": s2,
        "trials": trials,
        "eq_prime": eq_prime,
        "eq_prime_std_error": eq_prime_se,
        "eq_m": eq_m,
        "eq_m_std_error": eq_m_se,
        "domination": domination,
        "deviation": deviation,
        "passed": passed,
        "eps_grid": eps_grid.tolist(),
        "curves": {center.name.lower(): curve.to_dict() for center, curve in curves.items()},
    }


ACCEPTANCE_GRID = {
    "N": (20, 100, 1000),
    "m_frac": (0.1, 0.5, 0.9),
    "sigma2": (0.01, 0.1, 0.25),
}


def run_verify_bounds(
    *,
    n: int = 100,
    m: int = 50,
    sigma2: float = 0.25,
    trials: int = 100_000,
    t_grid=(1.0, 2.0, 4.0),
    full_grid: bool = False,
    corrupt_thm1: bool = False,
    seed: int = 0,
) -> dict:
    """Domination checks: a single configuration or the full 3x3x3 grid.
    corrupt_thm1, a power check, weakens the sub-Gaussian constant 8 to 0.08."""
    _check_t_grid(t_grid)
    if trials < 2:  # a Monte Carlo centre needs two draws for its standard error
        raise ConfigurationError(f"trials must be >= 2, got {trials}")
    configs = [(n, m, sigma2)]
    if full_grid:
        configs = [
            (nn, max(1, int(round(frac * nn))), s2)
            for nn, frac, s2 in itertools.product(*ACCEPTANCE_GRID.values())
        ]
    results = [  # config i draws from stream indices 10 i, 10 i + 1, 10 i + 2
        _config_checks(nn, mm, s2, trials, seed, 10 * i, t_grid, corrupt_thm1)
        for i, (nn, mm, s2) in enumerate(configs)
    ]
    return {
        "passed": all(r["passed"] for r in results),
        "configurations": results,
        "provenance": {
            "centers": "Monte Carlo estimates at the stated trial counts",
            "ci": "one-sided exact binomial, delta = 0.01",
        },
    }


def run_compare_exponents(
    *, n: int = 100, m: int = 50, sigma2: float = 0.0625, eps: float = 1.0, eq_m: float = 0.0
) -> dict:
    """The bank's tail exponents compared at one deviation eps (no simulation)."""
    return {**bank.compare_exponents(n, m, sigma2, eps, eq_m=eq_m), "passed": True}


EXAMPLE_STREAM = 10**6
"""Stream index of transductive-erm's reported example split."""

SPLIT_STREAM = 10**6 + 1
"""Stream index of the validity splits; no other draw in a run uses it."""

FIT_STREAM = 10**6 + 2
"""Stream index of localize's modulus fits: substream j draws the j-th fit,
every slice breakpoint at once; no other draw uses it."""


def _problem(loss, n: int, hypotheses: int, m: int, seed: int) -> TransductiveProblem:
    """The hypotheses x points `loss` table, or else a random n-point table of
    `hypotheses` rows; either must split at m."""
    rng = RngStream(seed, 777)
    tp = TransductiveProblem(loss) if loss is not None else make_random_problem(n, hypotheses, rng)
    require_split(tp, m)
    return tp


def _validity_frequencies(keys: tuple, table: dict, n: int | None) -> dict:
    """Each table entry, name -> (level, hits, guarantee), becomes the row
    {keys[0]: level, keys[1]: frequency, lower_ci, guarantee, ok}, ok when
    lower_ci is at most the guarantee.  With n, hits counts exceedances in
    n draws, and lower_ci is the exact lower CI of the frequency hits / n;
    one binomial_lower_ci call serves the whole table.  With n None, hits
    is the exact probability of an exceedance, and lower_ci equals it."""
    hits = [k for _, k, _ in table.values()]
    frequencies = lower = hits
    if n is not None:
        frequencies = [k / n for k in hits]
        lower = binomial_lower_ci(np.array(hits, dtype=int), n).tolist()
    return {
        name: {keys[0]: level, keys[1]: f, "lower_ci": lo, "guarantee": g, "ok": lo <= g}
        for (name, (level, _, g)), f, lo in zip(table.items(), frequencies, lower)
    }


def _split_validity(
    stats: np.ndarray, weights, t_grid, bound_fns: dict, guarantee_factor: float = 1.0
) -> dict:
    """How often the per-split `stats` exceed each bound, as validity rows.

    bound_fns maps name -> callable(t) giving the bound level, and each
    bound is checked against guarantee_factor * e^{-t}.  With weights
    (exact splits, see transductive.split_statistics) the
    violation_frequency is the exact probability of an exceedance; else it
    is the frequency over the drawn splits (see _validity_frequencies).
    """
    table = {}
    for name, fn in bound_fns.items():
        for t in t_grid:
            level = fn(float(t))
            exceeds = stats > level + 1e-12
            if weights is None:
                hits = int(exceeds.sum())
            else:  # the weights sum to 1 up to rounding
                hits = min(1.0, float(weights[exceeds].sum()))
            table[f"{name}@t={t}"] = level, hits, guarantee_factor * math.exp(-float(t))
    n = stats.size if weights is None else None
    return _validity_frequencies(("bound", "violation_frequency"), table, n)


def run_transductive_erm(
    loss=None,
    *,
    n: int = 12,
    m: int = 6,
    hypotheses: int = 4,
    splits: int = 10_000,
    trials: int = 50_000,
    t_grid=(1.0, 2.0, 3.0),
    seed: int = 0,
) -> dict:
    """Uniform-bound validity for the two generalization bounds, plus one
    fully reported ERM split."""
    _check_t_grid(t_grid)
    tp = _problem(loss, n, hypotheses, m, seed)
    n = tp.N
    fc = tp.centered_class

    def sup_gap(train, test):
        return (tp.overall_risk - train).max(axis=1)

    schemes = SampleScheme(WITHOUT, m), SampleScheme(WITH, m)
    for scheme in schemes:  # refused before the splits start drawing
        sup_route(fc, scheme, trials)
    route = split_route(tp, m, splits)
    without, with_, (weights, (gaps,)) = _concurrently(
        partial(expected_sup, fc, schemes[0], trials, RngStream(seed, 888)),
        partial(expected_sup, fc, schemes[1], trials, RngStream(seed, 889)),
        partial(split_statistics, tp, m, route, RngStream(seed, SPLIT_STREAM), sup_gap),
    )
    sup_exp = without.mean / m
    e_m = with_.mean / m

    bound_fns = {
        "thm5": lambda t: gen_bound_thm5(tp, m, t, sup_exp),
        "thm6": lambda t: gen_bound_thm6(tp, m, t, e_m),
    }
    validity = _split_validity(gaps, weights, t_grid, bound_fns)

    _, (train, test) = split_statistics(
        tp, m, split_route(tp, m, 1), RngStream(seed, EXAMPLE_STREAM),
        lambda train, test: train, lambda train, test: test,
    )
    passed = all(v["ok"] for v in validity.values())
    return {
        "passed": passed,
        "N": n,
        "m": m,
        "n_hypotheses": tp.n_hypotheses,
        "sigma2_H": tp.sigma2_H,
        "sup_expectation": sup_exp,
        "E_m": e_m,
        "validity": validity,
        "example_split": {
            **erm(tp, train[0], test[0]),
            "train_risk": [float(x) for x in train[0]],
            "test_risk": [float(x) for x in test[0]],
            "overall_risk": [float(x) for x in tp.overall_risk],
        },
        "provenance": {
            "sup_expectation": without.provenance, "E_m": with_.provenance, "splits": route
        },
    }


def run_localize(
    loss=None,
    *,
    n: int = 12,
    m: int = 6,
    hypotheses: int = 4,
    splits: int = 10_000,
    trials: int = 20_000,
    t_grid=(1.0, 2.0),
    seed: int = 0,
) -> dict:
    """Localized bounds: B, sub-root fits for both flavors and both sample
    sizes, and the validity of Thm 8, Thm 9 and Cor 10 over the split law.
    Each bound's value at each t appears once, under validity. When u = m
    the u fits are the m fits, computed once."""
    _check_t_grid(t_grid)
    tp = _problem(loss, n, hypotheses, m, seed)
    route = split_route(tp, m, splits)  # refused before the fits start drawing
    n = tp.N
    u = n - m
    ec = build_excess_class(tp)
    B, witness = compute_B(ec)

    fit_rng = RngStream(seed, FIT_STREAM)
    # no bound reads u_with's r*; the report keeps all four fits. A fit
    # depends only on (class, size, scheme), so when u = m the u fits are
    # the m fits, and substreams 2 and 3 go unused
    fits = {
        "m_without": fit_modulus(ec, m, WITHOUT, trials, fit_rng.substream(0), B),
        "m_with": fit_modulus(ec, m, WITH, trials, fit_rng.substream(1), B),
    }
    if u == m:
        fits.update(u_without=fits["m_without"], u_with=fits["m_with"])
    else:
        fits.update(
            u_without=fit_modulus(ec, u, WITHOUT, trials, fit_rng.substream(2), B),
            u_with=fit_modulus(ec, u, WITH, trials, fit_rng.substream(3), B),
        )
    r_m, r_u = fits["m_without"]["r_star"], fits["u_without"]["r_star"]
    r_m_w = fits["m_with"]["r_star"]
    star = ec.star_index

    def overall_excess(train, test):
        return tp.overall_risk[train.argmin(axis=1)] - tp.overall_risk[star]

    def test_excess(train, test):
        h_hat = train.argmin(axis=1)[:, None]
        return np.take_along_axis(test, h_hat, axis=1)[:, 0] - test.min(axis=1)

    weights, (overall_stats, test_stats) = split_statistics(
        tp, m, route, RngStream(seed, SPLIT_STREAM), overall_excess, test_excess
    )
    excess_fns = {
        "thm8": lambda t: excess_bound_thm8(B, r_m, n, m, t),
        "thm9": lambda t: excess_bound_thm9(B, r_m_w, m, t),
    }
    test_fns = {"cor10": lambda t: excess_bound_cor10(B, r_m, r_u, n, m, u, t)}
    validity = {
        **_split_validity(overall_stats, weights, t_grid, excess_fns),
        **_split_validity(test_stats, weights, t_grid, test_fns, guarantee_factor=2.0),
    }
    passed = all(v["ok"] for v in validity.values())
    return {
        "passed": passed,
        "N": n,
        "m": m,
        "u": u,
        "B": B,
        "B_witness": witness,
        "star_index": star,
        "radii": ec.radii.tolist(),
        "fits": fits,
        "validity": validity,
        "constants": {
            "thm8": [51, 17],
            "thm9_numerator": 901,
            "thm9_t_term": "(16 + 25B)/(3m)",
        },
        "provenance": {
            "B": "exact from the loss table",
            "modulus": "exact enumeration when within budget, else Monte Carlo"
            " with upper-confidence (2 se) majorant fitting",
            "splits": route,
        },
    }


def run_kernel_bound(
    points=None,
    *,
    n: int = 32,
    dim: int = 2,
    kernel: str = "gaussian",
    bandwidth: float = 1.0,
    degree: int = 2,
    offset: float = 0.0,
    k: int = 16,
    c_l: float = 1.0,
    gram_csv=None,
    seed: int = 0,
) -> dict:
    """Spectrum and tailsum bound of the Gram matrix of `points` (rows), or
    else of n x dim standard normal points drawn from `seed`, under a
    built-in kernel (see kernels.KernelSpec); written to gram_csv if given.
    The bound is c_l times the structural bound, the bound at c_l = 1."""
    if not 0 < c_l < math.inf:
        raise ConfigurationError(f"c_L must be positive and finite, got {c_l}")
    if k < 1:  # refused before the Gram matrix and its eigensolve
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if points is None:
        for key, size in (("n", n), ("dim", dim)):
            if size < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {size}")
        points = np.random.default_rng(seed).standard_normal((n, dim))
    spec = KernelSpec(kind=kernel, bandwidth=bandwidth, degree=degree, offset=offset)
    gram = gram_matrix(points, spec)
    spectrum = eigen_spectrum(gram)
    structural, theta = tailsum_bound(spectrum, k)
    if gram_csv:
        np.savetxt(gram_csv, gram, delimiter=",")
    return {
        "passed": True,
        "N": gram.shape[0],
        "kernel": kernel,
        "eigenvalues": [float(x) for x in spectrum.lambdas],
        "trace": spectrum.trace,
        "k": k,
        "c_L": c_l,
        "tailsum_bound": c_l * structural,
        "tailsum_bound_structural": structural,
        "theta_star": theta,
        "theta_convention": "exclusive",
    }
