"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its wall-clock budget,
and emits a single pass/fail line (see conftest.record_criterion).  The
full Monte Carlo domination grid is computed once and shared between the
domination and deviation-calibration criteria.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import ldl

from conftest import record_criterion
from subroot import fixed_point
from sworlab.bounds import compare_exponents
from sworlab.cli import EXIT_CHECK_FAILED, EXIT_OK, run
from sworlab.experiments import (
    run_localize,
    run_oracle_check,
    run_transductive_erm,
    run_verify_bounds,
)
from sworlab.kernels import EigenSpectrum, eigen_spectrum, tailsum_bound


@pytest.fixture(scope="module")
def full_grid():
    """3 x 3 x 3 configuration grid at 1e5 trials, shared by two criteria."""
    start = time.perf_counter()
    payload = run_verify_bounds(trials=100_000, seed=0, full_grid=True)
    return payload, time.perf_counter() - start


def test_criterion_1_exact_oracle_sweep():
    start = time.perf_counter()
    payload = run_oracle_check(n_max=6, classes=20, max_funcs=5, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        payload["passed"]
        and payload["n_cases"] >= 20
        and all(c["ok"] for c in payload["cases"])
        and elapsed < 10.0
    )
    record_criterion(1, "exact enumeration oracle (gap and domination)", ok, elapsed)
    assert ok


def test_criterion_2_domination_grid_and_power(full_grid):
    payload, elapsed = full_grid
    grid_ok = payload["passed"] and len(payload["configurations"]) == 27
    domination_ok = all(
        report["passed"]
        for cfg in payload["configurations"]
        for report in cfg["domination"].values()
    )
    start = time.perf_counter()
    corrupted = run_verify_bounds(
        n=20, m=10, sigma2=0.25, trials=50_000, seed=0, corrupt_thm1=True
    )
    power_ok = not corrupted["configurations"][0]["domination"]["subgaussian"]["passed"]
    total = elapsed + (time.perf_counter() - start)
    ok = grid_ok and domination_ok and power_ok and elapsed < 180.0
    record_criterion(2, "Monte Carlo domination grid + corrupted-constant power", ok, total)
    assert ok


def test_criterion_3_deviation_calibration(full_grid):
    payload, elapsed = full_grid
    entries = [
        entry
        for cfg in payload["configurations"]
        for entry in cfg["deviation"].values()
    ]
    ok = bool(entries) and all(e["ok"] for e in entries)
    for cfg in payload["configurations"]:
        for t in (1.0, 2.0, 4.0):
            for e in (v for k, v in cfg["deviation"].items() if k.endswith(f"t={t}")):
                ok = ok and e["lower_ci"] <= math.exp(-t) + 1e-12
    record_criterion(3, "deviation-level exceedance calibration", ok, elapsed)
    assert ok


def test_criterion_4_exponent_regimes():
    start = time.perf_counter()
    small_frac = compare_exponents(N=10_000, m=100, sigma2=0.25, eps=1.0)["exponents"]
    low_var = compare_exponents(N=200, m=100, sigma2=1 / 64, eps=1.0)["exponents"]
    m = 100
    cross = compare_exponents(N=2 * m, m=m, sigma2=1 / 16, eps=1.0)["exponents"]
    elapsed = time.perf_counter() - start
    ratio = cross["elyaniv_pechyony_uncorrected"] / cross["subgaussian_loose"]
    ok = (
        small_frac["elyaniv_pechyony"] < small_frac["subgaussian"]
        and low_var["subgaussian"] < low_var["elyaniv_pechyony"]
        and abs(ratio - (2 * m - 0.5) / (2 * m)) < 1e-12
        and elapsed < 1.0
    )
    record_criterion(4, "analytic tail-exponent regime comparison", ok, elapsed)
    assert ok


def test_criterion_5_transductive_uniform_bounds():
    start = time.perf_counter()
    payload = run_transductive_erm(
        n=12, hypotheses=4, m=6, splits=10_000, seed=0, t_grid=(1.0, 2.0, 3.0)
    )
    elapsed = time.perf_counter() - start
    ok = (
        payload["passed"]
        and payload["provenance"]["sup_expectation"]["route"] == "exact"
        and payload["provenance"]["E_m"]["route"] == "exact"
        and payload["provenance"]["splits"]["route"] == "exact"  # all C(12, 6) = 924
        and all(v["ok"] for v in payload["validity"].values())
        and elapsed < 30.0
    )
    record_criterion(5, "generalization-bound validity over exact splits", ok, elapsed)
    assert ok


def test_criterion_6_fixed_point_solver():
    start = time.perf_counter()
    ok = True
    for c in (1e-3, 0.1, 1.0, 10.0):
        r = fixed_point(lambda x: c * math.sqrt(x), 1e-14, max(4 * c * c, 1.0), tol=1e-13)
        ok = ok and abs(r - c * c) <= 1e-10
    a, c = 0.3, 0.7
    root = ((c + math.sqrt(c * c + 4 * a)) / 2) ** 2
    r = fixed_point(lambda x: a + c * math.sqrt(x), 1e-14, 50.0, tol=1e-13)
    ok = ok and abs(r - root) <= 1e-10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    record_criterion(6, "sub-root fixed-point solver accuracy", ok, elapsed)
    assert ok


def test_criterion_7_localized_bound_validity():
    start = time.perf_counter()
    payload = run_localize(
        n=12, hypotheses=4, m=6, splits=10_000, seed=0, t_grid=(1.0, 2.0)
    )
    elapsed = time.perf_counter() - start
    names = {key.split("@")[0] for key in payload["validity"]}
    ok = (
        payload["passed"]
        and {"thm8", "thm9", "cor10"} <= names
        and all(v["ok"] for v in payload["validity"].values())
        and elapsed < 120.0
    )
    record_criterion(7, "localized excess-risk bound validity", ok, elapsed)
    assert ok


def _inertia_below(mat, x):
    _, d, _ = ldl(mat - x * np.eye(mat.shape[0]))
    return int((np.linalg.eigvalsh(d) < 0).sum())


def _bisection_eigenvalues(mat, tol):
    n = mat.shape[0]
    bound = float(np.abs(mat).sum()) + 1.0
    out = []
    for idx in range(n):
        lo, hi = -bound, bound
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _inertia_below(mat, mid) <= idx:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out[::-1])


def test_criterion_8_eigensolver_and_tailsum():
    start = time.perf_counter()
    n = 10
    identity_spec = eigen_spectrum(np.eye(n) / n)
    ok = np.array_equal(identity_spec.lambdas, np.full(n, 1 / n))

    d = 3
    lams = np.zeros(12)
    lams[:d] = (0.5, 0.3, 0.2)
    rank_d = EigenSpectrum(lambdas=lams)
    for k in (24, 60):
        val, theta = tailsum_bound(rank_d, k)
        ok = ok and theta == d and abs(val - d / k) < 1e-12

    gen = np.random.default_rng(0)
    a = gen.normal(size=(8, 8))
    g = (a @ a.T) / 8.0
    computed = eigen_spectrum(g).lambdas
    oracle = _bisection_eigenvalues(g, tol=1e-10)
    ok = ok and np.allclose(computed, oracle, atol=1e-8)

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    record_criterion(8, "eigensolver spectrum vs inertia oracle + tailsum structure", ok, elapsed)
    assert ok


def test_criterion_9_cli_reproducibility(tmp_path):
    start = time.perf_counter()
    payloads = []
    codes = []
    for name in ("first", "second"):
        out = tmp_path / name
        codes.append(
            run(
                [
                    "verify-bounds",
                    "--n",
                    "20",
                    "--m",
                    "10",
                    "--trials",
                    "5000",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
        )
        report = json.loads((out / "report.json").read_text())
        payloads.append(json.dumps(report["results"], sort_keys=True))
    elapsed = time.perf_counter() - start
    ok = (
        codes == [EXIT_OK, EXIT_OK]
        and payloads[0] == payloads[1]
        and run(
            [
                "verify-bounds",
                "--n",
                "20",
                "--m",
                "10",
                "--sigma2",
                "0.25",
                "--trials",
                "20000",
                "--corrupt-thm1",
                "--out",
                str(tmp_path / "corrupt"),
            ]
        )
        == EXIT_CHECK_FAILED
    )
    elapsed = time.perf_counter() - start
    record_criterion(9, "CLI determinism and exit-code contract", ok, elapsed)
    assert ok
