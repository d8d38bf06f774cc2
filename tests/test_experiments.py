import numpy as np
import pytest

from sworlab import experiments, localization
from sworlab.errors import OracleScaleError
from sworlab.experiments import (
    EXAMPLE_STREAM,
    FIT_STREAM,
    SPLIT_STREAM,
    run_kernel_bound,
    run_localize,
    run_transductive_erm,
)
from sworlab.ground_set import RngStream
from sworlab.kernels import KernelSpec, gram_matrix

TABLE = np.random.default_rng(0).uniform(size=(3, 8))


def test_erm_falls_back_to_monte_carlo_only_when_exact_is_refused():
    # 3 x 8, m = 4: C(8, 4) = 70 subsets and C(11, 4) = 330 multisets fit the
    # budget; 3 x 30, m = 15: C(30, 15) and C(44, 15) exceed it
    exact = run_transductive_erm(loss=TABLE, m=4, splits=50, trials=200)
    for key, size in (("sup_expectation", 70), ("E_m", 330)):
        assert exact["provenance"][key] == {
            "route": "exact", "enumeration_size": size, "budget": 10**6, "trials": 0
        }
    wide = np.random.default_rng(1).uniform(size=(3, 30))
    mc = run_transductive_erm(loss=wide, m=15, splits=50, trials=200)
    for key in ("sup_expectation", "E_m"):
        assert mc["provenance"][key]["route"] == "monte_carlo"
        assert mc["provenance"][key]["trials"] == 200
    with pytest.raises(OracleScaleError, match="no Monte Carlo trials"):
        run_transductive_erm(loss=wide, m=15, splits=50, trials=0)


def test_modulus_fit_does_not_hide_exact_route_errors():
    # m = u = 20 of 40: enumeration is refused, and with no Monte Carlo
    # trials the refusal reaches the caller; no fit falls back silently
    table = np.random.default_rng(1).uniform(size=(4, 40))
    with pytest.raises(OracleScaleError, match="no Monte Carlo trials"):
        run_localize(loss=table, m=20, splits=50, trials=0)


@pytest.mark.parametrize("run", [run_localize, run_transductive_erm])
def test_splits_are_drawn_once_from_the_split_stream(monkeypatch, run):
    calls = []
    sampled = experiments.sampled_split_risks

    def counting(tp, m, splits, rng):
        calls.append(rng)
        return sampled(tp, m, splits, rng)

    monkeypatch.setattr(experiments, "sampled_split_risks", counting)
    out = run(loss=TABLE, m=4, splits=300, trials=200, seed=3)
    # the default loss table comes from stream 777, so the splits must not;
    # transductive-erm then draws its reported split on a stream of its own
    example = [RngStream(3, EXAMPLE_STREAM)] if run is run_transductive_erm else []
    assert calls == [RngStream(3, SPLIT_STREAM), *example]
    assert len({777, SPLIT_STREAM, EXAMPLE_STREAM, FIT_STREAM}) == 4
    assert all(0.0 <= v["violation_frequency"] <= 1.0 for v in out["validity"].values())


def test_localize_fits_do_not_share_draws_across_seeds():
    # m = u = 20 of 40: exact enumeration is refused, so every fit runs Monte Carlo
    table = np.random.default_rng(1).uniform(size=(4, 40))

    def psi_grid(seed, fit):
        out = run_localize(loss=table, m=20, splits=50, trials=200, seed=seed)
        assert not out["fits"][fit]["exact"]
        return [point["psi_hat"] for point in out["fits"][fit]["grid"]]

    assert psi_grid(0, "u_without") != psi_grid(2, "m_without")


def test_each_modulus_fit_makes_one_oracle_call(monkeypatch):
    # four fits (m and u, with and without replacement), every radius of a
    # fit's grid from the same call
    calls = []
    oracle = localization.expected_sup

    def counting(*args, **kwargs):
        calls.append(kwargs["ends"].size)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(localization, "expected_sup", counting)
    out = run_localize(loss=TABLE, m=4, splits=50, trials=200)
    assert calls == [12] * 4
    assert all(len(fit["grid"]) == 12 for fit in out["fits"].values())


def test_each_fit_reports_a_certified_c_and_r_star_c_squared():
    out = run_localize(loss=TABLE, m=4, splits=50, trials=200)
    for fit in out["fits"].values():
        assert fit["r_star"] == fit["c"] ** 2
        for point in fit["grid"]:
            bound = fit["c"] * point["r"] ** 0.5
            assert bound >= point["psi_hat"] + 2 * point["std_error"] - 1e-12


def test_kernel_bound_without_points_draws_them_from_the_seed(tmp_path):
    drawn = run_kernel_bound(n=9, dim=3, seed=4, gram_csv=tmp_path / "gram.csv")
    points = np.random.default_rng(4).standard_normal((9, 3))
    assert drawn == run_kernel_bound(points)
    gram = np.loadtxt(tmp_path / "gram.csv", delimiter=",")
    assert np.allclose(gram, gram_matrix(points, KernelSpec("gaussian")), rtol=0, atol=1e-15)
