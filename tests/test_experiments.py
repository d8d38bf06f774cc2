import numpy as np
import pytest

from sworlab import experiments
from sworlab.errors import OracleScaleError
from sworlab.experiments import SPLIT_STREAM, run_localize, run_transductive_erm
from sworlab.ground_set import RngStream

TABLE = np.random.default_rng(0).uniform(size=(3, 8))


def _raise(exc):
    def route(*args, **kwargs):
        raise exc("exact route")

    return route


def test_erm_falls_back_to_monte_carlo_only_when_exact_is_refused(monkeypatch):
    monkeypatch.setattr(experiments, "exact_sup_expectation", _raise(OracleScaleError))
    out = run_transductive_erm(loss_table=TABLE, m=4, splits=50, trials=200)
    assert out["provenance"]["sup_expectation"].startswith("monte carlo")
    monkeypatch.setattr(experiments, "exact_sup_expectation", _raise(ValueError))
    with pytest.raises(ValueError):
        run_transductive_erm(loss_table=TABLE, m=4, splits=50, trials=200)


def test_modulus_fit_does_not_hide_exact_route_errors(monkeypatch):
    estimate = experiments.estimate_modulus

    def exact_broken(*args, method="monte_carlo", **kwargs):
        if method == "exact":
            raise ValueError("exact route")
        return estimate(*args, method=method, **kwargs)

    monkeypatch.setattr(experiments, "estimate_modulus", exact_broken)
    with pytest.raises(ValueError):
        run_localize(loss_table=TABLE, m=4, splits=50, trials=200)


@pytest.mark.parametrize("run", [run_localize, run_transductive_erm])
def test_splits_are_drawn_once_from_the_split_stream(monkeypatch, run):
    calls = []
    sampled = experiments.sampled_split_risks

    def counting(tp, m, splits, rng):
        calls.append(rng)
        return sampled(tp, m, splits, rng)

    monkeypatch.setattr(experiments, "sampled_split_risks", counting)
    out = run(loss_table=TABLE, m=4, splits=300, trials=200, seed=3)
    # the default loss table comes from stream 777, so the splits must not
    assert calls == [RngStream(3, SPLIT_STREAM)] and SPLIT_STREAM != 777
    assert all(0.0 <= v["violation_frequency"] <= 1.0 for v in out["validity"].values())


def test_localize_fits_do_not_share_draws_across_seeds():
    # m = u = 20 of 40: exact enumeration is refused, so every fit runs Monte Carlo
    table = np.random.default_rng(1).uniform(size=(4, 40))

    def psi_grid(seed, fit):
        out = run_localize(loss_table=table, m=20, splits=50, trials=200, seed=seed)
        assert not out["fits"][fit]["exact"]
        return [point["psi_hat"] for point in out["fits"][fit]["grid"]]

    assert psi_grid(0, "u_without") != psi_grid(2, "m_without")
