"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python -m pytest -q bench
"""

import inspect
import json
from pathlib import Path

import pytest
import reference
import sworlab
import tracer
import workloads
from sworlab import bounds

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _mc_grid_report(tmp_path, extra=()):
    wl = workloads.build("mc_grid", 0, tmp_path / "inputs")
    i = 3  # N=20, m=10, sigma2=0.01
    argv = wl.argv(i)
    argv[argv.index("--trials") + 1] = "20000"
    return wl, i, workloads.run_report(argv + list(extra), tmp_path)


def test_corrupt_thm1_report_counts_as_failed(tmp_path):
    wl, i, rec = _mc_grid_report(tmp_path, ["--corrupt-thm1"])
    assert workloads.failure(wl, i, rec) == "exit code 1"
    rec.exit_code = 0  # the report itself also says it failed
    assert workloads.failure(wl, i, rec) == "report says passed=false"


def test_mc_grid_centre_far_from_exact_counts_as_failed(tmp_path):
    wl, i, rec = _mc_grid_report(tmp_path)
    assert workloads.failure(wl, i, rec) is None
    report = json.loads(rec.report)
    cfg = report["results"]["configurations"][0]
    cfg["eq_prime"] += 6 * cfg["eq_prime_std_error"]
    rec.report = json.dumps(report)
    assert "eq_prime" in workloads.failure(wl, i, rec)


def test_exact_antipodal_centre_matches_enumeration():
    # N=6, m=3, a=1: |2K - 3| over all C(6,3) subsets, K from the first half
    from itertools import combinations

    subsets = list(combinations(range(6), 3))
    direct = sum(abs(2 * sum(x < 3 for x in s) - 3) for s in subsets) / len(subsets)
    assert workloads.exact_antipodal_centres(6, 3, 1.0)[0] == pytest.approx(direct, rel=1e-12)


def _bound_dict_entries():
    return {
        (name, key): fn
        for name, table in vars(bounds).items() if isinstance(table, dict)
        for key, fn in table.items() if inspect.isfunction(fn)
    }


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    tr = tracer.Tracer(sworlab)
    originals = _bound_dict_entries()
    assert originals
    with tr:
        wrapped = _bound_dict_entries()
        assert all(wrapped[k].__wrapped__ is fn for k, fn in originals.items())
        assert sworlab.tail_subgaussian is bounds.tail_subgaussian is not originals[("TAIL_BOUNDS", "subgaussian")]
        wl, i, rec = _mc_grid_report(tmp_path)
    assert _bound_dict_entries() == originals
    assert rec.exit_code == 0
    assert tr.calls("cli.run") == 1
    assert tr.calls("bounds.tail_*") > 0 and tr.calls(*tracer.GENERATOR) > 0
    assert tr.root_s <= rec.seconds
    metrics = tr.per_layer(reports=1, traced_s=rec.seconds, untraced_s=rec.seconds, report_bytes=1)
    assert metrics["empirical_process.simulate_suprema.draws"]["value"] == 3 * 20000


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _ in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_names_known_reference_chunks():
    for wl in workloads.WORKLOADS.values():
        assert wl.reference and set(wl.reference) <= set(reference.CHUNKS)


def test_speedometer_runs_at_least_min_rounds_and_reports_its_slowdown():
    speed = reference.Speedometer(("interp", "sampler_grid"))
    slowdown = speed.sample(0.0)
    assert speed.rounds == reference.MIN_ROUNDS
    assert slowdown == pytest.approx(speed.slowdown) and slowdown > 0
