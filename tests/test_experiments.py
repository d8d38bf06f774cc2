import itertools
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sworlab import bounds, empirical_process, experiments, localization, transductive, verify
from sworlab.cli import EXIT_CONFIG_ERROR, run
from sworlab.errors import ConfigurationError, OracleScaleError
from sworlab.experiments import (
    EXAMPLE_STREAM,
    FIT_STREAM,
    SPLIT_STREAM,
    WITH,
    WITHOUT,
    _problem,
    run_kernel_bound,
    run_localize,
    run_oracle_check,
    run_transductive_erm,
    run_verify_bounds,
)
from sworlab.ground_set import RngStream, SampleScheme
from sworlab.transductive import TransductiveProblem, split_route, split_statistics
from sworlab.kernels import EigenSpectrum, KernelSpec, gram_matrix, tailsum_bound
from sworlab.verify import binomial_lower_ci

TABLE = np.random.default_rng(0).uniform(size=(3, 8))
#: TABLE's excess-loss rows: h* and two rows of distinct positive E f^2
TABLE_BREAKPOINTS = 2


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
    split_statistics = experiments.split_statistics

    def counting(tp, m, route, rng, *statistics):
        calls.append(rng)
        return split_statistics(tp, m, route, rng, *statistics)

    monkeypatch.setattr(experiments, "split_statistics", counting)
    # 60 drawn splits: from C(8, 4) = 70 on, the exact route draws none
    out = run(loss=TABLE, m=4, splits=60, trials=200, seed=3)
    route = {"route": "monte_carlo", "enumeration_size": 70, "splits": 60}
    assert out["provenance"]["splits"] == route
    # the default loss table comes from stream 777, so the splits must not;
    # transductive-erm then draws its reported split on a stream of its own
    example = [RngStream(3, EXAMPLE_STREAM)] if run is run_transductive_erm else []
    assert calls == [RngStream(3, SPLIT_STREAM), *example]
    assert len({777, SPLIT_STREAM, EXAMPLE_STREAM, FIT_STREAM}) == 4
    assert all(0.0 <= v["violation_frequency"] <= 1.0 for v in out["validity"].values())


def test_localize_fits_do_not_share_draws_across_seeds():
    # m = 15, u = 25 of 40: exact enumeration is refused, so every fit runs
    # Monte Carlo, and the u fits are fits of their own
    table = np.random.default_rng(1).uniform(size=(4, 40))

    def psi_grid(seed, fit):
        out = run_localize(loss=table, m=15, splits=50, trials=200, seed=seed)
        assert not out["fits"][fit]["exact"]
        return out["fits"][fit]["psi_hat"]

    assert psi_grid(0, "u_without") != psi_grid(2, "m_without")


@pytest.mark.parametrize(
    "m, sizes",
    [
        # u = m = 4: the u fits are the m fits, and substreams 2 and 3 go unused
        (4, [4]),
        # m = 3, u = 5: four fits, m and u, each without and then with replacement
        (3, [3, 5]),
    ],
    ids=["u_equals_m", "u_differs"],
)
def test_each_distinct_modulus_fit_makes_one_oracle_call(monkeypatch, m, sizes):
    # fit i draws on substream i of the fit stream, and every breakpoint of
    # its grid comes from the same call
    calls = []
    oracle = localization.expected_sup

    def counting(fc, scheme, trials, rng, **kwargs):
        calls.append((scheme, rng, kwargs["ends"].size))
        return oracle(fc, scheme, trials, rng, **kwargs)

    monkeypatch.setattr(localization, "expected_sup", counting)
    out = run_localize(loss=TABLE, m=m, splits=50, trials=200)
    fit_rng = RngStream(0, FIT_STREAM)
    schemes = [SampleScheme(mode, size) for size in sizes for mode in (WITHOUT, WITH)]
    assert calls == [
        (scheme, fit_rng.substream(i), TABLE_BREAKPOINTS) for i, scheme in enumerate(schemes)
    ]
    assert len(out["radii"]) == TABLE_BREAKPOINTS
    assert list(out["fits"]) == ["m_without", "m_with", "u_without", "u_with"]
    assert all(
        len(fit["psi_hat"]) == len(fit["std_error"]) == TABLE_BREAKPOINTS
        for fit in out["fits"].values()
    )


@pytest.mark.parametrize("m, n_calls", [(4, 2), (3, 4)], ids=["u_equals_m", "u_differs"])
def test_one_localize_report_builds_the_variance_slices_once(monkeypatch, m, n_calls):
    # one excess-loss class per report: its fits share its breakpoints
    # and its one sorted g-class (and so its level sets)
    built, calls = [], []
    build, oracle = experiments.build_excess_class, localization.expected_sup

    def counting(tp):
        built.append(build(tp))
        return built[-1]

    def recording(fc, *args, ends, **kwargs):
        calls.append((fc, ends))
        return oracle(fc, *args, ends=ends, **kwargs)

    monkeypatch.setattr(experiments, "build_excess_class", counting)
    monkeypatch.setattr(localization, "expected_sup", recording)
    out = run_localize(loss=TABLE, m=m, splits=50, trials=200)
    [ec] = built
    assert len(calls) == n_calls
    assert all(fc is ec.gclass and ends is ec.ends for fc, ends in calls)
    assert out["radii"] == ec.radii.tolist()


def test_reused_exact_u_fits_equal_fits_made_afresh():
    # u = m = 4 on the exact route: the reported u fits are what a fit at
    # size u on its own substream gives, so a fit reads only its size and scheme
    out = run_localize(loss=TABLE, m=4, splits=50, trials=200)
    ec = localization.build_excess_class(TransductiveProblem(TABLE))
    B, _ = localization.compute_B(ec)
    fit_rng = RngStream(0, FIT_STREAM)
    for key, flavor, index in (("u_without", WITHOUT, 2), ("u_with", WITH, 3)):
        fresh = localization.fit_modulus(ec, out["u"], flavor, 200, fit_rng.substream(index), B)
        assert fresh["exact"] and out["fits"][key] == fresh


def test_monte_carlo_u_fits_are_the_m_fits_when_u_equals_m(monkeypatch):
    # u = m = 20 of 40: every fit runs Monte Carlo; the u fits reuse the m
    # fits, so only substreams 0 and 1 of the fit stream are ever drawn
    drawn = []
    generator = RngStream.generator

    def recording(self):
        drawn.append(self)
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", recording)
    table = np.random.default_rng(1).uniform(size=(4, 40))
    out = run_localize(loss=table, m=20, splits=50, trials=200)
    fits = out["fits"]
    assert not fits["m_without"]["exact"] and not fits["m_with"]["exact"]
    assert fits["u_without"] == fits["m_without"] and fits["u_with"] == fits["m_with"]
    assert {s.path[0] for s in drawn if s.stream_index == FIT_STREAM} == {0, 1}


def test_one_verify_bounds_config_sorts_once_and_batches_its_limits(monkeypatch):
    # one sort of the tail draws; one upper and one lower Clopper-Pearson
    # call for both curves, one lower call for the deviation table; one
    # BoundParams, validated once, and one call of each bound over the
    # whole eps grid (or t grid) per check
    calls = {"sort": 0, "upper": 0, "lower": 0, "table": 0, "params": 0}
    grids = {}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def recording(key, fn):
        def wrapped(params, x, *args, **kwargs):
            grids.setdefault(key, []).append(np.shape(x))
            return fn(params, x, *args, **kwargs)

        return wrapped

    post_init = bounds.BoundParams.__post_init__
    monkeypatch.setattr(np, "sort", counting("sort", np.sort))
    monkeypatch.setattr(verify, "binomial_upper_ci", counting("upper", verify.binomial_upper_ci))
    monkeypatch.setattr(verify, "binomial_lower_ci", counting("lower", verify.binomial_lower_ci))
    monkeypatch.setattr(
        experiments, "binomial_lower_ci", counting("table", experiments.binomial_lower_ci)
    )
    monkeypatch.setattr(bounds.BoundParams, "__post_init__", counting("params", post_init))
    expected = {}
    for table, shape in ((bounds.TAIL_BOUNDS, (20,)), (bounds.DEVIATION_BOUNDS, (3,))):
        for tag, fn in table.items():
            expected[fn.__name__, tag] = [shape]
            monkeypatch.setitem(table, tag, recording((fn.__name__, tag), fn))
    out = run_verify_bounds(n=20, m=10, trials=2000, t_grid=(1.0, 2.0, 4.0))
    assert calls == {"sort": 1, "upper": 1, "lower": 1, "table": 1, "params": 1}
    assert grids == expected
    assert len(out["configurations"][0]["eps_grid"]) == 20


def test_transductive_erm_builds_its_centred_class_once(monkeypatch):
    built = []
    function_class = transductive.FunctionClass

    def counting(*args, **kwargs):
        built.append(kwargs.get("centered", False))
        return function_class(*args, **kwargs)

    monkeypatch.setattr(transductive, "FunctionClass", counting)
    out = run_transductive_erm(loss=TABLE, m=4, splits=50, trials=200, t_grid=(1.0, 2.0, 3.0))
    # one centred class, and one class of the losses for the split route
    assert sorted(built) == [False, True]
    assert len(out["validity"]) == 6


def test_each_fit_reports_the_fixed_point_of_its_majorant():
    # psi(r) = max over the grid of y min(1, sqrt(r / r_k)), y = psi_hat + 2 se:
    # psi(r*) = r*, so no term exceeds r* and one meets it
    out = run_localize(loss=TABLE, m=4, splits=50, trials=200)
    for fit in out["fits"].values():
        r_star = fit["r_star"]
        terms = [
            (p + 2 * se) * min(1.0, math.sqrt(r_star / r))
            for r, p, se in zip(out["radii"], fit["psi_hat"], fit["std_error"], strict=True)
        ]
        assert r_star > 0 and max(terms) == pytest.approx(r_star, rel=1e-12)


def test_localize_checks_each_bound_at_the_fits_it_reads():
    # Thm 8 reads the without-replacement r* at m, Thm 9 the with-replacement
    # r* at m, Cor 10 the without-replacement r* at m and at u; each value
    # is reported once, as its validity check's bound
    out = run_localize(loss=TABLE, m=4, splits=50, trials=200, t_grid=(1.0, 2.0))
    b, n, m, u = out["B"], out["N"], out["m"], out["u"]
    r = {name: fit["r_star"] for name, fit in out["fits"].items()}
    for t in (1.0, 2.0):
        expected = {
            "thm8": localization.excess_bound_thm8(b, r["m_without"], n, m, t),
            "thm9": localization.excess_bound_thm9(b, r["m_with"], m, t),
            "cor10": localization.excess_bound_cor10(
                b, r["m_without"], r["u_without"], n, m, u, t
            ),
        }
        for name, bound in expected.items():
            assert out["validity"][f"{name}@t={t}"]["bound"] == bound


def test_localize_constants_are_the_bound_formulas():
    # the report writes the constants of Thm 8 and Thm 9 apart from the
    # functions that use them: each bound, rebuilt from the report's
    # constants, B and r*, must be the function's value
    out = run_localize(loss=TABLE, m=4, splits=50, trials=200, t_grid=(0.0, 1.0, 2.0))
    c, b, n, m = out["constants"], out["B"], out["N"], out["m"]
    r_m, r_m_w = out["fits"]["m_without"]["r_star"], out["fits"]["m_with"]["r_star"]
    t_term = c["thm9_t_term"].replace("25B", "25 * B").replace("3m", "3 * m")
    for t in (0.0, 1.0, 2.0):
        thm8 = c["thm8"][0] * r_m / b + c["thm8"][1] * b * t * n / m**2
        thm9 = c["thm9_numerator"] * r_m_w / b + t * eval(t_term, {"B": b, "m": m})
        assert thm8 == pytest.approx(localization.excess_bound_thm8(b, r_m, n, m, t), rel=1e-12)
        assert thm9 == pytest.approx(localization.excess_bound_thm9(b, r_m_w, m, t), rel=1e-12)
    assert r_m > 0 and r_m_w > 0


def brute_force_moduli(table: np.ndarray, m: int, with_replacement: bool):
    """(breakpoints, psi): the distinct positive E f^2 of the excess-loss
    rows f = loss_h - loss_h*, and at each r, B/m times the expected sup
    over {f : E f^2 <= r} of sum over the sample of (E f - f), by listing
    every m-subset (equally likely) or every m-multiset (weight
    m! / prod k_i! / N^m) of the N points."""
    n = table.shape[1]
    f = table - table[np.argmin(table.mean(axis=1))]
    means, moments = f.mean(axis=1), (f**2).mean(axis=1)
    positive = means > 0
    B = float(np.max(moments[positive] / means[positive]))
    pick = itertools.combinations_with_replacement if with_replacement else itertools.combinations
    samples = np.array(list(pick(range(n), m)))
    counts = np.zeros((len(samples), n))
    np.add.at(counts, (np.arange(len(samples))[:, None], samples), 1.0)
    if with_replacement:
        factorials = np.array([math.factorial(k) for k in range(m + 1)], dtype=float)
        weights = math.factorial(m) / factorials[counts.astype(int)].prod(axis=1) / n**m
    else:
        weights = np.full(len(samples), 1.0 / math.comb(n, m))
    sums = m * means - counts @ f.T  # (samples, hypotheses)
    breakpoints = np.unique(moments[moments > 0])
    psi = [B / m * weights @ sums[:, moments <= r].max(axis=1) for r in breakpoints]
    return breakpoints, np.array(psi)


@pytest.mark.parametrize("seed, m", [(23, 6), (0, 6), (1, 4), (2, 9), (3, 3)])
def test_r_star_is_certified_at_every_slice_breakpoint(seed, m):
    # the least sub-root majorant of the exact modulus at every breakpoint r_k
    # has fixed point max_k min(psi_k, psi_k^2 / r_k): r* may not fall below
    # it, and on the exact route (N = 12) it is that value
    out = run_localize(m=m, splits=50, seed=seed)
    table = _problem(None, 12, 4, m, seed).loss_table
    # the report states the breakpoints once: the distinct positive E f^2 of
    # the excess-loss rows, recomputed here from the loss table
    excess = table - table[np.argmin(table.mean(axis=1))]
    moments = (excess**2).mean(axis=1)
    assert out["radii"] == pytest.approx(sorted(set(moments[moments > 0].tolist())), rel=1e-12)
    for name, size, with_replacement in (
        ("m_without", m, False), ("m_with", m, True),
        ("u_without", 12 - m, False), ("u_with", 12 - m, True),
    ):
        fit = out["fits"][name]
        breakpoints, psi = brute_force_moduli(table, size, with_replacement)
        reference = float(np.max(np.minimum(psi, psi**2 / breakpoints)))
        assert fit["exact"]
        assert fit["r_star"] >= reference - 1e-12, (name, fit["r_star"], reference)
        assert abs(fit["r_star"] - reference) <= 1e-12, (name, fit["r_star"], reference)
        assert out["radii"] == pytest.approx(breakpoints.tolist(), rel=1e-12)
        assert fit["psi_hat"] == pytest.approx(psi.tolist(), rel=1e-12)


def test_kernel_bound_without_points_draws_them_from_the_seed(tmp_path):
    drawn = run_kernel_bound(n=9, dim=3, seed=4, gram_csv=tmp_path / "gram.csv")
    points = np.random.default_rng(4).standard_normal((9, 3))
    assert drawn == run_kernel_bound(points)
    gram = np.loadtxt(tmp_path / "gram.csv", delimiter=",")
    assert np.allclose(gram, gram_matrix(points, KernelSpec("gaussian")), rtol=0, atol=1e-15)


@pytest.mark.parametrize("c_l", [0.3, 1.0, 2.5, 7.0])
def test_kernel_bound_structural_is_the_bound_at_c_l_one(c_l):
    # the bound is linear in c_L: one tailsum serves every c_L, and its
    # minimizing theta does not move
    report = run_kernel_bound(n=20, dim=2, k=8, c_l=c_l, seed=3)
    spectrum = EigenSpectrum(lambdas=np.array(report["eigenvalues"]))
    structural, theta = tailsum_bound(spectrum, 8)
    assert report["tailsum_bound_structural"] == structural
    assert report["tailsum_bound"] == c_l * structural
    assert report["theta_star"] == theta
    assert theta == run_kernel_bound(n=20, dim=2, k=8, seed=3)["theta_star"]


def test_kernel_bound_refuses_k_zero_before_the_gram(monkeypatch):
    built = []

    def failing(*args, **kwargs):
        built.append(args)
        raise AssertionError("gram_matrix ran before k was checked")

    monkeypatch.setattr(experiments, "gram_matrix", failing)
    with pytest.raises(ConfigurationError, match="k must be >= 1, got 0"):
        run_kernel_bound(n=8, k=0)
    assert built == []


@pytest.mark.parametrize(
    "n, hits, ok",
    [
        # drawn counts: frequency k / n, its exact lower limit, one call per table
        (10, (0, 3, 10), (True, True, False)),
        # exact probabilities are their own lower limit; p == guarantee is ok
        (None, (0.0, 0.5, 1.0), (True, True, False)),
    ],
)
def test_one_builder_makes_every_validity_row(monkeypatch, n, hits, ok):
    calls = []
    lower_ci = experiments.binomial_lower_ci

    def recording(k, trials):
        calls.append((k.tolist(), trials))
        return lower_ci(k, trials)

    monkeypatch.setattr(experiments, "binomial_lower_ci", recording)
    table = {f"b@t={i}": (float(i), h, 0.5) for i, h in enumerate(hits)}
    rows = experiments._validity_frequencies(("bound", "violation_frequency"), table, n)
    assert list(rows) == list(table)
    assert calls == ([] if n is None else [(list(hits), n)])
    for (name, (level, h, guarantee)), expected in zip(table.items(), ok):
        p = h if n is None else h / n
        lower = p if n is None else binomial_lower_ci(h, n)
        row = {"bound": level, "violation_frequency": p, "lower_ci": lower}
        assert rows[name] == {**row, "guarantee": guarantee, "ok": expected}


def test_oracle_check_evaluates_each_gap_bound_once(monkeypatch):
    calls = []
    gap_bound = bounds.gap_bound

    def recording(n, m):
        calls.append((n, m))
        return gap_bound(n, m)

    monkeypatch.setattr(bounds, "gap_bound", recording)
    out = run_oracle_check(n_max=4, classes=3, seed=2)
    assert calls == [(case["N"], case["m"]) for case in out["cases"]]
    assert all(case["gap_bound"] == 2.0 * case["m"] ** 3 / case["N"] for case in out["cases"])


def test_batched_lower_limits_equal_each_entry_alone():
    # each table's limits come from one binomial_lower_ci call; every entry
    # must read what a call for its own count would give
    config = run_verify_bounds(n=20, m=10, trials=2000, t_grid=(0.0, 0.5, 1.0), seed=3)
    tables = [(config["configurations"][0]["deviation"], "exceedance", 2000)]
    for experiment in (run_transductive_erm, run_localize):
        # 900 drawn splits: from 924 = C(12, 6) on, the exact route draws none
        report = experiment(splits=900, t_grid=(0.0, 0.5), seed=1)
        assert report["provenance"]["splits"]["route"] == "monte_carlo"
        tables.append((report["validity"], "violation_frequency", 900))
    counts = []
    for table, key, n in tables:
        assert len(table) > 1
        for entry in table.values():
            k = round(entry[key] * n)
            assert entry[key] == k / n
            assert entry["lower_ci"] == binomial_lower_ci(k, n)
            counts.append(k)
    assert len(set(counts)) > 3  # the check sees distinct nonzero counts


def test_exact_splits_report_the_probability_of_each_violation(monkeypatch):
    # N = 12, m = 6 with distinct columns: the 924 = C(12, 6) splits are
    # each scored once, none drawn but the reported example; at t = 0 thm5's
    # bound is E sup, so some splits violate it
    drawn = []
    draw_blocks = transductive.draw_blocks

    def recording(fc, scheme, rows, rng):
        drawn.append(rng)
        return draw_blocks(fc, scheme, rows, rng)

    monkeypatch.setattr(transductive, "draw_blocks", recording)
    out = run_transductive_erm(splits=924, t_grid=(0.0, 0.5, 1.0), seed=1)
    route = {"route": "exact", "enumeration_size": 924, "splits": 924}
    assert out["provenance"]["splits"] == route and drawn == [RngStream(1, EXAMPLE_STREAM)]
    tp = _problem(None, 12, 4, 6, 1)
    subsets = [list(s) for s in itertools.combinations(range(12), 6)]
    gaps = np.array([(tp.overall_risk - tp.loss_table[:, s].mean(axis=1)).max() for s in subsets])
    for entry in out["validity"].values():
        p = entry["violation_frequency"]
        assert p == pytest.approx((gaps > entry["bound"] + 1e-12).mean(), abs=1e-12)
        assert entry["lower_ci"] == p and entry["ok"] == (p <= entry["guarantee"])
    assert out["validity"]["thm5@t=0.0"]["violation_frequency"] > 0.1
    # localize builds its rows the same way, and cor10 checks against 2 e^{-t}
    out = run_localize(splits=924, t_grid=(0.0, 0.5, 1.0), seed=1)
    assert out["provenance"]["splits"] == route and len(drawn) == 1
    for entry in out["validity"].values():
        p = entry["violation_frequency"]
        assert entry["lower_ci"] == p and entry["ok"] == (p <= entry["guarantee"])
    for t in (0.0, 0.5, 1.0):
        assert out["validity"][f"cor10@t={t}"]["guarantee"] == 2.0 * math.exp(-t)


def test_the_example_split_of_a_one_level_table_is_its_only_split(monkeypatch):
    # every point has the same losses: the split law has one count vector,
    # listed with the others' risks, so no split is drawn, the example's neither
    drawn, draw_blocks = [], transductive.draw_blocks
    monkeypatch.setattr(
        transductive, "draw_blocks", lambda *args: drawn.append(args) or draw_blocks(*args)
    )
    out = run_transductive_erm(loss=np.full((2, 5), 0.5), m=2, splits=50, trials=50)
    assert out["provenance"]["splits"]["enumeration_size"] == 1 and drawn == []
    example = out["example_split"]
    assert example["train_risk"] == example["test_risk"] == example["overall_risk"] == [0.5, 0.5]


@pytest.mark.parametrize(
    "command, guarded", [("transductive-erm", "expected_sup"), ("localize", "fit_modulus")]
)
def test_no_splits_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, command, guarded):
    calls = []
    monkeypatch.setattr(experiments, guarded, lambda *args, **kwargs: calls.append(args))
    assert run([command, "--splits", "0", "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: splits must be >= 1, got 0\n"
    assert calls == []


#: name -> (bound, violation_frequency, lower_ci) of the validity checks of
#: WIDE_RUN on WIDE_TABLE (C(400, 40) splits, so drawn), as read before the
#: exact split route existed
WIDE_TABLE = np.random.default_rng(40).uniform(size=(64, 400))
WIDE_RUN = {"m": 40, "splits": 300, "trials": 200, "t_grid": (0.0, 0.01), "seed": 3}
WIDE_VALIDITY = {
    "thm5@t=0.0": (0.10338414883873533, 0.46, 0.3923090837354579),
    "thm5@t=0.01": (0.14721828249265131, 0.02, 0.005983109837973733),
    "thm6@t=0.0": (0.2165407470492764, 0.0, 0.0),
    "thm6@t=0.01": (0.2238048654629404, 0.0, 0.0),
}


def test_drawn_route_reads_as_before_the_exact_route():
    out = run_transductive_erm(loss=WIDE_TABLE, **WIDE_RUN)
    assert out["provenance"]["splits"] == {
        "route": "monte_carlo", "enumeration_size": math.comb(400, 40), "splits": 300
    }
    assert list(out["validity"]) == list(WIDE_VALIDITY)
    for name, pinned in WIDE_VALIDITY.items():
        entry = out["validity"][name]
        got = entry["bound"], entry["violation_frequency"], entry["lower_ci"]
        assert got == pytest.approx(pinned, rel=1e-9, abs=1e-12), name
        assert entry["ok"]


def test_traced_peak_of_the_exact_split_route_stays_small():
    # N = 20, m = 10 with distinct columns: all 184 756 splits, scored in 19
    # blocks.  The peak (40.5 MB) is the enumeration of their count vectors,
    # which keeps a 23 MB count matrix; a block's scores add under 1 MB.
    # Drawing as many splits peaks at 4.9 MB.
    tp = TransductiveProblem(np.random.default_rng(41).uniform(size=(4, 20)))
    route = split_route(tp, 10, math.comb(20, 10))
    assert route["route"] == "exact"
    empirical_process._count_vectors.cache_clear()
    tracemalloc.start()
    try:
        _, (gaps,) = split_statistics(
            tp, 10, route, RngStream(0), lambda train, test: (tp.overall_risk - train).max(axis=1)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        empirical_process._count_vectors.cache_clear()
    assert gaps.size == route["enumeration_size"]
    assert peak <= 44 * 2**20


class RecordingPool:
    """experiments._POOL, keeping every future it hands out."""

    def __init__(self, pool):
        self.pool, self.futures = pool, []

    def submit(self, fn):
        self.futures.append(self.pool.submit(fn))
        return self.futures[-1]


class TestConcurrently:
    def test_results_come_in_call_order_and_the_first_call_stays_on_the_caller(self):
        caller = threading.get_ident()
        out = experiments._concurrently(
            threading.get_ident, lambda: time.sleep(0.05) or "slow", lambda: "fast"
        )
        assert out[0] == caller and out[1:] == ["slow", "fast"]

    @staticmethod
    def _calls(first_raises: bool):
        """A refusing call among slow ones that log their start and end; the
        refusal waits until a pool call is running, so there is one to wait for."""
        log, running = [], threading.Event()

        def slow(name):
            def call():
                log.append(("start", name))
                running.set()
                time.sleep(0.1)
                log.append(("end", name))
                return name

            return call

        def refuse():
            running.wait(5)
            raise ConfigurationError("refused")

        if first_raises:
            return log, (refuse, slow("a"), slow("b"), slow("c"))
        return log, (slow("first"), refuse, slow("b"), slow("c"))

    @pytest.mark.parametrize("first_raises", [True, False], ids=["first-call", "pool-call"])
    def test_a_raising_call_leaves_no_call_running(self, monkeypatch, first_raises):
        pool = RecordingPool(experiments._POOL)
        monkeypatch.setattr(experiments, "_POOL", pool)
        log, calls = self._calls(first_raises)
        with pytest.raises(ConfigurationError, match="refused"):
            experiments._concurrently(*calls)
        assert len(pool.futures) == 3 and all(f.done() for f in pool.futures)
        started = {name for event, name in log if event == "start"}
        assert started and started == {name for event, name in log if event == "end"}
        time.sleep(0.15)  # a cancelled call never starts later
        assert {name for event, name in log if event == "start"} == started

    @pytest.mark.parametrize("refused", [WITHOUT, WITH], ids=["first-call", "pool-call"])
    def test_a_refused_expectation_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, refused
    ):
        # transductive-erm runs the without-replacement expectation on the
        # calling thread and the other, with its splits, on the pool
        pool = RecordingPool(experiments._POOL)
        oracle = experiments.expected_sup

        def refusing(fc, scheme, *args, **kwargs):
            if scheme.mode is refused:
                raise ConfigurationError(f"refused {scheme.mode.value}")
            return oracle(fc, scheme, *args, **kwargs)

        monkeypatch.setattr(experiments, "_POOL", pool)
        monkeypatch.setattr(experiments, "expected_sup", refusing)
        assert run(["transductive-erm", "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: refused {refused.value}\n"
        assert len(pool.futures) == 2 and all(f.done() for f in pool.futures)

    @pytest.mark.parametrize(
        "trials,error",
        [
            (0, "exceed the enumeration budget"),
            (1, "needs trials >= 2"),
            (-1, "trials must be >= 0"),
        ],
    )
    def test_a_refused_route_draws_no_split(self, tmp_path, capsys, monkeypatch, trials, error):
        # m = 20 of 40 refuses enumeration; the refusal comes before any
        # pool call, so no split is drawn for a report that is not written
        pool = RecordingPool(experiments._POOL)
        splits = []
        monkeypatch.setattr(experiments, "_POOL", pool)
        monkeypatch.setattr(experiments, "split_statistics", lambda *args: splits.append(args))
        argv = ["transductive-erm", "--n", "40", "--m", "20", "--trials", str(trials)]
        assert run([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and error in err
        assert pool.futures == [] and splits == []


def test_results_do_not_depend_on_the_schedule(monkeypatch):
    # N = 40 with 8 distinct-risk hypotheses samples the population, and
    # 20 001 trials make three blocks per expectation; the pooled run, with
    # threads switched often, must match the calls run in turn and in
    # reverse, byte for byte
    def results():
        erm = run_transductive_erm(n=40, m=20, hypotheses=8, splits=20_001, trials=20_001, seed=5)
        assert all(p["route"] == "monte_carlo" for p in erm["provenance"].values())
        verify = run_verify_bounds(n=40, m=12, trials=20_001, seed=5)
        return json.dumps([erm, verify], sort_keys=True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = results()
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(experiments, "_concurrently", lambda *calls: [call() for call in calls])
    assert results() == pooled
    monkeypatch.setattr(
        experiments, "_concurrently", lambda *calls: [call() for call in calls[::-1]][::-1]
    )
    assert results() == pooled
