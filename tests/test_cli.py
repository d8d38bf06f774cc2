import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import sworlab
from sworlab import empirical_process, experiments, localization
from sworlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    _cli,
    run,
)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestConfigFile:
    def test_parsing(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(
            "# a comment\n"
            "n = 40\n"
            "m = 20\n"
            "sigma2=0.1  # trailing comment\n"
            "t-grid = 1,2\n"
            "corrupt-thm1 = true\n"
            "trials = 2000\n"
        )
        out = tmp_path / "o"
        # the weakened sub-Gaussian bound fails: the switch was read as on
        assert run(["verify-bounds", "--config", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
        config = read_report(out)["config"]
        expected = {"n": 40, "m": 20, "sigma2": 0.1, "t_grid": "1,2", "corrupt_thm1": True}
        assert {key: config[key] for key in expected} == expected

    def test_bad_line(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("just some words\n")
        code = run(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert "expected key=value, got 'just some words'" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("bogus-key = 7\n")
        code = run(
            ["compare-exponents", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG_ERROR

    def test_missing_file_exits_2(self, tmp_path):
        code = run(
            [
                "compare-exponents",
                "--config",
                str(tmp_path / "nope"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG_ERROR

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("n = 40\nm = 20\n")
        out = tmp_path / "o"
        code = run(
            [
                "compare-exponents",
                "--config",
                str(path),
                "--m",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        report = read_report(out)
        assert report["config"]["n"] == 40
        assert report["config"]["m"] == 10


    def test_flag_at_its_default_overrides_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("n = 50\n")
        out = tmp_path / "o"
        code = run(["compare-exponents", "--config", str(path), "--n", "100", "--out", str(out)])
        assert code == EXIT_OK
        assert read_report(out)["config"]["n"] == 100

    def test_file_values_take_their_flag_types(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg"
        path.write_text("eps = 2\nout = 007\n")
        assert run(["compare-exponents", "--config", str(path)]) == EXIT_OK
        config = read_report(tmp_path / "007")["config"]
        assert config["out"] == "007"
        assert isinstance(config["eps"], float)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("trials = 1e3", "trials must be int, got '1e3'"),
            ("sigma2 = lots", "sigma2 must be float, got 'lots'"),
            ("full-grid = maybe", "full_grid must be true or false, got 'maybe'"),
        ],
    )
    def test_uncoercible_file_value_exits_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "cfg"
        path.write_text(line + "\n")
        code = run(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert f"config error: {message}" in capsys.readouterr().err


class TestInputErrors:
    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run(["verify-bounds", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert "config error: seed must be >= 0" in capsys.readouterr().err

    def test_non_numeric_t_grid_exits_2(self, tmp_path, capsys):
        code = run(["verify-bounds", "--t-grid", "1,x", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert "config error: t-grid must be comma-separated numbers" in capsys.readouterr().err

    CSV_FLAGS = [
        ("transductive-erm", "--loss-csv"),
        ("localize", "--loss-csv"),
        ("kernel-bound", "--points-csv"),
    ]

    @pytest.mark.parametrize("command, flag", CSV_FLAGS)
    @pytest.mark.parametrize("name", ["nonexistent.csv", "a-directory"])
    def test_missing_csv_exits_2(self, tmp_path, capsys, command, flag, name):
        (tmp_path / "a-directory").mkdir()
        code = run([command, flag, str(tmp_path / name), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", CSV_FLAGS)
    @pytest.mark.parametrize(
        "text", ["", "\n\n", "# only a comment\n"], ids=["empty", "blank", "comment"]
    )
    def test_empty_csv_exits_2_with_one_line(self, tmp_path, capsys, command, flag, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked warning fails the run
            code = run([command, flag, str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {path} holds no numbers\n"

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_at_or_under_a_file_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch, under
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(experiments, "run_compare_exponents", refuse)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "o" if under else blocker
        code = run(["compare-exponents", "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["compare-exponents"], "report.json"),
            (["verify-bounds", "--n", "20", "--m", "10", "--trials", "200"], "curves.csv"),
        ],
        ids=["report", "curves"],
    )
    def test_unwritable_output_exits_2_with_one_line(self, tmp_path, capsys, argv, blocked):
        # a directory where an output file goes: the run finishes, its write fails
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        assert run([*argv, "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(out / blocked) in err

    def test_single_point_antipodal_class_exits_2(self, tmp_path, capsys):
        # one point has no antipodal pair: sigma2 would silently become 0
        argv = ["verify-bounds", "--n", "1", "--m", "1", "--trials", "100"]
        code = run(argv + ["--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert "config error: the antipodal class needs n >= 2" in capsys.readouterr().err

    def test_non_numeric_loss_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "loss.csv"
        path.write_text("0.1,0.2,0.3\n1,2,abc\n")
        code = run(["transductive-erm", "--loss-csv", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle-check", "--n-max", "1"], "n_max must be >= 2"),
            (["oracle-check", "--max-funcs", "0"], "max_funcs must be >= 1"),
            (["compare-exponents", "--eps", "nan"], "t and eps must be nonnegative and finite"),
            (["compare-exponents", "--eps", "inf"], "t and eps must be nonnegative and finite"),
            (
                ["verify-bounds", "--trials", "100", "--t-grid", "nan"],
                "--t-grid values must be nonnegative and finite, got nan",
            ),
            (
                ["localize", "--t-grid", "nan"],
                "--t-grid values must be nonnegative and finite, got nan",
            ),
            (
                ["transductive-erm", "--t-grid", "inf"],
                "--t-grid values must be nonnegative and finite, got inf",
            ),
            (["kernel-bound", "--c-l", "0"], "c_L must be positive and finite, got 0.0"),
            (["kernel-bound", "--c-l", "inf"], "c_L must be positive and finite, got inf"),
            (["kernel-bound", "--c-l", "nan"], "c_L must be positive and finite, got nan"),
            (["oracle-check", "--classes", "0"], "classes must be >= 1"),
            (["verify-bounds", "--trials", "0"], "trials must be >= 2, got 0"),
            (["verify-bounds", "--trials", "1"], "trials must be >= 2, got 1"),
            (["transductive-erm", "--trials", "-1"], "trials must be >= 0"),
            (["localize", "--trials", "-1"], "trials must be >= 0"),
            (["transductive-erm", "--n", "-1"], "n must be >= 1"),
            (["transductive-erm", "--hypotheses", "-1"], "hypotheses must be >= 1"),
            (["localize", "--hypotheses", "-2"], "hypotheses must be >= 1"),
            (["kernel-bound", "--n", "-1"], "n must be >= 1"),
            (["kernel-bound", "--dim", "-1"], "dim must be >= 1"),
            (["kernel-bound", "--dim", "0"], "dim must be >= 1"),
            (["kernel-bound", "--bandwidth", "nan"], "gaussian bandwidth must be positive"),
            (
                ["kernel-bound", "--kernel", "polynomial", "--offset", "nan"],
                "polynomial offset must be finite, got nan",
            ),
            (
                ["kernel-bound", "--kernel", "polynomial", "--offset", "inf"],
                "polynomial offset must be finite, got inf",
            ),
            (
                ["kernel-bound", "--bandwidth", "1e-200"],
                "gaussian bandwidth 1e-200 is too small: 2 * bandwidth**2 underflows to 0",
            ),
        ],
    )
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, argv, message):
        code = run([*argv, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["transductive-erm", "--n", "0"], "n must be >= 1", id="transductive-erm"
            ),
            pytest.param(["localize", "--n", "0"], "n must be >= 1", id="localize"),
            # 200 000 risks of 2 points cannot be distinct to 9 digits
            pytest.param(
                ["transductive-erm", "--n", "2", "--m", "1", "--hypotheses", "200000"],
                "no random table of 200000 hypotheses on n=2 points",
                id="indistinct-risks",
            ),
        ],
    )
    def test_empty_population_exits_2_without_hanging(self, tmp_path, argv, message):
        # a separate process with a timeout, so a hang fails instead of stalling the suite
        env = {**os.environ, "PYTHONPATH": str(Path(sworlab.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "sworlab.cli", *argv, "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == EXIT_CONFIG_ERROR
        assert f"config error: {message}" in done.stderr

    def test_negative_eq_m_exits_2(self, tmp_path, capsys):
        code = run(
            ["compare-exponents", "--eq-m", "-10", "--sigma2", "0.01", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG_ERROR
        assert "config error: E[Q_m] must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-bounds", "transductive-erm", "localize"])
    @pytest.mark.parametrize("grid, bad", [("1,-1", "-1"), ("inf", "inf"), ("2,nan,1", "nan")])
    def test_bad_t_grid_exits_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch, command, grid, bad
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the experiment drew before checking --t-grid")

        for module in (empirical_process, experiments, localization):
            for name in ("expected_sup", "simulate_suprema"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        monkeypatch.setattr(experiments, "make_random_problem", refuse)
        code = run([command, f"--t-grid={grid}", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: --t-grid values must be nonnegative and finite, got {bad}\n"
        )

    def test_localize_empty_test_set_names_m(self, tmp_path, capsys):
        code = run(["localize", "--m", "12", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert "config error: need 1 <= m < N for a nonempty test set, got m=12" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["localize", "transductive-erm"])
    def test_one_monte_carlo_trial_exits_2(self, tmp_path, capsys, command):
        # m = 20 of 40 refuses enumeration; one draw has no standard error,
        # and a 0 would pass the mean off as exact
        argv = [command, "--n", "40", "--m", "20", "--trials", "1"]
        assert run([*argv, "--out", str(tmp_path / "mc")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: Monte Carlo needs trials >= 2 for a standard error, got 1\n"
        )
        # the defaults (N = 12) enumerate, so the trial count is never used
        assert run([command, "--trials", "1", "--out", str(tmp_path / "exact")]) == EXIT_OK

    def test_localize_of_one_hypothesis_reports_r_star_zero(self, tmp_path):
        # h* alone: no slice breakpoint, so every fit's majorant is 0
        assert run(["localize", "--hypotheses", "1", "--out", str(tmp_path)]) == EXIT_OK
        results = read_report(tmp_path)["results"]
        assert results["radii"] == [] and len(results["fits"]) == 4
        assert all(
            fit["r_star"] == 0.0 and fit["psi_hat"] == fit["std_error"] == []
            for fit in results["fits"].values()
        )


class TestCompareExponents:
    def test_default_run(self, tmp_path):
        out = tmp_path / "o"
        assert run(["compare-exponents", "--out", str(out)]) == EXIT_OK
        report = read_report(out)
        assert report["experiment"] == "compare-exponents"
        assert "exponents" in report["results"]
        assert report["passed"] is True

    def test_invalid_geometry_exits_2(self, tmp_path):
        code = run(
            ["compare-exponents", "--n", "10", "--m", "20", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "argv, infinite",
        [
            # eps^2 overflows: the sub-Gaussian and McDiarmid-form exponents are -inf
            (["--eps", "1e160"], ("subgaussian", "elyaniv_pechyony")),
            # eps / v overflows: h(inf) = inf, so the Bennett exponent is -inf, not NaN
            (["--sigma2", "1e-300", "--m", "1", "--eps", "1e10"], ("talagrand_swor",)),
        ],
    )
    def test_overflowing_exponents_are_minus_infinity(self, tmp_path, capsys, argv, infinite):
        out = tmp_path / "o"
        assert run(["compare-exponents", *argv, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        exponents = read_report(out)["results"]["exponents"]
        assert not any(math.isnan(x) for x in exponents.values())
        assert all(exponents[tag] == -math.inf for tag in infinite)


EXTREME_VALUES = ("0", "1e-300", "1e300", "1e308", "-1", "-1e300")


@pytest.mark.parametrize(
    "argv",
    [
        *(["compare-exponents", f"--{flag}={value}"] for flag in ("eps", "sigma2", "eq-m")
          for value in EXTREME_VALUES),
        *(["verify-bounds", "--trials", "50", f"--{flag}={value}"]
          for flag in ("sigma2", "t-grid") for value in EXTREME_VALUES),
    ],
    ids=" ".join,
)
def test_extreme_numeric_inputs_exit_0_or_2_without_a_traceback(tmp_path, capsys, argv):
    # an exception escaping run() is what main() prints as a traceback, and
    # under the suite's warning filter a numpy RuntimeWarning raises too
    code = run([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG_ERROR), err
    assert "Traceback" not in err


class TestOracleCheck:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            ["oracle-check", "--n-max", "5", "--classes", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        results = read_report(out)["results"]
        assert results["n_cases"] > 0
        assert all(case["ok"] for case in results["cases"])

    @pytest.mark.parametrize(
        "argv, budget, refused",
        [
            # seed 0 draws N = 33 of up to 40; C(33, 6) = 1107568 subsets exceed
            # the budget, and oracle-check has no Monte Carlo option
            (
                ["--n-max", "40", "--classes", "1"],
                10**6,
                "N = 33, m = 6, without_replacement has 1107568",
            ),
            # seed 1 draws N = 2, which fits, then N = 18, whose C(25, 8) = 1081575
            # multisets exceed the budget: the first class is not enumerated either
            (
                ["--n-max", "40", "--classes", "2", "--seed", "1"],
                10**6,
                "N = 18, m = 8, with_replacement has 1081575",
            ),
            # the budget is read at call time, as expected_sup reads it
            (["--n-max", "6", "--classes", "1"], 2, "N = 6, m = 1, without_replacement has 6"),
        ],
        ids=["first-class", "second-class", "patched-budget"],
    )
    def test_budget_refusal_comes_before_any_enumeration(
        self, tmp_path, capsys, monkeypatch, argv, budget, refused
    ):
        calls = []
        oracle = experiments.expected_sup
        monkeypatch.setattr(experiments, "expected_sup", lambda *a: calls.append(a) or oracle(*a))
        monkeypatch.setattr(empirical_process, "DEFAULT_ENUM_BUDGET", budget)
        assert run(["oracle-check", *argv, "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: oracle-check enumerates exactly, and the class drawn with {refused}"
            " count vectors, more than the enumeration budget; lower --n-max\n"
        )
        assert calls == []


class TestVerifyBounds:
    def test_small_run_writes_curves(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            [
                "verify-bounds",
                "--n",
                "20",
                "--m",
                "10",
                "--sigma2",
                "0.25",
                "--trials",
                "4000",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "curves.csv").exists()
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "config_index,center,eps,estimate,upper_ci,lower_ci"
        assert len(lines) > 1

    def test_corrupt_thm1_fails(self, tmp_path):
        out = tmp_path / "o"
        code = run(
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
                str(out),
            ]
        )
        assert code == EXIT_CHECK_FAILED
        assert read_report(out)["passed"] is False


class TestTransductiveErm:
    def test_small_run(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            [
                "transductive-erm",
                "--n",
                "10",
                "--m",
                "5",
                "--hypotheses",
                "3",
                "--splits",
                "500",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        report = read_report(out)
        assert report["results"]["provenance"]["sup_expectation"]["route"] == "exact"

    def test_loss_csv_input(self, tmp_path):
        table = np.random.default_rng(0).uniform(size=(3, 8))
        csv = tmp_path / "loss.csv"
        np.savetxt(csv, table, delimiter=",")
        out = tmp_path / "o"
        code = run(
            [
                "transductive-erm",
                "--loss-csv",
                str(csv),
                "--m",
                "4",
                "--splits",
                "300",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK


class TestLocalize:
    def test_small_run(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            [
                "localize",
                "--n",
                "10",
                "--m",
                "5",
                "--hypotheses",
                "3",
                "--splits",
                "400",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        results = read_report(out)["results"]
        assert results["B"] >= 0
        # every bound localize computes is checked, and its value is reported once
        names = {f"{bound}@t={t}" for bound in ("thm8", "thm9", "cor10") for t in (1.0, 2.0)}
        assert set(results["validity"]) == names
        assert "bounds" not in results


class TestKernelBound:
    def test_default_run(self, tmp_path):
        out = tmp_path / "o"
        code = run(["kernel-bound", "--n", "12", "--k", "6", "--out", str(out)])
        assert code == EXIT_OK
        results = read_report(out)["results"]
        assert results["tailsum_bound"] > 0
        assert len(results["eigenvalues"]) == 12

    def test_gram_csv_export(self, tmp_path):
        out = tmp_path / "o"
        gram_path = tmp_path / "gram.csv"
        code = run(
            [
                "kernel-bound",
                "--n",
                "6",
                "--kernel",
                "delta",
                "--gram-csv",
                str(gram_path),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        gram = np.loadtxt(gram_path, delimiter=",")
        assert np.allclose(gram, np.eye(6) / 6)

    def test_overflowing_kernel_exits_2(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        points.write_text("10,0\n0,10\n6,8\n")
        argv = ["kernel-bound", "--points-csv", str(points), "--kernel", "polynomial"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked RuntimeWarning fails the run
            code = run(argv + ["--degree", "400", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: gram must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("detail", ["", "Unable to allocate 6.0 GiB for an array"])
    def test_memory_error_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, detail):
        # patched, so that nothing is allocated for real
        def exhaust(*args, **kwargs):
            raise MemoryError(detail)

        monkeypatch.setattr(experiments, "run_kernel_bound", exhaust)
        code = run(["kernel-bound", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == f"config error: out of memory. {detail}".rstrip() + "\n"

    def test_gram_csv_in_missing_directory_exits_2(self, tmp_path, capsys):
        gram_path = tmp_path / "missing" / "gram.csv"
        argv = ["kernel-bound", "--n", "6", "--gram-csv", str(gram_path)]
        code = run(argv + ["--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(gram_path) in err

    def test_zero_k_exits_2(self, tmp_path, capsys):
        code = run(["kernel-bound", "--k", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "config error: k must be >= 1, got 0\n"

    def test_bad_kernel_exits_2(self, tmp_path):
        code = run(
            ["kernel-bound", "--kernel", "bogus", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG_ERROR


def _wide_loss_csv(tmp_path, n=30) -> str:
    """A 3 x n loss table: at n = 30, m = 15 and at n = 40, m = 6 neither
    expectation can be enumerated."""
    path = tmp_path / "loss.csv"
    np.savetxt(path, np.random.default_rng(3).uniform(size=(3, n)), delimiter=",")
    return str(path)


#: command -> (argv for a temporary directory, route of transductive-erm's expectations)
DETERMINISM_RUNS = {
    "verify-bounds": (
        lambda tmp: ["verify-bounds", "--n", "20", "--m", "10", "--trials", "3000"],
        None,
    ),
    "transductive-erm-exact": (
        lambda tmp: ["transductive-erm", "--n", "10", "--m", "5", "--splits", "500"],
        "exact",
    ),
    "transductive-erm-monte-carlo": (
        lambda tmp: [
            "transductive-erm", "--loss-csv", _wide_loss_csv(tmp), "--m", "15",
            "--trials", "2000", "--splits", "500",
        ],
        "monte_carlo",
    ),
    # Floyd's algorithm at a small m / N (6 of 40) beside m = N / 2 (15 of 30) above
    "transductive-erm-monte-carlo-floyd": (
        lambda tmp: [
            "transductive-erm", "--loss-csv", _wide_loss_csv(tmp, 40), "--m", "6",
            "--trials", "2000", "--splits", "500",
        ],
        "monte_carlo",
    ),
    "localize": (lambda tmp: ["localize", "--splits", "1000"], None),
}


class TestDeterminism:
    @pytest.mark.parametrize("command", list(DETERMINISM_RUNS))
    def test_same_seed_byte_identical_results(self, tmp_path, command):
        build, route = DETERMINISM_RUNS[command]
        argv = build(tmp_path)
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run([*argv, "--seed", "7", "--out", str(out)])
            assert code == EXIT_OK
            text = (out / "report.json").read_text()
            # compact, key-sorted, one line
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
            results = json.loads(text)["results"]
            payloads.append(json.dumps(results, sort_keys=True))
        assert payloads[0] == payloads[1]
        if route is not None:
            assert {p["route"] for p in results["provenance"].values()} == {route}

    def test_different_seed_changes_results(self, tmp_path):
        payloads = []
        for seed in ("3", "4"):
            out = tmp_path / seed
            run(
                [
                    "transductive-erm",
                    "--n",
                    "10",
                    "--m",
                    "5",
                    "--splits",
                    "200",
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            report = json.loads((out / "report.json").read_text())
            payloads.append(json.dumps(report["results"], sort_keys=True))
        assert payloads[0] != payloads[1]


#: subcommand -> small-setting arguments; verify-bounds weakens Thm 1 so that
#: its domination entries hold violations
PIN_RUNS = {
    "verify-bounds": ["--n", "20", "--m", "10", "--trials", "2000", "--corrupt-thm1"],
    "compare-exponents": [],
    "oracle-check": ["--n-max", "3", "--classes", "2"],
    "transductive-erm": ["--n", "10", "--m", "5", "--splits", "200", "--trials", "200"],
    "localize": ["--n", "10", "--m", "5", "--splits", "200", "--trials", "200"],
    "kernel-bound": ["--n", "6", "--k", "3"],
}


def key_paths(node, prefix="") -> set:
    """Every key path of a JSON value, a list's items written as []."""
    if isinstance(node, dict):
        return {p for k, v in node.items() for p in key_paths(v, f"{prefix}.{k}" if prefix else k)}
    if isinstance(node, list):
        return {p for v in node for p in key_paths(v, prefix + "[]")} or {prefix + "[]"}
    return {prefix}


def small_run_results(command: str, out_dir) -> dict:
    run([command, *PIN_RUNS[command], "--out", str(out_dir)])
    return read_report(out_dir)["results"]


def assert_matches_pin(pinned, got, path="results"):
    """Every dict's keys and every list's length equal; ints, bools and
    strings equal; floats within 1e-9 relative or 1e-12 absolute, so
    last-bit differences between hosts pass."""
    if isinstance(pinned, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(pinned), path
        for key, value in pinned.items():
            assert_matches_pin(value, got[key], f"{path}.{key}")
    elif isinstance(pinned, list):
        assert isinstance(got, list) and len(got) == len(pinned), path
        for i, (value, item) in enumerate(zip(pinned, got)):
            assert_matches_pin(value, item, f"{path}[{i}]")
    elif isinstance(pinned, float):
        assert isinstance(got, float), (path, pinned, got)
        both_nan = math.isnan(pinned) and math.isnan(got)
        assert both_nan or math.isclose(got, pinned, rel_tol=1e-9, abs_tol=1e-12), (
            path, pinned, got
        )
    else:
        assert type(got) is type(pinned) and got == pinned, (path, pinned, got)


VALUES_PIN = Path(__file__).parent / "results_values.json"


class TestResultsKeys:
    #: the results of the small runs; a change that moves draws or keys
    #: regenerates the pins of the subcommands it changes with
    #: `PYTHONPATH=src python tests/test_cli.py <subcommand> ...`
    VALUES = json.loads(VALUES_PIN.read_text())

    def test_every_subcommand_is_pinned(self):
        assert set(PIN_RUNS) == set(self.VALUES) == set(_cli()[1])

    @pytest.mark.parametrize("command", list(PIN_RUNS))
    def test_results_key_paths_are_pinned(self, tmp_path, command):
        # the values pin also fails on a moved key, but at the first one it
        # meets; this lists every key path a change adds or drops
        results = small_run_results(command, tmp_path)
        assert sorted(key_paths(results)) == sorted(key_paths(self.VALUES[command]))

    @pytest.mark.parametrize("command", list(PIN_RUNS))
    def test_results_values_are_pinned(self, tmp_path, command):
        assert_matches_pin(self.VALUES[command], small_run_results(command, tmp_path))

    @pytest.mark.parametrize("command", list(PIN_RUNS))
    def test_regenerating_a_stale_pin_rewrites_it(self, tmp_path, command):
        values_pin = tmp_path / "values.json"
        values_pin.write_text(json.dumps({**self.VALUES, command: {}}, indent=1, sort_keys=True))
        regenerate_pins([command], values_pin)
        values = json.loads(values_pin.read_text())
        assert_matches_pin(self.VALUES, values)
        others = {name: pin for name, pin in self.VALUES.items() if name != command}
        assert {name: values[name] for name in others} == others

    def test_regenerating_an_unknown_subcommand_writes_nothing(self, tmp_path):
        with pytest.raises(SystemExit, match="no pin for nonsense; choose from verify-bounds"):
            regenerate_pins(["verify-bounds", "nonsense"], tmp_path / "values.json")
        assert list(tmp_path.iterdir()) == []


SUBCOMMANDS = list(_cli()[1])


def experiment(command: str):
    return getattr(experiments, "run_" + command.replace("-", "_"))


def declared_options(function) -> dict:
    """flag -> (default, argparse type, is a switch), as the experiment's
    signature declares them: its keyword-only parameters, a CSV path for
    each positional (table) parameter, and --seed and --out."""
    options = {"--seed": (0, int, False), "--out": ("out", None, False)}
    for param in inspect.signature(function).parameters.values():
        default = param.default
        if param.kind is not param.KEYWORD_ONLY:
            options[f"--{param.name}-csv"] = (None, None, False)
            continue
        if isinstance(default, bool):
            option = (default, None, True)
        elif isinstance(default, tuple):
            option = (",".join(f"{x:g}" for x in default), None, False)
        elif isinstance(default, (int, float)):
            option = (default, type(default), False)
        else:
            option = (default, None, False)
        options["--" + param.name.replace("_", "-")] = option
    return options


class TestOptionContract:
    #: each subcommand's default config block, generated from the code in
    #: which every option was written out by hand in the CLI
    PINNED = json.loads((Path(__file__).parent / "default_configs.json").read_text())

    def test_every_experiment_is_a_subcommand(self):
        functions = {name for name in vars(experiments) if name.startswith("run_")}
        assert functions == {experiment(command).__name__ for command in SUBCOMMANDS}

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_flags_are_the_experiment_parameters(self, command):
        sub = _cli()[1][command]
        parsed = {
            action.option_strings[-1]: (sub.defaults[action.dest], action.type, action.nargs == 0)
            for action in sub.parser._actions
            if action.dest not in ("help", "config")
        }
        assert "--config" in sub.parser._option_string_actions
        assert parsed == declared_options(experiment(command))

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_lists_every_option(self, capsys, command):
        with pytest.raises(SystemExit) as done:
            run([command, "--help"])
        assert done.value.code == EXIT_OK
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert {"--config", *declared_options(experiment(command))} <= listed

    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_default_config_is_pinned(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        name = "run_" + command.replace("-", "_")
        monkeypatch.setattr(experiments, name, lambda *args, **kwargs: {"passed": True})
        assert run([command]) == EXIT_OK
        config = read_report(tmp_path / "out")["config"]
        # compared as JSON text, so that 1 and 1.0 differ
        pinned = self.PINNED[command]
        assert json.dumps(config, sort_keys=True) == json.dumps(pinned, sort_keys=True)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_defaults_reach_the_experiment_as_declared(self, tmp_path, monkeypatch, command):
        calls = []
        signature = inspect.signature(experiment(command))
        monkeypatch.setattr(
            experiments,
            experiment(command).__name__,
            lambda **kwargs: calls.append(kwargs) or {"passed": True},
        )
        assert run([command, "--out", str(tmp_path)]) == EXIT_OK
        assert calls == [{name: p.default for name, p in signature.parameters.items()}]

    def test_experiment_is_looked_up_at_call_time(self, tmp_path, monkeypatch):
        _cli()  # the parser is built before the experiment is replaced
        calls = []

        def replacement(**kwargs):
            calls.append(kwargs)
            return {"passed": False}

        monkeypatch.setattr(experiments, "run_localize", replacement)
        assert run(["localize", "--m", "5", "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
        assert [call["m"] for call in calls] == [5]
        assert read_report(tmp_path)["passed"] is False


class TestStartup:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats would take about half of the package's import time; a
        # fresh process, since this one has imported it for the tests
        env = {**os.environ, "PYTHONPATH": str(Path(sworlab.__file__).parents[1])}
        probe = "import sys, sworlab; print('scipy.stats' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stdout == "False\n", done.stderr

    def test_import_starts_no_thread(self):
        # the Monte Carlo pool starts its threads on its first submit
        env = {**os.environ, "PYTHONPATH": str(Path(sworlab.__file__).parents[1])}
        probe = "import threading, sworlab; print(threading.active_count())"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stdout == "1\n", done.stderr


def regenerate_pins(commands, values_pin=VALUES_PIN):
    """Rewrite the pins of `commands` from the code under src/, from one
    small run each; the others' pins keep their bytes."""
    unknown = sorted(set(commands) - set(PIN_RUNS))
    if unknown:
        raise SystemExit(f"no pin for {', '.join(unknown)}; choose from {', '.join(PIN_RUNS)}")
    values = json.loads(values_pin.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            values[command] = small_run_results(command, Path(tmp) / command)
    values_pin.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    # regenerate the pins of the named subcommands, all when none is named
    regenerate_pins(sys.argv[1:] or list(PIN_RUNS))
