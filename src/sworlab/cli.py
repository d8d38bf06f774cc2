"""Command line interface.

Subcommands: verify-bounds, compare-exponents, oracle-check,
transductive-erm, localize, kernel-bound.  Every run writes report.json
(and curves.csv where applicable) into --out.  Exit codes: 0 all checks
pass, 1 a check failed, 2 configuration error.

Options can come from a key=value config file (--config); command-line
flags override file values.  A file value is read as the argument of its
flag would be.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import experiments
from .errors import ConfigurationError, SworlabError
from .kernels import KernelSpec, gram_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _config_text(path) -> dict:
    """key = value lines as raw text; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _coerce(key: str, action: argparse.Action, text: str):
    """A config value read as its flag's argument would be."""
    if action.nargs == 0:  # an on/off switch
        if text.lower() not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {text!r}")
        return text.lower() == "true"
    if action.type is None:
        return text
    try:
        return action.type(text)
    except ValueError:
        raise ValueError(f"{key} must be {action.type.__name__}, got {text!r}") from None


def _merge_config(args: argparse.Namespace, command: _Command) -> dict:
    """Defaults, overridden by the config file, overridden by given flags."""
    merged = dict(command.defaults)
    given = vars(args)  # flags default to SUPPRESS, so only given ones are here
    if given.get("config"):
        file_text = _config_text(given["config"])
        unknown = set(file_text) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, text in file_text.items():
            merged[key] = _coerce(key, command.actions[key], text)
    merged.update((key, value) for key, value in given.items() if key in merged)
    return merged


def _parse_grid(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"t-grid must be comma-separated numbers, got {text!r}") from None


def _read_csv(path):
    """A numeric CSV as a 2-D array, or None when no path is given."""
    if not path:
        return None
    with warnings.catch_warnings():  # an empty file is a config error, below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    if table.size == 0:
        raise ValueError(f"{path} holds no numbers")
    return table


def _write_report(out_dir, experiment: str, config: dict, payload: dict, elapsed: float):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "experiment": experiment,
        "config": {k: v for k, v in sorted(config.items())},
        "results": payload,
        "passed": payload.get("passed", True),
        "wall_time_s": round(elapsed, 3),
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _write_curves(out_dir, payload: dict):
    rows = ["config_index,center,eps,estimate,upper_ci,lower_ci"]
    for i, cfg in enumerate(payload.get("configurations", [])):
        for name, curve in cfg.get("curves", {}).items():
            for eps, est, up, lo in zip(
                curve["eps_grid"],
                curve["tail_estimate"],
                curve["upper_ci"],
                curve["lower_ci"],
            ):
                rows.append(f"{i},{name},{eps!r},{est!r},{up!r},{lo!r}")
    (Path(out_dir) / "curves.csv").write_text("\n".join(rows) + "\n")


class _Command:
    """A subcommand's parser, with each option's action and default.

    Options are declared with argparse.SUPPRESS as their parser default,
    so a parsed namespace holds only the flags given on the command line.
    """

    def __init__(self, subs, name: str, summary: str):
        self.parser = subs.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        self.actions: dict[str, argparse.Action] = {}
        self.defaults: dict = {}
        self.parser.add_argument("--config", help="key=value config file")
        self.add("--seed", 0, type=int)
        self.add("--out", "out")

    def add(self, flag: str, default, **kwargs) -> None:
        action = self.parser.add_argument(flag, **kwargs)
        self.actions[action.dest] = action
        self.defaults[action.dest] = default


@functools.cache
def _cli() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The parser and its subcommands, built once per process."""
    parser = argparse.ArgumentParser(prog="sworlab")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, summary: str) -> _Command:
        commands[name] = _Command(subs, name, summary)
        return commands[name]

    c = command("verify-bounds", "Monte Carlo domination checks")
    c.add("--n", 100, type=int)
    c.add("--m", 50, type=int)
    c.add("--sigma2", 0.25, type=float)
    c.add("--trials", 100_000, type=int)
    c.add("--t-grid", "1,2,4", dest="t_grid")
    c.add("--full-grid", False, dest="full_grid", action="store_true")
    c.add(
        "--corrupt-thm1",
        False,
        dest="corrupt_thm1",
        action="store_true",
        help="power check: weaken the sub-Gaussian constant 8 to 0.08",
    )

    c = command("compare-exponents", "tail exponent comparison")
    c.add("--n", 100, type=int)
    c.add("--m", 50, type=int)
    c.add("--sigma2", 0.0625, type=float)
    c.add("--eps", 1.0, type=float)
    c.add("--eq-m", 0.0, dest="eq_m", type=float)

    c = command("oracle-check", "exact enumeration oracle sweep")
    c.add("--n-max", 6, dest="n_max", type=int)
    c.add("--classes", 20, type=int)
    c.add("--max-funcs", 5, dest="max_funcs", type=int)

    c = command("transductive-erm", "split/ERM bound validity")
    c.add("--n", 12, type=int)
    c.add("--m", 6, type=int)
    c.add("--hypotheses", 4, type=int)
    c.add("--splits", 10_000, type=int)
    c.add("--trials", 50_000, type=int)
    c.add("--t-grid", "1,2,3", dest="t_grid")
    c.add("--loss-csv", None, dest="loss_csv")

    c = command("localize", "localized excess-risk bounds")
    c.add("--n", 12, type=int)
    c.add("--m", 6, type=int)
    c.add("--hypotheses", 4, type=int)
    c.add("--splits", 10_000, type=int)
    c.add("--trials", 20_000, type=int)
    c.add("--t-grid", "1,2", dest="t_grid")
    c.add("--loss-csv", None, dest="loss_csv")

    c = command("kernel-bound", "Gram spectrum and tailsum bound")
    c.add("--points-csv", None, dest="points_csv")
    c.add("--n", 32, type=int, help="synthetic points if no CSV")
    c.add("--dim", 2, type=int)
    c.add("--kernel", "gaussian")
    c.add("--bandwidth", 1.0, type=float)
    c.add("--degree", 2, type=int)
    c.add("--offset", 0.0, type=float)
    c.add("--k", 16, type=int)
    c.add("--c-l", 1.0, dest="c_l", type=float)
    c.add("--gram-csv", None, dest="gram_csv")
    return parser, commands


def run(argv=None) -> int:
    parser, commands = _cli()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, commands[args.command])
        if cfg["seed"] < 0:
            raise ValueError(f"seed must be >= 0, got {cfg['seed']}")
        t_grid = _parse_grid(cfg["t_grid"]) if "t_grid" in cfg else None
        loss = _read_csv(cfg.get("loss_csv"))
        points = _read_csv(cfg.get("points_csv"))
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    start = time.perf_counter()
    try:
        if args.command == "verify-bounds":
            payload = experiments.run_verify_bounds(
                n=cfg["n"],
                m=cfg["m"],
                sigma2=cfg["sigma2"],
                trials=cfg["trials"],
                seed=cfg["seed"],
                t_grid=t_grid,
                corrupt_thm1=cfg["corrupt_thm1"],
                full_grid=cfg["full_grid"],
            )
        elif args.command == "compare-exponents":
            payload = experiments.run_compare_exponents(
                cfg["n"], cfg["m"], cfg["sigma2"], cfg["eps"], eq_m=cfg["eq_m"]
            )
        elif args.command == "oracle-check":
            payload = experiments.run_oracle_check(
                n_max=cfg["n_max"],
                n_classes=cfg["classes"],
                max_funcs=cfg["max_funcs"],
                seed=cfg["seed"],
            )
        elif args.command in ("transductive-erm", "localize"):
            split_experiment = {
                "transductive-erm": experiments.run_transductive_erm,
                "localize": experiments.run_localize,
            }[args.command]
            payload = split_experiment(
                n=cfg["n"],
                n_hyp=cfg["hypotheses"],
                m=cfg["m"],
                splits=cfg["splits"],
                seed=cfg["seed"],
                t_grid=t_grid,
                loss_table=loss,
                trials=cfg["trials"],
            )
        elif args.command == "kernel-bound":
            if points is None:
                for key in ("n", "dim"):
                    if cfg[key] < 1:
                        raise ConfigurationError(f"{key} must be >= 1, got {cfg[key]}")
                gen = np.random.default_rng(cfg["seed"])
                points = gen.standard_normal((cfg["n"], cfg["dim"]))
            spec = KernelSpec(
                kind=cfg["kernel"],
                bandwidth=cfg["bandwidth"],
                degree=cfg["degree"],
                offset=cfg["offset"],
            )
            gram = gram_matrix(points, spec)
            payload = experiments.run_kernel_bound(gram, cfg["kernel"], cfg["k"], cfg["c_l"])
            if cfg["gram_csv"]:
                np.savetxt(cfg["gram_csv"], gram, delimiter=",")
        else:  # pragma: no cover
            raise AssertionError(args.command)
    except SworlabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    elapsed = time.perf_counter() - start
    report = _write_report(cfg["out"], args.command, cfg, payload, elapsed)
    if args.command == "verify-bounds":
        _write_curves(cfg["out"], payload)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{args.command}: {status} ({elapsed:.2f}s) -> {cfg['out']}/report.json")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
