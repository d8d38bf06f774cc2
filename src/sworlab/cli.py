"""Command line interface.

Subcommands: verify-bounds, compare-exponents, oracle-check,
transductive-erm, localize, kernel-bound.  Every run writes report.json
(and curves.csv where applicable) into --out.  Exit codes: 0 all checks
pass, 1 a check failed, 2 configuration error.

Options can come from a key=value config file (--config); command-line
flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments
from .errors import SworlabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def load_config_file(path) -> dict:
    """key = value lines; '#' starts a comment; keys use the flag names."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = _parse_scalar(value)
    return out


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> dict:
    merged = dict(parser_defaults)
    if getattr(args, "config", None):
        file_vals = load_config_file(args.config)
        unknown = set(file_vals) - set(parser_defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_vals)
    for key, default in parser_defaults.items():
        value = getattr(args, key)
        if value != default:
            merged[key] = value
    return merged


def _parse_grid(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"t-grid must be comma-separated numbers, got {text!r}") from None


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


def _add_common(sub):
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sworlab")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-bounds", help="Monte Carlo domination checks")
    _add_common(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--sigma2", type=float, default=0.25)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--t-grid", dest="t_grid", default="1,2,4")
    p.add_argument("--full-grid", dest="full_grid", action="store_true", default=False)
    p.add_argument(
        "--corrupt-thm1",
        dest="corrupt_thm1",
        action="store_true",
        default=False,
        help="power check: weaken the sub-Gaussian constant 8 to 0.08",
    )

    p = subs.add_parser("compare-exponents", help="tail exponent comparison")
    _add_common(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--sigma2", type=float, default=0.0625)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--eq-m", dest="eq_m", type=float, default=0.0)

    p = subs.add_parser("oracle-check", help="exact enumeration oracle sweep")
    _add_common(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=6)
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--max-funcs", dest="max_funcs", type=int, default=5)

    p = subs.add_parser("transductive-erm", help="split/ERM bound validity")
    _add_common(p)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--hypotheses", type=int, default=4)
    p.add_argument("--splits", type=int, default=10_000)
    p.add_argument("--trials", type=int, default=50_000)
    p.add_argument("--t-grid", dest="t_grid", default="1,2,3")
    p.add_argument("--loss-csv", dest="loss_csv", default=None)

    p = subs.add_parser("localize", help="localized excess-risk bounds")
    _add_common(p)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--hypotheses", type=int, default=4)
    p.add_argument("--splits", type=int, default=10_000)
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--t-grid", dest="t_grid", default="1,2")
    p.add_argument("--loss-csv", dest="loss_csv", default=None)

    p = subs.add_parser("kernel-bound", help="Gram spectrum and tailsum bound")
    _add_common(p)
    p.add_argument("--points-csv", dest="points_csv", default=None)
    p.add_argument("--n", type=int, default=32, help="synthetic points if no CSV")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--kernel", default="gaussian")
    p.add_argument("--bandwidth", type=float, default=1.0)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--c-l", dest="c_l", type=float, default=1.0)
    p.add_argument("--gram-csv", dest="gram_csv", default=None)
    return parser


def _defaults_for(parser: argparse.ArgumentParser, command: str) -> dict:
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        sub = action.choices[command]
        return {
            a.dest: a.default
            for a in sub._actions  # noqa: SLF001
            if a.dest not in ("help", "config")
        }
    raise KeyError(command)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, _defaults_for(parser, args.command))
        if cfg["seed"] < 0:
            raise ValueError(f"seed must be >= 0, got {cfg['seed']}")
        t_grid = _parse_grid(cfg["t_grid"]) if "t_grid" in cfg else None
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
        elif args.command == "transductive-erm":
            loss = np.loadtxt(cfg["loss_csv"], delimiter=",", ndmin=2) if cfg["loss_csv"] else None
            payload = experiments.run_transductive_erm(
                n=cfg["n"],
                n_hyp=cfg["hypotheses"],
                m=cfg["m"],
                splits=cfg["splits"],
                seed=cfg["seed"],
                t_grid=t_grid,
                loss_table=loss,
                trials=cfg["trials"],
            )
        elif args.command == "localize":
            loss = np.loadtxt(cfg["loss_csv"], delimiter=",", ndmin=2) if cfg["loss_csv"] else None
            payload = experiments.run_localize(
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
            if cfg["points_csv"]:
                points = np.loadtxt(cfg["points_csv"], delimiter=",", ndmin=2)
            else:
                gen = np.random.default_rng(cfg["seed"])
                points = gen.standard_normal((cfg["n"], cfg["dim"]))
            payload = experiments.run_kernel_bound(
                points,
                kind=cfg["kernel"],
                bandwidth=cfg["bandwidth"],
                degree=cfg["degree"],
                offset=cfg["offset"],
                k=cfg["k"],
                c_L=cfg["c_l"],
            )
            if cfg["gram_csv"]:
                from .kernels import KernelSpec, gram_matrix

                spec = KernelSpec(
                    kind=cfg["kernel"],
                    bandwidth=cfg["bandwidth"],
                    degree=cfg["degree"],
                    offset=cfg["offset"],
                )
                np.savetxt(cfg["gram_csv"], gram_matrix(points, spec), delimiter=",")
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
