"""Command line interface.

Subcommand <name> runs experiments.run_<name> (underscores for dashes),
whose signature declares its options: keyword-only parameter p is --p
(dashes for underscores), with p's default, read as the default's type.
A bool is a switch, a tuple a comma-separated grid and None a path.  Each
positional parameter x is a table, read from the CSV file at --x-csv.
Every subcommand also takes --config, --seed and --out.  Every run writes
report.json (and curves.csv for verify-bounds) into --out.  Exit codes: 0
all checks pass, 1 a check failed, 2 configuration error or an
unwritable output.

Options can come from a key=value config file (--config); command-line
flags override file values.  A file value is read as the argument of its
flag would be.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import experiments
from .errors import SworlabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

#: subcommand -> help summary
COMMANDS = {
    "verify-bounds": "Monte Carlo domination checks",
    "compare-exponents": "tail exponent comparison",
    "oracle-check": "exact enumeration oracle sweep",
    "transductive-erm": "split/ERM bound validity",
    "localize": "localized excess-risk bounds",
    "kernel-bound": "Gram spectrum and tailsum bound",
}


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


def _parse_grid(key: str, text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        flag = key.replace("_", "-")
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _read_csv(path):
    """A numeric CSV as a 2-D array, or None when no path is given."""
    if not path:
        return None
    # an open file skips numpy's DataSource lookup; an empty one is a config error, below
    with open(path) as lines, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(lines, delimiter=",", ndmin=2)
    if table.size == 0:
        raise ValueError(f"{path} holds no numbers")
    return table


def _write_report(out_dir, experiment: str, config: dict, payload: dict, elapsed: float):
    report = {
        "experiment": experiment,
        "config": {k: v for k, v in sorted(config.items())},
        "results": payload,
        "passed": payload.get("passed", True),
        "wall_time_s": round(elapsed, 3),
    }
    # one line: with indent, json.dumps falls back to its pure-Python encoder
    (Path(out_dir) / "report.json").write_text(json.dumps(report, sort_keys=True) + "\n")
    return report


def _write_curves(out_dir, payload: dict):
    rows = ["config_index,center,eps,estimate,upper_ci,lower_ci"]
    for i, cfg in enumerate(payload.get("configurations", [])):
        for name, curve in cfg.get("curves", {}).items():
            columns = ("tail_estimate", "upper_ci", "lower_ci")
            for eps, est, up, lo in zip(cfg["eps_grid"], *(curve[c] for c in columns)):
                rows.append(f"{i},{name},{eps!r},{est!r},{up!r},{lo!r}")
    (Path(out_dir) / "curves.csv").write_text("\n".join(rows) + "\n")


class _Command:
    """A subcommand's parser, with each option's action and default, built
    from the signature of the subcommand's experiment.

    Options are declared with argparse.SUPPRESS as their parser default,
    so a parsed namespace holds only the flags given on the command line.
    """

    def __init__(self, subs, name: str, summary: str):
        self.parser = subs.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        self.experiment = "run_" + name.replace("-", "_")
        self.actions: dict[str, argparse.Action] = {}
        self.defaults: dict = {}
        # keyword-only parameters, the grids among them, and table parameters
        self.keywords, self.grids, self.tables = [], [], []
        self.parser.add_argument("--config", help="key=value config file")
        self.add("seed", 0)
        self.add("out", "out")
        signature = inspect.signature(getattr(experiments, self.experiment))
        for param in signature.parameters.values():
            if param.kind is param.KEYWORD_ONLY:
                self.keywords.append(param.name)
                if param.name not in self.defaults:
                    self.add(param.name, param.default)
            else:
                self.tables.append(param.name)
                self.add(f"{param.name}_csv", None)

    def add(self, name: str, default) -> None:
        kwargs = {}  # text: a string, a path (None) or a grid (tuple)
        if isinstance(default, bool):
            kwargs = {"action": "store_true"}
        elif isinstance(default, (int, float)):
            kwargs = {"type": type(default)}
        elif isinstance(default, tuple):
            self.grids.append(name)
            default = ",".join(f"{x:g}" for x in default)
        flag = "--" + name.replace("_", "-")
        self.actions[name] = self.parser.add_argument(flag, dest=name, **kwargs)
        self.defaults[name] = default


@functools.cache
def _cli() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The parser and its subcommands, built once per process."""
    parser = argparse.ArgumentParser(prog="sworlab")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {name: _Command(subs, name, summary) for name, summary in COMMANDS.items()}
    return parser, commands


def run(argv=None) -> int:
    parser, commands = _cli()
    args = parser.parse_args(argv)
    command = commands[args.command]
    try:
        cfg = _merge_config(args, command)
        if cfg["seed"] < 0:
            raise ValueError(f"seed must be >= 0, got {cfg['seed']}")
        kwargs = {key: cfg[key] for key in command.keywords}
        kwargs.update((key, _parse_grid(key, cfg[key])) for key in command.grids)
        kwargs.update((key, _read_csv(cfg[f"{key}_csv"])) for key in command.tables)
        Path(cfg["out"]).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    start = time.perf_counter()
    try:
        # looked up per run, so a patched or traced experiment is the one called
        payload = getattr(experiments, command.experiment)(**kwargs)
        elapsed = time.perf_counter() - start
        report = _write_report(cfg["out"], args.command, cfg, payload, elapsed)
        if args.command == "verify-bounds":
            _write_curves(cfg["out"], payload)
    except (SworlabError, OSError) as exc:  # OSError: --gram-csv or an output cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # an input too large for this machine
        print(f"config error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_CONFIG_ERROR

    status = "PASS" if report["passed"] else "FAIL"
    print(f"{args.command}: {status} ({elapsed:.2f}s) -> {cfg['out']}/report.json")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
