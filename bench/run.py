"""sworlab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload mc_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh
process (bench/child.py) that imports the checkout's src/sworlab and calls
`sworlab.cli.run` in process, one report after another.  With --trace 0
the child is started several times; set-up time, from process start to
ready, is the median over those starts, and the last one runs the timed
loop.  Set-up time leaves out the child's host-speed sample and is divided
by the slowdown that sample shows (reference.py); the report times are
normalized the same way inside the child.  With --trace 1 one child runs
the traced loop.  The last stdout line is the result JSON; the line before
it holds details (tail percentile, failures, raw times and slowdowns,
machine record, computed working sets).  Workload names: mc_grid,
localize_exact, erm_wide, kernel_spectrum.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc_grid", "localize_exact", "erm_wide", "kernel_spectrum")
SETUP_STARTS = 3
#: the whole run, children included, ends within this many seconds
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """The checkout's src/ on the path; BLAS threads capped at nproc."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = env.get(var, "")
        env[var] = str(min(int(value), nproc) if value.isdigit() and int(value) > 0 else nproc)
    return env


def start_child(args, env, deadline: float):
    """Start a workload process; return it, its watchdog, the seconds to its
    first line and that line."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    return proc, watchdog, time.perf_counter() - t0, line.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sworlab" / "__init__.py").is_file():
        print(f"no sworlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    starts = SETUP_STARTS if args.trace == 0 else 1
    setups, raw_setups = [], []
    for k in range(starts):
        proc, watchdog, setup_s, line = start_child(args, env, deadline)
        try:
            command = "run" if k == starts - 1 else "exit"
            ready = line.split()
            is_ready = len(ready) == 3 and ready[0] == "ready"
            if is_ready:
                proc.stdin.write(command + "\n")
                proc.stdin.close()
            else:
                proc.kill()
            output = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
        if not is_ready or code != 0:
            print(f"workload process failed (exit {code}, first line {line!r})", file=sys.stderr)
            return 1
        slowdown, sample_s = float(ready[1]), float(ready[2])
        raw_setups.append(setup_s - sample_s)
        setups.append((setup_s - sample_s) / slowdown)

    lines = output.strip().splitlines()
    if not lines:
        print("workload process printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"setup_raw_s": raw_setups, "setup_s": setups}))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
