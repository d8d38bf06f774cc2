"""One workload process, started by run.py.

It imports sworlab from the checkout's src/, generates the workload's
inputs from the seed, runs one untimed warm-up report, samples the host
speed (reference.py), prints "ready <slowdown> <sample seconds>" and waits
for one line on stdin.  On "run" it drives a closed loop of one client for
--seconds (whole grid passes for mc_grid), then prints a details line and,
last, the result JSON.  Untraced, each report is followed by reference
chunks worth a fifth of its time, and its time is divided by the slowdown
they show before the time metrics are taken.  With --trace 1 every report
runs twice, untraced and then traced, and the result holds per-layer
metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: how many reports must lie above the reported tail time
TAIL_BEYOND = 10


def machine_record() -> dict:
    """Processor, library versions, BLAS threads and cache sizes."""
    import numpy as np
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = size
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "caches": caches,
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def tail(times: list[float]) -> tuple[float, float, int]:
    """(time, percentile, reports above) at the highest percentile with
    TAIL_BEYOND reports above it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def loop(workload, seconds: float, report):
    """Issue reports back to back until `seconds` have passed, stopping
    only after whole passes; returns (reports issued, elapsed seconds)."""
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        report(i)
        i += 1
        if i % workload.pass_size == 0 and time.perf_counter() >= deadline:
            return i, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import reference
    import sworlab
    import workloads

    if Path(sworlab.__file__).resolve().parent != SRC / "sworlab":
        print(f"sworlab imported from {sworlab.__file__}, not {SRC}", file=sys.stderr)
        return 1

    work = OUT / f"{args.workload}-{os.getpid()}"
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w")  # the CLI's one-line summaries
    try:
        wl = workloads.build(args.workload, args.seed, work / "inputs")
        workloads.run_report(wl.argv(0), out_dir)  # warm-up
        setup_speed = reference.Speedometer(wl.reference)
        slowdown = setup_speed.sample(reference.SETUP_SAMPLE_S, share=1.0)
        print(f"ready {slowdown!r} {setup_speed.seconds!r}", file=protocol, flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        records = []

        if args.trace:
            import tracer

            tr = tracer.Tracer(sworlab)
            sums = {"untraced_s": 0.0, "traced_s": 0.0, "report_bytes": 0}

            def report(i):
                argv = wl.argv(i)
                plain = workloads.run_report(argv, out_dir)
                tr.report_id = i
                with tr:
                    traced = workloads.run_report(argv, out_dir)
                records.extend([(i, plain), (i, traced)])
                sums["untraced_s"] += plain.seconds
                sums["traced_s"] += traced.seconds
                sums["report_bytes"] += traced.nbytes

            n, _ = loop(wl, args.seconds, report)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            tr.save(trace_path)
            metrics = tr.per_layer(reports=n, **sums)
            details = {"traced_reports": n, "spans": len(tr.start), "spans_file": str(trace_path.relative_to(ROOT))}
        else:
            speed = reference.Speedometer(wl.reference)
            normalized = []

            def report(i):
                rec = workloads.run_report(wl.argv(i), out_dir)
                records.append((i, rec))
                normalized.append(rec.seconds / speed.sample(rec.seconds))

            n, _ = loop(wl, args.seconds, report)
            raw_times = [rec.seconds for _, rec in records]
            raw = {"reports_per_s": n / sum(raw_times), "report_p50_s": statistics.median(raw_times),
                   "report_tail_s": tail(raw_times)[0]}
            tail_s, tail_pct, beyond = tail(normalized)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "reports_per_s": {"value": n / sum(normalized), "unit": "1/s"},
                "report_p50_s": {"value": statistics.median(normalized), "unit": "s"},
                "report_tail_s": {"value": tail_s, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            details = {
                "reports": n,
                "tail_percentile": tail_pct,
                "tail_beyond": beyond,
                "slowdown": speed.slowdown,
                "reference_s": speed.seconds,
                "raw": raw,
            }

        failures = [(i, why) for i, rec in records if (why := workloads.failure(wl, i, rec))]
        attempted = len(records)
        if not args.trace:
            metrics["passed_frac"] = {"value": (attempted - len(failures)) / attempted, "unit": "ratio"}
        details.update(
            workload=wl.name,
            seed=args.seed,
            failures=failures[:5],
            working_set_computed_bytes=wl.working_set(),
            machine=machine_record(),
        )
        print(json.dumps({"details": details}), file=protocol)
        result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        print(json.dumps(result), file=protocol, flush=True)
        return 0
    finally:
        sys.stdout.close()
        sys.stdout = protocol
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
