"""The benchmark's workloads, the report runner and the correctness checks.

A workload turns the benchmark seed into input files and a cycle of CLI
argument lists; report i runs `argv(i)`.  The program receives only the
argv and the generated CSVs.  Each workload also checks its reports
against values the benchmark computes on its own, states the bytes its
largest per-block arrays take (computed from array shapes, not measured),
and names the reference chunk kinds (reference.py) that its time metrics
are normalized by.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.stats import binom, hypergeom
from sworlab import cli

#: trials per block in simulate_suprema; reports below stay within one block
MC_BLOCK = 10_000
OUTPUT_FILES = ("report.json", "curves.csv")
#: seed of the base tables and point sets that a run's seed permutes; the
#: work a localize or kernel report does depends on the values themselves
#: (variance slices, Jacobi sweeps), so fixed bases keep it equal across seeds
BASE_SEED = 20141127
#: a Monte Carlo centre more than this many of its own standard errors
#: from the exact value fails the report
CENTRE_SE_LIMIT = 5.0


@dataclass
class Record:
    """One report: wall seconds of the cli.run call and what it left."""

    seconds: float
    exit_code: Optional[int]
    error: Optional[str]
    report: Optional[str]
    nbytes: int


def run_report(argv: list[str], out_dir: Path) -> Record:
    """Run one report in process, exactly as `sworlab <argv> --out out_dir`."""
    for name in OUTPUT_FILES:
        (out_dir / name).unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        code, error = cli.run(argv + ["--out", str(out_dir)]), None
    except (Exception, SystemExit) as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    report_path = out_dir / "report.json"
    report = report_path.read_text() if report_path.exists() else None
    nbytes = sum((out_dir / n).stat().st_size for n in OUTPUT_FILES if (out_dir / n).exists())
    return Record(seconds, code, error, report, nbytes)


def failure(workload, i: int, rec: Record) -> Optional[str]:
    """Why report i failed, or None: it raised, exited non-zero, reported
    passed=false, or missed the benchmark's own correctness check."""
    if rec.error is not None:
        return f"raised {rec.error}"
    if rec.exit_code != 0:
        return f"exit code {rec.exit_code}"
    if rec.report is None:
        return "no report.json"
    report = json.loads(rec.report)
    if report.get("passed") is not True:
        return "report says passed=false"
    return workload.check(i, report["results"])


def _report_seeds(seed: int, count: int = 1024) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
    return [int(s) >> 1 for s in state]


def _write_csvs(inputs: Path, stem: str, arrays: list) -> list[str]:
    """One CSV per array, every digit kept, so the CLI reads the same values."""
    paths = []
    for t, array in enumerate(arrays):
        path = inputs / f"{stem}{t}.csv"
        np.savetxt(path, array, delimiter=",", fmt="%.17g")
        paths.append(str(path))
    return paths


def _loss_table(gen: np.random.Generator, n_hyp: int, n: int) -> np.ndarray:
    """Uniform losses with distinct overall risks, so B is finite."""
    while True:
        table = gen.uniform(0.0, 1.0, size=(n_hyp, n))
        if np.unique(np.round(table.mean(axis=1), 9)).size == n_hyp:
            return table


def _block_bytes(n_funcs: int, n: int, m: int, trials: int) -> dict:
    """Per-block arrays of simulate_suprema, 8 bytes per element."""
    block = min(trials, MC_BLOCK)
    return {
        "gather_tensor": 8 * n_funcs * block * m,
        "argpartition_keys": 8 * block * n,
        "argpartition_index": 8 * block * n,
        "with_replacement_index": 8 * block * m,
    }


class McGrid:
    """verify-bounds over the 27-config acceptance grid, antipodal class."""

    name = "mc_grid"
    reference = ("interp", "sampler_grid")
    trials = 10_000
    grid = [
        (n, max(1, round(frac * n)), s2)
        for n in (20, 100, 1000)
        for frac in (0.1, 0.5, 0.9)
        for s2 in (0.01, 0.1, 0.25)
    ]
    pass_size = len(grid)

    def __init__(self, seed: int, inputs: Path):
        self.seeds = _report_seeds(seed)

    def argv(self, i: int) -> list[str]:
        n, m, s2 = self.grid[i % self.pass_size]
        return [
            "verify-bounds", "--n", str(n), "--m", str(m), "--sigma2", repr(s2),
            "--trials", str(self.trials), "--seed", str(self.seeds[i % len(self.seeds)]),
        ]

    def check(self, i: int, results: dict) -> Optional[str]:
        n, m, s2 = self.grid[i % self.pass_size]
        cfg = results["configurations"][0]
        if (cfg["N"], cfg["m"]) != (n, m):
            return f"report is for N={cfg['N']}, m={cfg['m']}, not N={n}, m={m}"
        exact = dict(zip(("eq_prime", "eq_m"), exact_antipodal_centres(n, m, s2)))
        for key, value in exact.items():
            se = cfg[f"{key}_std_error"]
            if not abs(cfg[key] - value) <= CENTRE_SE_LIMIT * se:
                return f"{key}={cfg[key]!r} misses exact {value!r} by more than {CENTRE_SE_LIMIT:g} se ({se!r})"
        return None

    def working_set(self) -> dict:
        return {
            f"N={n},m={m}": _block_bytes(2, n, m, self.trials)
            for n, m, _ in self.grid[18::3]
        }


@lru_cache(maxsize=None)
def exact_antipodal_centres(n: int, m: int, sigma2: float) -> tuple[float, float]:
    """Exact (E[Q'_m], E[Q_m]) for the class {f, -f}, f = +a on the first
    half of an even population and -a on the second: Q = a |2K - m| with
    K ~ Hypergeom(N, N/2, m) without replacement and Bin(m, 1/2) with."""
    if n % 2:
        raise ValueError("the antipodal oracle needs an even population")
    a = math.sqrt(sigma2)
    k = np.arange(m + 1)
    dev = a * np.abs(2 * k - m)
    without = float(hypergeom.pmf(k, n, n // 2, m) @ dev)
    with_ = float(binom.pmf(k, m, 0.5) @ dev)
    return without, with_


class LocalizeExact:
    """localize on 4x10 loss tables, m = u = 5: every modulus evaluation
    enumerates all subsets and multisets.  The seed permutes the
    hypotheses and points of fixed base tables."""

    name = "localize_exact"
    reference = ("interp",)
    n_hyp, n, m, splits, n_inputs = 4, 10, 5, 1_000, 8
    pass_size = 1

    def __init__(self, seed: int, inputs: Path):
        base = np.random.default_rng(BASE_SEED)
        gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        self.tables = [
            _loss_table(base, self.n_hyp, self.n)[gen.permutation(self.n_hyp)][:, gen.permutation(self.n)]
            for _ in range(self.n_inputs)
        ]
        self.paths = _write_csvs(inputs, "loss", self.tables)
        self.seeds = _report_seeds(seed)

    def argv(self, i: int) -> list[str]:
        return [
            "localize", "--loss-csv", self.paths[i % len(self.paths)], "--m", str(self.m),
            "--splits", str(self.splits), "--seed", str(self.seeds[i % len(self.seeds)]),
        ]

    def check(self, i: int, results: dict) -> Optional[str]:
        expected = bernstein_constant(self.tables[i % len(self.tables)])
        if not math.isclose(results["B"], expected, rel_tol=1e-9):
            return f"B={results['B']!r}, recomputed {expected!r}"
        inexact = [name for name, fit in results["fits"].items() if fit["exact"] is not True]
        if inexact or len(results["fits"]) != 4:
            return f"fits not all exact: {inexact or sorted(results['fits'])}"
        return None

    def working_set(self) -> dict:
        subsets = math.comb(self.n, self.m)
        return {
            "subset_index": 8 * subsets * self.m,
            "subset_gather": 8 * self.n_hyp * subsets * self.m,
        }


def bernstein_constant(table: np.ndarray) -> float:
    """Smallest B with E f^2 <= B E f over the excess-loss rows."""
    star = int(np.argmin(table.mean(axis=1)))
    rows = table - table[star]
    means, seconds = rows.mean(axis=1), (rows**2).mean(axis=1)
    positive = means > 1e-12
    return float((seconds[positive] / means[positive]).max())


class ErmWide:
    """transductive-erm on 64x400 loss tables, m = 40: exact enumeration is
    refused, so both expectations run Monte Carlo on a wide class."""

    name = "erm_wide"
    reference = ("interp", "sampler_wide")
    n_hyp, n, m, trials, splits, n_inputs = 64, 400, 40, 10_000, 1_000, 4
    pass_size = 1

    def __init__(self, seed: int, inputs: Path):
        gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        tables = [_loss_table(gen, self.n_hyp, self.n) for _ in range(self.n_inputs)]
        self.paths = _write_csvs(inputs, "loss", tables)
        self.seeds = _report_seeds(seed)

    def argv(self, i: int) -> list[str]:
        return [
            "transductive-erm", "--loss-csv", self.paths[i % len(self.paths)],
            "--m", str(self.m), "--trials", str(self.trials), "--splits", str(self.splits),
            "--seed", str(self.seeds[i % len(self.seeds)]),
        ]

    def check(self, i: int, results: dict) -> Optional[str]:
        for key in ("sup_expectation", "E_m"):
            value = results[key]
            if not (math.isfinite(value) and value >= 0.0):
                return f"{key}={value!r} is not finite and nonnegative"
        return None

    def working_set(self) -> dict:
        return _block_bytes(self.n_hyp, self.n, self.m, self.trials)


class KernelSpectrum:
    """kernel-bound on Gaussian points in 2-D, k = 16: all time in the
    Gram spectrum, no sampling.  The seed rotates and reorders fixed base
    point sets, which keeps the spectrum and the Jacobi work."""

    name = "kernel_spectrum"
    reference = ("interp",)
    n, dim, k, n_inputs = 64, 2, 16, 8
    pass_size = 1
    #: eigenvalues must match eigvalsh to this share of the trace
    eig_tol = 1e-10

    def __init__(self, seed: int, inputs: Path):
        base = np.random.default_rng(BASE_SEED)
        gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
        self.points = []
        for _ in range(self.n_inputs):
            angle = gen.uniform(0.0, 2.0 * math.pi)
            rotation = np.array([[math.cos(angle), -math.sin(angle)],
                                 [math.sin(angle), math.cos(angle)]])
            self.points.append(base.standard_normal((self.n, self.dim))[gen.permutation(self.n)] @ rotation)
        self.paths = _write_csvs(inputs, "points", self.points)
        self.seeds = _report_seeds(seed)

    def argv(self, i: int) -> list[str]:
        return [
            "kernel-bound", "--points-csv", self.paths[i % len(self.paths)],
            "--kernel", "gaussian", "--bandwidth", "1.0", "--k", str(self.k),
            "--seed", str(self.seeds[i % len(self.seeds)]),
        ]

    def check(self, i: int, results: dict) -> Optional[str]:
        lam = np.sort(np.linalg.eigvalsh(gaussian_gram(self.points[i % len(self.points)])))[::-1]
        trace = float(lam.sum())
        got = np.asarray(results["eigenvalues"])
        if got.shape != lam.shape:
            return f"{got.size} eigenvalues, expected {lam.size}"
        err = float(np.abs(got - lam).max())
        if err > self.eig_tol * trace:
            return f"eigenvalues differ from eigvalsh by {err:.3g} > {self.eig_tol:g} * trace"
        bound = tailsum(lam, self.k)
        # eigenvalue error e moves sqrt(tail / k) by at most sqrt(n e / k)
        tol = math.sqrt(lam.size * self.eig_tol * trace / self.k) + 1e-12
        if abs(results["tailsum_bound"] - bound) > tol:
            return f"tailsum_bound={results['tailsum_bound']!r}, recomputed {bound!r}"
        return None

    def working_set(self) -> dict:
        return {"gram": 8 * self.n * self.n, "pairwise_differences": 8 * self.n**2 * self.dim}


def gaussian_gram(points: np.ndarray, bandwidth: float = 1.0) -> np.ndarray:
    """k(x, y) / N with k(x, y) = exp(-|x - y|^2 / (2 bandwidth^2))."""
    sq = (points**2).sum(axis=1)
    dist2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)
    return np.exp(-dist2 / (2.0 * bandwidth**2)) / points.shape[0]


def tailsum(lam: np.ndarray, k: int) -> float:
    """min over theta in [0, k] of theta/k + sqrt(sum_{i >= theta} lam_i / k)."""
    suffix = np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])
    return min(
        theta / k + math.sqrt(max(suffix[min(theta, lam.size)], 0.0) / k)
        for theta in range(min(k, lam.size) + 1)
    )


WORKLOADS = {w.name: w for w in (McGrid, LocalizeExact, ErmWide, KernelSpectrum)}


def build(name: str, seed: int, inputs: Path):
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, inputs)
