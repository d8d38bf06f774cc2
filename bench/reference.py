"""Host speed reference for the end-to-end time metrics.

The benchmark's host is a small VM on a shared machine.  Its vCPUs run the
same fixed Python loop 20-45% slower while neighbours load the shared cores,
in bursts under a second long and in phases that last minutes, with no
steal time and CPU time equal to wall time.  Raw wall times of the same code
then spread by 20-35% from run to run, more than any bound can take.

So the workload process times fixed reference chunks that never touch
sworlab right after each report, for a fifth of the report's time and at
least three rounds, and divides the report's time by the slowdown they
show: their measured seconds over their seconds at reference speed.  Code
of different kinds slows down by different amounts, so each workload names
the chunk kinds that resemble where its reports spend their time
(`reference` in workloads.py).  A change to sworlab moves the report times
and not the reference, so it still shows in full.  The raw times go to the
details line next to the slowdown.
"""

from __future__ import annotations

import time

import numpy as np

#: fewest chunk rounds in one sample
MIN_ROUNDS = 3
#: reference time after each report, as a share of the report's time
SHARE = 0.2
#: reference time after set-up
SETUP_SAMPLE_S = 0.25

_BASE = np.random.default_rng(0).standard_normal((64, 64))


def interp_chunk() -> float:
    """Interpreter work and small-array numpy updates, like the split loops,
    the exact enumerations and the Jacobi sweeps."""
    total = 0.0
    for i in range(60_000):
        total += (i % 7) * 0.5
    a = _BASE.copy()
    for k in range(300):
        p, q = k % 32, 32 + (k * 7) % 32
        a[:, p], a[:, q] = 0.6 * a[:, p] - 0.8 * a[:, q], 0.8 * a[:, p] + 0.6 * a[:, q]
    return total + float(a[0, 0])


def sampler(n_funcs: int, n: int, m: int, rows: int):
    """A chunk like one Monte Carlo block of a sampling workload, at its
    class size, population and sample size: random keys, argpartition, and
    the gather-sum and max over an n_funcs x n table."""
    table = np.random.default_rng(1).standard_normal((n_funcs, n))

    def chunk() -> float:
        keys = np.random.default_rng(2).random((rows, n))
        idx = np.argpartition(keys, m, axis=1)[:, :m]
        return float(table[:, idx].sum(axis=2).max(axis=0).sum())

    return chunk


#: chunk kinds and the seconds each takes at reference speed: medians over
#: 500 interleaved rounds on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2),
#: so normalized times read as seconds on that host at that speed
CHUNKS = {
    "interp": (interp_chunk, 0.0104),
    # mc_grid's N = 1000, m = 500 configurations
    "sampler_grid": (sampler(2, 1000, 500, rows=256), 0.0100),
    # erm_wide's 64 x 400 class, m = 40
    "sampler_wide": (sampler(64, 400, 40, rows=576), 0.0098),
}


class Speedometer:
    """Times rounds of reference chunks, one of each kind given; `slowdown`
    is their measured time over their time at reference speed, 1 at
    reference speed."""

    def __init__(self, kinds=("interp",)):
        self.chunks = [CHUNKS[kind][0] for kind in kinds]
        self.round_s = sum(CHUNKS[kind][1] for kind in kinds)
        self.seconds = 0.0
        self.rounds = 0

    def sample(self, busy_s: float, share: float = SHARE) -> float:
        """Run rounds for about share * busy_s seconds (at least
        MIN_ROUNDS); return the slowdown they show."""
        count = max(MIN_ROUNDS, round(share * busy_s / self.round_s))
        t0 = time.perf_counter()
        for _ in range(count):
            for chunk in self.chunks:
                chunk()
        spent = time.perf_counter() - t0
        self.seconds += spent
        self.rounds += count
        return spent / (count * self.round_s)

    @property
    def slowdown(self) -> float:
        return self.seconds / (self.rounds * self.round_s)
