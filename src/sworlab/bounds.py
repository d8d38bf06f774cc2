"""The inequality bank: every tail / deviation bound as a pure formula.

Each theorem family is typed once, as a log-tail: sub-Gaussian, Bennett
(shared by the without-replacement Talagrand-type bound and Bousquet's
with-replacement original) and the El-Yaniv-Pechyony baseline.  A tail
bound is min(1, exp(log-tail)), and `compare_exponents` reports the same
log-tails.  A deterministic supremum (sigma2 = 0, v = 0 or m = N) has
log-tail 0 at eps = 0 and -inf beyond.

Centering conventions matter and are part of each bound's contract:

* sub-Gaussian and the McDiarmid-style baseline bound deviations of Q'
  around E[Q'] (and hold for both tails);
* the Talagrand-type bound for sampling without replacement and its
  with-replacement Bousquet original bound deviations of Q' (resp. Q)
  around E[Q], upper tail only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigurationError


class Center(Enum):
    """Which expectation a deviation is measured from."""

    AROUND_EQ_PRIME = "E[Q'_m]"
    AROUND_EQ = "E[Q_m]"


#: centering convention per theorem tag, used by the verifier to refuse
#: comparisons against curves built around the wrong expectation
BOUND_CENTERS = {
    "subgaussian": Center.AROUND_EQ_PRIME,
    "elyaniv_pechyony": Center.AROUND_EQ_PRIME,
    "talagrand_swor": Center.AROUND_EQ,
    "bousquet": Center.AROUND_EQ,
}


@dataclass(frozen=True)
class BoundParams:
    """Inputs shared by the bound formulas.

    eq_m is E[Q_m], accepted as data (exact or estimated upstream); it is
    nonnegative for every centered class.
    """

    N: int
    m: int
    sigma2: float
    eq_m: float = 0.0
    t: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        if not 1 <= self.m <= self.N:
            raise ConfigurationError(f"need 1 <= m <= N, got m={self.m}, N={self.N}")
        if not 0.0 <= self.sigma2 <= 1.0:
            raise ConfigurationError(f"sigma2 must be in [0, 1], got {self.sigma2}")
        if not 0.0 <= self.eq_m < math.inf:
            raise ConfigurationError(f"E[Q_m] must be nonnegative and finite, got {self.eq_m}")
        if not (0.0 <= self.t < math.inf and 0.0 <= self.eps < math.inf):
            raise ConfigurationError("t and eps must be nonnegative and finite")

    @property
    def v(self) -> float:
        """Variance proxy m*sigma2 + 2*E[Q_m] of the Bennett-form bounds."""
        return self.m * self.sigma2 + 2.0 * self.eq_m


def h_fn(u: float) -> float:
    """h(u) = (1+u) log(1+u) - u, defined for u > -1."""
    if u <= -1:
        raise ConfigurationError(f"h(u) requires u > -1, got {u}")
    return (1.0 + u) * math.log1p(u) - u


def _degenerate(eps: float) -> float:
    """Log-tail of a deterministic supremum: log 1 at eps = 0, log 0 beyond."""
    return 0.0 if eps == 0.0 else -math.inf


def _log_tail_subgaussian(p: BoundParams, constant: float = 8.0) -> float:
    """-(N+2) eps^2 / (constant N^2 sigma2); `constant` is 8 in the theorem."""
    if p.sigma2 == 0.0:
        return _degenerate(p.eps)
    return -(p.N + 2) * p.eps**2 / (constant * p.N**2 * p.sigma2)


def _log_tail_bennett(p: BoundParams) -> float:
    """-v h(eps/v), v = m sigma2 + 2 E[Q]."""
    v = p.v
    if v == 0.0:
        return _degenerate(p.eps)
    return -v * h_fn(p.eps / v)


def _mcdiarmid_exponent(p: BoundParams) -> float:
    """-(eps^2 / 2m) (N - 1/2)/(N - m), for m < N."""
    return -(p.eps**2 / (2.0 * p.m)) * ((p.N - 0.5) / (p.N - p.m))


def _log_tail_elyaniv_pechyony(p: BoundParams) -> float:
    """The McDiarmid exponent times (1 - 1/(2 max(m, N-m)))."""
    if p.m == p.N:  # exhaustive sample: Q' is deterministic
        return _degenerate(p.eps)
    return _mcdiarmid_exponent(p) * (1.0 - 1.0 / (2.0 * max(p.m, p.N - p.m)))


def tail_subgaussian(p: BoundParams, constant: float = 8.0) -> float:
    """Sub-Gaussian tail of Q' - E[Q'], either side: exp(-(N+2) eps^2 / (8 N^2 sigma2)).

    `constant` exists for corrupted-bound power checks.
    """
    return min(1.0, math.exp(_log_tail_subgaussian(p, constant)))


def deviation_subgaussian(p: BoundParams) -> float:
    """Deviation of Q' above E[Q'] at confidence t: 2 sqrt(2 N sigma2 t)."""
    return 2.0 * math.sqrt(2.0 * p.N * p.sigma2 * p.t)


def _bernstein_deviation(p: BoundParams) -> float:
    """sqrt(2 v t) + t/3, the Bennett tail's deviation at confidence t."""
    return math.sqrt(2.0 * p.v * p.t) + p.t / 3.0


def tail_talagrand_swor(p: BoundParams) -> float:
    """Bennett-form tail of Q' above E[Q]: exp(-v h(eps/v)). Upper tail only."""
    return min(1.0, math.exp(_log_tail_bennett(p)))


def deviation_talagrand_swor(p: BoundParams) -> float:
    """Deviation of Q' above E[Q] (not E[Q'])."""
    return _bernstein_deviation(p)


def tail_bousquet(p: BoundParams) -> float:
    """Bousquet's with-replacement tail of Q above E[Q]: the same Bennett form."""
    return min(1.0, math.exp(_log_tail_bennett(p)))


def deviation_bousquet(p: BoundParams) -> float:
    return _bernstein_deviation(p)


def tail_elyaniv_pechyony(p: BoundParams) -> float:
    """McDiarmid-style baseline for Q' - E[Q'], either side; variance-free."""
    return min(1.0, math.exp(_log_tail_elyaniv_pechyony(p)))


def gap_bound(N: int, m: int) -> float:
    """Upper bound 2 m^3 / N on E[Q_m] - E[Q'_m]."""
    if not 1 <= m <= N:
        raise ConfigurationError(f"need 1 <= m <= N, got m={m}, N={N}")
    return 2.0 * m**3 / N


TAIL_BOUNDS = {
    "subgaussian": tail_subgaussian,
    "talagrand_swor": tail_talagrand_swor,
    "bousquet": tail_bousquet,
    "elyaniv_pechyony": tail_elyaniv_pechyony,
}

DEVIATION_BOUNDS = {
    "subgaussian": deviation_subgaussian,
    "talagrand_swor": deviation_talagrand_swor,
    "bousquet": deviation_bousquet,
}


def compare_exponents(
    N: int, m: int, sigma2: float, eps: float, eq_m: float = 0.0
) -> dict:
    """Compare the tail exponents of the three inequalities at one eps.

    Reports, per tag of TAIL_BOUNDS, the log-tail its bound exponentiates;
    the tightest bound is the one with the most negative exponent.  Two
    comparison forms ride along: the sub-Gaussian -eps^2/(8 N sigma2) and
    the El-Yaniv-Pechyony exponent without its 1 - 1/(2 max(m, N-m))
    factor.  The Bennett exponent uses eq_m as E[Q_m].
    """
    p = BoundParams(N=N, m=m, sigma2=sigma2, eq_m=eq_m, eps=eps)
    bennett = _log_tail_bennett(p)
    exponents = {
        "subgaussian": _log_tail_subgaussian(p),
        "talagrand_swor": bennett,
        "bousquet": bennett,
        "elyaniv_pechyony": _log_tail_elyaniv_pechyony(p),
    }
    exponents["subgaussian_loose"] = (
        -(eps**2) / (8.0 * N * sigma2) if sigma2 > 0.0 else exponents["subgaussian"]
    )
    exponents["elyaniv_pechyony_uncorrected"] = (
        _mcdiarmid_exponent(p) if m < N else exponents["elyaniv_pechyony"]
    )

    compared = {k: exponents[k] for k in ("subgaussian", "talagrand_swor", "elyaniv_pechyony")}
    best = min(compared.values())
    tightest = sorted(k for k, val in compared.items() if val == best)
    return {
        "exponents": exponents,
        "tightest": tightest[0],
        "ties": tightest[1:],
        "params": {"N": N, "m": m, "sigma2": sigma2, "eps": eps, "eq_m": eq_m},
    }
