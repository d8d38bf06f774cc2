"""The inequality bank: every tail / deviation bound as one array formula.

Each theorem is typed once, as a log-tail under one tag: sub-Gaussian,
the Bennett-form Talagrand-type bound for sampling without replacement and
the El-Yaniv-Pechyony baseline.  A tail bound is min(1, exp(log-tail)),
and `compare_exponents` reports the same log-tails.  A deterministic
supremum (sigma2 = 0, v = 0 or m = N) has log-tail 0 at eps = 0 and -inf
beyond.

Array contract: `BoundParams` holds what a configuration fixes and is
validated once; tail_*(p, eps) and deviation_*(p, t) take eps (or t) as a
float or an array, check once that it is nonnegative and finite, and
evaluate one numpy formula over it; overflow gives -inf log-tails, inf deviations.

Centering conventions matter and are part of each bound's contract:

* sub-Gaussian and the McDiarmid-style baseline bound deviations of Q'
  around E[Q'] (and hold for both tails);
* the Talagrand-type bound for sampling without replacement bounds
  deviations of Q' around E[Q], upper tail only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
}


@dataclass(frozen=True)
class BoundParams:
    """What one configuration fixes for the bound formulas.

    eq_m is E[Q_m], accepted as data (exact or estimated upstream); it is
    nonnegative for every centered class.
    """

    N: int
    m: int
    sigma2: float
    eq_m: float = 0.0

    def __post_init__(self):
        if not 1 <= self.m <= self.N:
            raise ConfigurationError(f"need 1 <= m <= N, got m={self.m}, N={self.N}")
        if not 0.0 <= self.sigma2 <= 1.0:
            raise ConfigurationError(f"sigma2 must be in [0, 1], got {self.sigma2}")
        if not (0.0 <= self.eq_m and self.v < math.inf):  # v < inf: E[Q_m] is finite too
            raise ConfigurationError(f"E[Q_m] must be nonnegative, 2 E[Q_m] finite: {self.eq_m}")

    @property
    def v(self) -> float:
        """Variance proxy m*sigma2 + 2*E[Q_m] of the Bennett-form bounds."""
        return self.m * self.sigma2 + 2.0 * self.eq_m


def _checked(x) -> np.ndarray:
    """eps or t as a float array, refused unless every value is nonnegative and finite."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x < np.inf)):
        raise ConfigurationError("t and eps must be nonnegative and finite")
    return x


@np.errstate(over="ignore")
def h_fn(u):
    """h(u) = (1+u) log(1+u) - u, elementwise for u > -1; h(inf) = inf."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= -1.0):
        raise ConfigurationError(f"h(u) requires u > -1, got {u.min()}")
    log1p = np.log1p(u)
    return u * (log1p - 1.0) + log1p  # (1+u) log1p(u) - u, without inf - inf


@np.errstate(over="ignore")
def _log_tail_subgaussian(p: BoundParams, eps, constant: float = 8.0) -> np.ndarray:
    """-(N+2) eps^2 / (constant N^2 sigma2); `constant` is 8 in the theorem."""
    eps = _checked(eps)
    if p.sigma2 == 0.0:
        return np.where(eps == 0.0, 0.0, -np.inf)
    return -(p.N + 2) * eps**2 / (constant * p.N**2 * p.sigma2)


@np.errstate(over="ignore")
def _log_tail_bennett(p: BoundParams, eps) -> np.ndarray:
    """-v h(eps/v), v = m sigma2 + 2 E[Q]."""
    eps, v = _checked(eps), p.v
    if v == 0.0:
        return np.where(eps == 0.0, 0.0, -np.inf)
    return -v * h_fn(eps / v)


@np.errstate(over="ignore")
def _log_tail_elyaniv_pechyony(p: BoundParams, eps) -> np.ndarray:
    """The McDiarmid exponent -(eps^2 / 2m) (N - 1/2)/(N - m) times
    (1 - 1/(2 max(m, N-m)))."""
    eps = _checked(eps)
    if p.m == p.N:  # exhaustive sample: Q' is deterministic
        return np.where(eps == 0.0, 0.0, -np.inf)
    mcdiarmid = -(eps**2 / (2.0 * p.m)) * ((p.N - 0.5) / (p.N - p.m))
    return mcdiarmid * (1.0 - 1.0 / (2.0 * max(p.m, p.N - p.m)))


def tail_subgaussian(p: BoundParams, eps, constant: float = 8.0):
    """Sub-Gaussian tail of Q' - E[Q'], either side: exp(-(N+2) eps^2 / (8 N^2 sigma2)).

    `constant` exists for corrupted-bound power checks.
    """
    return np.minimum(1.0, np.exp(_log_tail_subgaussian(p, eps, constant)))


@np.errstate(over="ignore")
def deviation_subgaussian(p: BoundParams, t):
    """Deviation of Q' above E[Q'] at confidence t: 2 sqrt(2 N sigma2 t)."""
    return 2.0 * np.sqrt(2.0 * p.N * p.sigma2 * _checked(t))


def tail_bennett(p: BoundParams, eps):
    """Bennett-form tail of Q' above E[Q]: exp(-v h(eps/v)), upper tail only.
    Bousquet's with-replacement original for Q has the same formula."""
    return np.minimum(1.0, np.exp(_log_tail_bennett(p, eps)))


@np.errstate(over="ignore")
def deviation_bennett(p: BoundParams, t):
    """sqrt(2 v t) + t/3, the Bennett tail's deviation above E[Q] (not
    E[Q']) at confidence t."""
    t = _checked(t)
    return np.sqrt(2.0 * p.v * t) + t / 3.0


def tail_elyaniv_pechyony(p: BoundParams, eps):
    """McDiarmid-style baseline for Q' - E[Q'], either side; variance-free."""
    return np.minimum(1.0, np.exp(_log_tail_elyaniv_pechyony(p, eps)))


def gap_bound(N: int, m: int) -> float:
    """Upper bound 2 m^3 / N on E[Q_m] - E[Q'_m]."""
    if not 1 <= m <= N:
        raise ConfigurationError(f"need 1 <= m <= N, got m={m}, N={N}")
    return 2.0 * m**3 / N


TAIL_BOUNDS = {
    "subgaussian": tail_subgaussian,
    "talagrand_swor": tail_bennett,
    "elyaniv_pechyony": tail_elyaniv_pechyony,
}

DEVIATION_BOUNDS = {
    "subgaussian": deviation_subgaussian,
    "talagrand_swor": deviation_bennett,
}


def compare_exponents(
    N: int, m: int, sigma2: float, eps: float, eq_m: float = 0.0
) -> dict:
    """Compare the tail exponents of the three inequalities at one eps.

    Reports, per tag of TAIL_BOUNDS, the log-tail its bound exponentiates,
    and the tightest bound (most negative exponent; ties alphabetical).
    Two comparison forms ride along: the sub-Gaussian -eps^2/(8 N sigma2)
    and the El-Yaniv-Pechyony exponent without its 1 - 1/(2 max(m, N-m))
    factor.  The Bennett exponent uses eq_m as E[Q_m].
    """
    p = BoundParams(N=N, m=m, sigma2=sigma2, eq_m=eq_m)
    subgaussian = float(_log_tail_subgaussian(p, eps))
    elyaniv_pechyony = float(_log_tail_elyaniv_pechyony(p, eps))
    exponents = {
        "subgaussian": subgaussian,
        "talagrand_swor": float(_log_tail_bennett(p, eps)),
        "elyaniv_pechyony": elyaniv_pechyony,
        # the log-tails rescaled: -(N+2)/N^2 becomes -1/N, and the factor goes
        "subgaussian_loose": subgaussian * (N / (N + 2)),
        "elyaniv_pechyony_uncorrected": elyaniv_pechyony / (1.0 - 1.0 / (2.0 * max(m, N - m))),
    }
    ranked = sorted(sorted(TAIL_BOUNDS), key=exponents.get)
    return {
        "exponents": exponents,
        "tightest": ranked[0],
        "ties": [k for k in ranked[1:] if exponents[k] == exponents[ranked[0]]],
        "params": {"N": N, "m": m, "sigma2": sigma2, "eps": eps, "eq_m": eq_m},
    }
