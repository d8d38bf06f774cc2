"""The bisection fixed-point solver the tests check fit_subroot against.

It solves psi(r) = r for a sub-root psi with no help from the fit's
closed form, so it is an independent reference for the package's r*.
"""

from typing import Callable

from sworlab.errors import ConfigurationError


def fixed_point(
    psi: Callable[[float], float],
    r_lo: float,
    r_hi: float,
    tol: float = 1e-10,
) -> float:
    """Unique positive fixed point of a sub-root psi, by at most 200 bisection steps.

    psi(r) - r crosses zero exactly once on (0, inf) because psi(r)/r is
    strictly decreasing; the bracket [r_lo, r_hi] must exhibit the sign
    change.
    """
    g_lo = psi(r_lo) - r_lo
    g_hi = psi(r_hi) - r_hi
    if g_lo < 0 or g_hi > 0:
        raise ConfigurationError(
            f"no sign change: psi(r)-r is {g_lo:.3g} at r_lo and {g_hi:.3g} at r_hi"
        )
    lo, hi = r_lo, r_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = psi(mid) - mid
        if abs(g) <= tol:
            return mid
        if g > 0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if abs(psi(mid) - mid) > tol:
        raise ConfigurationError(f"bisection stalled at residual {psi(mid) - mid:.3g}")
    return mid
