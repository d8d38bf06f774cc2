"""Kernel classes: normalized Gram matrices, their spectra (LAPACK
symmetric eigensolver) and the eigenvalue-tailsum complexity bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

PSD_TOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """A built-in kernel, normalized so that sup_x k(x, x) <= 1.

    Kinds: "gaussian" (bandwidth), "linear", "polynomial" (degree, offset),
    "delta".  Linear and polynomial kernels are rescaled by the largest
    diagonal value at Gram-assembly time; gaussian and delta already have
    unit diagonal.
    """

    kind: str
    bandwidth: float = 1.0
    degree: int = 2
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear", "polynomial", "delta"):
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not self.bandwidth > 0:  # nan too
            raise ConfigurationError("gaussian bandwidth must be positive")
        if self.kind == "polynomial" and self.degree < 1:
            raise ConfigurationError("polynomial degree must be >= 1")
        if self.kind == "polynomial" and not math.isfinite(self.offset):
            raise ConfigurationError(f"polynomial offset must be finite, got {self.offset}")


@dataclass(frozen=True)
class EigenSpectrum:
    """Nonincreasing eigenvalues of a PSD matrix."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if np.any(np.diff(lam) > 1e-14):
            raise ConfigurationError("eigenvalues must be nonincreasing")
        if lam.size and lam[-1] < -PSD_TOL:
            raise ConfigurationError(
                f"matrix is not PSD within tolerance: min eigenvalue {lam[-1]:.3g}"
            )

    @property
    def trace(self) -> float:
        return float(self.lambdas.sum())


def _raw_kernel_matrix(points: np.ndarray, spec: KernelSpec) -> np.ndarray:
    if spec.kind == "delta":
        return np.eye(points.shape[0])
    if spec.kind == "gaussian":
        sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-sq / (2.0 * spec.bandwidth**2))
    inner = points @ points.T
    if spec.kind == "linear":
        k = inner
    else:
        k = (inner + spec.offset) ** spec.degree
    top = np.abs(np.diag(k)).max()
    if top > 1.0:
        k = k / top
    return k


def gram_matrix(points, spec: KernelSpec) -> np.ndarray:
    """Normalized Gram matrix with entries k(X_i, X_j)/N; diagonal <= 1/N."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.size == 0:
        raise ConfigurationError("points must form a nonempty 2-D array")
    if not np.all(np.isfinite(pts)):
        raise ConfigurationError("points must be finite")
    n = pts.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # eigen_spectrum refuses inf and nan
        k = _raw_kernel_matrix(pts, spec)
    k = 0.5 * (k + k.T)
    return k / n


def eigen_spectrum(gram: np.ndarray) -> EigenSpectrum:
    """Full spectrum of a symmetric matrix via LAPACK (numpy's eigvalsh),
    nonincreasing, with eigenvalues within PSD_TOL of zero clamped to >= 0."""
    a = np.asarray(gram, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("gram must be square")
    if not np.all(np.isfinite(a)):
        raise ConfigurationError("gram must be finite; got inf or nan (kernel overflow?)")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ConfigurationError("gram must be symmetric")
    lam = np.linalg.eigvalsh(a)[::-1]
    lam = np.where(np.abs(lam) < PSD_TOL, np.maximum(lam, 0.0), lam)
    return EigenSpectrum(lambdas=lam)


def tailsum_bound(spectrum: EigenSpectrum, k: int, c_L: float = 1.0) -> tuple[float, int]:
    """(value, minimizing theta): the min over integer theta in [0, k] of
    c_L (theta/k + sqrt((1/k) sum_{i > theta} lambda_i)).

    lambda_1 >= lambda_2 >= ... are the eigenvalues of the normalized Gram
    matrix.  k is the sample size the complexity averages over, c_L the
    Lipschitz constant of the loss (it scales the whole bound), and theta
    the number of leading eigenvalues left out of the tailsum, each
    charged 1/k instead.  The tailsum always excludes the theta largest
    eigenvalues, so theta = N gives 0.
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if not 0 < c_L < math.inf:
        raise ConfigurationError(f"c_L must be positive and finite, got {c_L}")
    lam = spectrum.lambdas
    n = lam.size
    suffix = np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])  # suffix[i] = sum lam[i:]
    best_val, best_theta = math.inf, 0
    for theta in range(min(k, n) + 1):
        tail = max(suffix[theta], 0.0)
        val = c_L * (theta / k + math.sqrt(tail / k))
        if val < best_val - 1e-15:
            best_val, best_theta = val, theta
    return best_val, best_theta

