"""Kernel classes: normalized Gram matrices, their spectra (LAPACK
symmetric eigensolver) and the eigenvalue-tailsum complexity bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

PSD_TOL = 1e-10
#: coordinate differences held at once while summing distances (512 KB),
#: unless a single coordinate's N x N block is larger
BLOCK_ENTRIES = 1 << 16


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
        if self.kind == "gaussian" and not self.scale > 0:
            raise ConfigurationError(
                f"gaussian bandwidth {self.bandwidth!r} is too small: 2 * bandwidth**2 underflows to 0"
            )
        if self.kind == "polynomial" and self.degree < 1:
            raise ConfigurationError("polynomial degree must be >= 1")
        if self.kind == "polynomial" and not math.isfinite(self.offset):
            raise ConfigurationError(f"polynomial offset must be finite, got {self.offset}")

    @property
    def scale(self) -> float:
        """2 * bandwidth**2, the gaussian kernel's denominator; inf when it
        overflows, where every entry is exp(-0) = 1."""
        with np.errstate(over="ignore"):
            return 2.0 * np.float64(self.bandwidth) ** 2


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


def _squared_distances(points: np.ndarray) -> np.ndarray:
    """|x_i - x_j|^2 in O(N^2) memory whatever d.

    The squared coordinate differences are summed a block of coordinates
    at a time, at most BLOCK_ENTRIES of them (or one coordinate) per block,
    so no N x N x d array is built.  Every pair sums its coordinates in
    the same order, so the result is exactly symmetric with a zero diagonal.
    """
    n = points.shape[0]
    step = max(1, BLOCK_ENTRIES // (n * n))
    cols = np.ascontiguousarray(points.T)  # strided columns broadcast slowly
    sq = np.zeros((n, n))
    for lo in range(0, cols.shape[0], step):
        block = cols[lo : lo + step]
        diff = block[:, :, None] - block[:, None, :]
        sq += np.einsum("kij,kij->ij", diff, diff)
    return sq


def _raw_kernel_matrix(points: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Unnormalized N x N kernel matrix, exactly symmetric; O(N^2) memory
    whatever the dimension."""
    if spec.kind == "delta":
        return np.eye(points.shape[0])
    if spec.kind == "gaussian":
        return np.exp(-_squared_distances(points) / spec.scale)
    inner = points @ points.T
    if spec.kind == "linear":
        k = inner
    else:
        k = (inner + spec.offset) ** spec.degree
    top = np.abs(np.diag(k)).max()
    if top > 1.0:
        k = k / top
    return 0.5 * (k + k.T)  # exactly symmetric, however BLAS rounded the product


def gram_matrix(points, spec: KernelSpec) -> np.ndarray:
    """Normalized Gram matrix with entries k(X_i, X_j)/N; diagonal <= 1/N;
    exactly symmetric.  O(N^2) memory whatever the dimension: the gaussian
    kernel sums squared distances over blocks of coordinates (see
    _squared_distances), not over an N x N x d array of differences."""
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
    return k / n


def eigen_spectrum(gram: np.ndarray) -> EigenSpectrum:
    """Full spectrum of a symmetric matrix via LAPACK (numpy's eigvalsh),
    nonincreasing, with eigenvalues within PSD_TOL of zero clamped to >= 0."""
    a = np.asarray(gram, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("gram must be square")
    if not np.all(np.isfinite(a)):
        raise ConfigurationError("gram must be finite; got inf or nan (kernel overflow?)")
    # np.allclose(a, a.T, atol=1e-12) in one comparison: `a` is finite
    if not np.all(np.abs(a - a.T) <= 1e-12 + 1e-5 * np.abs(a.T)):
        raise ConfigurationError("gram must be symmetric")
    lam = np.linalg.eigvalsh(a)[::-1]
    lam = np.where(np.abs(lam) < PSD_TOL, np.maximum(lam, 0.0), lam)
    return EigenSpectrum(lambdas=lam)


def tailsum_bound(spectrum: EigenSpectrum, k: int) -> tuple[float, int]:
    """(value, minimizing theta): the min over integer theta in [0, k] of
    theta/k + sqrt((1/k) sum_{i > theta} lambda_i), the bound for a loss
    of Lipschitz constant 1 (another constant scales the whole bound).

    lambda_1 >= lambda_2 >= ... are the eigenvalues of the normalized Gram
    matrix.  k is the sample size the complexity averages over, and theta
    the number of leading eigenvalues left out of the tailsum, each
    charged 1/k instead.  The tailsum always excludes the theta largest
    eigenvalues, so theta = N gives 0.
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    lam = spectrum.lambdas
    n = lam.size
    suffix = np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])  # suffix[i] = sum lam[i:]
    best_val, best_theta = math.inf, 0
    for theta in range(min(k, n) + 1):
        tail = max(suffix[theta], 0.0)
        val = theta / k + math.sqrt(tail / k)
        if val < best_val - 1e-15:
            best_val, best_theta = val, theta
    return best_val, best_theta

