import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import ldl

from sworlab.errors import ConfigurationError
from sworlab.kernels import (
    EigenSpectrum,
    KernelSpec,
    eigen_spectrum,
    gram_matrix,
    tailsum_bound,
)


class TestKernelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("laplace")

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("gaussian", bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [1e-200, 5e-163])
    def test_bandwidth_whose_square_underflows_is_named(self, bandwidth):
        # 2 * bandwidth**2 == 0 would make the Gram diagonal 0 / 0
        with pytest.raises(ConfigurationError, match=f"bandwidth {bandwidth!r} is too small"):
            KernelSpec("gaussian", bandwidth=bandwidth)

    def test_bad_degree(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("polynomial", degree=0)


class TestGramMatrix:
    def test_delta_is_scaled_identity(self):
        pts = np.arange(5.0)
        g = gram_matrix(pts, KernelSpec("delta"))
        assert np.allclose(g, np.eye(5) / 5)

    def test_gaussian_diagonal_is_one_over_n(self):
        pts = np.random.default_rng(0).normal(size=(6, 2))
        g = gram_matrix(pts, KernelSpec("gaussian", bandwidth=0.7))
        assert np.allclose(np.diag(g), 1 / 6)
        assert np.allclose(g, g.T)
        assert np.all(g > 0)

    def test_gaussian_bandwidth_whose_square_overflows_gives_ones(self):
        # 2 * bandwidth**2 is inf: every entry is exp(-0) = 1, with no
        # OverflowError from the float power and no numpy warning
        pts = np.random.default_rng(1).normal(size=(4, 2))
        g = gram_matrix(pts, KernelSpec("gaussian", bandwidth=1e200))
        assert np.array_equal(g, np.full((4, 4), 0.25))

    def test_linear_two_unit_vectors(self):
        # unit vectors at angle theta: off-diagonal is cos(theta)/N
        theta = 0.8
        pts = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        g = gram_matrix(pts, KernelSpec("linear"))
        assert g[0, 1] == pytest.approx(math.cos(theta) / 2)

    def test_linear_rescaled_when_diag_exceeds_one(self):
        pts = np.array([[3.0], [1.0]])
        g = gram_matrix(pts, KernelSpec("linear"))
        assert np.diag(g).max() <= 1 / 2 + 1e-12

    def test_polynomial_psd(self):
        pts = np.random.default_rng(1).normal(size=(5, 3))
        g = gram_matrix(pts, KernelSpec("polynomial", degree=2, offset=1.0))
        spec = eigen_spectrum(g)
        assert spec.lambdas[-1] >= -1e-10

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.parametrize("dim", [1, 2, 16, 256])
    def test_gaussian_matches_differences(self, dim, shift):
        pts = np.random.default_rng(dim).standard_normal((48, dim)) + shift
        g = gram_matrix(pts, KernelSpec("gaussian", bandwidth=1.0))
        assert np.abs(g * 48 - reference_gaussian(pts, 2.0)).max() <= 1e-14

    def test_gaussian_far_clusters_match_differences(self):
        # close pairs far from the mean, where distances read off inner
        # products would cancel
        pts = np.random.default_rng(5).standard_normal((40, 2))
        pts[:20] += 1e6
        pts[20:] -= 1e6
        g = gram_matrix(pts, KernelSpec("gaussian", bandwidth=1.0))
        assert np.abs(g * 40 - reference_gaussian(pts, 2.0)).max() <= 1e-14

    @pytest.mark.parametrize("shape", [(1, 3), (7, 1), (64, 2), (30, 300), (400, 64)])
    def test_gaussian_is_exactly_symmetric_with_diagonal_one_over_n(self, shape):
        # gram_matrix does not mirror a gaussian Gram: _squared_distances
        # makes it exactly symmetric
        pts = np.random.default_rng(6).standard_normal(shape)
        g = gram_matrix(pts, KernelSpec("gaussian", bandwidth=0.8))
        assert np.array_equal(g, g.T)
        assert np.array_equal(np.diag(g), np.full(shape[0], 1 / shape[0]))

    @pytest.mark.parametrize("kind", ["linear", "polynomial"])
    def test_inner_product_grams_are_exactly_symmetric_on_strided_points(self, kind):
        # numpy multiplies a strided view by a general product, not a
        # symmetric rank-k update, and x_i . x_j may round apart from x_j . x_i
        pts = np.random.default_rng(7).standard_normal((100, 514))[:, ::2]
        g = gram_matrix(pts, KernelSpec(kind, degree=3, offset=1.0))
        assert np.array_equal(g, g.T)

    def test_gaussian_of_overflowing_squares_keeps_the_finite_gram(self):
        # every squared difference overflows, so each off-diagonal entry is
        # exp(-inf) = 0; the sum must not turn inf into nan
        pts = np.array([[1e200], [1.5e200], [-2.5e200]])
        with np.errstate(over="ignore"):
            reference = reference_gaussian(pts, 2.0)
        g = gram_matrix(pts, KernelSpec("gaussian", bandwidth=1.0))
        assert np.array_equal(g * 3, reference)
        assert np.array_equal(g, np.eye(3) / 3)
        assert np.array_equal(eigen_spectrum(g).lambdas, np.full(3, 1 / 3))

    def test_gaussian_memory_is_quadratic_in_n_only(self):
        # 400 x 400 x 64 differences would take 83 MB
        pts = np.random.default_rng(7).standard_normal((400, 64))
        tracemalloc.start()
        try:
            gram_matrix(pts, KernelSpec("gaussian", bandwidth=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            gram_matrix(np.empty((0, 2)), KernelSpec("delta"))
        with pytest.raises(ConfigurationError):
            gram_matrix(np.empty((3, 0)), KernelSpec("delta"))
        with pytest.raises(ConfigurationError):
            gram_matrix(np.array([[np.nan]]), KernelSpec("delta"))


def reference_gaussian(points, scale):
    """exp(-|x_i - x_j|^2 / scale) from an N x N x d array of differences."""
    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-sq / scale)


def inertia_below(mat, x):
    """Number of eigenvalues of mat strictly below x, via LDL^T inertia."""
    _, d, _ = ldl(mat - x * np.eye(mat.shape[0]))
    eigs = np.linalg.eigvalsh(d)  # d is block diagonal with 1x1/2x2 blocks
    return int((eigs < 0).sum())


def oracle_eigenvalues(mat, tol=1e-10):
    """Independent eigensolver: bisection on the inertia count."""
    n = mat.shape[0]
    bound = float(np.abs(mat).sum())  # crude Gershgorin-type bound
    out = []
    for idx in range(n):  # idx-th smallest eigenvalue
        lo, hi = -bound - 1.0, bound + 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if inertia_below(mat, mid) <= idx:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out[::-1])  # nonincreasing


class TestEigenSpectrum:
    def test_scaled_identity_exact(self):
        n = 7
        spec = eigen_spectrum(np.eye(n) / n)
        assert np.array_equal(spec.lambdas, np.full(n, 1 / n))

    def test_rank_one(self):
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        g = np.outer(v, v)
        spec = eigen_spectrum(g)
        assert spec.lambdas[0] == pytest.approx(v @ v)
        assert np.allclose(spec.lambdas[1:], 0.0, atol=1e-12)

    def test_diag_matrix(self):
        spec = eigen_spectrum(np.diag([0.3, 0.1, 0.5]))
        assert np.allclose(spec.lambdas, [0.5, 0.3, 0.1])

    def test_random_psd_against_inertia_oracle(self):
        gen = np.random.default_rng(2)
        a = gen.normal(size=(8, 8))
        g = (a @ a.T) / 8.0
        spec = eigen_spectrum(g)
        oracle = oracle_eigenvalues(g, tol=1e-9)
        assert np.allclose(spec.lambdas, oracle, atol=1e-8)

    def test_trace_identity(self):
        pts = np.random.default_rng(3).normal(size=(9, 2))
        g = gram_matrix(pts, KernelSpec("gaussian", bandwidth=1.3))
        spec = eigen_spectrum(g)
        assert spec.trace == pytest.approx(np.trace(g), abs=1e-12)

    def test_gaussian_n512_against_inertia_oracle(self):
        pts = np.random.default_rng(4).normal(size=(512, 2))
        g = gram_matrix(pts, KernelSpec("gaussian", bandwidth=1.0))
        lam = eigen_spectrum(g).lambdas
        assert lam.sum() == pytest.approx(np.trace(g), abs=1e-12)
        gaps = lam[:-1] - lam[1:]
        for i in np.argsort(gaps)[-6:]:
            x = 0.5 * (lam[i] + lam[i + 1])
            assert inertia_below(g, x) == int((lam < x).sum())

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError, match="finite"):
            eigen_spectrum(np.full((2, 2), np.inf))

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigurationError):
            eigen_spectrum(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("entry", [0.0, 1.0])  # the atol term, then the rtol term
    def test_symmetry_check_is_allclose(self, entry, sign):
        # a_10 runs through the floats on both sides of the last one that
        # np.allclose(a, a.T, atol=1e-12) takes, found by bisection
        def matrix(other):
            return np.array([[2.0, entry], [other, 2.0]])

        inside, outside = entry, entry + sign * 1e-4
        while np.nextafter(inside, outside) != outside:
            mid = 0.5 * (inside + outside)
            if np.allclose(matrix(mid), matrix(mid).T, atol=1e-12):
                inside = mid
            else:
                outside = mid
        # the rtol term scales with the smaller of |a_01| and |a_10|
        edge = 1e-12 + 1e-5 * min(abs(entry), abs(inside))
        assert abs(abs(inside - entry) - edge) <= 1e-15
        further_in, further_out = np.nextafter(inside, entry), np.nextafter(outside, sign * np.inf)
        for other, symmetric in ((further_in, True), (inside, True), (outside, False), (further_out, False)):
            a = matrix(other)
            assert np.allclose(a, a.T, atol=1e-12) == symmetric
            if symmetric:
                eigen_spectrum(a)
            else:
                with pytest.raises(ConfigurationError, match="symmetric"):
                    eigen_spectrum(a)

    def test_indefinite_matrix_rejected_by_spectrum_container(self):
        with pytest.raises(ConfigurationError):
            EigenSpectrum(lambdas=np.array([1.0, -0.5]))

    def test_nonincreasing_enforced(self):
        with pytest.raises(ConfigurationError):
            EigenSpectrum(lambdas=np.array([0.1, 0.2]))


class TestTailsumBound:
    def spectrum(self, lams):
        return EigenSpectrum(lambdas=np.asarray(lams, dtype=float))

    def test_delta_spectrum_hand_value(self):
        # N=4, all eigenvalues 1/4, k=4: theta=0 gives sqrt((1/4)*1)=1/2
        spec = self.spectrum([0.25, 0.25, 0.25, 0.25])
        val, theta = tailsum_bound(spec, 4)
        assert theta == 0
        assert val == pytest.approx(0.5)

    def test_theta_zero_is_feasibility_cap(self):
        spec = self.spectrum([0.5, 0.3, 0.2])
        for k in (1, 2, 3):
            val, _ = tailsum_bound(spec, k)
            assert val <= math.sqrt(spec.trace / k) + 1e-12

    def test_rank_d_spectrum_picks_theta_d(self):
        # exactly d nonzero eigenvalues: at theta = d the tail vanishes
        d = 2
        spec = self.spectrum([0.4, 0.3, 0.0, 0.0, 0.0])
        for k in (20, 50):
            val, theta = tailsum_bound(spec, k)
            assert theta == d
            assert val == pytest.approx(d / k)

    def test_nonincreasing_in_k(self):
        spec = self.spectrum([0.4, 0.2, 0.1, 0.05])
        vals = [tailsum_bound(spec, k)[0] for k in (1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        spec = self.spectrum([0.5])
        with pytest.raises(ConfigurationError):
            tailsum_bound(spec, 0)
