"""Spectral core: matrices, eigen decomposition, symmetric-function profiles."""

import math

import numpy as np
import pytest

from rigidity.errors import BadDimension, InvariantViolation

from reference import (
    NonConvergence,
    SymMatrix,
    derived_rng,
    eigen_spectrum,
    jacobi_eigensystem,
    norms,
    random_symmetric,
    shift_profile,
    symfun_from_power_sums,
    symfun_from_spectrum,
    trace_free_project,
)


def diag(*values):
    return SymMatrix(np.diag([float(v) for v in values]))


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(InvariantViolation):
            SymMatrix(m)

    def test_rejects_small_dimension(self):
        with pytest.raises(BadDimension):
            SymMatrix(np.eye(2))

    def test_from_array_symmetrizes_exactly(self):
        rng = derived_rng(0)
        m = rng.normal(size=(5, 5))
        m = m + m.T + 1e-14 * rng.normal(size=(5, 5))
        sym = SymMatrix.from_array(m)
        assert np.array_equal(sym.entries, sym.entries.T)

    def test_from_array_rejects_large_asymmetry(self):
        m = np.eye(4)
        m[0, 1] = 1e-3
        with pytest.raises(InvariantViolation):
            SymMatrix.from_array(m)

    def test_entries_read_only(self):
        a = diag(1, 2, 3)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0


class TestTraceFreeProject:
    def test_identity_projects_to_zero(self):
        out = trace_free_project(SymMatrix(np.eye(4)))
        assert np.array_equal(out.entries, np.zeros((4, 4)))

    def test_mean_subtraction(self):
        out = trace_free_project(diag(1, 2, 3, 4))
        assert np.allclose(out.entries, np.diag([-1.5, -0.5, 0.5, 1.5]), atol=0)

    def test_trace_free_fixed_point(self):
        a = diag(1, 1, 1, -3)
        out = trace_free_project(a)
        assert np.array_equal(out.entries, a.entries)

    def test_residual_trace_bound(self):
        for i in range(50):
            rng = derived_rng(21, i)
            n = int(rng.integers(3, 13))
            a = random_symmetric(rng, n)
            out = trace_free_project(a)
            bound = 1e-14 * n * max(1.0, np.max(np.abs(a.entries)))
            assert abs(out.trace()) <= bound


class TestEigenSpectrum:
    def test_diagonal_input(self):
        spec = eigen_spectrum(diag(1, 1, 1, -3))
        assert np.allclose(spec.eigenvalues, [-3, 1, 1, 1], atol=0)
        assert spec.clusters == ((0,), (1, 2, 3))
        assert spec.multiplicities == (1, 3)

    def test_zero_matrix_single_cluster(self):
        spec = eigen_spectrum(SymMatrix(np.zeros((5, 5))))
        assert np.array_equal(spec.eigenvalues, np.zeros(5))
        assert spec.clusters == ((0, 1, 2, 3, 4),)

    def test_reconstruction_contract(self):
        for i in range(30):
            rng = derived_rng(33, i)
            n = int(rng.integers(3, 13))
            a = random_symmetric(rng, n)
            w, q = np.linalg.eigh(a.entries)
            radius = max(np.max(np.abs(w)), 1e-300)
            rebuilt = q @ np.diag(w) @ q.T
            assert np.max(np.abs(rebuilt - a.entries)) <= 1e-12 * radius

    def test_bisection_oracle_6x6(self):
        """Eigenvalues match the characteristic-polynomial roots found by
        sign-change bisection on det(A - x I) (LU-based determinant)."""
        rng = derived_rng(4242)
        a = random_symmetric(rng, 6)
        m = a.entries

        def char(x):
            return float(np.linalg.det(m - x * np.eye(6)))

        radii = np.abs(m).sum(axis=1)
        lo = float(np.min(np.diag(m) - radii)) - 1.0
        hi = float(np.max(np.diag(m) + radii)) + 1.0
        grid = np.linspace(lo, hi, 4001)
        values = [char(x) for x in grid]
        roots = []
        for left, right, fl, fr in zip(grid, grid[1:], values, values[1:]):
            if fl == 0.0:
                roots.append(left)
                continue
            if fl * fr < 0.0:
                x0, x1, f0 = left, right, fl
                for _ in range(100):
                    mid = 0.5 * (x0 + x1)
                    fm = char(mid)
                    if f0 * fm <= 0.0:
                        x1 = mid
                    else:
                        x0, f0 = mid, fm
                roots.append(0.5 * (x0 + x1))
        assert len(roots) == 6
        spec = eigen_spectrum(a)
        assert np.max(np.abs(np.sort(roots) - spec.eigenvalues)) <= 1e-10

    def test_jacobi_matches_lapack(self):
        for i in range(40):
            rng = derived_rng(7, i)
            n = int(rng.integers(3, 11))
            a = random_symmetric(rng, n)
            w_l = eigen_spectrum(a, method="lapack").eigenvalues
            w_j = eigen_spectrum(a, method="jacobi").eigenvalues
            assert np.max(np.abs(w_l - w_j)) <= 1e-12 * max(1.0, np.max(np.abs(w_l)))

    def test_jacobi_reconstruction(self):
        rng = derived_rng(8)
        a = random_symmetric(rng, 7)
        w, q = jacobi_eigensystem(a.entries)
        assert np.max(np.abs(q @ np.diag(w) @ q.T - a.entries)) <= 1e-13 * max(
            1.0, np.max(np.abs(w)))
        assert np.max(np.abs(q.T @ q - np.eye(7))) <= 1e-13

    def test_jacobi_nonconvergence(self):
        rng = derived_rng(9)
        a = random_symmetric(rng, 6)
        with pytest.raises(NonConvergence):
            jacobi_eigensystem(a.entries, max_sweeps=0)

    def test_cluster_tolerance_must_be_positive(self):
        with pytest.raises(InvariantViolation):
            eigen_spectrum(diag(1, 2, 3), cluster_tol=0.0)


class TestSymFunProfiles:
    def test_hand_expansion(self):
        prof = symfun_from_spectrum(eigen_spectrum(diag(1, 2, 3)))
        assert prof.sigma == (1.0, 6.0, 11.0, 6.0)

    def test_equality_matrix_p_values(self):
        prof = symfun_from_spectrum(eigen_spectrum(diag(1, 1, 1, -3)))
        assert prof.sigma == (1.0, 0.0, -6.0, -8.0, -3.0)
        assert prof.p == (1.0, 0.0, -1.0, -2.0, -3.0)  # p_k = 1 - k

    @pytest.mark.parametrize("lam", [-2.0, 0.0, 1.0, 3.0])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_scalar_matrix_exact(self, lam, n):
        prof = symfun_from_spectrum(eigen_spectrum(SymMatrix(lam * np.eye(n))))
        for k in range(n + 1):
            assert prof.p[k] == lam ** k

    def test_power_sum_route_equality_matrix(self):
        prof = symfun_from_power_sums(diag(1, 1, 1, -3))
        assert prof.power_sums == (0.0, 12.0, -24.0, 84.0)
        assert prof.sigma == (1.0, 0.0, -6.0, -8.0, -3.0)

    def test_power_sum_route_zero(self):
        prof = symfun_from_power_sums(SymMatrix(np.zeros((5, 5))))
        assert all(s == 0.0 for s in prof.sigma[1:])

    def test_power_sum_route_identity(self):
        prof = symfun_from_power_sums(SymMatrix(np.eye(4)))
        assert prof.power_sums == (4.0, 4.0, 4.0, 4.0)
        assert prof.sigma == (1.0, 4.0, 6.0, 4.0, 1.0)

    def test_routes_agree_on_random_matrices(self):
        worst = 0.0
        for i in range(400):
            rng = derived_rng(11, i)
            n = int(rng.integers(3, 13))
            a = random_symmetric(rng, n)
            via_spec = symfun_from_spectrum(eigen_spectrum(a))
            via_pows = symfun_from_power_sums(a)
            scale = max(1.0, max(abs(s) for s in via_spec.sigma))
            dev = max(abs(x - y) for x, y in zip(via_spec.sigma, via_pows.sigma)) / scale
            worst = max(worst, dev)
        assert worst <= 1e-9

    def test_sigma_binom_p_consistency(self):
        rng = derived_rng(12)
        a = random_symmetric(rng, 9)
        prof = symfun_from_spectrum(eigen_spectrum(a))
        for k in range(10):
            expected = math.comb(9, k) * prof.p[k]
            assert abs(prof.sigma[k] - expected) <= 1e-14 * max(1.0, abs(prof.sigma[k]))

    def test_sigma1_equals_s1(self):
        for i in range(20):
            rng = derived_rng(13, i)
            a = random_symmetric(rng, 6)
            prof = symfun_from_spectrum(eigen_spectrum(a))
            assert prof.sigma[1] == prof.s(1)

    def test_char_poly_vanishes_at_eigenvalues(self):
        for i in range(100):
            rng = derived_rng(14, i)
            n = int(rng.integers(3, 13))
            a = random_symmetric(rng, n)
            spec = eigen_spectrum(a)
            prof = symfun_from_spectrum(spec)
            for lam in spec.eigenvalues:
                value = sum(prof.sigma[k] * (-lam) ** (n - k) for k in range(n + 1))
                assert abs(value) <= 1e-8 * (1.0 + abs(lam)) ** n

    def test_s2_nonnegative_and_zero_only_for_zero(self):
        for i in range(50):
            rng = derived_rng(15, i)
            a = random_symmetric(rng, 5)
            prof = symfun_from_power_sums(a)
            assert prof.s(2) >= 0.0
            assert prof.s(2) > 0.0
        zero = symfun_from_power_sums(SymMatrix(np.zeros((4, 4))))
        assert zero.s(2) == 0.0


class TestShiftProfile:
    def test_zero_shift_is_identity(self):
        prof = symfun_from_spectrum(eigen_spectrum(diag(1, 1, 1, -3)))
        shifted = shift_profile(prof, 0.0)
        assert shifted.sigma == prof.sigma
        assert shifted.power_sums == prof.power_sums

    def test_zero_matrix_shift_gives_scalar_profile(self):
        prof = symfun_from_spectrum(eigen_spectrum(SymMatrix(np.zeros((5, 5)))))
        shifted = shift_profile(prof, 2.0)
        for k in range(6):
            assert shifted.p[k] == 2.0 ** k

    def test_shift_equality_matrix(self):
        # oracle: the profile of diag(2,2,2,-2) computed directly
        prof = symfun_from_spectrum(eigen_spectrum(diag(1, 1, 1, -3)))
        shifted = shift_profile(prof, 1.0)
        direct = symfun_from_spectrum(eigen_spectrum(diag(2, 2, 2, -2)))
        assert direct.p == (1.0, 1.0, 0.0, -4.0, -16.0)
        assert shifted.p == direct.p
        assert shifted.power_sums == direct.power_sums

    def test_shift_matches_direct_on_random_pairs(self):
        for i in range(100):
            rng = derived_rng(16, i)
            n = int(rng.integers(3, 13))
            a = random_symmetric(rng, n)
            lam = float(rng.uniform(-2.0, 2.0))
            shifted = shift_profile(symfun_from_spectrum(eigen_spectrum(a)), lam)
            direct = symfun_from_spectrum(
                eigen_spectrum(SymMatrix(a.entries + lam * np.eye(n))))
            scale = max(1.0, max(abs(s) for s in direct.sigma))
            dev = max(abs(x - y) for x, y in zip(shifted.sigma, direct.sigma)) / scale
            assert dev <= 1e-9


class TestNorms:
    def test_equality_matrix(self):
        assert norms(diag(1, 1, 1, -3)) == (12.0, 84.0, -24.0)

    def test_involution(self):
        assert norms(diag(1, 1, -1, -1)) == (4.0, 4.0, 0.0)

    def test_zero(self):
        assert norms(SymMatrix(np.zeros((4, 4)))) == (0.0, 0.0, 0.0)

    def test_matches_power_sums(self):
        for i in range(30):
            rng = derived_rng(17, i)
            a = random_symmetric(rng, 6)
            a2, a22, t3 = norms(a)
            prof = symfun_from_power_sums(a)
            assert abs(a2 - prof.s(2)) <= 1e-12 * max(1.0, a2)
            assert abs(a22 - prof.s(4)) <= 1e-12 * max(1.0, a22)
            assert abs(t3 - prof.s(3)) <= 1e-12 * max(1.0, abs(t3))
