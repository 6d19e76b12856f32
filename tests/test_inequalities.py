"""Inequality chain: Newton gaps, shifted propositions, the quartic bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rigidity import inequalities
from rigidity.defaults import tolerance
from rigidity.errors import BadDimension, NotTraceFree
from rigidity.inequalities import EqualityKind

from equality_family import equality_family_stats
from reference import (
    BadIndex,
    SymMatrix,
    cubic_bound,
    derived_rng,
    eigen_spectrum,
    equality_family_matrix,
    lambda_scan,
    main_inequality,
    newton_gap,
    norms,
    prop_p3,
    prop_p4,
    random_rotation,
    random_trace_free,
    sigma_norm_identities,
    symfun_from_spectrum,
    trace_free_project,
)


def diag(*values):
    return SymMatrix(np.diag([float(v) for v in values]))


def profile_of(a):
    return symfun_from_spectrum(eigen_spectrum(a))


class TestNewtonGap:
    def test_identity_equality_proportional(self):
        a = SymMatrix(np.eye(5))
        spec = eigen_spectrum(a)
        prof = symfun_from_spectrum(spec)
        for k in range(1, 5):
            verdict = newton_gap(prof, k, spectrum=spec)
            assert verdict.equality and verdict.holds
            assert verdict.case.kind is EqualityKind.PROPORTIONAL

    def test_rank_one_kernel_case(self):
        a = diag(1, 0, 0, 0)
        spec = eigen_spectrum(a)
        prof = symfun_from_spectrum(spec)
        verdict = newton_gap(prof, 2, spectrum=spec)
        assert verdict.lhs == 0.0 and verdict.rhs == 0.0
        assert verdict.equality
        assert verdict.case.kind is EqualityKind.KERNEL
        assert max(verdict.case.multiplicities) == 3  # == n - k + 1

    def test_bad_index(self):
        prof = profile_of(diag(1, 2, 3, 4))
        with pytest.raises(BadIndex):
            newton_gap(prof, 0)
        with pytest.raises(BadIndex):
            newton_gap(prof, 4)

    def test_fuzz_nonnegative(self):
        for i in range(500):
            rng = derived_rng(101, i)
            n = int(rng.integers(3, 13))
            prof = profile_of(random_trace_free(rng, n))
            for k in range(1, n):
                assert newton_gap(prof, k).relative_defect >= -1e-12


class TestCubicBound:
    def test_equality_matrix(self):
        verdict = cubic_bound(norms(diag(1, 1, 1, -3)), 4)
        assert verdict.lhs == 576.0
        assert verdict.rhs == pytest.approx(576.0, rel=1e-14)
        assert verdict.equality

    def test_involution_strict(self):
        verdict = cubic_bound(norms(diag(1, 1, -1, -1)), 4)
        assert verdict.lhs == 0.0
        assert verdict.rhs == pytest.approx(64.0 / 3.0, rel=1e-14)
        assert verdict.holds and not verdict.equality

    def test_zero_matrix(self):
        verdict = cubic_bound((0.0, 0.0, 0.0), 4)
        assert verdict.equality

    def test_rejects_nonzero_trace(self):
        a = diag(1, 1, 1, 1)
        with pytest.raises(NotTraceFree):
            cubic_bound(norms(a), 4, trace=a.trace())


class TestPropositions:
    def test_p3_equality_matrix(self):
        verdict = prop_p3(profile_of(diag(1, 1, 1, -3)))
        assert verdict.lhs == 0.0  # p_3^2 + 4 p_2^3 = 4 - 4
        assert verdict.equality

    def test_p3_zero_matrix(self):
        spec = eigen_spectrum(SymMatrix(np.zeros((4, 4))))
        verdict = prop_p3(symfun_from_spectrum(spec), spectrum=spec)
        assert verdict.equality
        assert verdict.case.kind is EqualityKind.ZERO

    def test_p3_strict_case(self):
        # trace 0, multiplicities (1, 3, 1): strictly negative combination
        verdict = prop_p3(profile_of(diag(2, -1, -1, 1, -1)))
        assert verdict.lhs == pytest.approx(-0.216, rel=1e-12)
        assert verdict.holds and not verdict.equality

    def test_p3_rejects_nonzero_trace(self):
        with pytest.raises(NotTraceFree):
            prop_p3(profile_of(diag(1, 2, 3, 4)))

    def test_p4_equality_matrix(self):
        verdict = prop_p4(profile_of(diag(1, 1, 1, -3)))
        assert verdict.rhs == 0.0  # p_4 + 3 p_2^2 = -3 + 3
        assert verdict.equality

    def test_p4_involution_strict(self):
        prof = profile_of(diag(1, 1, -1, -1))
        assert prof.p[4] == 1.0 and prof.p[2] == pytest.approx(-1.0 / 3.0)
        verdict = prop_p4(prof)
        assert verdict.rhs == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert verdict.holds and not verdict.equality

    def test_p4_zero_matrix(self):
        verdict = prop_p4(profile_of(SymMatrix(np.zeros((5, 5)))))
        assert verdict.equality

    def test_p4_requires_dimension_four(self):
        with pytest.raises(BadDimension):
            prop_p4(profile_of(diag(1, 0, -1)))

    def test_fuzz_nonnegative(self):
        for i in range(500):
            rng = derived_rng(107, i)
            n = int(rng.integers(4, 13))
            prof = profile_of(random_trace_free(rng, n))
            assert prop_p3(prof).relative_defect >= -1e-12
            assert prop_p4(prof).relative_defect >= -1e-12


class TestLambdaScan:
    def test_equality_matrix_double_root(self):
        prof = profile_of(diag(1, 1, 1, -3))
        grid = np.array([-1.0, 0.0, 0.5, 2.0])
        values = lambda_scan(prof, grid)
        # q(t) = p2^2 - t p3 - t^2 p2 = (1 + t)^2 for this matrix
        assert np.allclose(values[:-1], (1.0 + grid) ** 2, atol=1e-14)
        assert values[0] == 0.0
        assert values[-1] == 0.0  # step-2 product vanishes at equality

    def test_zero_matrix(self):
        prof = profile_of(SymMatrix(np.zeros((4, 4))))
        values = lambda_scan(prof, np.linspace(-2, 2, 11))
        assert np.array_equal(values, np.zeros(12))

    def test_fuzz_shifted_gap_nonnegative(self):
        for i in range(200):
            rng = derived_rng(113, i)
            n = int(rng.integers(4, 10))
            a = random_trace_free(rng, n)
            prof = profile_of(a)
            grid = rng.uniform(-2.0, 2.0, 100)
            values = lambda_scan(prof, grid)
            scale = np.maximum(1.0, np.abs(values[:-1]))
            assert np.min(values[:-1] / scale) >= -1e-12
            assert values[-1] <= 1e-12 * max(1.0, abs(values[-1]))

    def test_rejects_nonzero_trace(self):
        with pytest.raises(NotTraceFree):
            lambda_scan(profile_of(diag(1, 2, 3, 4)), [0.0])


class TestMainInequality:
    def test_equality_matrix(self):
        verdict, case = main_inequality(diag(1, 1, 1, -3))
        assert verdict.lhs == 84.0
        assert verdict.rhs == pytest.approx(7.0 / 12.0 * 144.0, rel=1e-14)
        assert verdict.equality
        assert case.kind is EqualityKind.EIGENSPACE_EXACT
        mu, nu = case.detail
        assert mu == pytest.approx(1.0, abs=1e-12)
        assert nu == pytest.approx(-3.0, abs=1e-12)

    def test_involution_strict(self):
        verdict, case = main_inequality(diag(1, 1, -1, -1))
        assert verdict.lhs == 4.0
        assert verdict.rhs == pytest.approx(28.0 / 3.0, rel=1e-14)
        assert verdict.holds and not verdict.equality
        assert case.kind is EqualityKind.NONE

    def test_zero_matrix(self):
        verdict, case = main_inequality(SymMatrix(np.zeros((5, 5))))
        assert verdict.lhs == 0.0 and verdict.rhs == 0.0
        assert verdict.equality
        assert case.kind is EqualityKind.ZERO

    def test_requires_dimension_four(self):
        with pytest.raises(BadDimension):
            main_inequality(diag(1, 0, -1))

    def test_rejects_nonzero_trace(self):
        with pytest.raises(NotTraceFree):
            main_inequality(diag(1, 2, 3, 4))

    def test_scale_invariance(self):
        rng = derived_rng(211)
        strict = random_trace_free(rng, 6)
        equal = equality_family_matrix(6, 1.3, rotation=random_rotation(rng, 6))
        for a in (strict, equal):
            base_verdict, base_case = main_inequality(a)
            for t in (1e-3, 1.0, 1e3):
                verdict, case = main_inequality(SymMatrix(t * a.entries))
                assert verdict.holds == base_verdict.holds
                assert verdict.equality == base_verdict.equality
                assert case.kind == base_case.kind

    def test_conjugation_invariance(self):
        rng = derived_rng(223)
        a = random_trace_free(rng, 5)
        base, _ = main_inequality(a)
        for i in range(10):
            q = random_rotation(derived_rng(223, i + 1), 5)
            rotated = SymMatrix.from_array(q @ a.entries @ q.T, asym_tol=1e-10)
            verdict, _ = main_inequality(rotated)
            assert verdict.relative_defect == pytest.approx(base.relative_defect, abs=1e-10)
            assert verdict.holds == base.holds and verdict.equality == base.equality

    def test_equality_family(self):
        stats = equality_family_stats(range(4, 9), 100, seed=31)
        assert stats["all_equality"]
        assert stats["all_multiplicity_n_minus_1"]
        assert stats["max_abs_relative_defect"] <= 1e-10

    def test_detail_pair_relation(self):
        # trace zero forces the lone eigenvalue to be -(n-1) mu
        for i in range(20):
            rng = derived_rng(227, i)
            n = int(rng.integers(4, 9))
            mu = float(rng.uniform(0.5, 2.0))
            a = equality_family_matrix(n, mu, rotation=random_rotation(rng, n))
            _, case = main_inequality(a)
            mu_hat, nu_hat = case.detail
            assert nu_hat == pytest.approx(-(n - 1) * mu_hat, rel=1e-10)

    def test_chain_consistency_p3_implies_main(self):
        for i in range(50):
            rng = derived_rng(229, i)
            n = int(rng.integers(4, 9))
            if i % 2 == 0:
                a = equality_family_matrix(n, float(rng.uniform(0.5, 2.0)),
                                           rotation=random_rotation(rng, n))
            else:
                a = random_trace_free(rng, n)
            prof = profile_of(a)
            verdict_main, _ = main_inequality(a, profile=prof)
            if prop_p3(prof).equality:
                assert verdict_main.equality

    def test_fuzz_no_violations_no_false_equalities(self):
        for i in range(500):
            rng = derived_rng(233, i)
            n = int(rng.integers(4, 13))
            a = random_trace_free(rng, n)
            verdict, case = main_inequality(a)
            assert verdict.relative_defect >= -1e-12
            if verdict.equality:
                assert case.large_eigenspace


class TestSigmaNormIdentities:
    def test_equality_matrix(self):
        r2, r4 = sigma_norm_identities(diag(1, 1, 1, -3))
        assert r2 == 0.0 and r4 == 0.0

    def test_zero_matrix(self):
        r2, r4 = sigma_norm_identities(SymMatrix(np.zeros((4, 4))))
        assert r2 == 0.0 and r4 == 0.0

    def test_fuzz_residuals(self):
        for i in range(300):
            rng = derived_rng(239, i)
            n = int(rng.integers(4, 13))
            a = random_trace_free(rng, n)
            a2, _, _ = norms(a)
            r2, r4 = sigma_norm_identities(a)
            bound = 1e-10 * max(1.0, a2 * a2)
            assert abs(r2) <= bound and abs(r4) <= bound

    def test_rejects_nonzero_trace(self):
        with pytest.raises(NotTraceFree):
            sigma_norm_identities(diag(1, 2, 3, 4))


def test_trace_free_projection_feeds_the_chain():
    rng = derived_rng(241)
    a = trace_free_project(SymMatrix(np.diag(rng.uniform(-1, 1, 6))))
    verdict, _ = main_inequality(a)
    assert verdict.holds


# |A| = 1, 2^20 and 2^-20
SCALES = [1.0, 2.0 ** 20, 2.0 ** -20]


class TestVerdictThreshold:
    """The package's verdicts decide at verdict_tol times the homogeneous scale, |A|^4 for the
    quartic bound, on both sides of it and across the double range."""

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_main_inequality_equality_at_the_threshold(self, n, ratio, scale):
        # eigenvalues (1 + d, 1 - d, 1, ..., 1, 1 - n), near the equality case, normalized to
        # |A| = scale: the defect is about 4 n (n - 3) d^2 / (n (n - 1))^2 |A|^4
        tol = tolerance("verdict_tol")
        d = math.sqrt(ratio * tol * (n * (n - 1)) ** 2 / (4 * n * (n - 3)))
        w = np.array([1.0 + d, 1.0 - d] + [1.0] * (n - 3) + [1.0 - n])
        w *= scale / math.sqrt(math.fsum(w * w))
        exact = [Fraction(x) for x in w]
        a4 = sum(x * x for x in exact) ** 2
        defect = Fraction(n * n - 3 * n + 3, n * (n - 1)) * a4 - sum(x ** 4 for x in exact)
        assert abs(defect / (a4 * Fraction(tol)) / Fraction(ratio) - 1) < 1e-3
        verdict, _ = inequalities.main_inequality(np.diag(w))
        assert verdict.holds
        assert verdict.equality == (ratio < 1)

    @pytest.mark.parametrize("scale", SCALES)
    def test_holds_and_equality_at_the_threshold(self, scale):
        # defects of real matrices are never negative, so lhs - rhs is set directly to -2, -0.5,
        # 0.5 and 2 times the threshold, at the homogeneous scale |A|^4
        hom = np.full(4, scale ** 4)
        threshold = tolerance("verdict_tol") * hom
        verdict = inequalities._verdict_batch(hom + np.array([-2.0, -0.5, 0.5, 2.0]) * threshold,
                                              hom, hom)
        assert verdict.holds.tolist() == [True, True, True, False]
        assert verdict.equality.tolist() == [False, True, True, False]
