"""Curvature tensor algebra: products, the Fialkow tensor, Weyl norms."""

import numpy as np
import pytest

from rigidity.errors import BadDimension, DimensionMismatch, InvariantViolation, NotTraceFree
from rigidity.sampling import derived_rng, random_rotation

from reference import (
    AlgCurvTensor,
    SymMatrix,
    curvature_symmetry_residuals,
    equality_family_matrix,
    fialkow_tensor,
    kn_identity_suite,
    kulkarni_nomizu,
    main_inequality,
    norms,
    random_symmetric,
    random_trace_free,
    rotate_tensor,
    tensor_inner,
    tensor_norm_sq,
    weyl_from_gauss_codazzi,
    weyl_norm_closed_form,
)


def diag(*values):
    return SymMatrix(np.diag([float(v) for v in values]))


def kn_bruteforce(s, t):
    """Quadruple-loop oracle for the Kulkarni-Nomizu product."""
    n = s.shape[0]
    out = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    out[a, b, c, d] = (s[a, c] * t[b, d] + s[b, d] * t[a, c]
                                       - s[a, d] * t[b, c] - s[b, c] * t[a, d])
    return out


class TestKulkarniNomizu:
    def test_identity_product(self):
        eye = np.eye(4)
        product = kulkarni_nomizu(eye, eye)
        assert np.array_equal(product.entries, kn_bruteforce(eye, eye))
        assert tensor_norm_sq(product) == 96.0  # 8 n (n - 1) for n = 4

    def test_symmetric_in_arguments(self):
        rng = derived_rng(301)
        s = random_symmetric(rng, 5).entries
        t = random_symmetric(rng, 5).entries
        assert np.array_equal(kulkarni_nomizu(s, t).entries,
                              kulkarni_nomizu(t, s).entries)

    def test_matches_bruteforce(self):
        s = np.diag([1.0, 1.0, -1.0, -1.0])
        t = np.eye(4)
        assert np.array_equal(kulkarni_nomizu(s, t).entries, kn_bruteforce(s, t))
        rng = derived_rng(302)
        s = random_symmetric(rng, 5).entries
        t = random_symmetric(rng, 5).entries
        assert np.max(np.abs(kulkarni_nomizu(s, t).entries
                             - kn_bruteforce(s, t))) <= 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kulkarni_nomizu(np.eye(4), np.eye(5))

    def test_curvature_symmetries(self):
        for i in range(20):
            rng = derived_rng(303, i)
            n = int(rng.integers(4, 9))
            s = random_symmetric(rng, n).entries
            t = random_symmetric(rng, n).entries
            residuals = curvature_symmetry_residuals(kulkarni_nomizu(s, t))
            assert max(residuals.values()) <= 1e-12

    def test_orthogonal_equivariance(self):
        rng = derived_rng(304)
        n = 5
        s = random_symmetric(rng, n).entries
        t = random_symmetric(rng, n).entries
        q = random_rotation(rng, n)
        left = kulkarni_nomizu(q @ s @ q.T, q @ t @ q.T).entries
        right = rotate_tensor(kulkarni_nomizu(s, t), q).entries
        assert np.max(np.abs(left - right)) <= 1e-10 * max(1.0, np.max(np.abs(left)))

    def test_bilinear_validation(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(InvariantViolation):
            SymMatrix(m)
        with pytest.raises(InvariantViolation):
            AlgCurvTensor(np.zeros((3, 3)))


class TestFialkowTensor:
    def test_involution(self):
        f, g = fialkow_tensor(diag(1, 1, -1, -1))
        assert g == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert np.allclose(f.entries, np.eye(4) / 6.0, atol=1e-15)
        assert np.trace(f.entries) == pytest.approx(g, rel=1e-14)

    def test_zero(self):
        f, g = fialkow_tensor(SymMatrix(np.zeros((4, 4))))
        assert g == 0.0
        assert np.array_equal(f.entries, np.zeros((4, 4)))

    def test_equality_matrix(self):
        f, g = fialkow_tensor(diag(1, 1, 1, -3))
        assert g == 2.0
        assert np.allclose(f.entries, np.diag([-0.5, -0.5, -0.5, 3.5]), atol=1e-15)
        assert np.trace(f.entries) == pytest.approx(2.0, rel=1e-14)

    def test_trace_identity_fuzz(self):
        for i in range(50):
            rng = derived_rng(311, i)
            n = int(rng.integers(4, 9))
            a = random_trace_free(rng, n)
            f, g = fialkow_tensor(a)
            assert abs(np.trace(f.entries) - g) <= 1e-12 * max(1.0, g)

    def test_rejects_nonzero_trace(self):
        with pytest.raises(NotTraceFree):
            fialkow_tensor(diag(1, 2, 3, 4))


class TestWeylTensor:
    def test_zero_matrix(self):
        w = weyl_from_gauss_codazzi(SymMatrix(np.zeros((4, 4))))
        assert np.array_equal(w.entries, np.zeros((4, 4, 4, 4)))

    def test_involution_norm(self):
        w = weyl_from_gauss_codazzi(diag(1, 1, -1, -1))
        assert tensor_norm_sq(w) == pytest.approx(64.0 / 3.0, rel=1e-13)
        assert weyl_norm_closed_form((4.0, 4.0), 4) == pytest.approx(64.0 / 3.0, rel=1e-14)

    def test_totally_trace_free(self):
        for i in range(100):
            rng = derived_rng(313, i)
            n = int(rng.integers(4, 9))
            a = random_trace_free(rng, n)
            w = weyl_from_gauss_codazzi(a)
            trace = np.einsum("abad->bd", w.entries)
            scale = max(1.0, float(np.max(np.abs(w.entries))))
            assert np.max(np.abs(trace)) <= 1e-10 * scale

    def test_curvature_symmetries(self):
        rng = derived_rng(317)
        a = random_trace_free(rng, 6)
        residuals = curvature_symmetry_residuals(weyl_from_gauss_codazzi(a))
        assert max(residuals.values()) <= 1e-12

    def test_contraction_matches_closed_form(self):
        for i in range(100):
            rng = derived_rng(319, i)
            n = int(rng.integers(4, 9))
            a = random_trace_free(rng, n)
            a2, a22, _ = norms(a)
            direct = tensor_norm_sq(weyl_from_gauss_codazzi(a))
            closed = weyl_norm_closed_form((a2, a22), n)
            assert abs(direct - closed) <= 1e-9 * max(1.0, a2 * a2)

    def test_closed_form_values(self):
        assert weyl_norm_closed_form((12.0, 84.0), 4) == 0.0
        assert weyl_norm_closed_form((0.0, 0.0), 5) == 0.0

    def test_closed_form_dimension_check(self):
        with pytest.raises(BadDimension):
            weyl_norm_closed_form((1.0, 1.0), 3)

    def test_zero_weyl_iff_main_equality(self):
        for i in range(60):
            rng = derived_rng(323, i)
            n = int(rng.integers(4, 8))
            if i % 2 == 0:
                a = equality_family_matrix(n, float(rng.uniform(0.5, 2.0)),
                                           rotation=random_rotation(rng, n))
            else:
                a = random_trace_free(rng, n)
            a2, a22, _ = norms(a)
            closed = weyl_norm_closed_form((a2, a22), n)
            verdict, _ = main_inequality(a)
            scale = max(1.0, a2 * a2)
            if verdict.equality:
                assert abs(closed) <= 1e-9 * scale
            else:
                assert closed > 1e-9 * scale


class TestKnIdentitySuite:
    def test_involution_values(self):
        a = diag(1, 1, -1, -1)
        # <A^2, F> = tr(I * I/6) = 2/3 and |A ^ A|^2 = 8*16 - 8*4 = 96
        assert tensor_norm_sq(kulkarni_nomizu(a, a)) == 96.0
        residuals = kn_identity_suite(a)
        assert max(abs(r) for r in residuals) <= 1e-13

    def test_zero(self):
        residuals = kn_identity_suite(SymMatrix(np.zeros((4, 4))))
        assert residuals == [0.0, 0.0, 0.0, 0.0]

    def test_fuzz(self):
        for i in range(200):
            rng = derived_rng(331, i)
            n = int(rng.integers(4, 9))
            a = random_trace_free(rng, n)
            a2, _, _ = norms(a)
            residuals = kn_identity_suite(a)
            assert max(abs(r) for r in residuals) <= 1e-9 * max(1.0, a2 * a2)

    def test_rejects_nonzero_trace(self):
        with pytest.raises(NotTraceFree):
            kn_identity_suite(diag(1, 2, 3, 4))


def test_weyl_inner_product_decomposition():
    """|W|^2 = 1/4 |A^A|^2 + <A^A, F^g> + |F^g|^2 ties the suite together."""
    rng = derived_rng(337)
    a = random_trace_free(rng, 5)
    f, _ = fialkow_tensor(a)
    kn_aa = kulkarni_nomizu(a, a)
    kn_fg = kulkarni_nomizu(f, np.eye(5))
    combined = (0.25 * tensor_norm_sq(kn_aa) + tensor_inner(kn_aa, kn_fg)
                + tensor_norm_sq(kn_fg))
    direct = tensor_norm_sq(weyl_from_gauss_codazzi(a))
    assert combined == pytest.approx(direct, rel=1e-12)
