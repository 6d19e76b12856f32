"""Each tolerance decision placed on both sides of its threshold: at 2x it decides one way,
at 0.5x the other, so widening a threshold past 2x fails a test.

A threshold relative to |A| is probed at |A| = 1 and at |A| = 2^20, where the
max(1, ...) floor no longer holds it. The absolute radius of the Zero kind is
probed at its own scale.
"""

import dataclasses

import numpy as np
import pytest

from rigidity.curvature import kn_identity_suite_batch
from rigidity.defaults import tolerance
from rigidity.errors import InvariantViolation, NotTraceFree
from rigidity.inequalities import bridge_residual, classify_spectrum_batch, main_inequality_batch
from rigidity.spectral import eigen_spectrum_batch, examine_batch

SIZES = [1.0, 2.0 ** 20]
FACTORS = [2.0, 0.5]


def trace_free(n: int, size: float) -> np.ndarray:
    """A seeded trace-free symmetric matrix (n, n) with Frobenius norm ``size``."""
    m = np.random.default_rng(n).normal(size=(n, n))
    m = m + m.T
    m -= np.trace(m) / n * np.eye(n)
    return m * (size / np.sqrt((m * m).sum()))


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("size", SIZES)
def test_examination_refuses_a_trace_beyond_trace_free_tol(size, factor):
    # diag(size, -size, 0, 0) / sqrt(2) plus t I: tr A = 4 t = factor * tol * n * |A|
    n, tol = 4, tolerance("trace_free_tol")
    a = np.diag([1.0, -1.0, 0.0, 0.0]) * size / np.sqrt(2.0) + factor * tol * size * np.eye(n)
    ratio = abs(np.trace(a)) / (tol * n * np.sqrt((a * a).sum()))
    assert ratio == pytest.approx(factor, rel=1e-6)
    if factor > 1.0:
        with pytest.raises(NotTraceFree):
            examine_batch(a[None])
    else:
        assert examine_batch(a[None]).a2[0] == pytest.approx(size * size)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("size", SIZES)
def test_exact_eigenspace_kind_needs_a_trace_within_trace_free_tol(size, factor):
    # |A| = size with an eigenvalue of multiplicity n - 1, each eigenvalue shifted by
    # factor * tol * max(1, radius), so that the sum is n times that
    n, tol = 4, tolerance("trace_free_tol")
    spectrum = np.array([-1.0, -1.0, -1.0, 3.0]) * size / np.sqrt(12.0)
    spectrum += factor * tol * max(1.0, np.abs(spectrum).max())
    w, links = eigen_spectrum_batch(np.diag(spectrum)[None])
    assert links.tolist() == [[True, True, False]]
    assert abs(w.sum()) / (tol * n * max(1.0, np.abs(w).max())) == pytest.approx(factor, rel=1e-6)
    want = "EigenspaceDimAtLeastNMinus1" if factor > 1.0 else "EigenspaceDimExactlyNMinus1"
    assert classify_spectrum_batch(w, links).tolist() == [want]


@pytest.mark.parametrize("factor", FACTORS)
def test_zero_kind_is_a_radius_within_umbilic_tol(factor):
    # an absolute radius: past it, a spectrum this small is one cluster, proportional to I
    radius = factor * tolerance("umbilic_tol")
    w, links = eigen_spectrum_batch(np.diag([-radius / 3.0] * 3 + [radius])[None])
    assert np.abs(w).max() == pytest.approx(radius, rel=1e-12)
    want = "ProportionalToIdentity" if factor > 1.0 else "Zero"
    assert classify_spectrum_batch(w, links).tolist() == [want]


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", [4, 6])
def test_main_inequality_refuses_a_bridge_residual_beyond_bridge_tol(n, size, factor):
    # a22 enters the residual as -1/4 a22, so a22 moves by 4 * factor * tol * |A|^4
    stack = examine_batch(trace_free(n, size)[None])
    hom, tol = stack.a2 * stack.a2, tolerance("bridge_tol")
    stack = dataclasses.replace(stack, a22=stack.a22 + 4.0 * factor * tol * hom)
    assert abs(bridge_residual(stack)[0]) / (tol * hom[0]) == pytest.approx(factor, rel=1e-3)
    if factor > 1.0:
        with pytest.raises(InvariantViolation, match="bridge identity"):
            main_inequality_batch(stack)
    else:
        assert main_inequality_batch(stack)[0].defect.shape == (1,)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("size", [4.0, 2.0 ** 20])
@pytest.mark.parametrize("n", [4, 6])
def test_kn_suite_refuses_a_fialkow_trace_beyond_1e_12(n, size, factor):
    # G = |A|^2 / (2(n - 1)) >= 1 at both sizes; a2 + delta moves tr F - G by -delta / (n - 2)
    stack = examine_batch(trace_free(n, size)[None])
    g = stack.a2[0] / (2.0 * (n - 1))
    assert g >= 1.0
    stack = dataclasses.replace(stack, a2=stack.a2 + factor * 1e-12 * g * (n - 2))
    g = stack.a2[0] / (2.0 * (n - 1))
    squared = stack.a[0] @ stack.a[0]
    fialkow = (0.5 * (squared + squared.T) - g * np.eye(n)) / (n - 2)
    assert abs(np.trace(fialkow) - g) / (1e-12 * g) == pytest.approx(factor, rel=1e-2)
    if factor > 1.0:
        with pytest.raises(InvariantViolation, match="Fialkow"):
            kn_identity_suite_batch(stack)
    else:
        assert kn_identity_suite_batch(stack).shape == (1, 4)
