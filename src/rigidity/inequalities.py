"""Sharp inequalities for the elementary symmetric functions of trace-free matrices.

The chain implemented here: Newton's gap p_k^2 >= p_{k-1} p_{k+1}, the two
shifted consequences for trace-free matrices (p_3^2 + 4 p_2^3 <= 0 and
p_4 + 3 p_2^2 >= 0), the cubic bound
(tr A^3)^2 <= ((n-2)^2 / (n(n-1))) |A|^6, and the quartic bound
|A^2|^2 <= ((n^2-3n+3) / (n(n-1))) |A|^4 whose equality case is an
eigenspace of dimension at least n-1.

Each check runs over a stack at once and reads the plain arrays of the one
record of it that spectral.examine_batch makes (norms, spectrum, and sigma and
p as (n + 1, B) arrays), computed and checked trace-free once.
Every verdict carries an explicit scale matched to the homogeneity degree of
its inequality; the holds/equality decisions use the homogeneous part of the
scale so they are invariant under rescaling the matrix, while the reported
relative defect is floored at scale 1 so tiny matrices never divide by zero.
The thresholds come from the tolerance table that reports echo, so a verdict
does not carry its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .defaults import tolerance
from .errors import BadDimension, InvariantViolation
from .spectral import TraceFreeStack, examine_batch

__all__ = [
    "EqualityKind",
    "InequalityVerdict",
    "defect_coefficient",
    "bridge_residual",
    "main_inequality",
    "classify_spectrum_batch",
    "newton_gap_batch",
    "cubic_bound_batch",
    "prop_p3_batch",
    "prop_p4_batch",
    "lambda_scan_batch",
    "main_inequality_batch",
    "sigma_norm_identities_batch",
]


class EqualityKind(str, Enum):
    ZERO = "Zero"
    EIGENSPACE_AT_LEAST = "EigenspaceDimAtLeastNMinus1"
    EIGENSPACE_EXACT = "EigenspaceDimExactlyNMinus1"
    PROPORTIONAL = "ProportionalToIdentity"
    KERNEL = "KernelDimAtLeast"
    NONE = "None"


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of one inequality check, defect sign-normalized so >= 0 holds.

    In a verdict over a stack, every field is a (B,) array.
    """

    lhs: float
    rhs: float
    defect: float
    relative_defect: float
    scale: float
    holds: bool
    equality: bool


def defect_coefficient(n: int) -> float:
    """The sharp constant (n^2 - 3n + 3) / (n (n - 1))."""
    return (n * n - 3 * n + 3) / (n * (n - 1))


def bridge_residual(stack: TraceFreeStack) -> np.ndarray:
    """Residuals (B,) of C(n,4)(p_4 + 3 p_2^2) = -1/4 (|A^2|^2 - coef |A|^4)."""
    n, p2, p4 = stack.n, stack.p[2], stack.p[4]
    left = math.comb(n, 4) * (p4 + 3.0 * p2 * p2)
    right = -0.25 * (stack.a22 - defect_coefficient(n) * stack.a2 * stack.a2)
    return left - right


def main_inequality(a) -> tuple[InequalityVerdict, EqualityKind]:
    """|A^2|^2 <= ((n^2-3n+3)/(n(n-1))) |A|^4 for one trace-free symmetric matrix, n >= 4.

    A stack of one matrix through the examination and kernels of verify and
    analyze; the verdict's fields are Python scalars. Equality holds exactly when
    A has an eigenspace of dimension >= n - 1, and the kind says which. Raises what
    examine_batch raises, InvariantViolation unless A is square, finite and
    exactly symmetric, and BadDimension for n < 4.
    """
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantViolation(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 4:
        raise BadDimension(f"dimension must be >= 4, got {m.shape[0]}")
    if not np.array_equal(m, m.T):
        raise InvariantViolation("matrix entries are not exactly symmetric")
    if not np.all(np.isfinite(m)):
        raise InvariantViolation("matrix entries must be finite")
    stack = examine_batch(m[None])
    verdict, _ = main_inequality_batch(stack)
    scalars = (np.ravel(getattr(verdict, f.name))[0].item() for f in fields(verdict))
    return InequalityVerdict(*scalars), EqualityKind(classify_spectrum_batch(stack.w, stack.links)[0])


def _verdict_batch(lhs, rhs, hom_scale) -> InequalityVerdict:
    tol = tolerance("verdict_tol")
    defect, threshold, scale = rhs - lhs, tol * hom_scale, np.maximum(1.0, hom_scale)
    return InequalityVerdict(lhs, rhs, defect, defect / scale, scale,
                             defect >= -threshold, np.abs(defect) <= threshold)


def _large_eigenspace_batch(links: np.ndarray) -> np.ndarray:
    # a cluster of n - 1 or more eigenvalues is a linked run over the first or the last n - 1
    return links[:, 1:].all(axis=1) | links[:, :-1].all(axis=1)


def classify_spectrum_batch(w: np.ndarray, links: np.ndarray) -> np.ndarray:
    """EqualityKind values (B,) of the spectra (w, links) of eigen_spectrum_batch.

    Zero within umbilic_tol, ProportionalToIdentity for one cluster, an
    eigenspace of dimension n - 1 (exactly, for a trace-free spectrum) or at
    least n - 1, and None otherwise.
    """
    radius = np.max(np.abs(w), axis=1)
    large = _large_eigenspace_batch(links)  # past the one-cluster case, exactly n - 1 eigenvalues
    trace_free = (np.abs(w.sum(axis=1))
                  <= tolerance("trace_free_tol") * w.shape[1] * np.maximum(1.0, radius))
    conditions = [radius <= tolerance("umbilic_tol"), links.all(axis=1), large & trace_free, large]
    kinds = (EqualityKind.ZERO, EqualityKind.PROPORTIONAL, EqualityKind.EIGENSPACE_EXACT,
             EqualityKind.EIGENSPACE_AT_LEAST)
    return np.select(conditions, [k.value for k in kinds], EqualityKind.NONE.value)


def newton_gap_batch(stack: TraceFreeStack) -> InequalityVerdict:
    """Sharp Newton gaps p_k^2 >= p_{k-1} p_{k+1} for every 1 <= k <= n-1 at once: row k - 1
    of each field holds gap k. Equality holds exactly for matrices proportional to the
    identity or with kernel of dimension >= n - k + 1."""
    lhs, rhs = stack.p[:-2] * stack.p[2:], stack.p[1:-1] ** 2
    return _verdict_batch(lhs, rhs, np.maximum(rhs, np.abs(lhs)))


def cubic_bound_batch(stack: TraceFreeStack) -> InequalityVerdict:
    """(tr A^3)^2 <= ((n-2)^2 / (n(n-1))) |A|^6, on the entries' norms."""
    n, a2, t3 = stack.n, stack.a2, stack.t3
    return _verdict_batch(t3 * t3, ((n - 2) ** 2 / (n * (n - 1))) * a2 ** 3, a2 ** 3)


def prop_p3_batch(stack: TraceFreeStack) -> InequalityVerdict:
    """p_3^2 + 4 p_2^3 <= 0 for trace-free profiles, with equality exactly at an eigenspace of
    dimension >= n - 1."""
    p2, p3 = stack.p[2], stack.p[3]
    return _verdict_batch(p3 * p3 + 4.0 * p2 ** 3, 0.0, np.maximum(np.abs(p2) ** 3, p3 * p3))


def prop_p4_batch(stack: TraceFreeStack) -> InequalityVerdict:
    """p_4 + 3 p_2^2 >= 0 for trace-free profiles, n >= 4, with equality exactly at an
    eigenspace of dimension >= n - 1."""
    p2, p4 = stack.p[2], stack.p[4]
    return _verdict_batch(0.0, p4 + 3.0 * p2 * p2, p2 * p2)


def lambda_scan_batch(stack: TraceFreeStack, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shifted gaps q(t) = p_2^2 - t p_3 - t^2 p_2, one lambda grid per row of ``lam`` (B, L).

    q(t) is the Newton gap of A + t I, so it is nonnegative for trace-free
    profiles, and the product (3 p_3^2 - 4 p_2 p_4)(p_3^2 + 4 p_2^3) is
    nonpositive. Returns the gaps over the shifted gap scale
    max(1, p_2(A+tI)^2, |t p_3(A+tI)|) (B, L), and the products over a
    triangle bound on their two factors (B,).
    """
    p2, p3, p4 = stack.p[2:5, :, None]
    lam2 = lam * lam  # and lam2 * lam for lam ** 3, which pow makes about 50x slower
    p3s = p3 + 3.0 * lam * p2 + lam2 * lam
    q_scale = np.maximum(1.0, np.maximum((p2 + lam2) ** 2, np.abs(lam * p3s)))
    product = (3.0 * p3 * p3 - 4.0 * p2 * p4) * (p3 * p3 + 4.0 * p2 ** 3)
    product_scale = np.maximum(1.0, (3.0 * p3 * p3 + 4.0 * np.abs(p2 * p4))
                               * (p3 * p3 + 4.0 * np.abs(p2) ** 3))
    return (p2 * p2 - lam * p3 - lam2 * p2) / q_scale, (product / product_scale)[:, 0]


def main_inequality_batch(stack: TraceFreeStack) -> tuple[InequalityVerdict, np.ndarray]:
    """|A^2|^2 <= ((n^2-3n+3)/(n(n-1))) |A|^4 over a stack, n >= 4, asserting on every row the
    quartic bridge identity that ties the defect to C(n,4)(p_4 + 3 p_2^2).

    Also returns per row whether an eigenspace has dimension >= n - 1, the
    equality case, from the cluster links of the spectrum.
    """
    hom = stack.a2 * stack.a2
    residual = bridge_residual(stack)
    bad = np.abs(residual) > tolerance("bridge_tol") * np.maximum(1.0, hom)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvariantViolation(f"bridge identity residual {residual[i]:.3e} exceeds "
                                 f"tolerance at scale {hom[i]:.3e}")
    verdict = _verdict_batch(stack.a22, defect_coefficient(stack.n) * hom, hom)
    return verdict, _large_eigenspace_batch(stack.links)


def sigma_norm_identities_batch(stack: TraceFreeStack) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (r2, r4) of sigma_2 = -1/2 |A|^2 and sigma_4 = 1/8 |A|^4 - 1/4 |A^2|^2 over a
    stack, n >= 4: zero for trace-free matrices, with sigma from the eigenvalues and the
    norms from the entries, so they cross-check the two routes."""
    a2, sigma = stack.a2, stack.sigma
    return sigma[2] + 0.5 * a2, sigma[4] - 0.125 * a2 * a2 + 0.25 * stack.a22
