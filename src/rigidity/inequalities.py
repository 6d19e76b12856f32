"""Sharp inequalities for symmetric-function profiles of trace-free matrices.

The chain implemented here: Newton's gap p_k^2 >= p_{k-1} p_{k+1} with its
sharp equality classification, the two shifted consequences for trace-free
matrices (p_3^2 + 4 p_2^3 <= 0 and p_4 + 3 p_2^2 >= 0), the cubic bound
(tr A^3)^2 <= ((n-2)^2 / (n(n-1))) |A|^6, and the quartic bound
|A^2|^2 <= ((n^2-3n+3) / (n(n-1))) |A|^4 whose equality case is an
eigenspace of dimension at least n-1.

Every verdict carries an explicit scale matched to the homogeneity degree of
its inequality; the holds/equality decisions use the homogeneous part of the
scale so they are invariant under rescaling the matrix, while the reported
relative defect is floored at scale 1 so tiny matrices never divide by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .defaults import tolerance
from .errors import BadDimension, BadIndex, InvariantViolation
from .spectral import (
    Spectrum,
    SymFunProfile,
    SymMatrix,
    _require_trace_free,
    _require_trace_free_batch,
    eigen_spectrum,
    norms,
    symfun_from_spectrum,
)

__all__ = [
    "EqualityKind",
    "EqualityCase",
    "InequalityVerdict",
    "classify_spectrum",
    "classify_spectrum_batch",
    "newton_gap",
    "cubic_bound",
    "prop_p3",
    "prop_p4",
    "lambda_scan",
    "main_inequality",
    "sigma_norm_identities",
    "defect_coefficient",
    "bridge_residual",
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
class EqualityCase:
    """Structural classification of a spectrum against the sharp equality cases."""

    kind: EqualityKind
    multiplicities: tuple[int, ...]
    detail: tuple[float, float] | None = None  # (mu of multiplicity n-1, lone eigenvalue)

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    @property
    def large_eigenspace(self) -> bool:
        """True when the largest eigenspace has dimension >= n - 1."""
        return max(self.multiplicities) >= self.n - 1


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of one inequality check, defect sign-normalized so >= 0 holds."""

    lhs: float
    rhs: float
    defect: float
    relative_defect: float
    scale: float
    tol: float
    holds: bool
    equality: bool
    case: EqualityCase | None = None


def _verdict(lhs: float, rhs: float, hom_scale: float, tol: float,
             case: EqualityCase | None = None) -> InequalityVerdict:
    defect = rhs - lhs
    scale = max(1.0, hom_scale)
    threshold = tol * hom_scale
    return InequalityVerdict(
        lhs=lhs,
        rhs=rhs,
        defect=defect,
        relative_defect=defect / scale,
        scale=scale,
        tol=tol,
        holds=defect >= -threshold,
        equality=abs(defect) <= threshold,
        case=case,
    )


def classify_spectrum(spectrum: Spectrum, newton_k: int | None = None) -> EqualityCase:
    """Classify a spectrum against the sharp equality structures.

    With ``newton_k`` set, the kernel case dim ker >= n - k + 1 of the sharp
    Newton gap is also considered. Trace-free matrices with a cluster of size
    n - 1 get the exact classification with the distinguished pair
    (mu, -(n-1) mu).
    """
    w = spectrum.eigenvalues
    n = spectrum.n
    mult = spectrum.multiplicities
    radius = spectrum.spectral_radius
    if radius <= tolerance("umbilic_tol"):
        return EqualityCase(EqualityKind.ZERO, (n,))
    if len(mult) == 1:
        return EqualityCase(EqualityKind.PROPORTIONAL, mult)
    means = spectrum.cluster_means()
    if newton_k is not None:
        zero_threshold = spectrum.cluster_tolerance * max(1.0, radius)
        for cluster, mean in zip(spectrum.clusters, means):
            if abs(mean) <= zero_threshold and len(cluster) >= n - newton_k + 1:
                return EqualityCase(EqualityKind.KERNEL, mult)
    big = max(range(len(mult)), key=lambda i: mult[i])
    if mult[big] >= n - 1:
        trace = float(w.sum())
        trace_free = abs(trace) <= tolerance("trace_free_tol") * n * max(1.0, radius)
        if trace_free and mult[big] == n - 1:
            mu = means[big]
            others = [means[i] for i in range(len(mult)) if i != big]
            return EqualityCase(EqualityKind.EIGENSPACE_EXACT, mult, (mu, others[0]))
        return EqualityCase(EqualityKind.EIGENSPACE_AT_LEAST, mult)
    return EqualityCase(EqualityKind.NONE, mult)


def newton_gap(profile: SymFunProfile, k: int, spectrum: Spectrum | None = None,
               tol: float | None = None) -> InequalityVerdict:
    """Sharp Newton gap p_k^2 >= p_{k-1} p_{k+1} for 1 <= k <= n-1.

    Equality happens exactly for matrices proportional to the identity or
    with kernel of dimension >= n - k + 1; the classification is attached
    when a spectrum is supplied.
    """
    n = profile.n
    if not 1 <= k <= n - 1:
        raise BadIndex(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    tol = tolerance("verdict_tol", tol)
    lhs = profile.p[k - 1] * profile.p[k + 1]
    rhs = profile.p[k] ** 2
    hom = max(rhs, abs(lhs))
    case = None
    if spectrum is not None:
        case = classify_spectrum(spectrum, newton_k=k)
    return _verdict(lhs, rhs, hom, tol, case)


def cubic_bound(a_norms: tuple[float, float, float], n: int, trace: float = 0.0,
                tol: float | None = None) -> InequalityVerdict:
    """(tr A^3)^2 <= ((n-2)^2 / (n(n-1))) |A|^6 for trace-free A.

    ``a_norms`` is the (|A|^2, |A^2|^2, tr A^3) triple; pass the actual trace
    when available so the trace-free precondition can be enforced.
    """
    if n < 3:
        raise BadDimension(f"dimension must be >= 3, got {n}")
    a2, _, t3 = a_norms
    _require_trace_free(trace, a2, n, None)
    tol = tolerance("verdict_tol", tol)
    lhs = t3 * t3
    rhs = ((n - 2) ** 2 / (n * (n - 1))) * a2 ** 3
    return _verdict(lhs, rhs, a2 ** 3, tol)


def prop_p3(profile: SymFunProfile, spectrum: Spectrum | None = None,
            tol: float | None = None, trace_tol: float | None = None) -> InequalityVerdict:
    """p_3^2 + 4 p_2^3 <= 0 for trace-free profiles, n >= 3.

    Equality exactly when the matrix has an eigenspace of dimension >= n - 1.
    """
    _require_trace_free(profile.s(1), profile.s(2), profile.n, trace_tol)
    tol = tolerance("verdict_tol", tol)
    p2, p3 = profile.p[2], profile.p[3]
    lhs = p3 * p3 + 4.0 * p2 ** 3
    hom = max(abs(p2) ** 3, p3 * p3)
    case = classify_spectrum(spectrum) if spectrum is not None else None
    return _verdict(lhs, 0.0, hom, tol, case)


def prop_p4(profile: SymFunProfile, spectrum: Spectrum | None = None,
            tol: float | None = None, trace_tol: float | None = None) -> InequalityVerdict:
    """p_4 + 3 p_2^2 >= 0 for trace-free profiles, n >= 4.

    Equality exactly when the matrix has an eigenspace of dimension >= n - 1.
    """
    if profile.n < 4:
        raise BadDimension(f"dimension must be >= 4, got {profile.n}")
    _require_trace_free(profile.s(1), profile.s(2), profile.n, trace_tol)
    tol = tolerance("verdict_tol", tol)
    p2, p4 = profile.p[2], profile.p[4]
    rhs = p4 + 3.0 * p2 * p2
    case = classify_spectrum(spectrum) if spectrum is not None else None
    return _verdict(0.0, rhs, p2 * p2, tol, case)


def lambda_scan(profile: SymFunProfile, lam_grid, trace_tol: float | None = None) -> np.ndarray:
    """Shifted-gap values q(t) = p_2^2 - t p_3 - t^2 p_2 over a grid.

    q(t) is the Newton gap of the shifted matrix A + t I, so it is nonnegative
    for trace-free profiles. The returned array carries q over the grid plus
    one final element, the product (3 p_3^2 - 4 p_2 p_4)(p_3^2 + 4 p_2^3),
    which is nonpositive.
    """
    if profile.n < 4:
        raise BadDimension(f"dimension must be >= 4, got {profile.n}")
    _require_trace_free(profile.s(1), profile.s(2), profile.n, trace_tol)
    lam = np.asarray(lam_grid, dtype=float)
    p2, p3, p4 = profile.p[2], profile.p[3], profile.p[4]
    q = p2 * p2 - lam * p3 - lam * lam * p2
    product = (3.0 * p3 * p3 - 4.0 * p2 * p4) * (p3 * p3 + 4.0 * p2 ** 3)
    return np.concatenate([q, [product]])


def lambda_scan_scales(profile: SymFunProfile, lam_grid) -> tuple[np.ndarray, float]:
    """Homogeneity-matched scales for the lambda_scan values.

    For q(t) the scale is the shifted Newton-gap scale
    max(1, p_2(A+tI)^2, |p_1(A+tI) p_3(A+tI)|); for the final product it is a
    triangle bound on the two factors.
    """
    lam = np.asarray(lam_grid, dtype=float)
    p2, p3, p4 = profile.p[2], profile.p[3], profile.p[4]
    p2s = p2 + lam * lam
    p3s = p3 + 3.0 * lam * p2 + lam ** 3
    q_scale = np.maximum(1.0, np.maximum(p2s * p2s, np.abs(lam * p3s)))
    product_scale = max(1.0, (3.0 * p3 * p3 + 4.0 * abs(p2 * p4))
                        * (p3 * p3 + 4.0 * abs(p2) ** 3))
    return q_scale, product_scale


def defect_coefficient(n: int) -> float:
    """The sharp constant (n^2 - 3n + 3) / (n (n - 1))."""
    return (n * n - 3 * n + 3) / (n * (n - 1))


def bridge_residual(profile: SymFunProfile, a2: float, a22: float) -> float:
    """Residual of C(n,4)(p_4 + 3 p_2^2) = -1/4 (|A^2|^2 - coef |A|^4); elementwise on a batch."""
    n = profile.n
    p2, p4 = profile.p[2], profile.p[4]
    left = math.comb(n, 4) * (p4 + 3.0 * p2 * p2)
    right = -0.25 * (a22 - defect_coefficient(n) * a2 * a2)
    return left - right


def main_inequality(a: SymMatrix, trace_tol: float | None = None,
                    spectrum: Spectrum | None = None,
                    profile: SymFunProfile | None = None,
                    ) -> tuple[InequalityVerdict, EqualityCase]:
    """|A^2|^2 <= ((n^2-3n+3)/(n(n-1))) |A|^4 for trace-free symmetric A, n >= 4.

    Equality holds exactly when A has an eigenspace of dimension >= n - 1; the
    classification is read off the eigenvalue clusters. The quartic bridge
    identity tying the defect to C(n,4)(p_4 + 3 p_2^2) is asserted on every
    call as an internal consistency check.
    """
    n = a.n
    if n < 4:
        raise BadDimension(f"dimension must be >= 4, got {n}")
    a2, a22, _ = norms(a)
    _require_trace_free(a.trace(), a2, n, trace_tol)
    if spectrum is None:
        spectrum = eigen_spectrum(a)
    if profile is None:
        profile = symfun_from_spectrum(spectrum)
    hom = a2 * a2
    residual = bridge_residual(profile, a2, a22)
    if abs(residual) > tolerance("bridge_tol") * max(1.0, hom):
        raise InvariantViolation(
            f"bridge identity residual {residual:.3e} exceeds tolerance at scale {hom:.3e}")
    case = classify_spectrum(spectrum)
    verdict = _verdict(a22, defect_coefficient(n) * hom, hom, tolerance("verdict_tol"), case)
    return verdict, case


def sigma_norm_identities(a: SymMatrix, profile: SymFunProfile | None = None,
                          trace_tol: float | None = None) -> tuple[float, float]:
    """Residuals of sigma_2 = -1/2 |A|^2 and sigma_4 = 1/8 |A|^4 - 1/4 |A^2|^2.

    Both vanish for trace-free matrices; the left sides come from the
    eigenvalue path and the right sides from entrywise norms, so the residuals
    cross-check the two evaluation routes.
    """
    a2, a22, _ = norms(a)
    _require_trace_free(a.trace(), a2, a.n, trace_tol)
    if profile is None:
        profile = symfun_from_spectrum(eigen_spectrum(a))
    r2 = profile.sigma[2] + 0.5 * a2
    r4 = profile.sigma[4] - 0.125 * a2 * a2 + 0.25 * a22 if a.n >= 4 else 0.0
    return r2, r4


# ---------------------------------------------------------------------------
# Batched twins: the scalar formulas over a batch profile (see
# spectral.symfun_from_spectrum_batch) and (B,) arrays of norms and traces.
# Every field of a batch verdict is an array; its case is None.


def _verdict_batch(lhs, rhs, hom_scale) -> InequalityVerdict:
    tol = tolerance("verdict_tol")
    defect, threshold, scale = rhs - lhs, tol * hom_scale, np.maximum(1.0, hom_scale)
    return InequalityVerdict(lhs, rhs, defect, defect / scale, scale, tol,
                             defect >= -threshold, np.abs(defect) <= threshold)


def _large_eigenspace_batch(links: np.ndarray) -> np.ndarray:
    # a cluster of n - 1 or more eigenvalues is a linked run over the first or the last n - 1
    return links[:, 1:].all(axis=1) | links[:, :-1].all(axis=1)


def classify_spectrum_batch(w: np.ndarray, links: np.ndarray) -> np.ndarray:
    """EqualityKind values (B,) of classify_spectrum (no newton_k) from eigen_spectrum_batch output."""
    radius = np.max(np.abs(w), axis=1)
    large = _large_eigenspace_batch(links)  # past the one-cluster case, exactly n - 1 eigenvalues
    trace_free = (np.abs(w.sum(axis=1))
                  <= tolerance("trace_free_tol") * w.shape[1] * np.maximum(1.0, radius))
    conditions = [radius <= tolerance("umbilic_tol"), links.all(axis=1), large & trace_free, large]
    kinds = (EqualityKind.ZERO, EqualityKind.PROPORTIONAL, EqualityKind.EIGENSPACE_EXACT,
             EqualityKind.EIGENSPACE_AT_LEAST)
    return np.select(conditions, [k.value for k in kinds], EqualityKind.NONE.value)


def newton_gap_batch(profile: SymFunProfile) -> InequalityVerdict:
    """newton_gap for every k at once: row k - 1 of each field holds gap k."""
    p = np.array(profile.p)
    lhs, rhs = p[:-2] * p[2:], p[1:-1] ** 2
    return _verdict_batch(lhs, rhs, np.maximum(rhs, np.abs(lhs)))


def cubic_bound_batch(a_norms, n: int, trace) -> InequalityVerdict:
    """cubic_bound over arrays of norms_batch triples and traces."""
    a2, _, t3 = a_norms
    _require_trace_free_batch(trace, a2, n)
    return _verdict_batch(t3 * t3, ((n - 2) ** 2 / (n * (n - 1))) * a2 ** 3, a2 ** 3)


def prop_p3_batch(profile: SymFunProfile) -> InequalityVerdict:
    """prop_p3 of a batch profile."""
    _require_trace_free_batch(profile.s(1), profile.s(2), profile.n)
    p2, p3 = profile.p[2], profile.p[3]
    return _verdict_batch(p3 * p3 + 4.0 * p2 ** 3, 0.0, np.maximum(np.abs(p2) ** 3, p3 * p3))


def prop_p4_batch(profile: SymFunProfile) -> InequalityVerdict:
    """prop_p4 of a batch profile."""
    _require_trace_free_batch(profile.s(1), profile.s(2), profile.n)
    p2, p4 = profile.p[2], profile.p[4]
    return _verdict_batch(0.0, p4 + 3.0 * p2 * p2, p2 * p2)


def lambda_scan_batch(profile: SymFunProfile, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda_scan over lambda_scan_scales, one lambda grid per row of ``lam`` (B, L).

    Returns the relative shifted gaps (B, L) and the relative products (B,).
    """
    _require_trace_free_batch(profile.s(1), profile.s(2), profile.n)
    p2, p3, p4 = (profile.p[k][:, None] for k in (2, 3, 4))
    lam2 = lam * lam  # and lam2 * lam for lam ** 3, which pow makes about 50x slower
    p3s = p3 + 3.0 * lam * p2 + lam2 * lam
    q_scale = np.maximum(1.0, np.maximum((p2 + lam2) ** 2, np.abs(lam * p3s)))
    product = (3.0 * p3 * p3 - 4.0 * p2 * p4) * (p3 * p3 + 4.0 * p2 ** 3)
    product_scale = np.maximum(1.0, (3.0 * p3 * p3 + 4.0 * np.abs(p2 * p4))
                               * (p3 * p3 + 4.0 * np.abs(p2) ** 3))
    return (p2 * p2 - lam * p3 - lam2 * p2) / q_scale, (product / product_scale)[:, 0]


def main_inequality_batch(a_norms, trace, profile: SymFunProfile,
                          links: np.ndarray) -> tuple[InequalityVerdict, np.ndarray]:
    """main_inequality over arrays, asserting the bridge identity on every row.

    Also returns EqualityCase.large_eigenspace per row, from the cluster links
    of eigen_spectrum_batch.
    """
    a2, a22, _ = a_norms
    _require_trace_free_batch(trace, a2, profile.n)
    hom = a2 * a2
    residual = bridge_residual(profile, a2, a22)
    bad = np.abs(residual) > tolerance("bridge_tol") * np.maximum(1.0, hom)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvariantViolation(f"bridge identity residual {residual[i]:.3e} exceeds "
                                 f"tolerance at scale {hom[i]:.3e}")
    verdict = _verdict_batch(a22, defect_coefficient(profile.n) * hom, hom)
    return verdict, _large_eigenspace_batch(links)


def sigma_norm_identities_batch(profile: SymFunProfile, a_norms,
                                trace) -> tuple[np.ndarray, np.ndarray]:
    """sigma_norm_identities residuals (r2, r4) over arrays, for n >= 4."""
    a2, a22, _ = a_norms
    _require_trace_free_batch(trace, a2, profile.n)
    return profile.sigma[2] + 0.5 * a2, profile.sigma[4] - 0.125 * a2 * a2 + 0.25 * a22
