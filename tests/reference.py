"""Scalar reference route: the oracle the batched kernels of ``rigidity`` are tested against.

One matrix at a time: a ``SymMatrix`` wrapper, eigenvalue clusters from LAPACK
or a self-contained cyclic Jacobi solver, symmetric-function profiles (the
``SymFunProfile`` defined here) along both routes, the inequality verdicts
with their equality classification, and the rank-4 Kulkarni-Nomizu and Weyl
algebra, plus the seeded generators the tests draw from. It imports from the
package only its tolerance table, its errors and its data types, never a
function, so the batched-vs-scalar tests compare two independent
implementations. The thresholds and errors that only this route uses, and its
per-call tolerance overrides, live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rigidity.defaults import TOLERANCES
from rigidity.errors import BadDimension, InvariantViolation, NotTraceFree, RigidityError
from rigidity.inequalities import EqualityKind
from rigidity.inequalities import InequalityVerdict as _Verdict

MATRIX_ASYM_TOL = 1e-12  # allowed relative asymmetry before symmetrizing an array
JACOBI_OFF_TOL = 1e-14   # off-diagonal target relative to the initial Frobenius norm


def _resolve(override: float | None, default: float) -> float:
    """A per-call tolerance: the explicit override wins, else the default."""
    return default if override is None else float(override)


class NonConvergence(RigidityError):
    """Iterative eigensolver exceeded its sweep budget."""


class BadIndex(RigidityError):
    """Symmetric-function index outside the valid range."""


class DimensionMismatch(RigidityError):
    """Operands have incompatible dimensions."""


def derived_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Generator keyed by the pair (seed, index): distinct pairs draw distinct streams."""
    return np.random.default_rng([seed, index])


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal matrix built by composing plane rotations over every index pair."""
    q = np.eye(n)
    for i in range(n - 1):
        for j in range(i + 1, n):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(angle), np.sin(angle)
            gi = c * q[i, :] - s * q[j, :]
            gj = s * q[i, :] + c * q[j, :]
            q[i, :], q[j, :] = gi, gj
    return q


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric n x n matrix, n >= 3. Entries are read-only."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 3:
            raise BadDimension(f"matrix dimension must be >= 3, got {m.shape[0]}")
        if not np.array_equal(m, m.T):
            raise InvariantViolation("matrix entries are not exactly symmetric")
        if not np.all(np.isfinite(m)):
            raise InvariantViolation("matrix entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_array(cls, m, asym_tol: float | None = None) -> "SymMatrix":
        """Accept a nearly symmetric array, reject beyond tolerance, then symmetrize exactly."""
        m = np.asarray(m, dtype=float)
        tol = _resolve(asym_tol, MATRIX_ASYM_TOL)
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation(f"expected a square matrix, got shape {m.shape}")
        if float(np.max(np.abs(m - m.T))) > tol * scale:
            raise InvariantViolation("matrix asymmetry exceeds tolerance")
        return cls(0.5 * (m + m.T))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def frobenius(self) -> float:
        return float(np.sqrt((self.entries * self.entries).sum()))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending plus their multiplicity clusters."""

    eigenvalues: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    cluster_tolerance: float

    def __post_init__(self) -> None:
        w = np.asarray(self.eigenvalues, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)

    @property
    def max_multiplicity(self) -> int:
        return max(self.multiplicities)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues))) if self.n else 0.0

    def cluster_means(self) -> tuple[float, ...]:
        w = self.eigenvalues
        return tuple(float(np.mean(w[list(c)])) for c in self.clusters)


@dataclass(frozen=True)
class SymFunProfile:
    """sigma_0..sigma_n, the normalized p_k = sigma_k / C(n,k), and power sums s_1..s_n of
    one matrix."""

    n: int
    sigma: tuple[float, ...]
    p: tuple[float, ...]
    power_sums: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sigma) != self.n + 1 or len(self.p) != self.n + 1:
            raise InvariantViolation("profile length does not match dimension")
        if len(self.power_sums) != self.n:
            raise InvariantViolation("power sum length does not match dimension")

    def s(self, j: int) -> float:
        """Power sum s_j = tr A^j for 1 <= j <= n; s_0 = n."""
        if j == 0:
            return float(self.n)
        return self.power_sums[j - 1]


def _profile_from_sigma(n: int, sigma: list[float], power_sums: list[float]) -> SymFunProfile:
    p = [sigma[k] / math.comb(n, k) for k in range(n + 1)]
    return SymFunProfile(n, tuple(sigma), tuple(p), tuple(power_sums))


def trace_free_project(a: SymMatrix) -> SymMatrix:
    """Subtract (tr A / n) * I, the projection onto trace-free matrices."""
    n = a.n
    shift = a.trace() / n
    m = np.array(a.entries)
    idx = np.arange(n)
    m[idx, idx] -= shift
    return SymMatrix(m)


def _require_trace_free(s1: float, s2: float, n: int, trace_tol: float | None) -> None:
    """Raise NotTraceFree unless |s1| <= trace_free_tol * n * sqrt(s2), for s1 = tr A, s2 = |A|^2."""
    tol = _resolve(trace_tol, TOLERANCES["trace_free_tol"])
    if abs(s1) > tol * n * math.sqrt(max(s2, 0.0)):
        raise NotTraceFree(f"trace {s1:.3e} too large for Frobenius norm {math.sqrt(max(s2, 0.0)):.3e}")


def _cluster_sorted(w: np.ndarray, cluster_tol: float) -> tuple[tuple[int, ...], ...]:
    # single linkage on consecutive gaps of the ascending eigenvalue list
    radius = float(np.max(np.abs(w))) if w.size else 0.0
    threshold = cluster_tol * max(1.0, radius)
    groups: list[list[int]] = [[0]]
    for i in range(1, w.shape[0]):
        if w[i] - w[i - 1] <= threshold:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def eigen_spectrum(a: SymMatrix, cluster_tol: float | None = None,
                   method: str = "lapack") -> Spectrum:
    """Eigenvalues of a symmetric matrix with multiplicity clusters.

    ``method`` is "lapack" (default, fast) or "jacobi" (self-contained cyclic
    rotations, used as a cross-check path).
    """
    tol = _resolve(cluster_tol, TOLERANCES["cluster_tol"])
    if tol <= 0:
        raise InvariantViolation("cluster_tol must be positive")
    if method == "lapack":
        try:
            w = np.linalg.eigvalsh(a.entries)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
            raise NonConvergence(f"LAPACK eigensolver failed: {exc}") from exc
    elif method == "jacobi":
        w, _ = jacobi_eigensystem(a.entries)
    else:
        raise InvariantViolation(f"unknown eigensolver method {method!r}")
    w = np.sort(w)
    return Spectrum(w, _cluster_sorted(w, tol), tol)


def jacobi_eigensystem(m: np.ndarray, off_tol: float | None = None,
                       max_sweeps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns (eigenvalues ascending, orthogonal Q) with A = Q diag(w) Q^T.
    Converges when the off-diagonal Frobenius norm drops below
    ``off_tol`` times the initial Frobenius norm; raises :class:`NonConvergence`
    when the sweep budget (default 50 n^2) is exhausted first.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    tol = _resolve(off_tol, JACOBI_OFF_TOL)
    budget = 50 * n * n if max_sweeps is None else max_sweeps
    q = np.eye(n)
    norm0 = math.sqrt(float((a * a).sum()))
    if norm0 == 0.0:
        return np.zeros(n), q

    def off_norm() -> float:
        # summed directly over off-diagonal entries; subtracting the diagonal
        # mass from the total cancels catastrophically near convergence
        off = a - np.diag(np.diag(a))
        return math.sqrt(float((off * off).sum()))

    # pivots below this leave the off-norm under target even if all remain
    skip = 0.1 * tol * norm0 / n
    sweeps = 0
    while off_norm() > tol * norm0:
        if sweeps >= budget:
            raise NonConvergence(
                f"Jacobi sweeps exceeded budget {budget} at off-norm {off_norm():.3e}")
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = a[p, r]
                if abs(apr) <= skip:
                    continue
                theta = (a[r, r] - a[p, p]) / (2.0 * apr)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = c * a[:, p] - s * a[:, r]
                rr = s * a[:, p] + c * a[:, r]
                a[:, p], a[:, r] = rp, rr
                rp = c * a[p, :] - s * a[r, :]
                rr = s * a[p, :] + c * a[r, :]
                a[p, :], a[r, :] = rp, rr
                qp = c * q[:, p] - s * q[:, r]
                qr = s * q[:, p] + c * q[:, r]
                q[:, p], q[:, r] = qp, qr
        sweeps += 1
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], q[:, order]


def symfun_from_spectrum(spectrum: Spectrum) -> SymFunProfile:
    """Profile from eigenvalues: expand prod(x + lambda_i) one root at a time."""
    lam = [float(x) for x in spectrum.eigenvalues]
    n = len(lam)
    c = [0.0] * (n + 1)
    c[0] = 1.0
    for i, x in enumerate(lam, start=1):
        for j in range(min(i, n), 0, -1):
            c[j] += x * c[j - 1]
    s = [0.0] * n
    cur = lam[:]
    for j in range(n):
        acc = 0.0
        for v in cur:
            acc += v
        s[j] = acc
        if j + 1 < n:
            cur = [v * x for v, x in zip(cur, lam)]
    return _profile_from_sigma(n, c, s)


def symfun_from_power_sums(a: SymMatrix) -> SymFunProfile:
    """Profile from traces of matrix powers via the triangular recurrence.

    sigma_k = (1/k) * sum_{j=1..k} (-1)^(j-1) sigma_{k-j} s_j, independent of
    any eigendecomposition; serves as the oracle path for the spectrum route.
    """
    e = a.entries
    n = a.n
    s = [0.0] * (n + 1)
    power = e
    s[1] = float(np.trace(power))
    for j in range(2, n + 1):
        power = power @ e
        s[j] = float(np.trace(power))
    sigma = [0.0] * (n + 1)
    sigma[0] = 1.0
    for k in range(1, n + 1):
        acc = 0.0
        sign = 1.0
        for j in range(1, k + 1):
            acc += sign * sigma[k - j] * s[j]
            sign = -sign
        sigma[k] = acc / k
    return _profile_from_sigma(n, sigma, s[1:])


def shift_profile(profile: SymFunProfile, lam: float) -> SymFunProfile:
    """Profile of A + lam*I computed purely from the profile of A.

    Uses p_k(A + t I) = sum_j C(k,j) t^j p_{k-j}(A) and the binomial shift of
    power sums with s_0 = n.
    """
    n = profile.n
    powers = [1.0]
    for _ in range(n):
        powers.append(powers[-1] * lam)
    p_new = [0.0] * (n + 1)
    for k in range(n + 1):
        acc = 0.0
        for j in range(k + 1):
            acc += math.comb(k, j) * powers[j] * profile.p[k - j]
        p_new[k] = acc
    sigma_new = [math.comb(n, k) * p_new[k] for k in range(n + 1)]
    s_new = [0.0] * n
    for j in range(1, n + 1):
        acc = 0.0
        for m in range(j + 1):
            acc += math.comb(j, m) * powers[m] * profile.s(j - m)
        s_new[j - 1] = acc
    return SymFunProfile(n, tuple(sigma_new), tuple(p_new), tuple(s_new))


def norms(a: SymMatrix) -> tuple[float, float, float]:
    """Return (|A|^2, |A^2|^2, tr A^3) for a symmetric matrix.

    Computed from entries and one matrix product, so the values are
    independent of any eigendecomposition.
    """
    e = a.entries
    b = e @ e
    a2 = float((e * e).sum())
    a4 = float((b * b).sum())
    t3 = float((b * e).sum())
    return a2, a4, t3


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
class InequalityVerdict(_Verdict):
    """A verdict of the scalar route, with the classification a check attaches."""

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
    if radius <= TOLERANCES["umbilic_tol"]:
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
        trace_free = abs(trace) <= TOLERANCES["trace_free_tol"] * n * max(1.0, radius)
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
    tol = _resolve(tol, TOLERANCES["verdict_tol"])
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
    tol = _resolve(tol, TOLERANCES["verdict_tol"])
    lhs = t3 * t3
    rhs = ((n - 2) ** 2 / (n * (n - 1))) * a2 ** 3
    return _verdict(lhs, rhs, a2 ** 3, tol)


def prop_p3(profile: SymFunProfile, spectrum: Spectrum | None = None,
            tol: float | None = None, trace_tol: float | None = None) -> InequalityVerdict:
    """p_3^2 + 4 p_2^3 <= 0 for trace-free profiles, n >= 3.

    Equality exactly when the matrix has an eigenspace of dimension >= n - 1.
    """
    _require_trace_free(profile.s(1), profile.s(2), profile.n, trace_tol)
    tol = _resolve(tol, TOLERANCES["verdict_tol"])
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
    tol = _resolve(tol, TOLERANCES["verdict_tol"])
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
    if abs(residual) > TOLERANCES["bridge_tol"] * max(1.0, hom):
        raise InvariantViolation(
            f"bridge identity residual {residual:.3e} exceeds tolerance at scale {hom:.3e}")
    case = classify_spectrum(spectrum)
    verdict = _verdict(a22, defect_coefficient(n) * hom, hom, TOLERANCES["verdict_tol"], case)
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


@dataclass(frozen=True)
class AlgCurvTensor:
    """Rank-4 tensor with the algebraic curvature symmetries."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.entries, dtype=float)
        if t.ndim != 4 or len(set(t.shape)) != 1:
            raise InvariantViolation(f"expected an n^4 array, got shape {t.shape}")
        t.flags.writeable = False
        object.__setattr__(self, "entries", t)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _form_entries(x) -> np.ndarray:
    if isinstance(x, SymMatrix):
        return x.entries
    return np.asarray(x, dtype=float)


def kulkarni_nomizu(s, t) -> AlgCurvTensor:
    """(S ^ T)_{abcd} = S_ac T_bd + S_bd T_ac - S_ad T_bc - S_bc T_ad."""
    se, te = _form_entries(s), _form_entries(t)
    if se.shape != te.shape:
        raise DimensionMismatch(f"shapes {se.shape} and {te.shape} do not match")
    # u_{abcd} = S_ac T_bd + T_ac S_bd; the product is u minus its c-d swap,
    # which makes S ^ T == T ^ S exact at the bit level
    u = np.einsum("ac,bd->abcd", se, te) + np.einsum("ac,bd->abcd", te, se)
    return AlgCurvTensor(u - u.transpose(0, 1, 3, 2))


def tensor_norm_sq(t: AlgCurvTensor) -> float:
    """Full contraction sum over all four indices of T_{abcd}^2."""
    e = t.entries
    return float((e * e).sum())


def tensor_inner(s: AlgCurvTensor, t: AlgCurvTensor) -> float:
    if s.n != t.n:
        raise DimensionMismatch(f"dimensions {s.n} and {t.n} do not match")
    return float((s.entries * t.entries).sum())


def rotate_tensor(t: AlgCurvTensor, q: np.ndarray) -> AlgCurvTensor:
    """Index rotation T'_{abcd} = Q_ae Q_bf Q_cg Q_dh T_{efgh}."""
    out = np.einsum("ae,bf,cg,dh,efgh->abcd", q, q, q, q, t.entries, optimize=True)
    return AlgCurvTensor(out)


def curvature_symmetry_residuals(t: AlgCurvTensor) -> dict[str, float]:
    """Max-entry residuals of the curvature symmetries, relative to max |T|."""
    e = t.entries
    scale = max(float(np.max(np.abs(e))), 1e-300)
    return {
        "antisym_ab": float(np.max(np.abs(e + e.transpose(1, 0, 2, 3)))) / scale,
        "antisym_cd": float(np.max(np.abs(e + e.transpose(0, 1, 3, 2)))) / scale,
        "pair": float(np.max(np.abs(e - e.transpose(2, 3, 0, 1)))) / scale,
        "bianchi": float(np.max(np.abs(
            e + e.transpose(1, 2, 0, 3) + e.transpose(2, 0, 1, 3)))) / scale,
    }


def fialkow_tensor(a: SymMatrix, trace_tol: float | None = None) -> tuple[SymMatrix, float]:
    """Fialkow tensor F = (A^2 - G I) / (n - 2) with trace G = |A|^2 / (2(n-1)).

    The defining trace identity tr F = G is checked on every call.
    """
    n = a.n
    if n < 4:
        raise BadDimension(f"dimension must be >= 4, got {n}")
    a2 = float((a.entries * a.entries).sum())
    _require_trace_free(a.trace(), a2, n, trace_tol)
    g = a2 / (2.0 * (n - 1))
    squared = a.entries @ a.entries
    f = (0.5 * (squared + squared.T) - g * np.eye(n)) / (n - 2)
    form = SymMatrix(0.5 * (f + f.T))
    if abs(float(np.trace(form.entries)) - g) > 1e-12 * max(1.0, g):
        raise InvariantViolation("Fialkow trace identity tr F = G failed")
    return form, g


def weyl_from_gauss_codazzi(a: SymMatrix, trace_tol: float | None = None) -> AlgCurvTensor:
    """Induced Weyl tensor W = 1/2 (A ^ A) + F ^ g of a hypersurface.

    ``a`` is the trace-free shape operator in an orthonormal frame, so the
    metric is the identity. The result is totally trace-free.
    """
    f, _ = fialkow_tensor(a, trace_tol)
    half_aa = 0.5 * kulkarni_nomizu(a, a).entries
    fg = kulkarni_nomizu(f, np.eye(a.n)).entries
    return AlgCurvTensor(half_aa + fg)


def weyl_norm_closed_form(a_norms: tuple[float, float], n: int) -> float:
    """|W|^2 = 2(n^2-3n+3)/((n-1)(n-2)) |A|^4 - 2n/(n-2) |A^2|^2.

    ``a_norms`` is the (|A|^2, |A^2|^2) pair of the trace-free shape operator.
    """
    if n < 4:
        raise BadDimension(f"dimension must be >= 4, got {n}")
    a2, a22 = a_norms
    return (2.0 * (n * n - 3 * n + 3) / ((n - 1) * (n - 2)) * a2 * a2
            - 2.0 * n / (n - 2) * a22)


def kn_identity_suite(a: SymMatrix, trace_tol: float | None = None) -> list[float]:
    """Residuals of the four Kulkarni-Nomizu inner-product identities.

    Left sides by direct rank-4 contraction, right sides from matrix norms:

      |A ^ A|^2        = 8 |A|^4 - 8 |A^2|^2
      <A ^ A, F ^ g>   = -8 <A^2, F>
      |F ^ g|^2        = 4 <A^2, F>
      <A^2, F>         = |A^2|^2/(n-2) - |A|^4 / (2(n-1)(n-2))
    """
    n = a.n
    a2, a22, _ = norms(a)
    f, _ = fialkow_tensor(a, trace_tol)
    kn_aa = kulkarni_nomizu(a, a)
    kn_fg = kulkarni_nomizu(f, np.eye(n))
    squared = a.entries @ a.entries
    inner_a2f = float((squared * f.entries).sum())
    return [
        tensor_norm_sq(kn_aa) - (8.0 * a2 * a2 - 8.0 * a22),
        tensor_inner(kn_aa, kn_fg) - (-8.0 * inner_a2f),
        tensor_norm_sq(kn_fg) - 4.0 * inner_a2f,
        inner_a2f - (a22 / (n - 2) - a2 * a2 / (2.0 * (n - 1) * (n - 2))),
    ]


def random_symmetric(rng: np.random.Generator, n: int) -> SymMatrix:
    """Symmetric matrix with entries uniform in [-1, 1], exactly symmetric."""
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    upper = np.triu(m)
    return SymMatrix(upper + np.triu(m, 1).T)


def random_trace_free(rng: np.random.Generator, n: int) -> SymMatrix:
    return trace_free_project(random_symmetric(rng, n))


def equality_family_matrix(n: int, mu: float,
                           rotation: np.ndarray | None = None) -> SymMatrix:
    """Trace-free matrix with eigenvalues (mu, ..., mu, -(n-1) mu), optionally conjugated."""
    d = np.diag([mu] * (n - 1) + [-(n - 1) * mu])
    if rotation is None:
        return SymMatrix(d)
    m = rotation @ d @ rotation.T
    return SymMatrix.from_array(m, asym_tol=1e-10)
