"""Symmetric matrices, spectra, and elementary symmetric function profiles.

Two independent evaluation paths produce the same profile: one expands the
characteristic polynomial from the eigenvalues, the other converts power sums
(traces of matrix powers) through the classical triangular recurrence. All
downstream inequality checks cross-validate against this redundancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import tolerance
from .errors import BadDimension, InvariantViolation, NonConvergence, NotTraceFree

__all__ = [
    "SymMatrix",
    "Spectrum",
    "SymFunProfile",
    "trace_free_project",
    "eigen_spectrum",
    "jacobi_eigensystem",
    "symfun_from_spectrum",
    "symfun_from_power_sums",
    "shift_profile",
    "norms",
    "trace_free_project_batch",
    "eigen_spectrum_batch",
    "symfun_from_spectrum_batch",
    "symfun_from_power_sums_batch",
    "norms_batch",
]


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
        tol = tolerance("matrix_asym_tol", asym_tol)
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
    """sigma_0..sigma_n, the normalized p_k = sigma_k / C(n,k), and power sums s_1..s_n."""

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
    tol = tolerance("trace_free_tol", trace_tol)
    if abs(s1) > tol * n * math.sqrt(max(s2, 0.0)):
        raise NotTraceFree(f"trace {s1:.3e} too large for Frobenius norm {math.sqrt(max(s2, 0.0)):.3e}")


def _require_trace_free_batch(s1, s2, n: int) -> None:
    """_require_trace_free over arrays; the first offender raises with its own numbers."""
    bad = np.abs(s1) > tolerance("trace_free_tol") * n * np.sqrt(np.maximum(s2, 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        _require_trace_free(float(s1[i]), float(s2[i]), n, None)


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
    tol = tolerance("cluster_tol", cluster_tol)
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
    tol = tolerance("jacobi_off_tol", off_tol)
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


# ---------------------------------------------------------------------------
# Batched twins over (B, n, n) stacks, checked against the scalar functions
# above. A batch profile is a SymFunProfile whose entries are (B,) arrays.


def trace_free_project_batch(m: np.ndarray) -> np.ndarray:
    """trace_free_project of each matrix of a stack (B, n, n), as a new stack."""
    out, diag = np.array(m, dtype=float), np.arange(m.shape[-1])
    out[:, diag, diag] -= (np.trace(m, axis1=1, axis2=2) / len(diag))[:, None]
    return out


def eigen_spectrum_batch(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (B, n) and links (B, n - 1) of a stack.

    A link is True where eigenvalues i and i + 1 are within the cluster
    threshold, so the clusters of eigen_spectrum are the linked runs.
    """
    w = np.sort(np.linalg.eigvalsh(m), axis=1)
    threshold = tolerance("cluster_tol") * np.maximum(1.0, np.max(np.abs(w), axis=1))
    return w, np.diff(w, axis=1) <= threshold[:, None]


def symfun_from_spectrum_batch(w: np.ndarray) -> SymFunProfile:
    """symfun_from_spectrum of each row of ascending eigenvalues, in the same operation order."""
    count, n = w.shape
    c = np.zeros((n + 1, count))
    c[0] = 1.0
    for i in range(n):
        c[1:i + 2] += w[:, i] * c[:i + 1]
    # powers[j, i] = lambda_i ** (j + 1) by repeated products; cumsum adds left to right
    powers = np.cumprod(np.broadcast_to(w.T, (n, n, count)), axis=0)
    return _profile_from_sigma(n, c, np.cumsum(powers, axis=1)[:, -1])


def symfun_from_power_sums_batch(m: np.ndarray) -> SymFunProfile:
    """symfun_from_power_sums of each matrix of a stack."""
    n = m.shape[-1]
    s, sigma, power = np.empty((n + 1, len(m))), np.zeros((n + 1, len(m))), m
    for j in range(1, n + 1):
        s[j] = np.trace(power, axis1=1, axis2=2)
        power = power @ m
    sigma[0] = 1.0
    signs = (-1.0) ** np.arange(n)[:, None]
    for k in range(1, n + 1):
        # cumsum adds in j order whatever B is; a matrix product or sum may not
        sigma[k] = np.cumsum(signs[:k] * sigma[k - 1::-1] * s[1:k + 1], axis=0)[-1] / k
    return _profile_from_sigma(n, sigma, s[1:])


def norms_batch(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """norms of each matrix of a stack: (|A|^2, |A^2|^2, tr A^3) as (B,) arrays."""
    b = m @ m
    return tuple((x * y).sum(axis=(1, 2)) for x, y in ((m, m), (b, b), (b, m)))
