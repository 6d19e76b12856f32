"""Elementary symmetric functions of stacks of symmetric matrices.

Two independent evaluation paths produce the same sigma_0..sigma_n as one
(n + 1, B) array: one expands the characteristic polynomial from the
eigenvalues, the other converts power sums (traces of matrix powers) through
the classical triangular recurrence. All downstream inequality checks
cross-validate against this redundancy. Every kernel takes a (B, n, n) stack,
or its (B, n) eigenvalues, at once, and every check reads the one
TraceFreeStack record of a stack that ``examine_batch`` makes: plain named
arrays, with the normalized p_k = sigma_k / C(n, k) divided out once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import tolerance
from .errors import NonFiniteResult, NotTraceFree

__all__ = [
    "TraceFreeStack",
    "examine_batch",
    "trace_free_project_batch",
    "eigen_spectrum_batch",
    "symfun_from_spectrum_batch",
    "symfun_from_power_sums_batch",
    "norms_batch",
]


def _require_trace_free_batch(s1, s2, n: int) -> None:
    """Raise NotTraceFree unless |s1| <= trace_free_tol * n * sqrt(s2) on every row, for
    s1 = tr A and s2 = |A|^2 as (B,) arrays; the message gives the first offender's numbers."""
    norm = np.sqrt(np.maximum(s2, 0.0))
    bad = np.abs(s1) > tolerance("trace_free_tol") * n * norm
    if bad.any():
        i = int(np.argmax(bad))
        raise NotTraceFree(f"trace {s1[i]:.3e} too large for Frobenius norm {norm[i]:.3e}")


def trace_free_project_batch(m: np.ndarray) -> np.ndarray:
    """Each matrix of a stack (B, n, n) minus (tr A / n) I, as a new stack."""
    out, diag = np.array(m, dtype=float), np.arange(m.shape[-1])
    out[:, diag, diag] -= (np.trace(m, axis1=1, axis2=2) / len(diag))[:, None]
    return out


def eigen_spectrum_batch(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (B, n) and links (B, n - 1) of a stack.

    A link is True where eigenvalues i and i + 1 are at most cluster_tol *
    max(1, spectral radius) apart; the multiplicity clusters are the linked runs.
    """
    w = np.sort(np.linalg.eigvalsh(m), axis=1)
    threshold = tolerance("cluster_tol") * np.maximum(1.0, np.max(np.abs(w), axis=1))
    return w, np.diff(w, axis=1) <= threshold[:, None]


def symfun_from_spectrum_batch(w: np.ndarray) -> np.ndarray:
    """sigma_0..sigma_n (n + 1, B) of each row of ascending eigenvalues (B, n):
    prod(x + lambda_i) expanded one root at a time."""
    count, n = w.shape
    c = np.zeros((n + 1, count))
    c[0] = 1.0
    for i in range(n):
        c[1:i + 2] += w[:, i] * c[:i + 1]
    return c


def symfun_from_power_sums_batch(m: np.ndarray) -> np.ndarray:
    """sigma_0..sigma_n (n + 1, B) of each matrix of a stack from traces of its powers, with no
    eigendecomposition.

    sigma_k = (1/k) * sum_{j=1..k} (-1)^(j-1) sigma_{k-j} s_j: the oracle path
    for the eigenvalue route.
    """
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
    return sigma


def norms_batch(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """(|A|^2, |A^2|^2, tr A^3) of each matrix of a stack as (B,) arrays, from entries and
    one matrix product, independent of any eigendecomposition."""
    b = m @ m
    return tuple((x * y).sum(axis=(1, 2)) for x, y in ((m, m), (b, b), (b, m)))


@dataclass(frozen=True)
class TraceFreeStack:
    """A trace-free stack ``a`` (B, n, n) with its ``trace``, ``a2`` = |A|^2, ``a22`` = |A^2|^2
    and ``t3`` = tr A^3 from the entries, each (B,); eigenvalues ``w`` and ``links`` from
    eigen_spectrum_batch; ``sigma`` (n + 1, B) of ``w``, and ``p`` = sigma_k / C(n, k)."""

    a: np.ndarray
    trace: np.ndarray
    a2: np.ndarray
    a22: np.ndarray
    t3: np.ndarray
    w: np.ndarray
    links: np.ndarray
    sigma: np.ndarray
    p: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[-1]


def examine_batch(a: np.ndarray) -> TraceFreeStack:
    """The record of a stack (B, n, n), n >= 4. Raises NonFiniteResult naming the first row,
    as its sample, where |A|^n (the degree of sigma_n) or |A^2|^2 overflows, then NotTraceFree
    unless tr A against |A|^2 on the entries and s_1 against s_2 on the eigenvalues pass."""
    n, trace = a.shape[-1], np.trace(a, axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):
        a2, a22, t3 = norms_batch(a)
        finite = np.isfinite(a2 ** (n / 2.0)) & np.isfinite(a22)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteResult(f"sample {i}: |A|^{n} overflows at |A|^2 = {a2[i]:.3e}")
    _require_trace_free_batch(trace, a2, n)
    w, links = eigen_spectrum_batch(a)
    sigma = symfun_from_spectrum_batch(w)
    # s_1 = sigma_1; cumsum adds s_2 left to right whatever B is
    _require_trace_free_batch(sigma[1], np.cumsum(w * w, axis=1)[:, -1], n)
    binomials = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return TraceFreeStack(a, trace, a2, a22, t3, w, links, sigma, sigma / binomials[:, None])
