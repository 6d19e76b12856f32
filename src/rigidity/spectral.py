"""Elementary symmetric functions of stacks of symmetric matrices.

Two independent evaluation paths produce the same sigma_0..sigma_n as one
(n + 1, B) array: one expands the characteristic polynomial from the
eigenvalues, the other converts power sums (traces of matrix powers) through
the classical triangular recurrence. All downstream inequality checks
cross-validate against this redundancy. Every kernel takes a (B, n, n) stack,
or its (B, n) eigenvalues, at once, and every check reads the one
TraceFreeStack record of a stack that ``examine_batch`` makes: plain named
arrays, with the normalized p_k = sigma_k / C(n, k) divided out once.
``merge_stacks`` joins the rows of records of several dimensions into one.
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
    "power_sums_batch",
    "symfun_from_power_sums_batch",
    "norms_batch",
    "large_eigenspace_batch",
    "merge_stacks",
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
    w = np.linalg.eigvalsh(m)
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


def power_sums_batch(m: np.ndarray) -> np.ndarray:
    """Power sums s_j = tr A^j (n + 1, B), row 0 = n, of each matrix of a stack (B, n, n)."""
    n = m.shape[-1]
    s = np.full((n + 1, len(m)), float(n))  # row 0 keeps s_0 = n
    for j in range(1, n + 1):  # n - 1 products: A^n is the last power read
        power = m if j == 1 else power @ m
        s[j] = np.trace(power, axis1=1, axis2=2)
    return s


def symfun_from_power_sums_batch(s: np.ndarray) -> np.ndarray:
    """sigma_0..sigma_K (K + 1, B) of power sums s (K + 1, B), with no eigendecomposition: the
    oracle path for the eigenvalue route, sigma_k = (1/k) sum_{j=1..k} (-1)^(j-1) sigma_{k-j} s_j.
    Zero-padding s past a matrix's n leaves its sigma_0..sigma_n as they are."""
    sigma = np.zeros_like(s)
    sigma[0] = 1.0
    signs = (-1.0) ** np.arange(len(s) - 1)[:, None]
    for k in range(1, len(s)):
        # cumsum adds in j order whatever B is; a matrix product or sum may not
        sigma[k] = np.cumsum(signs[:k] * sigma[k - 1::-1] * s[1:k + 1], axis=0)[-1] / k
    return sigma


def norms_batch(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """(|A|^2, |A^2|^2, tr A^3) of each matrix of a stack as (B,) arrays, from entries and
    one matrix product, independent of any eigendecomposition."""
    b = m @ m
    return tuple((x * y).sum(axis=(1, 2)) for x, y in ((m, m), (b, b), (b, m)))


def large_eigenspace_batch(links: np.ndarray) -> np.ndarray:
    """Per row of links (B, n - 1), whether the first or last n - 1 eigenvalues are one cluster."""
    return links[:, 1:].all(axis=1) | links[:, :-1].all(axis=1)


@dataclass(frozen=True)
class TraceFreeStack:
    """A trace-free stack ``a`` (B, n, n) with ``a2`` = |A|^2, ``a22`` = |A^2|^2 and ``t3`` =
    tr A^3 from the entries, each (B,); eigenvalues ``w``, ``links`` and ``large`` from
    eigen_spectrum_batch; ``sigma`` (n + 1, B) of ``w``, and ``p`` = sigma_k / C(n, k).
    In a merge_stacks record ``n`` is a (B,) int array and ``a``, ``w`` and ``links`` are None."""

    a: np.ndarray | None
    a2: np.ndarray
    a22: np.ndarray
    t3: np.ndarray
    w: np.ndarray | None
    links: np.ndarray | None
    sigma: np.ndarray
    p: np.ndarray
    n: int | np.ndarray
    large: np.ndarray


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
    p = sigma / np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)[:, None]
    return TraceFreeStack(a, a2, a22, t3, w, links, sigma, p, n, large_eigenspace_batch(links))


def merge_stacks(stacks) -> TraceFreeStack:
    """The rows of records of any dimensions as one record, in order: ``n`` per row, and rows
    0..4 of ``sigma`` and ``p``, which every n >= 4 has."""
    def join(name: str, rows=slice(None)) -> np.ndarray:
        return np.concatenate([getattr(stack, name)[rows] for stack in stacks], axis=-1)
    n = np.concatenate([np.full(len(stack.a2), stack.n) for stack in stacks])
    return TraceFreeStack(None, join("a2"), join("a22"), join("t3"), None, None,
                          join("sigma", slice(5)), join("p", slice(5)), n, join("large"))
