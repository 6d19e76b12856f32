"""Pointwise curvature-tensor algebra in an orthonormal frame.

Kulkarni-Nomizu products of symmetric bilinear forms, the Fialkow tensor of a
trace-free shape operator, and the induced Weyl tensor of a hypersurface in a
conformally flat ambient space, together with the closed form for its squared
norm. All tensors are stored as dense rank-4 arrays; the squared norm is the
full contraction sum_{abcd} T_{abcd}^2, the convention under which the
inner-product identities below hold (validated by the n = 4 worked value
|W|^2 = 64/3 for A = diag(1, 1, -1, -1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, DimensionMismatch, InvariantViolation
from .spectral import SymMatrix, _require_trace_free, _require_trace_free_batch, norms, norms_batch

__all__ = [
    "AlgCurvTensor",
    "kulkarni_nomizu",
    "tensor_norm_sq",
    "tensor_inner",
    "rotate_tensor",
    "curvature_symmetry_residuals",
    "fialkow_tensor",
    "weyl_from_gauss_codazzi",
    "weyl_norm_closed_form",
    "kn_identity_suite",
    "kn_identity_suite_batch",
]

_KN_SUB_BATCH = 8


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


def kn_identity_suite_batch(a: np.ndarray) -> np.ndarray:
    """kn_identity_suite of each matrix of a (B, n, n) stack: residuals (B, 4).

    The Fialkow trace identity is checked for every matrix. The rank-4 stacks
    hold _KN_SUB_BATCH matrices at a time, which bounds their memory.
    """
    n = a.shape[-1]
    a2, a22, _ = norms_batch(a)
    _require_trace_free_batch(np.trace(a, axis1=1, axis2=2), a2, n)
    g, squared, eye = a2 / (2.0 * (n - 1)), a @ a, np.eye(n)
    f = (0.5 * (squared + squared.transpose(0, 2, 1)) - g[:, None, None] * eye) / (n - 2)
    f = 0.5 * (f + f.transpose(0, 2, 1))
    if np.any(np.abs(np.trace(f, axis1=1, axis2=2) - g) > 1e-12 * np.maximum(1.0, g)):
        raise InvariantViolation("Fialkow trace identity tr F = G failed")
    inner_a2f = (squared * f).sum(axis=(1, 2))
    norm_aa, inner, norm_fg = np.empty((3, len(a)))
    for lo in range(0, len(a), _KN_SUB_BATCH):
        part = slice(lo, lo + _KN_SUB_BATCH)
        s, t = a[part], f[part]
        # kulkarni_nomizu(A, A) and kulkarni_nomizu(F, I) in its operation order
        u = np.einsum("xac,xbd->xabcd", s, s) * 2.0
        aa = (u - u.transpose(0, 1, 2, 4, 3)).reshape(len(s), -1)
        u = np.einsum("xac,bd->xabcd", t, eye) + np.einsum("ac,xbd->xabcd", eye, t)
        fg = (u - u.transpose(0, 1, 2, 4, 3)).reshape(len(s), -1)
        # a row sum adds like the scalar full sum, whatever the number of rows
        norm_aa[part], inner[part], norm_fg[part] = (
            (x * y).sum(axis=1) for x, y in ((aa, aa), (aa, fg), (fg, fg)))
    return np.stack([norm_aa - (8.0 * a2 * a2 - 8.0 * a22), inner - (-8.0 * inner_a2f),
                     norm_fg - 4.0 * inner_a2f,
                     inner_a2f - (a22 / (n - 2) - a2 * a2 / (2.0 * (n - 1) * (n - 2)))], axis=1)
