"""Kulkarni-Nomizu identities of trace-free shape operators, over stacks.

For a trace-free A with Fialkow tensor F = (A^2 - G I) / (n - 2), G =
|A|^2 / (2(n-1)), the induced Weyl tensor of a hypersurface in a conformally
flat ambient space is W = 1/2 (A ^ A) + F ^ g. The suite below checks the
inner-product identities of the two Kulkarni-Nomizu products by direct
contraction against closed forms in matrix norms. Both products are
antisymmetric in (a, b) and in (c, d), so the contraction runs over the
bivector pairs a < b, c < d only (the curvature operator on the 2-forms) and
is 4 times that sum; the full n^4 contraction is the oracle in tests/reference.py.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation
from .spectral import TraceFreeStack

__all__ = ["kn_identity_suite_batch"]

# entries of one gathered (rows, P^2) array per step, P = n(n-1)/2 bivectors
_KN_STEP_ENTRIES = 2 ** 13


def _kn_step_rows(n: int) -> int:
    """Matrices whose bivector entries one step gathers, P^2 entries each."""
    return max(1, _KN_STEP_ENTRIES // (n * (n - 1) // 2) ** 2)


def _kn_contractions(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """|A ^ A|^2, <A ^ A, F ^ I> and |F ^ I|^2 (3, B) of stacks a and f (B, n, n), as 4 times
    the sums over the bivector pairs. Each step gathers _kn_step_rows(n) matrices' entries,
    which bounds their memory; a row's sums do not depend on the step."""
    n = a.shape[-1]
    i, j = np.triu_indices(n, 1)
    # flat indices into an (n * n) row of the entries ac, bd, ad and bc over the pairs (ab, cd)
    ac, bd, ad, bc = ((p[:, None] * n + q).ravel() for p, q in ((i, i), (j, j), (i, j), (j, i)))
    d_ac, d_bd, d_ad, d_bc = (np.eye(n).ravel()[k] for k in (ac, bd, ad, bc))
    rows = _kn_step_rows(n)
    a, f = a.reshape(len(a), n * n), f.reshape(len(f), n * n)
    out = np.empty((3, len(a)))
    for lo in range(0, len(a), rows):
        s, t = a[lo:lo + rows], f[lo:lo + rows]
        # (S ^ T)_{abcd} = S_ac T_bd + S_bd T_ac - S_ad T_bc - S_bc T_ad, for A ^ A and F ^ I,
        # each entry as the full tensor's u minus its c-d swap, u_{abcd} = S_ac T_bd + T_ac S_bd.
        # One expression each keeps few gathered arrays alive; take, not x[:, k], gives
        # C-contiguous rows, which the sums below add pairwise
        aa = (2.0 * (s.take(ac, axis=1) * s.take(bd, axis=1))
              - 2.0 * (s.take(ad, axis=1) * s.take(bc, axis=1)))
        fg = ((t.take(ac, axis=1) * d_bd + d_ac * t.take(bd, axis=1))
              - (t.take(ad, axis=1) * d_bc + d_ad * t.take(bc, axis=1)))
        # a row sum adds in the same order whatever the number of rows
        out[:, lo:lo + rows] = [4.0 * (x * y).sum(axis=1) for x, y in ((aa, aa), (aa, fg), (fg, fg))]
    return out


def kn_identity_suite_batch(stack: TraceFreeStack) -> np.ndarray:
    """Residuals (B, 4) of the four Kulkarni-Nomizu identities for each matrix of a stack.

    Left sides by direct contraction over bivector pairs, right sides from matrix norms:

      |A ^ A|^2        = 8 |A|^4 - 8 |A^2|^2
      <A ^ A, F ^ g>   = -8 <A^2, F>
      |F ^ g|^2        = 4 <A^2, F>
      <A^2, F>         = |A^2|^2/(n-2) - |A|^4 / (2(n-1)(n-2))

    The Fialkow trace identity tr F = G is checked for every matrix.
    """
    a, n, a2, a22 = stack.a, stack.n, stack.a2, stack.a22
    g, squared, eye = a2 / (2.0 * (n - 1)), a @ a, np.eye(n)
    f = (0.5 * (squared + squared.transpose(0, 2, 1)) - g[:, None, None] * eye) / (n - 2)
    if np.any(np.abs(np.trace(f, axis1=1, axis2=2) - g) > 1e-12 * np.maximum(1.0, g)):
        raise InvariantViolation("Fialkow trace identity tr F = G failed")
    inner_a2f = (squared * f).sum(axis=(1, 2))
    norm_aa, inner, norm_fg = _kn_contractions(a, f)
    return np.stack([norm_aa - (8.0 * a2 * a2 - 8.0 * a22), inner - (-8.0 * inner_a2f),
                     norm_fg - 4.0 * inner_a2f,
                     inner_a2f - (a22 / (n - 2) - a2 * a2 / (2.0 * (n - 1) * (n - 2)))], axis=1)
