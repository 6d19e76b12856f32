"""Kulkarni-Nomizu identities of trace-free shape operators, over stacks.

For a trace-free A with Fialkow tensor F = (A^2 - G I) / (n - 2), G =
|A|^2 / (2(n-1)), the induced Weyl tensor of a hypersurface in a conformally
flat ambient space is W = 1/2 (A ^ A) + F ^ g. The suite below checks the
inner-product identities of the two Kulkarni-Nomizu products by direct
rank-4 contraction, sum_{abcd} of the entries' products, against closed
forms in matrix norms.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation
from .spectral import TraceFreeStack

__all__ = ["kn_identity_suite_batch"]

_KN_SUB_BATCH = 8


def kn_identity_suite_batch(stack: TraceFreeStack) -> np.ndarray:
    """Residuals (B, 4) of the four Kulkarni-Nomizu identities for each matrix of a stack.

    Left sides by direct rank-4 contraction, right sides from matrix norms:

      |A ^ A|^2        = 8 |A|^4 - 8 |A^2|^2
      <A ^ A, F ^ g>   = -8 <A^2, F>
      |F ^ g|^2        = 4 <A^2, F>
      <A^2, F>         = |A^2|^2/(n-2) - |A|^4 / (2(n-1)(n-2))

    The Fialkow trace identity tr F = G is checked for every matrix. The
    rank-4 stacks hold _KN_SUB_BATCH matrices at a time, which bounds their
    memory.
    """
    a, n, a2, a22 = stack.a, stack.n, stack.a2, stack.a22
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
        # (S ^ T)_{abcd} = S_ac T_bd + S_bd T_ac - S_ad T_bc - S_bc T_ad, for A ^ A and F ^ I, as
        # u minus its c-d swap with u_{abcd} = S_ac T_bd + T_ac S_bd, so S ^ T == T ^ S bitwise
        u = np.einsum("xac,xbd->xabcd", s, s) * 2.0
        aa = (u - u.transpose(0, 1, 2, 4, 3)).reshape(len(s), -1)
        u = np.einsum("xac,bd->xabcd", t, eye) + np.einsum("ac,xbd->xabcd", eye, t)
        fg = (u - u.transpose(0, 1, 2, 4, 3)).reshape(len(s), -1)
        # a row sum adds in the same order whatever the number of rows
        norm_aa[part], inner[part], norm_fg[part] = (
            (x * y).sum(axis=1) for x, y in ((aa, aa), (aa, fg), (fg, fg)))
    return np.stack([norm_aa - (8.0 * a2 * a2 - 8.0 * a22), inner - (-8.0 * inner_a2f),
                     norm_fg - 4.0 * inner_a2f,
                     inner_a2f - (a22 / (n - 2) - a2 * a2 / (2.0 * (n - 1) * (n - 2)))], axis=1)
