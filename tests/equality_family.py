"""The equality family of the sharp bound, run through the package's campaign kernels.

Random orthogonal conjugates of diag(mu, ..., mu, -(n-1) mu) attain equality in
|A^2|^2 <= ((n^2-3n+3)/(n(n-1))) |A|^4. Unlike ``reference``, this module calls
the kernels it exercises: the examination and the main inequality of a stack.
"""

import numpy as np

from rigidity.inequalities import main_inequality_batch
from rigidity.spectral import examine_batch

from reference import derived_rng, random_rotation


def equality_family_stats(dims, count: int, seed: int) -> dict:
    """Verdicts over random orthogonal conjugates of diag(mu, ..., mu, -(n-1) mu), run on the
    campaign kernels as one stack per dimension."""
    dims = [int(n) for n in dims]
    stacks: dict = {}
    for idx in range(count):
        rng = derived_rng(seed, idx)
        n = dims[idx % len(dims)]
        mu = rng.uniform(0.5, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        q = random_rotation(rng, n)
        stacks.setdefault(n, []).append(q @ np.diag([mu] * (n - 1) + [-(n - 1) * mu]) @ q.T)
    worst_defect = 0.0
    all_equality = True
    all_mult = True
    for n, conjugates in stacks.items():
        a = np.stack(conjugates)
        a = 0.5 * (a + a.transpose(0, 2, 1))  # exactly symmetric
        stack = examine_batch(a)
        verdict, large = main_inequality_batch(stack)
        # np.maximum keeps a NaN, so a NaN defect fails the family
        worst_defect = float(np.maximum(worst_defect, np.abs(verdict.relative_defect).max()))
        all_equality = all_equality and bool(verdict.equality.all())
        # the largest cluster holds exactly n - 1 eigenvalues: at least n - 1, and not all n
        all_mult = all_mult and bool((large & ~stack.links.all(axis=1)).all())
    return {
        "count": count,
        "max_abs_relative_defect": worst_defect,
        "all_equality": all_equality,
        "all_multiplicity_n_minus_1": all_mult,
    }
