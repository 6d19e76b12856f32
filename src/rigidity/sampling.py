"""Seeded random matrices and rotations for fuzz campaigns and tests.

Campaign matrices and lambda grids come from one Philox stream keyed by the
seed (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
Every index owns a fixed run of counters, so different seeds never share
matrices, and a bulk draw of any index range gives the same rows as drawing
each index alone: results do not depend on the chunking. ``derived_rng``,
keyed by the pair (seed, index), serves tests and the equality-family check.
"""

from __future__ import annotations

import numpy as np

from .spectral import SymMatrix, trace_free_project, trace_free_project_batch

__all__ = [
    "campaign_chunk",
    "campaign_samples",
    "derived_rng",
    "random_symmetric",
    "random_trace_free",
    "random_rotation",
    "equality_family_matrix",
]

# Stream words drawn and examined per bulk step (2 MB); bounds memory, never results.
_CHUNK_WORDS = 1 << 18


def _row_width(dims, lambda_count: int) -> int:
    # words per index, in whole Philox4x64 counters of 4 words each
    return -(-(max(dims) * (max(dims) + 1) // 2 + lambda_count) // 4) * 4


def campaign_chunk(dims, lambda_count: int) -> int:
    """Number of indices a campaign draws per bulk step, at least one."""
    return max(1, _CHUNK_WORDS // _row_width(dims, lambda_count))


def campaign_samples(seed: int, dims, lambda_count: int, start: int, count: int) -> list[tuple]:
    """Campaign indices start .. start + count - 1, grouped by dimension in ascending n.

    Each group is (n, trace-free matrices (B, n, n), lambda grids
    (B, lambda_count)), rows in ascending index order. Index i has dimension
    dims[i % len(dims)] and reads its own row of the stream: its upper
    triangle, uniform in [-1, 1] before the trace-free projection, then, after
    room for the largest triangle, its lambda grid, uniform in [-2, 2].
    """
    tri_max, width = max(dims) * (max(dims) + 1) // 2, _row_width(dims, lambda_count)
    # numpy.random is reached here, not at import, so importing the package stays cheap
    words = np.random.Generator(np.random.Philox(key=seed, counter=start * width // 4)).random(
        (count, width))
    dim_of = np.asarray(dims)[np.arange(start, start + count) % len(dims)]
    groups = []
    for n in sorted(set(dim_of.tolist())):
        rows, (iu, ju) = words[dim_of == n], np.triu_indices(n)
        m = np.empty((len(rows), n, n))
        m[:, iu, ju] = m[:, ju, iu] = -1.0 + 2.0 * rows[:, :len(iu)]
        m = trace_free_project_batch(m)
        lam = -2.0 + 4.0 * rows[:, tri_max:tri_max + lambda_count]
        groups.append((n, m, lam))
    return groups


def derived_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Generator keyed by the pair (seed, index): distinct pairs draw distinct streams."""
    return np.random.default_rng([seed, index])


def random_symmetric(rng: np.random.Generator, n: int) -> SymMatrix:
    """Symmetric matrix with entries uniform in [-1, 1], exactly symmetric."""
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    upper = np.triu(m)
    return SymMatrix(upper + np.triu(m, 1).T)


def random_trace_free(rng: np.random.Generator, n: int) -> SymMatrix:
    return trace_free_project(random_symmetric(rng, n))


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


def equality_family_matrix(n: int, mu: float,
                           rotation: np.ndarray | None = None) -> SymMatrix:
    """Trace-free matrix with eigenvalues (mu, ..., mu, -(n-1) mu), optionally conjugated."""
    d = np.diag([mu] * (n - 1) + [-(n - 1) * mu])
    if rotation is None:
        return SymMatrix(d)
    m = rotation @ d @ rotation.T
    return SymMatrix.from_array(m, asym_tol=1e-10)
