"""Seeded random matrices for fuzz campaigns.

Campaign matrices and lambda grids come from one Philox stream keyed by the
seed (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
Every index owns a fixed run of counters, so different seeds never share
matrices, and a bulk draw of any index range gives the same rows as drawing
each index alone: results do not depend on the chunking.
"""

from __future__ import annotations

import numpy as np

from .spectral import trace_free_project_batch

__all__ = [
    "campaign_chunk",
    "campaign_samples",
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
