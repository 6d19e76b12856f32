"""Seeded random matrices and rotations for fuzz campaigns and tests.

Per-item generators are derived as ``seed ^ index``, so item ``index`` of a
campaign can be regenerated on its own from the seed.
"""

from __future__ import annotations

import numpy as np

from .spectral import SymMatrix, trace_free_project

__all__ = [
    "derived_rng",
    "random_symmetric",
    "random_trace_free",
    "random_rotation",
    "equality_family_matrix",
]


def derived_rng(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed ^ index)


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
