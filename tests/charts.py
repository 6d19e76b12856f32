"""Charts that only the tests differentiate: a cylinder is a sphere chart plus its axis."""

import numpy as np

from rigidity.surfaces import ellipsoid_chart


def cylinder_chart(n: int, radius: float, height: float):
    """Chart of S^(n-1)(r) x [0, height]: n-1 sphere angles plus the axis."""
    sphere, domain = ellipsoid_chart([radius] * n)

    def chart(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.concatenate([sphere(u[..., : n - 1]), u[..., n - 1:]], axis=-1)

    return chart, domain + [(0.0, height)]
