"""Sampled hypersurfaces: shape operators plus quadrature weights.

Analytic families (sphere, cylinder, rotation hypersurfaces, the minimal
rotation profile), charts differentiated by central differences (a round sphere
is the ellipsoid chart with equal axes), and a JSON round trip for fields.

Rotation hypersurfaces are sampled on a (profile, orbit-angle) grid. One function
gives each profile's curvatures and density; the shape operator is constant along
the orbit spheres, whose directions are integrated into the area weight. Quadrature
is the tensor-product midpoint rule; a weight out of range names its parameters.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .defaults import FD_STEP_FACTOR, tolerance
from .errors import (
    BadDimension,
    BadParams,
    BadProfile,
    DegenerateChart,
    InvariantViolation,
    NonFiniteResult,
    ODEStepFailure,
    ParseError,
    SchemaError,
    StepTooLarge,
)
from .spectral import trace_free_project_batch

__all__ = [
    "SURFACE_KINDS",
    "SurfaceSpec",
    "ShapeField",
    "unit_sphere_volume",
    "umbilic_flags",
    "build_sphere",
    "build_cylinder",
    "catenoid_profile",
    "minimality_residual",
    "build_catenoid",
    "build_rotation_hypersurface",
    "chart_shape_operator",
    "cylinder_chart",
    "ellipsoid_chart",
    "build_ellipsoid",
    "SampleTable",
    "field_from_dict",
    "save_field",
    "ingest_field",
]

SURFACE_KINDS = ("Sphere", "Cylinder", "RotationHypersurface", "Catenoid", "Chart", "FieldFile")


@dataclass(frozen=True)
class SurfaceSpec:
    """Construction record for a sampled hypersurface."""

    kind: str
    n: int
    params: dict
    grid: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in SURFACE_KINDS:
            raise BadParams(f"unknown surface kind {self.kind!r}; valid: {SURFACE_KINDS}")
        if self.n < 4:
            raise BadDimension(f"hypersurface dimension must be >= 4, got {self.n}")
        if not self.grid:
            raise BadParams("grid must contain at least one count")
        if any(g < 2 for g in self.grid):
            raise BadParams(f"grid counts must be >= 2, got {self.grid}")


@dataclass(frozen=True, eq=False)
class ShapeField:
    """Samples of an immersed hypersurface patch as read-only arrays: parameter ``coords``
    (N, len(spec.grid)), exactly symmetric finite shape ``operators`` (N, n, n) and positive
    finite quadrature ``weights`` (N,). Built and ingested fields pass the same checks, each
    naming the first sample that fails it; umbilic samples are ``umbilic_flags(operators)``.
    """

    spec: SurfaceSpec
    coords: np.ndarray
    operators: np.ndarray
    weights: np.ndarray
    minimal_claimed: bool = False

    def __post_init__(self) -> None:
        coords, operators, weights = (np.array(a, dtype=float)
                                      for a in (self.coords, self.operators, self.weights))
        count, n = weights.size, self.spec.n
        if not count:
            raise InvariantViolation("shape field must contain at least one sample")
        for name, array, shape in (("weights", weights, (count,)),
                                   ("operators", operators, (count, n, n)),
                                   ("coords", coords, (count, len(self.spec.grid)))):
            if array.shape != shape:
                raise InvariantViolation(f"{name} have shape {array.shape}, expected {shape}")
        _first_bad(~np.isfinite(coords).all(axis=1), "coords must be finite")
        _first_bad(~np.isfinite(operators).all(axis=(1, 2)), "shape operator entries must be finite")
        _first_bad((operators != np.swapaxes(operators, 1, 2)).any(axis=(1, 2)),
                   "shape operator entries are not exactly symmetric")
        _first_bad(~((weights > 0.0) & (weights < math.inf)),
                   lambda i: f"area weight must be positive and finite, got {weights[i]}")
        if self.minimal_claimed:
            tol = tolerance("minimality_tol")
            residual = (np.abs(np.trace(operators, axis1=1, axis2=2))
                        / (1.0 + np.sqrt((operators * operators).sum(axis=(1, 2)))))
            _first_bad(residual > tol,
                       lambda i: f"minimality residual {residual[i]:.3e} exceeds {tol:.1e}")
        for name, array in (("coords", coords), ("operators", operators), ("weights", weights)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def _first_bad(bad: np.ndarray, message) -> None:
    """InvariantViolation naming the first sample where ``bad`` holds; ``message`` may take its index."""
    if bad.any():
        i = int(np.argmax(bad))
        raise InvariantViolation(f"sample {i}: {message(i) if callable(message) else message}")


def unit_sphere_volume(m: int) -> float:
    """Surface volume of the unit m-sphere in (m+1)-space."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def _midpoints(lo: float, hi: float, count: int) -> np.ndarray:
    step = (hi - lo) / count
    return lo + (np.arange(count) + 0.5) * step


def umbilic_flags(operators: np.ndarray) -> np.ndarray:
    """Umbilic test of each operator of a stack (N, n, n): |tracefree(A)| <= umbilic_tol * max(1, |A|)."""
    with np.errstate(over="ignore", invalid="ignore"):
        frob = [np.sqrt((m * m).sum(axis=(1, 2)))
                for m in (trace_free_project_batch(operators), operators)]
        return frob[0] <= tolerance("umbilic_tol") * np.maximum(1.0, frob[1])


def _positive_finite(name: str, value) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        raise BadParams(f"{name} must be positive and finite, got {value}")


def _weight_scale(name: str, value, power: int):
    """``value ** power``, the scale of a builder's area weights, if both are positive and finite."""
    _positive_finite(name, value)
    try:
        scale = float(value) ** power
    except OverflowError:  # a float's pow raises past the double range
        scale = math.inf
    if not 0 < scale < math.inf:
        raise BadParams(f"{name} {value} makes the area weight scale {name} ** {power} = {scale}, "
                        "which is not positive and finite")
    return scale


def _grid_points(axes) -> np.ndarray:
    """Row-major grid of the axes' values as an (N, len(axes)) array, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _grid_counts(grid, defaults: tuple[int, ...]) -> tuple[int, ...]:
    # ``defaults`` when no grid is given; else broadcast the last entry to len(defaults) counts
    if grid is None:
        return defaults
    counts = [int(g) for g in (grid if hasattr(grid, "__len__") else [grid])]
    if not counts:
        raise BadParams("grid must contain at least one count")
    return tuple(counts + counts[-1:] * (len(defaults) - len(counts)))[:len(defaults)]


def _area_weights(what: str, *factors) -> np.ndarray:
    """The product of ``factors`` in order, the area weights; BadParams naming ``what`` unless
    every weight is positive and finite."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        weights = math.prod(factors)
    good = (weights > 0.0) & (weights < math.inf)  # NaN fails too
    if not good.all():
        raise BadParams(f"area weights are not positive and finite for {what}: "
                        f"got {weights.flat[np.argmin(good)]}")
    return weights


def build_sphere(n: int, radius: float, grid=None) -> ShapeField:
    """Round n-sphere of the given radius; every point is umbilic with A = I / r."""
    scale = _weight_scale("radius", radius, n)
    counts = _grid_counts(grid, (8,) * n)
    spec = SurfaceSpec("Sphere", n, {"radius": radius}, counts)
    axes = [_midpoints(0.0, math.pi, counts[d]) for d in range(n - 1)]
    axes.append(_midpoints(0.0, 2.0 * math.pi, counts[n - 1]))
    cell = math.prod((math.pi if d < n - 1 else 2.0 * math.pi) / counts[d] for d in range(n))
    # sin(angle_d)^(n-1-d) per axis in Python floats, multiplied across the grid in axis order
    density = 1.0
    for d in range(n - 1):
        factor = np.array([math.sin(x) ** (n - 1 - d) for x in axes[d].tolist()])
        density = density * factor.reshape((-1,) + (1,) * (n - 1 - d))
    weights = np.broadcast_to(_area_weights(f"radius {radius}", scale, density, cell),
                              counts).reshape(-1)
    operators = np.broadcast_to(np.eye(n) / radius, (len(weights), n, n))
    return ShapeField(spec, _grid_points(axes), operators, weights, minimal_claimed=False)


def _orbit_samples(spec: SurfaceSpec, what: str, t_values: np.ndarray, dt: float,
                   kr: np.ndarray, kp: np.ndarray, density: np.ndarray, minimal: bool) -> ShapeField:
    """Assemble a rotation-hypersurface field on the spec's (profile, orbit angle) grid.

    ``density`` is the profile-direction area density f^(n-1) sqrt(1 + f'^2);
    the orbit sphere S^(n-1) contributes vol(S^(n-1)) / (2 pi) per unit angle.
    ``what`` names the parameters that a weight out of range comes from.
    """
    n, m_theta = spec.n, spec.grid[1]
    thetas = _midpoints(0.0, 2.0 * math.pi, m_theta)
    d_theta = 2.0 * math.pi / m_theta
    orbit_factor = unit_sphere_volume(n - 1) / (2.0 * math.pi)
    weights = _area_weights(what, density, dt, orbit_factor, d_theta)
    diagonals = np.zeros((len(t_values), n, n))
    diagonals[:, range(n), range(n)] = np.column_stack([kr] * (n - 1) + [kp])
    # every orbit angle of a profile node repeats the node's operator and weight
    return ShapeField(spec, _grid_points([t_values, thetas]),
                      np.repeat(diagonals, m_theta, axis=0), np.repeat(weights, m_theta),
                      minimal_claimed=minimal)


def build_cylinder(n: int, radius: float, height: float, grid=None) -> ShapeField:
    """Cylinder S^(n-1)(r) x [0, height]: principal curvatures (1/r, ..., 1/r, 0)."""
    scale = _weight_scale("radius", radius, n - 1)
    _positive_finite("height", height)
    m_z, m_theta = _grid_counts(grid, (16, 8))
    spec = SurfaceSpec("Cylinder", n, {"radius": radius, "height": height}, (m_z, m_theta))
    z = _midpoints(0.0, height, m_z)
    dz = height / m_z
    kr = np.full(m_z, 1.0 / radius)
    kp = np.zeros(m_z)
    density = np.full(m_z, scale)
    return _orbit_samples(spec, f"radius {radius} and height {height}", z, dz, kr, kp, density,
                          minimal=False)


def _rk4_step(n: int, y0: float, y1: float, h: float) -> tuple[float, float]:
    """One classical RK4 step of the profile system (f, f')' = (f', (n-1)(1 + f'^2) / f)."""
    k1a, k1b = y1, (n - 1) * (1.0 + y1 * y1) / y0
    y0b, y1b = y0 + 0.5 * h * k1a, y1 + 0.5 * h * k1b
    k2a, k2b = y1b, (n - 1) * (1.0 + y1b * y1b) / y0b
    y0c, y1c = y0 + 0.5 * h * k2a, y1 + 0.5 * h * k2b
    k3a, k3b = y1c, (n - 1) * (1.0 + y1c * y1c) / y0c
    y0d, y1d = y0 + h * k3a, y1 + h * k3b
    k4a, k4b = y1d, (n - 1) * (1.0 + y1d * y1d) / y0d
    return (y0 + h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0,
            y1 + h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0)


_F_CAP = 2.0  # the default catenoid patch stops short of where its profile reaches this radius


def _default_t_max(n: int) -> float:
    # coarse scan until the profile reaches _F_CAP; deterministic for fixed inputs
    h = 1e-3
    y0, y1 = 1.0, 0.0
    t = 0.0
    for _ in range(200000):
        if y0 >= _F_CAP:
            break
        y0, y1 = _rk4_step(n, y0, y1, h)
        t += h
    return 0.9 * t


def catenoid_profile(n: int, t_max: float, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimal rotation profile on [0, t_max] by fixed-step RK4 for f'' f = (n-1)(1 + f'^2),
    f(0) = 1, f'(0) = 0: the steps + 1 nodes, f, and f'."""
    if n < 4:
        raise BadDimension(f"dimension must be >= 4, got {n}")
    _positive_finite("t_max", t_max)
    if steps < 1:
        raise BadParams(f"steps must be >= 1, got {steps}")
    h = t_max / steps
    f, fp = np.empty((2, steps + 1))
    y0, y1 = 1.0, 0.0
    f[0], fp[0] = y0, y1
    for i in range(steps):
        y0, y1 = _rk4_step(n, y0, y1, h)
        f[i + 1], fp[i + 1] = y0, y1
    return np.linspace(0.0, t_max, steps + 1), f, fp


def _profile_curvatures(n: int, f: np.ndarray, fp: np.ndarray, fpp: np.ndarray):
    """Curvatures and area density of a rotation profile f with derivatives f', f'': kappa_rot =
    1 / (f sqrt(1 + f'^2)) of multiplicity n - 1, kappa_profile = -f'' / (1 + f'^2)^(3/2) and the
    density f^(n-1) sqrt(1 + f'^2); past the double range they are inf, NaN or 0, with no warning."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        u = 1.0 + fp * fp
        return 1.0 / (f * np.sqrt(u)), -fpp / u ** 1.5, f ** (n - 1) * np.sqrt(u)


def minimality_residual(n: int, f: np.ndarray, fp: np.ndarray) -> float:
    """max |tr A| / (1 + |A|) over the profile nodes."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN past the profile's blow-up
        # f'' = (n-1) f^(2n-3) from the conserved relation 1 + f'^2 = f^(2(n-1)), so the
        # trace residual stays sensitive to integration error instead of cancelling identically
        kr, kp, _ = _profile_curvatures(n, f, fp, (n - 1) * f ** (2 * n - 3))
        trace = (n - 1) * kr + kp
        frob = np.sqrt((n - 1) * kr * kr + kp * kp)
        return float(np.max(np.abs(trace) / (1.0 + frob)))


def build_catenoid(n: int, grid=None, t_max: float | None = None,
                   ode_substeps: int | None = None) -> ShapeField:
    """Minimal rotation hypersurface patch from the profile equation.

    Solves f'' f = (n-1)(1 + f'^2) with f(0) = 1, f'(0) = 0 by fixed-step RK4
    over [-t_max, t_max] (mirrored by evenness) and assembles principal
    curvatures (kappa_rot x (n-1), kappa_profile). The integration step is
    refined until the minimality residual meets minimality_tol unless
    ``ode_substeps`` pins it; a residual above it, or NaN, raises :class:`ODEStepFailure`.
    """
    tol = tolerance("minimality_tol")
    m_t, m_theta = _grid_counts(grid, (48, 8))
    if t_max is None:
        t_max = _default_t_max(n)
    _positive_finite("t_max", t_max)
    spec = SurfaceSpec("Catenoid", n, {"t_max": t_max, "f_cap": _F_CAP}, (m_t, m_theta))

    substeps = 32 if ode_substeps is None else int(ode_substeps)
    if substeps < 1:
        raise BadParams("ode_substeps must be >= 1")
    attempts = 6 if ode_substeps is None else 1
    residual = math.inf
    for _ in range(attempts):
        _, f, fp = catenoid_profile(n, t_max, m_t * substeps)
        residual = minimality_residual(n, f, fp)
        if residual <= tol:
            break
        substeps *= 2
    if not math.isfinite(residual):  # RK4 overflowed, at every step size tried
        raise ODEStepFailure(f"minimality residual {residual:.3e}: the profile is not finite on "
                             f"[0, t_max] for t_max {t_max}; shrink t_max")
    if not residual <= tol:
        raise ODEStepFailure(
            f"minimality residual {residual:.3e} above {tol:.1e}; refine ode_substeps or shrink t_max")

    # midpoints of [-t_max, t_max] land on ODE nodes: |2i + 1 - m_t| * substeps
    dt = 2.0 * t_max / m_t
    offset = 2 * np.arange(m_t) + 1 - m_t
    node = np.abs(offset) * substeps
    t_values = t_max * offset / m_t
    # f is even and f' odd; at offset 0, f'(0) = 0 exactly
    f_mid, fp_mid = f[node], np.sign(offset) * fp[node]
    # f'' from the conserved relation, as in minimality_residual
    kr, kp, density = _profile_curvatures(n, f_mid, fp_mid, (n - 1) * f_mid ** (2 * n - 3))
    return _orbit_samples(spec, f"t_max {t_max}", t_values, dt, kr, kp, density, minimal=True)


def build_rotation_hypersurface(n: int, f, grid=None, t_range: tuple[float, float] = (-1.0, 1.0),
                                fp=None, fpp=None) -> ShapeField:
    """Rotation hypersurface with profile f > 0 over ``t_range``.

    Derivatives are taken from ``fp`` / ``fpp`` callables when given, else by
    central differences on ``f``. Principal curvatures are
    kappa_rot = 1 / (f sqrt(1 + f'^2)) with multiplicity n - 1 and
    kappa_profile = -f'' / (1 + f'^2)^(3/2).
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BadParams(f"invalid t_range {t_range}")
    m_t, m_theta = _grid_counts(grid, (48, 8))
    spec = SurfaceSpec("RotationHypersurface", n, {"t_range": [lo, hi]}, (m_t, m_theta))
    t_values = _midpoints(lo, hi, m_t)
    dt = (hi - lo) / m_t
    fv = np.array([float(f(t)) for t in t_values])
    good = (fv > 0.0) & (fv < math.inf)  # NaN fails too
    if not good.all():
        bad = int(np.argmin(good))
        raise BadProfile(f"profile must be positive and finite; f({t_values[bad]:.6g}) = {fv[bad]:.6g}")
    h = FD_STEP_FACTOR * max(1.0, hi - lo)
    if fp is not None:
        fpv = np.array([float(fp(t)) for t in t_values])
    else:
        fpv = np.array([(float(f(t + h)) - float(f(t - h))) / (2.0 * h) for t in t_values])
    if fpp is not None:
        fppv = np.array([float(fpp(t)) for t in t_values])
    else:
        fppv = np.array([(float(f(t + h)) - 2.0 * fv[i] + float(f(t - h))) / (h * h)
                         for i, t in enumerate(t_values)])
    kr, kp, density = _profile_curvatures(n, fv, fpv, fppv)
    return _orbit_samples(spec, "the profile", t_values, dt, kr, kp, density, minimal=False)


def _chart_operators(chart, points: np.ndarray, h: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape operators (N, n, n) in orthonormal tangent frames and area densities (N,).

    ``h`` is the step: a float, or an (N, 1) column of one step per point. The chart
    is called once per offset of the (2n^2 + 1)-point stencil, over all N points.
    """
    count, n = points.shape

    def at(offset) -> np.ndarray:
        x = np.asarray(chart(points + offset), dtype=float)
        if x.shape != (count, n + 1):
            raise BadParams(f"a chart must map (N, {n}) parameters to (N, {n + 1}) points; "
                            f"got shape {x.shape} for input shape {points.shape}")
        return x

    e = [h * unit for unit in np.eye(n)]
    x0, plus, minus = at(0.0), [at(ei) for ei in e], [at(-ei) for ei in e]
    jac = np.stack([(plus[i] - minus[i]) / (2.0 * h) for i in range(n)], axis=2)
    gram = np.swapaxes(jac, 1, 2) @ jac
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        for k in range(count):  # find the first point whose Gram matrix is not positive definite
            try:
                np.linalg.cholesky(gram[k])
            except np.linalg.LinAlgError:
                break
        raise DegenerateChart(f"chart Jacobian is rank deficient at {tuple(points[k].tolist())}") from exc
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    thin = pivots.min(axis=1) <= tolerance("chart_rank_tol") * pivots.max(axis=1)
    if thin.any():
        raise DegenerateChart("chart Jacobian is nearly rank deficient at "
                              f"{tuple(points[np.argmax(thin)].tolist())}")

    q, _ = np.linalg.qr(jac, mode="complete")
    normal = q[:, :, n]
    sign, _ = np.linalg.slogdet(np.concatenate([jac, normal[:, :, None]], axis=2))
    # det([J | normal]) < 0: the standard hyperspherical chart of the round sphere then
    # yields A = +I/r, matching the analytic builders; a reflected chart gives -A
    normal = -sign[:, None] * normal

    # projections onto the normal: the builtin sum adds ambient terms in a fixed order, point by point
    second = np.empty((count, n, n))
    for i in range(n):
        second[:, i, i] = sum(((plus[i] - 2.0 * x0 + minus[i]) / (h * h) * normal).T)
        for j in range(i + 1, n):
            ei, ej = e[i], e[j]
            dij = (at(ei + ej) - at(ei - ej) - at(ej - ei) + at(-ei - ej)) / (4.0 * h * h)
            second[:, i, j] = second[:, j, i] = sum((dij * normal).T)

    # orthonormal frame via g = L L^T: A = L^-1 II L^-T, then symmetrised once its asymmetry
    # is checked against a tolerance relative to max(1, max |A|)
    y = np.linalg.solve(chol, second)
    a_frame = np.swapaxes(np.linalg.solve(chol, np.swapaxes(y, 1, 2)), 1, 2)
    a_flip = np.swapaxes(a_frame, 1, 2)
    skew = (np.abs(a_frame - a_flip).max(axis=(1, 2))
            > 1e-9 * np.maximum(1.0, np.abs(a_frame).max(axis=(1, 2))))
    if skew.any():
        raise InvariantViolation("shape operator asymmetry exceeds tolerance at "
                                 f"{tuple(points[np.argmax(skew)].tolist())}")
    return 0.5 * (a_frame + a_flip), np.prod(pivots, axis=1)  # sqrt(det g)


def chart_shape_operator(chart, domain, grid=None, fd_step: float | None = None,
                         self_check: bool = True, params: dict | None = None) -> ShapeField:
    """Shape operators of a parametric immersion into flat (n+1)-space.

    ``chart`` maps an (N, n) array of parameter points to the (N, n + 1)
    array of their images (BadParams otherwise); ``domain`` is a list of
    (lo, hi) bounds per direction. First and second fundamental forms come
    from central differences with step ``fd_step``, one chart call over all
    points per stencil offset; the normal is the QR complement of the tangent
    space with a determinant-consistent sign. A step-halving self-consistency
    probe raises :class:`StepTooLarge` when the differences are unreliable.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in domain]
    dims = len(bounds)
    if any(not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo for lo, hi in bounds):
        raise BadParams("domain bounds must be finite and ordered")
    counts = _grid_counts(grid, (6,) * dims)
    span = max(hi - lo for lo, hi in bounds)
    h = fd_step if fd_step is not None else FD_STEP_FACTOR * max(1.0, span)
    _positive_finite("fd_step", h)
    spec = SurfaceSpec("Chart", dims, dict(params or {}, fd_step=h), counts)

    axes = [_midpoints(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
    cell = math.prod((hi - lo) / c for (lo, hi), c in zip(bounds, counts))
    points = _grid_points(axes)

    if self_check:  # the probes at step h and at h / 2 share one stencil pass
        probes = sorted({0, len(points) // 2, len(points) - 1})
        steps = np.repeat([h, h / 2.0], len(probes))[:, None]
        full, half = np.split(_chart_operators(chart, points[probes * 2], steps)[0], 2)
        diff = np.abs(full - half).max(axis=(1, 2))
        bad = diff > tolerance("fd_self_check_tol") * np.maximum(
            1.0, np.sqrt((full * full).sum(axis=(1, 2))))
        if bad.any():
            k = int(np.argmax(bad))
            raise StepTooLarge(
                f"fd_step {h:.3e} fails self-consistency at sample {probes[k]}: diff {diff[k]:.3e}")

    operators, density = _chart_operators(chart, points, h)
    return ShapeField(spec, points, operators, density * cell, minimal_claimed=False)


def _sphere_embed(angles: np.ndarray) -> np.ndarray:
    """Hyperspherical angles [..., n] to points [..., n + 1] of the unit n-sphere."""
    n = angles.shape[-1]
    x = np.empty(angles.shape[:-1] + (n + 1,))
    sin_prod = 1.0
    for d in range(n):
        x[..., d] = sin_prod * np.cos(angles[..., d])
        sin_prod = sin_prod * np.sin(angles[..., d])
    x[..., n] = sin_prod
    return x


def cylinder_chart(n: int, radius: float, height: float):
    """Chart of S^(n-1)(r) x [0, height]: n-1 sphere angles plus the axis."""

    def chart(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.concatenate([radius * _sphere_embed(u[..., : n - 1]), u[..., n - 1:]], axis=-1)

    domain = [(0.0, math.pi)] * (n - 2) + [(0.0, 2.0 * math.pi), (0.0, height)]
    return chart, domain


def ellipsoid_chart(semi_axes):
    """Chart of the ellipsoid sum (x_i / a_i)^2 = 1, on [..., n] arrays; dimension len(a) - 1."""
    axes = np.asarray(semi_axes, dtype=float)
    if not np.all((axes > 0) & (axes < math.inf)):
        raise BadParams(f"semi-axes must be positive and finite, got {semi_axes}")
    n = axes.shape[0] - 1

    def chart(u: np.ndarray) -> np.ndarray:
        return axes * _sphere_embed(np.asarray(u, dtype=float))

    domain = [(0.0, math.pi)] * (n - 1) + [(0.0, 2.0 * math.pi)]
    return chart, domain


def build_ellipsoid(semi_axes, grid=None, fd_step: float | None = None) -> ShapeField:
    """Generic strictly curved hypersurface: an ellipsoid sampled via its chart."""
    chart, domain = ellipsoid_chart(semi_axes)
    n = len(domain)
    if n < 4:
        raise BadDimension(f"need at least 5 semi-axes, got {len(list(semi_axes))}")
    return chart_shape_operator(chart, domain, grid=grid, fd_step=fd_step,
                                params={"semi_axes": [float(a) for a in semi_axes]})


# ---------------------------------------------------------------------------
# serialization

_CHUNK = 256  # samples per piece of text that SampleTable writes


def _json_texts(part: np.ndarray) -> np.ndarray:
    """The JSON text of each entry of ``part``, made once per distinct value (floats by bit
    pattern, so -0.0 keeps its sign): the repr of a Python float or int is what json writes."""
    keys = part.view(np.int64) if part.dtype.kind == "f" else part
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    render = repr if part.dtype.kind in "fiu" else json.dumps
    texts = [render(value) for value in part.ravel()[first].tolist()]
    return np.array(texts, dtype=object)[inverse].reshape(part.shape)


class SampleTable:
    """Columns of per-sample arrays (numbers, booleans or strings; trailing axes become nested
    lists) that ``_write_json`` writes as a list of one JSON object per sample."""

    def __init__(self, columns: dict) -> None:
        self.columns = {key: np.asarray(value) for key, value in sorted(columns.items())}
        self.count = len(next(iter(self.columns.values())))

    def nonfinite(self) -> str | None:
        """The first inf or NaN, by key then sample, as a message."""
        for key, column in self.columns.items():
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                i = int(np.argmin(np.isfinite(column).all(axis=tuple(range(1, column.ndim)))))
                return f"sample {i}: {key} {column[i].tolist()} is not JSON compliant"
        return None

    def pieces(self, indent: str):
        """The list's JSON text at ``indent``, ``_CHUNK`` samples a piece, each row filled into
        a %s template that json.dumps makes of a row of placeholders."""
        # "\0s", not "\0": numpy strips a trailing NUL from the fill value
        marks = {key: np.full(column.shape[1:], "\0s", dtype=object).tolist()
                 for key, column in self.columns.items()}
        row = json.dumps(marks, indent=2, sort_keys=True).replace("%", "%%").replace('"\\u0000s"', "%s")
        row = f"{indent}  " + row.replace("\n", f"\n{indent}  ")
        yield "[\n"
        for lo in range(0, self.count, _CHUNK):
            hi = min(lo + _CHUNK, self.count)
            values = np.concatenate([_json_texts(column[lo:hi].reshape(hi - lo, -1))
                                     for column in self.columns.values()], axis=1)
            yield (",\n" if lo else "") + ",\n".join([row] * (hi - lo)) % tuple(values.ravel().tolist())
        yield f"\n{indent}]"


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` as ``json.dump(payload, indent=2, sort_keys=True)`` does, plus a newline.

    A SampleTable anywhere in ``payload`` is streamed from its columns, so no
    per-sample object or whole text is built. An inf or NaN raises
    NonFiniteResult before anything is written; the text goes to ``path``
    through ``_write_text``.
    """
    tables = []

    def mark(value):
        if not isinstance(value, SampleTable):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        tables.append(value)
        return f"\0table{len(tables) - 1}\0"

    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=mark)
    except ValueError as exc:
        raise NonFiniteResult(f"{path} not written: {exc}") from exc
    for table in tables:
        if problem := table.nonfinite():
            raise NonFiniteResult(f"{path} not written: {problem}")
    parts = []
    for i, table in enumerate(tables):  # in text order, the order json.dumps met them
        head, text = text.split(f'"\\u0000table{i}\\u0000"', 1)
        line = head[head.rfind("\n") + 1:]
        parts += [[head], table.pieces(line[:len(line) - len(line.lstrip(" "))])]
    _write_text(path, chain(*parts, [f"{text}\n"]))


def _write_text(path, pieces) -> None:
    """Write text ``pieces`` to a temporary file, copied to ``path`` only once all are made."""
    with tempfile.TemporaryFile() as tmp:
        for piece in pieces:
            tmp.write(piece.encode())
        tmp.seek(0)
        with open(path, "wb") as fh:
            shutil.copyfileobj(tmp, fh)


def save_field(field_: ShapeField, path) -> None:
    _write_json(path, {
        "spec": dict(asdict(field_.spec), grid=list(field_.spec.grid)),
        "samples": SampleTable({"coords": field_.coords, "shape_operator": field_.operators,
                                "area_weight": field_.weights,
                                "umbilic_flag": umbilic_flags(field_.operators)}),
        "minimal_claimed": field_.minimal_claimed,
    })


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _numbers(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """``value`` as a float array if it is JSON numbers, not booleans, nested to ``shape``; else None."""
    try:
        array = np.array(value)
    except (TypeError, ValueError, OverflowError):  # ragged, or an integer beyond int64
        return None
    if array.dtype.kind not in "if" or array.shape != shape:
        return None
    items = [value]
    for _ in shape:
        items = chain.from_iterable(items)
    # numpy reads true and false among numbers as 1.0 and 0.0
    return array.astype(float) if set(map(type, items)) <= {int, float} else None


def _stacked(values: list, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The per-sample ``values`` as one (N, *shape) float array; SchemaError names the first bad one."""
    array = _numbers(values, (len(values),) + shape)
    if array is None:
        bad = next(i for i, value in enumerate(values) if _numbers(value, shape) is None)
        raise SchemaError(f"sample {bad}: {what}")
    return array


def field_from_dict(data: dict) -> ShapeField:
    """The ShapeField of a parsed field file; SchemaError on wrong keys, types or shapes."""
    _expect(isinstance(data, dict), "top level must be an object")
    for key in ("spec", "samples", "minimal_claimed"):
        _expect(key in data, f"missing top-level key {key!r}")
    _expect(type(data["minimal_claimed"]) is bool, "minimal_claimed must be true or false")
    raw_spec = data["spec"]
    _expect(isinstance(raw_spec, dict), "spec must be an object")
    for key in ("kind", "n", "params", "grid"):
        _expect(key in raw_spec, f"spec missing key {key!r}")
    # type() is int: a JSON integer, where isinstance would also let a bool through
    _expect(type(raw_spec["n"]) is int, "spec n must be an integer")
    _expect(isinstance(raw_spec["grid"], list) and all(type(g) is int for g in raw_spec["grid"]),
            "spec grid must be a list of integer counts")
    # earlier files carry the flat ambient space as this key; the toolkit models no other
    curvature = raw_spec.get("ambient_curvature", 0.0)
    _expect(type(curvature) in (int, float) and curvature == 0,
            "spec ambient_curvature must be 0.0 (flat ambient space) when present")
    try:
        spec = SurfaceSpec(
            kind=str(raw_spec["kind"]),
            n=raw_spec["n"],
            params=dict(raw_spec["params"]),
            grid=tuple(raw_spec["grid"]),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"spec: {exc}") from exc
    raw_samples = data["samples"]
    _expect(isinstance(raw_samples, list) and raw_samples, "samples must be a nonempty list")
    _expect(math.prod(spec.grid) == len(raw_samples),
            f"spec grid {list(spec.grid)} has {math.prod(spec.grid)} points, "
            f"but there are {len(raw_samples)} samples")
    keys = ("coords", "shape_operator", "area_weight", "umbilic_flag")
    required = set(keys)
    if not all(isinstance(raw, dict) and raw.keys() >= required for raw in raw_samples):
        i, raw = next((i, raw) for i, raw in enumerate(raw_samples)
                      if not (isinstance(raw, dict) and raw.keys() >= required))
        _expect(isinstance(raw, dict), f"sample {i} must be an object")
        raise SchemaError(f"sample {i} missing key {next(k for k in keys if k not in raw)!r}")
    coords, operators, weights, flags = ([raw[key] for raw in raw_samples] for key in keys)
    if not set(map(type, flags)) <= {bool}:
        bad = next(i for i, flag in enumerate(flags) if type(flag) is not bool)
        raise SchemaError(f"sample {bad}: umbilic_flag must be true or false")
    n, d = spec.n, len(spec.grid)
    field_ = ShapeField(
        spec,
        _stacked(coords, (d,), f"coords must be a list of {d} numbers, one per grid direction"),
        _stacked(operators, (n, n), f"shape_operator must be a list of {n} lists of {n} numbers"),
        _stacked(weights, (), "area_weight must be a number"),
        minimal_claimed=data["minimal_claimed"])
    wrong = umbilic_flags(field_.operators) != flags
    _expect(not wrong.any(), f"sample {int(np.argmax(wrong))}: umbilic_flag contradicts "
                             "its shape operator under the umbilic test")
    return field_


def ingest_field(path) -> ShapeField:
    """Load and validate a shape-field JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return field_from_dict(data)
