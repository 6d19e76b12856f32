"""Sampled hypersurfaces: shape operators plus quadrature weights.

Analytic families (sphere, cylinder, rotation hypersurfaces, the minimal
rotation profile), generic charts differentiated by central differences, and
a JSON round trip for externally supplied fields.

Rotation hypersurfaces are sampled on a (profile, orbit-angle) grid: the shape
operator is constant along the orbit spheres, so the remaining orbit
directions are integrated analytically into the area weight. Quadrature is
the tensor-product midpoint rule everywhere, which keeps weights positive.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field

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
from .spectral import SymMatrix, trace_free_project_batch

__all__ = [
    "SURFACE_KINDS",
    "SurfaceSpec",
    "SamplePoint",
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
    "sphere_chart",
    "cylinder_chart",
    "ellipsoid_chart",
    "build_ellipsoid",
    "field_to_dict",
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
    ambient_curvature: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SURFACE_KINDS:
            raise BadParams(f"unknown surface kind {self.kind!r}; valid: {SURFACE_KINDS}")
        if self.n < 4:
            raise BadDimension(f"hypersurface dimension must be >= 4, got {self.n}")
        if any(g < 2 for g in self.grid):
            raise BadParams(f"grid counts must be >= 2, got {self.grid}")
        if self.kind in ("Chart", "Catenoid", "RotationHypersurface") and self.ambient_curvature != 0.0:
            raise BadParams("constructed surfaces support only flat ambient space")


@dataclass(frozen=True)
class SamplePoint:
    """One sample: parameter coordinates, shape operator, quadrature weight."""

    coords: tuple[float, ...]
    shape_operator: SymMatrix
    area_weight: float
    umbilic_flag: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.area_weight < math.inf:
            raise InvariantViolation(f"area weight must be positive and finite, got {self.area_weight}")


@dataclass(frozen=True)
class ShapeField:
    """Finite sample set representing an immersed hypersurface patch."""

    spec: SurfaceSpec
    samples: tuple[SamplePoint, ...] = field(default_factory=tuple)
    minimal_claimed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise InvariantViolation("shape field must contain at least one sample")
        n = self.samples[0].shape_operator.n
        if self.spec.n != n:
            raise InvariantViolation(f"spec dimension {self.spec.n} != operator dimension {n}")
        for i, sp in enumerate(self.samples):
            if sp.shape_operator.n != n:
                raise InvariantViolation(f"sample {i}: dimension {sp.shape_operator.n} != {n}")
        if self.minimal_claimed:
            tol = tolerance("minimality_tol")
            for i, sp in enumerate(self.samples):
                residual = abs(sp.shape_operator.trace()) / (1.0 + sp.shape_operator.frobenius())
                if residual > tol:
                    raise InvariantViolation(
                        f"sample {i}: minimality residual {residual:.3e} exceeds {tol:.1e}")

    @property
    def n(self) -> int:
        return self.samples[0].shape_operator.n


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


def _grid_counts(grid, directions: int, default: int) -> tuple[int, ...]:
    # broadcast the last entry when fewer counts than directions are given
    if grid is None:
        counts = [default] * directions
    else:
        counts = [int(g) for g in (grid if hasattr(grid, "__len__") else [grid])]
        if not counts:
            raise BadParams("grid must contain at least one count")
        while len(counts) < directions:
            counts.append(counts[-1])
        counts = counts[:directions]
    return tuple(counts)


def build_sphere(n: int, radius: float, grid=None) -> ShapeField:
    """Round n-sphere of the given radius; every point is umbilic with A = I / r."""
    if radius <= 0:
        raise BadParams(f"radius must be positive, got {radius}")
    counts = _grid_counts(grid, n, 8)
    spec = SurfaceSpec("Sphere", n, {"radius": radius}, counts)
    axes = [_midpoints(0.0, math.pi, counts[d]) for d in range(n - 1)]
    axes.append(_midpoints(0.0, 2.0 * math.pi, counts[n - 1]))
    cell = math.prod((math.pi if d < n - 1 else 2.0 * math.pi) / counts[d] for d in range(n))
    operator = SymMatrix(np.eye(n) / radius)
    rn = radius ** n
    samples = []
    for angles in itertools.product(*axes):
        density = 1.0
        for d in range(n - 1):
            density *= math.sin(angles[d]) ** (n - 1 - d)
        samples.append(SamplePoint(tuple(float(x) for x in angles), operator,
                                   rn * density * cell, True))
    return ShapeField(spec, tuple(samples), minimal_claimed=False)


def _orbit_samples(n: int, spec: SurfaceSpec, t_values: np.ndarray, dt: float,
                   kr: np.ndarray, kp: np.ndarray, density: np.ndarray,
                   m_theta: int, minimal: bool) -> ShapeField:
    """Assemble a rotation-hypersurface field on a (profile, orbit angle) grid.

    ``density`` is the profile-direction area density f^(n-1) sqrt(1 + f'^2);
    the orbit sphere S^(n-1) contributes vol(S^(n-1)) / (2 pi) per unit angle.
    """
    thetas = _midpoints(0.0, 2.0 * math.pi, m_theta)
    d_theta = 2.0 * math.pi / m_theta
    orbit_factor = unit_sphere_volume(n - 1) / (2.0 * math.pi)
    diagonals = np.stack([np.diag([k] * (n - 1) + [p]) for k, p in zip(kr, kp)])
    samples = []
    for i, (t, umb) in enumerate(zip(t_values, umbilic_flags(diagonals).tolist())):
        operator = SymMatrix(diagonals[i])
        weight = density[i] * dt * orbit_factor * d_theta
        for theta in thetas:
            samples.append(SamplePoint((float(t), float(theta)), operator, weight, umb))
    return ShapeField(spec, tuple(samples), minimal_claimed=minimal)


def build_cylinder(n: int, radius: float, height: float, grid=None) -> ShapeField:
    """Cylinder S^(n-1)(r) x [0, height]: principal curvatures (1/r, ..., 1/r, 0)."""
    if radius <= 0 or height <= 0:
        raise BadParams(f"radius and height must be positive, got {radius}, {height}")
    m_z, m_theta = (16, 8) if grid is None else _grid_counts(grid, 2, 16)
    spec = SurfaceSpec("Cylinder", n, {"radius": radius, "height": height}, (m_z, m_theta))
    z = _midpoints(0.0, height, m_z)
    dz = height / m_z
    kr = np.full(m_z, 1.0 / radius)
    kp = np.zeros(m_z)
    density = np.full(m_z, radius ** (n - 1))
    return _orbit_samples(n, spec, z, dz, kr, kp, density, m_theta, minimal=False)


def _minimal_profile_rhs(n: int, f: float, fp: float) -> tuple[float, float]:
    return fp, (n - 1) * (1.0 + fp * fp) / f


def _rk4_step(n: int, y0: float, y1: float, h: float) -> tuple[float, float]:
    """One classical RK4 step of the profile system (f, f')."""
    k1a, k1b = _minimal_profile_rhs(n, y0, y1)
    k2a, k2b = _minimal_profile_rhs(n, y0 + 0.5 * h * k1a, y1 + 0.5 * h * k1b)
    k3a, k3b = _minimal_profile_rhs(n, y0 + 0.5 * h * k2a, y1 + 0.5 * h * k2b)
    k4a, k4b = _minimal_profile_rhs(n, y0 + h * k3a, y1 + h * k3b)
    return (y0 + h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0,
            y1 + h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0)


def _integrate_profile(n: int, t_max: float, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 for f'' f = (n-1)(1 + f'^2), f(0) = 1, f'(0) = 0 on [0, t_max]."""
    h = t_max / steps
    t = np.linspace(0.0, t_max, steps + 1)
    f = np.empty(steps + 1)
    fp = np.empty(steps + 1)
    y0, y1 = 1.0, 0.0
    f[0], fp[0] = y0, y1
    for i in range(steps):
        y0, y1 = _rk4_step(n, y0, y1, h)
        f[i + 1], fp[i + 1] = y0, y1
    return t, f, fp


def _default_t_max(n: int, f_cap: float) -> float:
    # coarse scan until the profile reaches f_cap; deterministic for fixed inputs
    h = 1e-3
    y0, y1 = 1.0, 0.0
    t = 0.0
    for _ in range(200000):
        if y0 >= f_cap:
            break
        y0, y1 = _rk4_step(n, y0, y1, h)
        t += h
    return 0.9 * t


def catenoid_profile(n: int, t_max: float, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimal rotation profile on [0, t_max]: nodes, f, and f'."""
    if n < 4:
        raise BadDimension(f"dimension must be >= 4, got {n}")
    if t_max <= 0 or steps < 1:
        raise BadParams("t_max must be positive and steps >= 1")
    return _integrate_profile(n, t_max, steps)


def _catenoid_curvatures(n: int, f: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal curvatures of the minimal profile.

    kappa_rot = 1 / (f sqrt(1 + f'^2)); the profile curvature uses
    f'' = (n-1) f^(2n-3) from the conserved relation 1 + f'^2 = f^(2(n-1)),
    so the trace residual stays sensitive to integration error instead of
    cancelling identically.
    """
    u = 1.0 + fp * fp
    kr = 1.0 / (f * np.sqrt(u))
    fpp = (n - 1) * f ** (2 * n - 3)
    kp = -fpp / u ** 1.5
    return kr, kp


def minimality_residual(n: int, f: np.ndarray, fp: np.ndarray) -> float:
    """max |tr A| / (1 + |A|) over the profile nodes."""
    kr, kp = _catenoid_curvatures(n, f, fp)
    trace = (n - 1) * kr + kp
    frob = np.sqrt((n - 1) * kr * kr + kp * kp)
    return float(np.max(np.abs(trace) / (1.0 + frob)))


def build_catenoid(n: int, grid=None, profile_tol: float | None = None,
                   t_max: float | None = None, ode_substeps: int | None = None,
                   f_cap: float = 2.0) -> ShapeField:
    """Minimal rotation hypersurface patch from the profile equation.

    Solves f'' f = (n-1)(1 + f'^2) with f(0) = 1, f'(0) = 0 by fixed-step RK4
    over [-t_max, t_max] (mirrored by evenness) and assembles principal
    curvatures (kappa_rot x (n-1), kappa_profile). The integration step is
    refined until the minimality residual meets ``profile_tol`` unless
    ``ode_substeps`` pins it, in which case failure to meet the tolerance
    raises :class:`ODEStepFailure`.
    """
    tol = tolerance("minimality_tol", profile_tol)
    m_t, m_theta = (48, 8) if grid is None else _grid_counts(grid, 2, 48)
    if t_max is None:
        t_max = _default_t_max(n, f_cap)
    if t_max <= 0:
        raise BadParams(f"t_max must be positive, got {t_max}")
    spec = SurfaceSpec("Catenoid", n, {"t_max": t_max, "f_cap": f_cap}, (m_t, m_theta))

    substeps = 32 if ode_substeps is None else int(ode_substeps)
    if substeps < 1:
        raise BadParams("ode_substeps must be >= 1")
    attempts = 6 if ode_substeps is None else 1
    residual = math.inf
    for _ in range(attempts):
        steps = m_t * substeps
        _, f, fp = _integrate_profile(n, t_max, steps)
        residual = minimality_residual(n, f, fp)
        if residual <= tol:
            break
        substeps *= 2
    if residual > tol:
        raise ODEStepFailure(
            f"minimality residual {residual:.3e} above {tol:.1e}; refine ode_substeps or shrink t_max")

    # midpoints of [-t_max, t_max] land on ODE nodes: |2i + 1 - m_t| * substeps
    dt = 2.0 * t_max / m_t
    offset = 2 * np.arange(m_t) + 1 - m_t
    node = np.abs(offset) * substeps
    t_values = t_max * offset / m_t
    # f is even and f' odd; at offset 0, f'(0) = 0 exactly
    f_mid, fp_mid = f[node], np.sign(offset) * fp[node]
    kr, kp = _catenoid_curvatures(n, f_mid, fp_mid)
    density = f_mid ** (n - 1) * np.sqrt(1.0 + fp_mid ** 2)
    return _orbit_samples(n, spec, t_values, dt, kr, kp, density, m_theta, minimal=True)


def build_rotation_hypersurface(n: int, f, grid=None, t_range: tuple[float, float] = (-1.0, 1.0),
                                fp=None, fpp=None, fd_step: float | None = None) -> ShapeField:
    """Rotation hypersurface with profile f > 0 over ``t_range``.

    Derivatives are taken from ``fp`` / ``fpp`` callables when given, else by
    central differences on ``f``. Principal curvatures are
    kappa_rot = 1 / (f sqrt(1 + f'^2)) with multiplicity n - 1 and
    kappa_profile = -f'' / (1 + f'^2)^(3/2).
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BadParams(f"invalid t_range {t_range}")
    m_t, m_theta = (48, 8) if grid is None else _grid_counts(grid, 2, 48)
    spec = SurfaceSpec("RotationHypersurface", n, {"t_range": [lo, hi]}, (m_t, m_theta))
    t_values = _midpoints(lo, hi, m_t)
    dt = (hi - lo) / m_t
    fv = np.array([float(f(t)) for t in t_values])
    if np.any(fv <= 0.0):
        bad = int(np.argmax(fv <= 0.0))
        raise BadProfile(f"profile must be positive; f({t_values[bad]:.6g}) = {fv[bad]:.6g}")
    h = fd_step if fd_step is not None else FD_STEP_FACTOR * max(1.0, hi - lo)
    if fp is not None:
        fpv = np.array([float(fp(t)) for t in t_values])
    else:
        fpv = np.array([(float(f(t + h)) - float(f(t - h))) / (2.0 * h) for t in t_values])
    if fpp is not None:
        fppv = np.array([float(fpp(t)) for t in t_values])
    else:
        fppv = np.array([(float(f(t + h)) - 2.0 * fv[i] + float(f(t - h))) / (h * h)
                         for i, t in enumerate(t_values)])
    u = 1.0 + fpv * fpv
    kr = 1.0 / (fv * np.sqrt(u))
    kp = -fppv / u ** 1.5
    density = fv ** (n - 1) * np.sqrt(u)
    return _orbit_samples(n, spec, t_values, dt, kr, kp, density, m_theta, minimal=False)


def _chart_operators(chart, points: np.ndarray, h: float | np.ndarray,
                     orientation: float) -> tuple[np.ndarray, np.ndarray]:
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
    # det([J | normal]) < 0 by default: the standard hyperspherical chart of
    # the round sphere then yields A = +I/r, matching the analytic builders
    normal = -orientation * sign[:, None] * normal

    # projections onto the normal: the builtin sum adds ambient terms in a fixed order, point by point
    second = np.empty((count, n, n))
    for i in range(n):
        second[:, i, i] = sum(((plus[i] - 2.0 * x0 + minus[i]) / (h * h) * normal).T)
        for j in range(i + 1, n):
            ei, ej = e[i], e[j]
            dij = (at(ei + ej) - at(ei - ej) - at(ej - ei) + at(-ei - ej)) / (4.0 * h * h)
            second[:, i, j] = second[:, j, i] = sum((dij * normal).T)

    # orthonormal frame via g = L L^T: A = L^-1 II L^-T, symmetrised as SymMatrix.from_array does
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
                         orientation: float = 1.0, self_check: bool = True,
                         n: int | None = None, params: dict | None = None,
                         kind: str = "Chart") -> ShapeField:
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
    if n is not None and n != dims:
        raise BadParams(f"domain has {dims} directions, expected {n}")
    if any(not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo for lo, hi in bounds):
        raise BadParams("domain bounds must be finite and ordered")
    counts = _grid_counts(grid, dims, 6)
    span = max(hi - lo for lo, hi in bounds)
    h = fd_step if fd_step is not None else FD_STEP_FACTOR * max(1.0, span)
    spec = SurfaceSpec(kind, dims, dict(params or {}, fd_step=h), counts)

    axes = [_midpoints(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
    cell = math.prod((hi - lo) / c for (lo, hi), c in zip(bounds, counts))
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dims)

    if self_check:  # the probes at step h and at h / 2 share one stencil pass
        probes = sorted({0, len(points) // 2, len(points) - 1})
        steps = np.repeat([h, h / 2.0], len(probes))[:, None]
        full, half = np.split(_chart_operators(chart, points[probes * 2], steps, orientation)[0], 2)
        diff = np.abs(full - half).max(axis=(1, 2))
        bad = diff > tolerance("fd_self_check_tol") * np.maximum(
            1.0, np.sqrt((full * full).sum(axis=(1, 2))))
        if bad.any():
            k = int(np.argmax(bad))
            raise StepTooLarge(
                f"fd_step {h:.3e} fails self-consistency at sample {probes[k]}: diff {diff[k]:.3e}")

    operators, density = _chart_operators(chart, points, h, orientation)
    samples = [SamplePoint(tuple(p), SymMatrix(a), w, umb)
               for p, a, w, umb in zip(points.tolist(), operators, (density * cell).tolist(),
                                       umbilic_flags(operators).tolist())]
    return ShapeField(spec, tuple(samples), minimal_claimed=False)


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


def sphere_chart(n: int, radius: float):
    """Hyperspherical chart of the round n-sphere, on [..., n] arrays, and its parameter domain."""

    def chart(u: np.ndarray) -> np.ndarray:
        return radius * _sphere_embed(np.asarray(u, dtype=float))

    domain = [(0.0, math.pi)] * (n - 1) + [(0.0, 2.0 * math.pi)]
    return chart, domain


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
    if np.any(axes <= 0):
        raise BadParams(f"semi-axes must be positive, got {semi_axes}")
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

def field_to_dict(field_: ShapeField) -> dict:
    return {
        "spec": {
            "kind": field_.spec.kind,
            "n": field_.spec.n,
            "params": field_.spec.params,
            "grid": list(field_.spec.grid),
            "ambient_curvature": field_.spec.ambient_curvature,
        },
        "samples": [
            {
                "coords": list(sp.coords),
                "shape_operator": sp.shape_operator.entries.tolist(),
                "area_weight": sp.area_weight,
                "umbilic_flag": sp.umbilic_flag,
            }
            for sp in field_.samples
        ],
        "minimal_claimed": field_.minimal_claimed,
    }


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON; an inf or NaN raises NonFiniteResult and leaves ``path`` untouched.

    The text is streamed into an anonymous temporary file (as one string it
    costs megabytes on large fields) and copied to ``path`` once complete, so
    ``path`` is opened only for a finite payload.
    """
    with tempfile.TemporaryFile() as tmp:
        # write-only text layer: json.dump's many small writes are slow on a read-write one
        with open(tmp.fileno(), "w", encoding="utf-8", closefd=False) as text:
            try:
                json.dump(payload, text, indent=2, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                raise NonFiniteResult(f"{path} not written: {exc}") from exc
            text.write("\n")
        tmp.seek(0)
        with open(path, "wb") as fh:
            shutil.copyfileobj(tmp, fh)


def save_field(field_: ShapeField, path) -> None:
    _write_json(path, field_to_dict(field_))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def field_from_dict(data: dict) -> ShapeField:
    _expect(isinstance(data, dict), "top level must be an object")
    for key in ("spec", "samples", "minimal_claimed"):
        _expect(key in data, f"missing top-level key {key!r}")
    raw_spec = data["spec"]
    _expect(isinstance(raw_spec, dict), "spec must be an object")
    for key in ("kind", "n", "params", "grid"):
        _expect(key in raw_spec, f"spec missing key {key!r}")
    _expect(isinstance(raw_spec["grid"], list), "spec grid must be a list of counts")
    try:
        spec = SurfaceSpec(
            kind=str(raw_spec["kind"]),
            n=int(raw_spec["n"]),
            params=dict(raw_spec["params"]),
            grid=tuple(int(g) for g in raw_spec["grid"]),
            ambient_curvature=float(raw_spec.get("ambient_curvature", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"spec: {exc}") from exc
    raw_samples = data["samples"]
    _expect(isinstance(raw_samples, list) and raw_samples, "samples must be a nonempty list")
    _expect(math.prod(spec.grid) == len(raw_samples),
            f"spec grid {list(spec.grid)} has {math.prod(spec.grid)} points, "
            f"but there are {len(raw_samples)} samples")
    samples = []
    for i, raw in enumerate(raw_samples):
        _expect(isinstance(raw, dict), f"sample {i} must be an object")
        for key in ("coords", "shape_operator", "area_weight", "umbilic_flag"):
            _expect(key in raw, f"sample {i} missing key {key!r}")
        _expect(isinstance(raw["coords"], list), f"sample {i}: coords must be a list")
        try:
            entries = np.asarray(raw["shape_operator"], dtype=float)
            coords = tuple(float(c) for c in raw["coords"])
            weight = float(raw["area_weight"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"sample {i}: {exc}") from exc
        try:
            samples.append(SamplePoint(coords, SymMatrix(entries), weight,
                                       bool(raw["umbilic_flag"])))
        except (InvariantViolation, BadDimension) as exc:
            raise InvariantViolation(f"sample {i}: {exc}") from exc
    field_ = ShapeField(spec, tuple(samples), minimal_claimed=bool(data["minimal_claimed"]))
    wrong = (umbilic_flags(np.stack([sp.shape_operator.entries for sp in samples]))
             != [sp.umbilic_flag for sp in samples])
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
