"""Sampled hypersurfaces: shape operators plus quadrature weights.

Analytic families (sphere, cylinder, rotation hypersurfaces), the catenoid (from its
profile's first integral) and the ellipsoid in closed form, charts differentiated by
central differences (the ellipsoid's chart is its oracle), and the constant conformal
rescaling of a field. The field record and its files live in ``fields``.

Rotation hypersurfaces are sampled on a (profile, orbit-angle) grid. One function
gives each profile's curvatures and density; the shape operator is constant along
the orbit spheres, whose directions are integrated into the area weight. Quadrature
is the tensor-product midpoint rule; a weight out of range names its parameters.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .defaults import FD_STEP_FACTOR, tolerance
from .errors import (
    BadDimension,
    BadParams,
    BadProfile,
    DegenerateChart,
    InvariantViolation,
    StepTooLarge,
)
from .fields import ShapeField, SurfaceSpec, grid_points

__all__ = [
    "unit_sphere_volume",
    "build_sphere",
    "build_cylinder",
    "build_catenoid",
    "build_rotation_hypersurface",
    "chart_shape_operator",
    "ellipsoid_chart",
    "build_ellipsoid",
    "conformal_rescale",
]


def unit_sphere_volume(m: int) -> float:
    """Surface volume of the unit m-sphere in (m+1)-space."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def _midpoints(lo: float, hi: float, count: int) -> np.ndarray:
    step = (hi - lo) / count
    return lo + (np.arange(count) + 0.5) * step


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


def _grid_counts(grid, defaults: tuple[int, ...]) -> tuple[int, ...]:
    # ``defaults`` when no grid is given; a shorter grid is stretched by its last count
    if grid is None:
        return defaults
    counts = [int(g) for g in grid]
    if not counts:
        raise BadParams("grid must contain at least one count")
    if len(counts) > len(defaults):
        raise BadParams(f"grid {counts} has {len(counts)} counts, "
                        f"but the surface has {len(defaults)} directions")
    return tuple(counts + counts[-1:] * (len(defaults) - len(counts)))


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


def conformal_rescale(field: ShapeField, t: float) -> ShapeField:
    """Field of the same immersion with the ambient metric scaled by t^2.

    Shape operators map A -> A / t and area weights map w -> t^n w, so the
    conformal energy is unchanged while the plain energy picks up t^(n-4).
    """
    weights = _area_weights(f"t {t}", field.weights, _weight_scale("t", t, field.spec.n))
    return ShapeField(field.spec, field.coords, field.operators / t, weights,
                      minimal_claimed=field.minimal_claimed)


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
    return ShapeField(spec, grid_points(axes), operators, weights, minimal_claimed=False)


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
    return ShapeField(spec, grid_points([t_values, thetas]),
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


def _profile_curvatures(n: int, f: np.ndarray, fp: np.ndarray, fpp: np.ndarray):
    """Curvatures and area density of a rotation profile f with derivatives f', f'': kappa_rot =
    1 / (f sqrt(1 + f'^2)) of multiplicity n - 1, kappa_profile = -f'' / (1 + f'^2)^(3/2) and the
    density f^(n-1) sqrt(1 + f'^2); past the double range they are inf, NaN or 0, with no warning."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        u = 1.0 + fp * fp
        return 1.0 / (f * np.sqrt(u)), -fpp / u ** 1.5, f ** (n - 1) * np.sqrt(u)


_F_CAP = 2.0  # the default catenoid t_max is 0.9 times the t where its profile reaches this radius


@functools.cache
def _gauss_legendre(count: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the count-point Gauss-Legendre rule on [0, 1], built on first use by
    Newton's method on the three-term recurrence of P_count; its last passes move a node by an ulp."""
    x = np.array([math.cos(math.pi * (k + 0.75) / (count + 0.5)) for k in range(count)])
    for _ in range(6):
        p0, p1 = np.ones(count), x
        for k in range(2, count + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = count * (x * p1 - p0) / (x * x - 1.0)  # P'_count(x)
        x = x - p1 / dp
    nodes, weights = (1.0 + x) / 2.0, 1.0 / ((1.0 - x * x) * dp * dp)
    nodes.flags.writeable = weights.flags.writeable = False  # every caller shares this one copy
    return nodes, weights


def _profile_end(m: int) -> float:
    """t_end = B(1/2 - 1/(2m), 1/2) / (2m), where the catenoid profile of n = m + 1 blows up."""
    a = 0.5 - 0.5 / m
    return math.exp(math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)) / (2 * m)


def _profile_time(m: int, phi: np.ndarray) -> np.ndarray:
    """t(phi) = (1/m) int_0^phi cos(psi)^(-1/m) dpsi for angles 0 <= phi <= pi/2, by Gauss-Legendre.

    Up to pi/3 the rule runs on [0, phi]. Past it, t = t_end - (1/m) int_0^V sin(v)^(-1/m) dv with
    V = pi/2 - phi, and v = V x^p, p = m/(m-1), turns the integrand into p V^(1-1/m) (v / sin v)^(1/m).
    """
    x, w = _gauss_legendre()
    near = phi / m * (np.cos(phi[:, None] * x) ** (-1.0 / m) @ w)
    p, big_v = m / (m - 1.0), math.pi / 2 - phi
    # sinc(v / pi) = sin(v) / v, and 1 at v = 0
    ratio = np.sinc(big_v[:, None] * x ** p / math.pi) ** (-1.0 / m) @ w
    far = _profile_end(m) - p / m * big_v ** (1.0 - 1.0 / m) * ratio
    return np.where(phi <= math.pi / 3, near, far)


def _profile_angle(m: int, t: np.ndarray) -> np.ndarray:
    """The angles phi with t(phi) = t, for 0 <= t < t_end, by Newton's method.

    t is convex with t' = cos(phi)^(-1/m) / m >= 1/m, so phi <= m t: from min(m t, pi/2) the
    iterates fall monotonically onto the root. They stop when no angle falls any further.
    """
    phi = np.minimum(m * t, math.pi / 2)
    while True:
        new = phi - (_profile_time(m, phi) - t) * m * np.cos(phi) ** (1.0 / m)
        if not (new < phi).any():
            return phi
        phi = np.where(new < phi, new, phi)


def build_catenoid(n: int, grid=None, t_max: float | None = None) -> ShapeField:
    """Minimal rotation hypersurface patch over [-t_max, t_max], from the first integral
    1 + f'^2 = f^(2m), m = n - 1, of f'' f = m (1 + f'^2), f(0) = 1: f' = tan(phi) and
    f = cos(phi)^(-1/m) at t(phi). A t_max at or past t_end, where f blows up, is BadParams. Each
    node's angle is solved on |t|, so the nodes at +-t carry bitwise-equal operators."""
    if n < 4:
        raise BadDimension(f"dimension must be >= 4, got {n}")
    m = n - 1
    m_t, m_theta = _grid_counts(grid, (48, 8))
    t_end = _profile_end(m)
    if t_max is None:
        t_max = 0.9 * float(_profile_time(m, np.array([math.acos(_F_CAP ** -m)]))[0])
    if not 0 < t_max < t_end:  # NaN fails too
        raise BadParams(f"t_max must be positive and finite and below t_end = {t_end!r}, got {t_max}")
    spec = SurfaceSpec("Catenoid", n, {"t_max": t_max, "f_cap": _F_CAP}, (m_t, m_theta))

    offset = 2 * np.arange(m_t) + 1 - m_t
    t_values = t_max * offset / m_t
    # the angles of |t| at offsets >= 0; the profile is even, with f' = tan(phi) odd
    phi = _profile_angle(m, t_values[m_t // 2:])[np.abs(offset) // 2]
    cos = np.cos(phi)
    f = cos ** (-1.0 / m)
    # f'' = m f^(2m-1) from the first integral
    kr, kp, density = _profile_curvatures(n, f, np.sign(offset) * np.sin(phi) / cos,
                                          m * f ** (2 * m - 1))
    return _orbit_samples(spec, f"t_max {t_max}", t_values, 2.0 * t_max / m_t, kr, kp, density,
                          minimal=True)


def build_rotation_hypersurface(n: int, f, grid=None, t_range: tuple[float, float] = (-1.0, 1.0),
                                *, fp, fpp) -> ShapeField:
    """Rotation hypersurface with profile f > 0 over ``t_range``, given f and its derivatives
    f', f'' as callables. Principal curvatures are kappa_rot = 1 / (f sqrt(1 + f'^2)) with
    multiplicity n - 1 and kappa_profile = -f'' / (1 + f'^2)^(3/2).
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
    fpv, fppv = (np.array([float(g(t)) for t in t_values]) for g in (fp, fpp))
    kr, kp, density = _profile_curvatures(n, fv, fpv, fppv)
    return _orbit_samples(spec, "the profile", t_values, dt, kr, kp, density, minimal=False)


def _chart_grid(bounds, spec: SurfaceSpec) -> tuple[np.ndarray, float]:
    """Midpoints (N, n) and cell volume of a chart domain on the grid of ``spec``, whose
    construction has checked its counts."""
    axes = [_midpoints(lo, hi, c) for (lo, hi), c in zip(bounds, spec.grid)]
    return grid_points(axes), math.prod((hi - lo) / c for (lo, hi), c in zip(bounds, spec.grid))


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
    q, _ = np.linalg.qr(jac, mode="complete")
    normal = q[:, :, n]
    sign, _ = np.linalg.slogdet(np.concatenate([normal[:, :, None], jac], axis=2))
    # det([normal | J]) < 0: the standard hyperspherical chart of the round n-sphere then yields
    # A = +I/r for every n, as the analytic builders do; a reflected chart, -A
    normal = -sign[:, None] * normal

    # projections onto the normal: the builtin sum adds ambient terms in a fixed order, point by point
    second = np.empty((count, n, n))
    for i in range(n):
        second[:, i, i] = sum(((plus[i] - 2.0 * x0 + minus[i]) / (h * h) * normal).T)
        for j in range(i + 1, n):
            ei, ej = e[i], e[j]
            dij = (at(ei + ej) - at(ei - ej) - at(ej - ei) + at(-ei - ej)) / (4.0 * h * h)
            second[:, i, j] = second[:, j, i] = sum((dij * normal).T)
    return _frame_operators(np.swapaxes(jac, 1, 2) @ jac, second,
                            lambda k: f"at {tuple(points[k].tolist())}")


def _frame_operators(gram: np.ndarray, second: np.ndarray, where) -> tuple[np.ndarray, np.ndarray]:
    """Shape operators (N, n, n) in orthonormal tangent frames and area densities sqrt(det g) (N,)
    from the first and second fundamental forms (N, n, n); ``where(k)`` names sample k in a
    DegenerateChart (a Cholesky pivot ratio at most chart_rank_tol) or an InvariantViolation."""
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        for k in range(len(gram)):  # find the first point whose Gram matrix is not positive definite
            try:
                np.linalg.cholesky(gram[k])
            except np.linalg.LinAlgError:
                break
        raise DegenerateChart(f"chart Jacobian is rank deficient {where(k)}") from exc
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    thin = pivots.min(axis=1) <= tolerance("chart_rank_tol") * pivots.max(axis=1)
    if thin.any():
        raise DegenerateChart(f"chart Jacobian is nearly rank deficient {where(np.argmax(thin))}")

    # orthonormal frame via g = L L^T: A = L^-1 II L^-T, then symmetrised once its asymmetry
    # is checked against a tolerance relative to max(1, max |A|)
    y = np.linalg.solve(chol, second)
    a_frame = np.swapaxes(np.linalg.solve(chol, np.swapaxes(y, 1, 2)), 1, 2)
    a_flip = np.swapaxes(a_frame, 1, 2)
    skew = (np.abs(a_frame - a_flip).max(axis=(1, 2))
            > 1e-9 * np.maximum(1.0, np.abs(a_frame).max(axis=(1, 2))))
    if skew.any():
        raise InvariantViolation(f"shape operator asymmetry exceeds tolerance {where(np.argmax(skew))}")
    with np.errstate(over="ignore", under="ignore"):  # a weight out of range is for the caller to name
        return 0.5 * (a_frame + a_flip), np.prod(pivots, axis=1)


def chart_shape_operator(chart, domain, grid=None, fd_step: float | None = None) -> ShapeField:
    """Shape operators of a parametric immersion into flat (n+1)-space.

    ``chart`` maps an (N, n) array of parameter points to the (N, n + 1)
    array of their images (BadParams otherwise); ``domain`` is a list of
    (lo, hi) bounds per direction. First and second fundamental forms come
    from central differences with step ``fd_step``, one chart call per stencil
    offset over all points and the self-check probes; the normal is the QR
    complement of the tangent space with a determinant-consistent sign. A
    step-halving self-consistency probe raises :class:`StepTooLarge` when the
    differences are unreliable.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in domain]
    dims = len(bounds)
    if any(not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo for lo, hi in bounds):
        raise BadParams("domain bounds must be finite and ordered")
    span = max(hi - lo for lo, hi in bounds)
    h = fd_step if fd_step is not None else FD_STEP_FACTOR * max(1.0, span)
    _positive_finite("fd_step", h)
    spec = SurfaceSpec("Chart", dims, {"fd_step": h}, _grid_counts(grid, (6,) * dims))
    points, cell = _chart_grid(bounds, spec)

    # one stencil pass: every point at step h, then the self-check probes again at h / 2
    count = len(points)
    probes = sorted({0, count // 2, count - 1})
    steps = np.repeat([h, h / 2.0], [count, len(probes)])[:, None]
    operators, density = _chart_operators(chart, np.concatenate([points, points[probes]]), steps)
    full, half = operators[probes], operators[count:]
    diff = np.abs(full - half).max(axis=(1, 2))
    bad = diff > tolerance("fd_self_check_tol") * np.maximum(
        1.0, np.sqrt((full * full).sum(axis=(1, 2))))
    if bad.any():
        k = int(np.argmax(bad))
        raise StepTooLarge(
            f"fd_step {h:.3e} fails self-consistency at sample {probes[k]}: diff {diff[k]:.3e}")
    return ShapeField(spec, points, operators[:count], density[:count] * cell,
                      minimal_claimed=False)


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


def _sphere_jacobian(angles: np.ndarray) -> np.ndarray:
    """Derivatives (N, n + 1, n) of ``_sphere_embed`` at (N, n) angles, in one pass over them."""
    count, n = angles.shape
    cos, sin = np.cos(angles), np.sin(angles)
    jac = np.zeros((count, n + 1, n))
    # the product of the sines before angle d, and its derivative in each of those angles
    sin_prod, d_prod = np.ones(count), np.zeros((count, n))
    for d in range(n):  # x_d = sin_prod * cos(u_d)
        jac[:, d, :d] = d_prod[:, :d] * cos[:, d, None]
        jac[:, d, d] = -sin_prod * sin[:, d]
        d_prod[:, :d] *= sin[:, d, None]
        d_prod[:, d] = sin_prod * cos[:, d]
        sin_prod = sin_prod * sin[:, d]
    jac[:, n] = d_prod  # x_n = sin_prod
    return jac


def ellipsoid_chart(semi_axes):
    """Chart of the ellipsoid sum (x_i / a_i)^2 = 1, on [..., n] arrays; dimension len(a) - 1."""
    axes = np.asarray(semi_axes, dtype=float)
    if not np.all((axes > 0) & (axes < math.inf)):
        raise BadParams(f"semi-axes must be positive and finite, got {semi_axes}")
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore", under="ignore"):
        squares = axes * axes
        bad = (squares < tiny) | (np.cumsum(squares) == math.inf)
    if bad.any():
        i = int(np.argmax(bad))
        how = "underflows" if squares[i] < tiny else "overflows"
        raise BadParams(f"semi-axis {i} ({axes[i].item()!r}) {how} the chart's Gram product, "
                        "which sums the squared semi-axes")
    n = axes.shape[0] - 1

    def chart(u: np.ndarray) -> np.ndarray:
        return axes * _sphere_embed(np.asarray(u, dtype=float))

    domain = [(0.0, math.pi)] * (n - 1) + [(0.0, 2.0 * math.pi)]
    return chart, domain


def build_ellipsoid(semi_axes, grid=None) -> ShapeField:
    """Generic strictly curved hypersurface: the ellipsoid sum (x_i / a_i)^2 = 1, in closed form.

    On ``ellipsoid_chart``'s x = D w(u), D = diag(a): g = dw^T D^2 dw and the inward second
    fundamental form h = dw^T dw / |D^-1 w|. An axis ratio >= 1 / chart_rank_tol (BadParams) or a
    pivot ratio of g <= chart_rank_tol (DegenerateChart) is refused naming the semi-axes.
    """
    _, domain = ellipsoid_chart(semi_axes)
    n = len(domain)
    if n < 4:
        raise BadDimension(f"need at least 5 semi-axes, got {len(list(semi_axes))}")
    axes = [float(a) for a in semi_axes]
    ratio, tol = max(axes) / min(axes), tolerance("chart_rank_tol")
    if ratio * tol >= 1.0:
        raise BadParams(f"semi-axes {axes} have ratio largest / smallest {ratio:.3g}, at least "
                        f"1 / chart_rank_tol = {1.0 / tol:.3g}: the chart Jacobian would be "
                        "nearly rank deficient")
    spec = SurfaceSpec("Chart", n, {"semi_axes": axes}, _grid_counts(grid, (6,) * n))
    points, cell = _chart_grid(domain, spec)
    dw, a = _sphere_jacobian(points), np.array(axes)
    scaled, dist = a[:, None] * dw, np.linalg.norm(_sphere_embed(points) / a, axis=1)  # |D^-1 w|
    operators, density = _frame_operators(
        np.swapaxes(scaled, 1, 2) @ scaled, np.swapaxes(dw, 1, 2) @ dw / dist[:, None, None],
        lambda k: f"for semi-axes {axes} (ratio largest / smallest {ratio:.3g})")
    return ShapeField(spec, points, operators, _area_weights(f"semi-axes {axes}", density, cell),
                      minimal_claimed=False)
