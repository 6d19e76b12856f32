"""Numerical toolkit for a sharp trace-free matrix inequality and the
rotational energies it controls on sampled hypersurfaces."""

from .defaults import ARTIFACT, TOLERANCES, VERSION, tolerance
from .inequalities import EqualityKind, InequalityVerdict, defect_coefficient, main_inequality
from .surfaces import (
    SurfaceSpec,
    ShapeField,
    build_sphere,
    build_cylinder,
    build_catenoid,
    build_rotation_hypersurface,
    build_ellipsoid,
    chart_shape_operator,
    ingest_field,
    save_field,
)
from .energy import EnergyReport, rotational_energy, conformal_rescale

__version__ = VERSION
