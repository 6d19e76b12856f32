"""Numerical toolkit for a sharp trace-free matrix inequality and the
rotational energies it controls on sampled hypersurfaces."""

from .defaults import ARTIFACT, TOLERANCES, VERSION, tolerance
from .inequalities import EqualityKind, InequalityVerdict, defect_coefficient, main_inequality
from .fields import SurfaceSpec, ShapeField, ingest_field, save_field
from .surfaces import (
    build_sphere,
    build_cylinder,
    build_catenoid,
    build_rotation_hypersurface,
    build_ellipsoid,
    chart_shape_operator,
    conformal_rescale,
)
from .energy import EnergyReport, rotational_energy

__version__ = VERSION
