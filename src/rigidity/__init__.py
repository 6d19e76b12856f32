"""Numerical toolkit for a sharp trace-free matrix inequality and the
rotational energies it controls on sampled hypersurfaces."""

from .defaults import ARTIFACT, TOLERANCES, VERSION, tolerance
from .spectral import (
    SymMatrix,
    Spectrum,
    SymFunProfile,
    trace_free_project,
    eigen_spectrum,
    jacobi_eigensystem,
    symfun_from_spectrum,
    symfun_from_power_sums,
    shift_profile,
    norms,
)
from .inequalities import (
    EqualityKind,
    EqualityCase,
    InequalityVerdict,
    classify_spectrum,
    newton_gap,
    cubic_bound,
    prop_p3,
    prop_p4,
    lambda_scan,
    main_inequality,
    sigma_norm_identities,
    defect_coefficient,
)
from .curvature import (
    AlgCurvTensor,
    kulkarni_nomizu,
    tensor_norm_sq,
    tensor_inner,
    fialkow_tensor,
    weyl_from_gauss_codazzi,
    weyl_norm_closed_form,
    kn_identity_suite,
)
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
