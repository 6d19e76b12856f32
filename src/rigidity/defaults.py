"""Default tolerances and artifact metadata.

Every tolerance used anywhere in the toolkit lives in this one table so that
reports can echo the exact values a run used. A few entries (matrix
asymmetry, Jacobi sweeps, Weyl and tensor symmetry) are read only by the
scalar reference route of the tests; they stay, since reports echo the
table whole. ``tolerance`` takes an optional override, ``None`` meaning
"use the table".
"""

from __future__ import annotations

ARTIFACT = "rigidity"
VERSION = "0.1.0"

TOLERANCES: dict[str, float] = {
    # spectral
    "cluster_tol": 1e-8,            # relative eigenvalue-gap threshold for multiplicity detection
    "matrix_asym_tol": 1e-12,       # allowed relative asymmetry before symmetrizing an array
    "jacobi_off_tol": 1e-14,        # off-diagonal target relative to the initial Frobenius norm
    "eigen_reconstruction_tol": 1e-12,
    # inequality verdicts
    "verdict_tol": 1e-10,           # relative equality/holds threshold on verdicts
    "fuzz_defect_tol": 1e-12,       # worst tolerated negative relative defect in fuzz campaigns
    "trace_free_tol": 1e-10,        # |tr A| <= tol * n * ||A||_F admits A as trace-free
    "umbilic_tol": 1e-10,           # |tracefree(A)| <= tol * max(1, ||A||_F) counts as umbilic
    "bridge_tol": 1e-10,            # quartic bridge identity residual, relative
    "sigma_identity_tol": 1e-10,    # sigma_2 / sigma_4 norm identity residuals, relative
    "lambda_step_tol": 1e-12,       # shifted-gap positivity and product negativity, relative
    "oracle_agreement_tol": 1e-9,   # eigenvalue path vs power-sum path sigma agreement
    # curvature tensors
    "kn_identity_tol": 1e-9,        # Kulkarni-Nomizu inner-product identities, relative
    "weyl_match_tol": 1e-9,         # Weyl contraction vs closed form, relative
    "tensor_symmetry_tol": 1e-12,   # curvature symmetries, relative to max entry
    # surfaces
    "minimality_tol": 1e-8,         # |tr A| / (1 + ||A||_F) bound claimed by minimal fields
    "sphere_volume_tol": 0.02,      # relative quadrature volume error on the default grid
    "fd_self_check_tol": 1e-3,      # chart step halving self-consistency threshold
    "chart_rank_tol": 1e-8,         # relative Cholesky-pivot floor before DegenerateChart
    # energies
    "energy_zero_tol": 1e-10,       # relative E_rot zero threshold for exact rotation fields
    "catenoid_energy_tol": 1e-7,    # relative E_rot zero threshold for ODE-built catenoids
    "conformal_invariance_tol": 1e-12,
}

# Central finite differences: one step serves the Jacobian and the second
# derivatives; eps**(1/4) balances truncation against rounding for the latter.
FD_STEP_FACTOR = 2.220446049250313e-16 ** 0.25


def tolerance(name: str, override: float | None = None) -> float:
    """Resolve a tolerance: explicit override wins, else the table default."""
    if override is not None:
        return float(override)
    return TOLERANCES[name]
