"""Default tolerances and artifact metadata.

Every tolerance the package decides with lives in this one table, and each
entry is read by some module of the package, so that the table every report
echoes holds exactly the thresholds a run could have used. ``tolerance``
looks an entry up by name.
"""

from __future__ import annotations

ARTIFACT = "rigidity"
VERSION = "0.1.0"

TOLERANCES: dict[str, float] = {
    # spectral
    "cluster_tol": 1e-8,            # relative eigenvalue-gap threshold for multiplicity detection
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
    # surfaces
    "minimality_tol": 1e-8,         # |tr A| / (1 + ||A||_F) bound claimed by minimal fields
    "fd_self_check_tol": 1e-3,      # chart step halving self-consistency threshold
    "chart_rank_tol": 1e-8,         # relative Cholesky-pivot floor before DegenerateChart
}

# Central finite differences: one step serves the Jacobian and the second
# derivatives; eps**(1/4) balances truncation against rounding for the latter.
FD_STEP_FACTOR = 2.220446049250313e-16 ** 0.25


def tolerance(name: str) -> float:
    """The table's value of the tolerance ``name``."""
    return TOLERANCES[name]
