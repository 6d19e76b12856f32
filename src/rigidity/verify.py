"""Randomized verification campaigns over seeded trace-free matrices.

Every inequality family runs on whole stacks of matrices of one dimension at
a time and records worst-case relative defects. Matrices and lambda grids
come from the stream keyed by the seed (see ``sampling``), drawn a chunk of
indices at a time; since every aggregate is a count, a minimum or a maximum,
the report does not depend on the chunking and is byte-identical for a fixed
seed and config. Its ``config`` holds the campaign's inputs, and its
``tolerances`` the table of thresholds, each value once.
"""

from __future__ import annotations

import math

import numpy as np

from .curvature import kn_identity_suite_batch
from .defaults import ARTIFACT, TOLERANCES, VERSION, tolerance
from .errors import BadDimension, BadParams
from .inequalities import (
    bridge_residual,
    cubic_bound_batch,
    lambda_scan_batch,
    main_inequality_batch,
    newton_gap_batch,
    prop_p3_batch,
    prop_p4_batch,
    sigma_norm_identities_batch,
)
from .sampling import campaign_chunk, campaign_samples
from .spectral import examine_batch, symfun_from_power_sums_batch

__all__ = [
    "run_verification_campaign",
]


def _least(current: float, values: np.ndarray) -> float:
    # np.minimum and np.maximum keep a NaN, so a NaN check value fails its gate
    return float(np.minimum(current, values.min()))


def _most(current: float, values: np.ndarray) -> float:
    return float(np.maximum(current, values.max()))


def _passes(family: str, stats: dict) -> bool:
    if family == "main_inequality":
        return (stats["violations"] == 0 and stats["false_equalities"] == 0
                and stats["max_bridge_residual"] <= tolerance("bridge_tol"))
    if family == "sigma_norm_identities":
        return stats["max_relative_residual"] <= tolerance("sigma_identity_tol")
    if family == "lambda_scan":
        return (stats["min_relative_gap"] >= -tolerance("lambda_step_tol")
                and stats["max_relative_product"] <= tolerance("lambda_step_tol"))
    if family == "kn_identity_suite":
        return stats["max_relative_residual"] <= tolerance("kn_identity_tol")
    return stats["violations"] == 0


def run_verification_campaign(dims, samples: int, seed: int, lambda_count: int = 100,
                              threads: int = 1, include_kn: bool = True) -> dict:
    """Run every check family over a seeded random campaign and build a report.

    ``samples`` counts matrices in total; dimensions cycle round-robin through
    ``dims``. The report is a JSON-ready dict of per-family aggregates.
    ``threads`` is accepted for compatibility and ignored: the campaign runs on
    one thread. Inputs out of range raise BadParams, or BadDimension for n < 4.
    """
    dims = [int(n) for n in dims]
    if samples < 1:
        raise BadParams("samples must be >= 1")
    if not dims or any(n < 4 for n in dims):
        raise BadDimension(f"dimensions must all be >= 4, got {dims}")
    if lambda_count < 1:
        raise BadParams("lambda-count must be >= 1")
    if not 0 <= seed < 2 ** 128:
        raise BadParams(f"seed must be in [0, 2**128), got {seed}")
    fuzz = tolerance("fuzz_defect_tol")
    defect_families = ("newton_gap", "prop_p3", "prop_p4", "cubic_bound", "main_inequality")
    checks: dict = {family: {"count": 0, "min_relative_defect": math.inf, "violations": 0}
                    for family in defect_families}
    checks["sigma_norm_identities"] = {"count": 0, "max_relative_residual": 0.0}
    checks["lambda_scan"] = {"count": 0, "min_relative_gap": math.inf,
                             "max_relative_product": -math.inf}
    if include_kn:
        checks["kn_identity_suite"] = {"count": 0, "max_relative_residual": 0.0}
    main = checks["main_inequality"]
    main.update(false_equalities=0, max_bridge_residual=0.0)
    oracle_deviation = 0.0
    chunk = campaign_chunk(dims, lambda_count)
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        for _, a, lam in campaign_samples(seed, dims, lambda_count, start, count):
            stack = examine_batch(a)
            hom4 = np.maximum(1.0, stack.a2 * stack.a2)

            sigma, alt = stack.sigma, symfun_from_power_sums_batch(a)
            oracle_deviation = _most(oracle_deviation, np.max(np.abs(sigma - alt), axis=0)
                                     / np.maximum(1.0, np.max(np.abs(sigma), axis=0)))

            verdict, large = main_inequality_batch(stack)
            defects = (newton_gap_batch(stack), prop_p3_batch(stack), prop_p4_batch(stack),
                       cubic_bound_batch(stack), verdict)
            for family, family_verdict in zip(defect_families, defects):
                stats, rel = checks[family], family_verdict.relative_defect
                stats["count"] += rel.size
                stats["min_relative_defect"] = _least(stats["min_relative_defect"], rel)
                # counted unless >= -fuzz, so a NaN defect is a violation
                stats["violations"] += int(np.count_nonzero(~(rel >= -fuzz)))
            main["false_equalities"] += int(np.count_nonzero(verdict.equality & ~large))
            main["max_bridge_residual"] = _most(
                main["max_bridge_residual"], np.abs(bridge_residual(stack)) / hom4)

            r2, r4 = sigma_norm_identities_batch(stack)
            gaps, products = lambda_scan_batch(stack, lam)
            residuals = [np.maximum(np.abs(r2), np.abs(r4))]
            if include_kn:
                residuals.append(np.max(np.abs(kn_identity_suite_batch(stack)), axis=1))
            for family, worst in zip(("sigma_norm_identities", "kn_identity_suite"), residuals):
                checks[family]["count"] += len(a)
                checks[family]["max_relative_residual"] = _most(
                    checks[family]["max_relative_residual"], worst / hom4)
            lam_stats = checks["lambda_scan"]
            lam_stats["count"] += len(a)
            lam_stats["min_relative_gap"] = _least(lam_stats["min_relative_gap"], gaps)
            lam_stats["max_relative_product"] = _most(lam_stats["max_relative_product"], products)

    for family, stats in checks.items():
        stats["pass"] = _passes(family, stats)
    diagnostics = {
        "symfun_oracle_max_relative_deviation": oracle_deviation,
        "symfun_oracle_pass": oracle_deviation <= tolerance("oracle_agreement_tol"),
    }
    return {
        "artifact": ARTIFACT,
        "version": VERSION,
        "command": "verify",
        "config": {
            "dims": dims,
            "samples": samples,
            "seed": seed,
            "lambda_count": lambda_count,
            "include_kn": include_kn,
        },
        "tolerances": dict(TOLERANCES),
        "checks": checks,
        "diagnostics": diagnostics,
        "pass": all(stats["pass"] for stats in checks.values()) and diagnostics["symfun_oracle_pass"],
    }
