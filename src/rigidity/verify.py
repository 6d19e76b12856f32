"""Randomized verification campaigns over seeded trace-free matrices.

Every inequality family runs on whole stacks of matrices of one dimension at
a time and records worst-case relative defects. Matrices and lambda grids
come from the stream keyed by the seed (see ``sampling``), drawn a chunk of
indices at a time. ``_fold`` merges each chunk into a statistic by its name: a
count, a ``min_*`` or a ``max_*``, so the report does not depend on the chunking
and is byte-identical for a fixed seed and config. Its ``config`` holds the
campaign's inputs, and its ``tolerances`` the table of thresholds, each value once.
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


def _fold(stats: dict, **values) -> None:
    """Fold one chunk into ``stats`` by name: a ``min_*`` key keeps the least value, a ``max_*``
    key the greatest, and any other key adds a count."""
    for key, value in values.items():
        # np.minimum and np.maximum keep a NaN, so a NaN check value fails its gate
        if key.startswith("min_"):
            stats[key] = float(np.minimum(stats.get(key, math.inf), value.min()))
        elif key.startswith("max_"):
            stats[key] = float(np.maximum(stats.get(key, -math.inf), value.max()))
        else:
            stats[key] = stats.get(key, 0) + int(value)


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
    families = defect_families + ("sigma_norm_identities", "lambda_scan")
    checks: dict = {family: {} for family in families + (("kn_identity_suite",) if include_kn else ())}
    oracle: dict = {}
    chunk = campaign_chunk(dims, lambda_count)
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        for _, a, lam in campaign_samples(seed, dims, lambda_count, start, count):
            stack = examine_batch(a)
            hom4 = np.maximum(1.0, stack.a2 * stack.a2)

            sigma, alt = stack.sigma, symfun_from_power_sums_batch(a)
            _fold(oracle, max_deviation=np.max(np.abs(sigma - alt), axis=0)
                  / np.maximum(1.0, np.max(np.abs(sigma), axis=0)))

            verdict, large = main_inequality_batch(stack)
            defects = (newton_gap_batch(stack), prop_p3_batch(stack), prop_p4_batch(stack),
                       cubic_bound_batch(stack), verdict)
            for family, family_verdict in zip(defect_families, defects):
                rel = family_verdict.relative_defect
                # counted unless >= -fuzz, so a NaN defect is a violation
                _fold(checks[family], count=rel.size, min_relative_defect=rel,
                      violations=np.count_nonzero(~(rel >= -fuzz)))
            _fold(checks["main_inequality"],
                  false_equalities=np.count_nonzero(verdict.equality & ~large),
                  max_bridge_residual=np.abs(bridge_residual(stack)) / hom4)

            r2, r4 = sigma_norm_identities_batch(stack)
            residuals = [np.maximum(np.abs(r2), np.abs(r4))]
            if include_kn:
                residuals.append(np.max(np.abs(kn_identity_suite_batch(stack)), axis=1))
            for family, worst in zip(("sigma_norm_identities", "kn_identity_suite"), residuals):
                _fold(checks[family], count=len(a), max_relative_residual=worst / hom4)
            gaps, products = lambda_scan_batch(stack, lam)
            _fold(checks["lambda_scan"], count=len(a), min_relative_gap=gaps,
                  max_relative_product=products)

    for family, stats in checks.items():
        stats["pass"] = _passes(family, stats)
    diagnostics = {
        "symfun_oracle_max_relative_deviation": oracle["max_deviation"],
        "symfun_oracle_pass": oracle["max_deviation"] <= tolerance("oracle_agreement_tol"),
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
