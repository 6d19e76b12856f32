"""Randomized verification campaigns over seeded trace-free matrices.

One pass per matrix runs every inequality family and records worst-case
relative defects. The campaign runs in index order on the calling thread;
per-matrix generators are derived as seed ^ index.
"""

from __future__ import annotations

import math

import numpy as np

from .curvature import kn_identity_suite
from .defaults import ARTIFACT, TOLERANCES, VERSION, tolerance
from .inequalities import (
    bridge_residual,
    cubic_bound,
    lambda_scan,
    lambda_scan_scales,
    main_inequality,
    newton_gap,
    prop_p3,
    prop_p4,
    sigma_norm_identities,
)
from .sampling import derived_rng, equality_family_matrix, random_rotation, random_symmetric
from .spectral import eigen_spectrum, norms, symfun_from_power_sums, symfun_from_spectrum, trace_free_project

__all__ = [
    "CHECK_FAMILIES",
    "run_verification_campaign",
    "equality_family_stats",
]

CHECK_FAMILIES = (
    "newton_gap",
    "prop_p3",
    "prop_p4",
    "cubic_bound",
    "main_inequality",
    "sigma_norm_identities",
    "lambda_scan",
    "kn_identity_suite",
)


def _defect_stats(**extra) -> dict:
    return {"count": 0, "min_relative_defect": math.inf, "violations": 0, **extra}


def _record(stats: dict, relative_defect: float, fuzz_tol: float) -> None:
    stats["count"] += 1
    stats["min_relative_defect"] = min(stats["min_relative_defect"], relative_defect)
    if relative_defect < -fuzz_tol:
        stats["violations"] += 1


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
                              threads: int = 1, include_kn: bool = True,
                              fuzz_tol: float | None = None) -> dict:
    """Run every check family over a seeded random campaign and build a report.

    ``samples`` counts matrices in total; dimensions cycle round-robin through
    ``dims``. The report is a JSON-ready dict of per-family aggregates.
    ``threads`` is accepted for compatibility and ignored: the campaign runs
    on the calling thread, so the report never depends on it.
    """
    dims = [int(n) for n in dims]
    if not dims or any(n < 4 for n in dims):
        raise ValueError(f"dimensions must all be >= 4, got {dims}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    fuzz = tolerance("fuzz_defect_tol", fuzz_tol)
    checks: dict = {
        "newton_gap": _defect_stats(),
        "prop_p3": _defect_stats(),
        "prop_p4": _defect_stats(),
        "cubic_bound": _defect_stats(),
        "main_inequality": _defect_stats(false_equalities=0, max_bridge_residual=0.0),
        "sigma_norm_identities": {"count": 0, "max_relative_residual": 0.0},
        "lambda_scan": {"count": 0, "min_relative_gap": math.inf,
                        "max_relative_product": -math.inf},
    }
    if include_kn:
        checks["kn_identity_suite"] = {"count": 0, "max_relative_residual": 0.0}
    main = checks["main_inequality"]
    sigma = checks["sigma_norm_identities"]
    lam_stats = checks["lambda_scan"]
    oracle_deviation = 0.0
    for idx in range(samples):
        rng = derived_rng(seed, idx)
        n = dims[idx % len(dims)]
        a = trace_free_project(random_symmetric(rng, n))
        spectrum = eigen_spectrum(a)
        profile = symfun_from_spectrum(spectrum)
        a2, a22, t3 = norms(a)
        hom4 = max(1.0, a2 * a2)

        alt = symfun_from_power_sums(a)
        sigma_scale = max(1.0, max(abs(s) for s in profile.sigma))
        deviation = max(abs(x - y) for x, y in zip(profile.sigma, alt.sigma)) / sigma_scale
        oracle_deviation = max(oracle_deviation, deviation)

        for k in range(1, n):
            _record(checks["newton_gap"], newton_gap(profile, k).relative_defect, fuzz)
        _record(checks["prop_p3"], prop_p3(profile).relative_defect, fuzz)
        _record(checks["prop_p4"], prop_p4(profile).relative_defect, fuzz)
        _record(checks["cubic_bound"],
                cubic_bound((a2, a22, t3), n, trace=a.trace()).relative_defect, fuzz)

        verdict, case = main_inequality(a, spectrum=spectrum, profile=profile)
        _record(main, verdict.relative_defect, fuzz)
        if verdict.equality and not case.large_eigenspace:
            main["false_equalities"] += 1
        main["max_bridge_residual"] = max(
            main["max_bridge_residual"], abs(bridge_residual(profile, a2, a22)) / hom4)

        r2, r4 = sigma_norm_identities(a, profile=profile)
        sigma["count"] += 1
        sigma["max_relative_residual"] = max(
            sigma["max_relative_residual"], max(abs(r2), abs(r4)) / hom4)

        lam = rng.uniform(-2.0, 2.0, lambda_count)
        values = lambda_scan(profile, lam)
        q_scale, product_scale = lambda_scan_scales(profile, lam)
        lam_stats["count"] += 1
        lam_stats["min_relative_gap"] = min(
            lam_stats["min_relative_gap"], float(np.min(values[:-1] / q_scale)))
        lam_stats["max_relative_product"] = max(
            lam_stats["max_relative_product"], float(values[-1]) / product_scale)

        if include_kn:
            kn = checks["kn_identity_suite"]
            residuals = kn_identity_suite(a)
            kn["count"] += 1
            kn["max_relative_residual"] = max(
                kn["max_relative_residual"], max(abs(r) for r in residuals) / hom4)

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
            "fuzz_defect_tol": fuzz,
        },
        "tolerances": dict(TOLERANCES),
        "checks": checks,
        "diagnostics": diagnostics,
        "pass": all(stats["pass"] for stats in checks.values()) and diagnostics["symfun_oracle_pass"],
    }


def equality_family_stats(dims, count: int, seed: int) -> dict:
    """Verdicts over random orthogonal conjugates of diag(mu, ..., mu, -(n-1) mu)."""
    dims = [int(n) for n in dims]
    worst_defect = 0.0
    all_equality = True
    all_mult = True
    for idx in range(count):
        rng = derived_rng(seed, idx)
        n = dims[idx % len(dims)]
        mu = rng.uniform(0.5, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        a = equality_family_matrix(n, mu, rotation=random_rotation(rng, n))
        verdict, case = main_inequality(a)
        worst_defect = max(worst_defect, abs(verdict.relative_defect))
        all_equality = all_equality and verdict.equality
        all_mult = all_mult and max(case.multiplicities) == n - 1
    return {
        "count": count,
        "max_abs_relative_defect": worst_defect,
        "all_equality": all_equality,
        "all_multiplicity_n_minus_1": all_mult,
    }
