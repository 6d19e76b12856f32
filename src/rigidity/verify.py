"""Randomized verification campaigns over seeded trace-free matrices.

Matrices and lambda grids come from the stream keyed by the seed (see
``sampling``), a chunk of indices at a time in groups of one dimension. Each
group runs its examination, power sums, Newton gaps, Kulkarni-Nomizu suite and
lambda scan; every other check runs once over all rows of the chunk
(``spectral.merge_stacks``). ``_fold`` merges each chunk into a statistic by
name: a count, a ``min_*`` or a ``max_*``, so the report does not depend on the
chunking and is byte-identical for a fixed seed and config. Its ``config``
holds the campaign's inputs, and its ``tolerances`` the thresholds, each once.
"""

from __future__ import annotations

import math
from collections import defaultdict

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
from .spectral import examine_batch, merge_stacks, power_sums_batch, symfun_from_power_sums_batch

__all__ = ["run_verification_campaign"]


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


def _check_chunk(checks: dict, oracle: dict, include_kn: bool, groups) -> None:
    """Fold one chunk's groups (n, matrices, lambda grids) into ``checks`` and ``oracle``."""
    top, count = max(n for n, _, _ in groups), sum(len(a) for _, a, _ in groups)
    sigma, power_sums = np.zeros((2, top + 1, count))  # zero-padded to the largest n
    stacks, newton, kn, gaps, products, lo = [], [], [], [], [], 0
    for n, a, lam in groups:
        stack, rows = examine_batch(a), slice(lo, lo + len(a))
        sigma[:n + 1, rows], power_sums[:n + 1, rows], lo = stack.sigma, power_sums_batch(a), rows.stop
        stacks.append(stack)
        newton.append(newton_gap_batch(stack).relative_defect.ravel())
        if include_kn:
            kn.append(np.max(np.abs(kn_identity_suite_batch(stack)), axis=1))
        row_gaps, row_products = lambda_scan_batch(stack, lam)
        gaps.append(row_gaps.min(axis=1))  # min is exact, so the fold does not change
        products.append(row_products)
    stack = merge_stacks(stacks)
    hom4 = np.maximum(1.0, stack.a2 * stack.a2)
    deviation = np.abs(sigma - symfun_from_power_sums_batch(power_sums))
    deviation[np.arange(top + 1)[:, None] > stack.n] = 0.0  # rows past a matrix's n are rounding
    _fold(oracle, max_deviation=np.max(deviation, axis=0)
          / np.maximum(1.0, np.max(np.abs(sigma), axis=0)))
    fuzz, (verdict, large) = tolerance("fuzz_defect_tol"), main_inequality_batch(stack)
    defects = {"newton_gap": np.concatenate(newton), "prop_p3": prop_p3_batch(stack).relative_defect,
               "prop_p4": prop_p4_batch(stack).relative_defect,
               "cubic_bound": cubic_bound_batch(stack).relative_defect,
               "main_inequality": verdict.relative_defect}
    for family, rel in defects.items():
        # counted unless >= -fuzz, so a NaN defect is a violation
        _fold(checks[family], count=rel.size, min_relative_defect=rel,
              violations=np.count_nonzero(~(rel >= -fuzz)))
    _fold(checks["main_inequality"],
          false_equalities=np.count_nonzero(verdict.equality & ~large),
          max_bridge_residual=np.abs(bridge_residual(stack)) / hom4)
    r2, r4 = sigma_norm_identities_batch(stack)
    _fold(checks["sigma_norm_identities"], count=count,
          max_relative_residual=np.maximum(np.abs(r2), np.abs(r4)) / hom4)
    _fold(checks["lambda_scan"], count=count, min_relative_gap=np.concatenate(gaps),
          max_relative_product=np.concatenate(products))
    if include_kn:
        _fold(checks["kn_identity_suite"], count=count, max_relative_residual=np.concatenate(kn) / hom4)


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
    # a family's stats enter the report in the order of its first fold
    checks, oracle, chunk = defaultdict(dict), {}, campaign_chunk(dims, lambda_count)
    for start in range(0, samples, chunk):
        _check_chunk(checks, oracle, include_kn,
                     campaign_samples(seed, dims, lambda_count, start, min(chunk, samples - start)))

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
        "checks": dict(checks),
        "diagnostics": diagnostics,
        "pass": all(stats["pass"] for stats in checks.values()) and diagnostics["symfun_oracle_pass"],
    }
