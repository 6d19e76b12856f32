"""Rotational energies of sampled hypersurfaces.

The pointwise defect d(A) = ((n^2-3n+3)/(n(n-1))) |tracefree(A)|^4
- |tracefree(A)^2|^2 is nonnegative and vanishes exactly where the shape
operator has an eigenspace of dimension >= n - 1. Integrating d gives the
rotational energy; weighting by |tracefree(A)|^(n-4) gives the variant that
is invariant under constant conformal rescaling of the ambient metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import tolerance
from .errors import BadParams, InvalidField, NonFiniteResult
from .inequalities import classify_spectrum_batch, main_inequality_batch
# unused here since energies are batched; bench/spans.py still wraps energy.main_inequality
from .inequalities import main_inequality  # noqa: F401
from .spectral import (SymMatrix, eigen_spectrum_batch, norms_batch, symfun_from_spectrum_batch,
                       trace_free_project_batch)
from .surfaces import SamplePoint, ShapeField, umbilic_flags

__all__ = [
    "PointwiseRecord",
    "EnergyReport",
    "rotational_energy",
    "conformal_rescale",
    "report_to_dict",
    "report_csv_rows",
]


@dataclass(frozen=True)
class PointwiseRecord:
    """Per-sample energy data: norms of the trace-free part and the defect."""

    index: int
    coords: tuple[float, ...]
    weight: float
    tracefree_norm_sq: float
    tracefree_sq_norm_sq: float
    defect: float
    relative_defect: float
    equality_kind: str
    umbilic: bool


@dataclass(frozen=True)
class EnergyReport:
    e_rot: float
    e_rot_conf: float
    quadrature_scale: float
    quadrature_scale_conf: float
    max_relative_defect: float
    min_relative_defect: float
    classification: str
    pointwise: tuple[PointwiseRecord, ...]
    tolerances: dict


def rotational_energy(field: ShapeField) -> EnergyReport:
    """Quadrature of the pointwise defect over a shape field.

    All samples go through the batched kernels of the verify campaigns as one
    (N, n, n) stack; summation is math.fsum in sample order. Every sample is
    classified through the sharp inequality, so the report carries an
    equality-locus map. A norm or power of |tracefree(A)| too large for a
    double raises NonFiniteResult naming the first such sample.
    """
    if not isinstance(field, ShapeField) or not field.samples:
        raise InvalidField("expected a nonempty ShapeField")
    n = field.n
    if n < 4:
        raise InvalidField(f"energies need dimension >= 4, got {n}")
    operators = np.stack([sp.shape_operator.entries for sp in field.samples])
    weights = np.array([sp.area_weight for sp in field.samples])
    devi = trace_free_project_batch(operators)
    with np.errstate(over="ignore", invalid="ignore"):
        a_norms = norms_batch(devi)
        a2, a22, _ = a_norms
        # a numpy scalar's pow rounds as Python's float pow, as reports always did; np.power does not
        norm_n = np.array([x ** (n / 2.0) for x in a2])
        conf_factor = 1.0 if n == 4 else np.array([x ** ((n - 4) / 2.0) for x in a2])
    finite = np.isfinite(norm_n) & np.isfinite(a22)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NonFiniteResult(f"sample {idx}: |A|^{n} overflows at |A|^2 = {a2[idx]:.3e}")

    w, links = eigen_spectrum_batch(devi)
    verdict, large = main_inequality_batch(a_norms, np.trace(devi, axis1=1, axis2=2),
                                           symfun_from_spectrum_batch(w), links)
    kinds = classify_spectrum_batch(w, links)
    umbilic = umbilic_flags(operators)
    if umbilic.all():
        classification = "AllUmbilic"
    elif large.all():
        classification = "CatenoidCandidate" if field.minimal_claimed else "RotationCandidate"
    else:
        classification = "Generic"
    defect, rels = verdict.defect, verdict.relative_defect
    with np.errstate(over="ignore"):  # an overflowing sum is left for the report writer to reject
        # E_rot, E_rot_conf and the two quadrature scales, in EnergyReport's field order
        terms = (weights * defect, weights * conf_factor * defect,
                 weights * np.maximum(1.0, a2 * a2), weights * np.maximum(1.0, norm_n))
    # the columns after coords and weight, in PointwiseRecord's field order
    columns = zip(a2.tolist(), a22.tolist(), defect.tolist(), rels.tolist(), kinds.tolist(),
                  umbilic.tolist())
    records = tuple(PointwiseRecord(idx, sp.coords, sp.area_weight, *values)
                    for idx, (sp, values) in enumerate(zip(field.samples, columns)))
    return EnergyReport(
        *(math.fsum(t.tolist()) for t in terms),
        max_relative_defect=float(rels.max()),
        min_relative_defect=float(rels.min()),
        classification=classification,
        pointwise=records,
        tolerances={name: tolerance(name) for name in ("cluster_tol", "verdict_tol", "umbilic_tol")},
    )


def conformal_rescale(field: ShapeField, t: float) -> ShapeField:
    """Field of the same immersion with the ambient metric scaled by t^2.

    Shape operators map A -> A / t and area weights map w -> t^n w, so the
    conformal energy is unchanged while the plain energy picks up t^(n-4).
    """
    if not t > 0.0:
        raise BadParams(f"scale factor must be positive, got {t}")
    n = field.n
    weight_factor = t ** n
    samples = tuple(
        SamplePoint(sp.coords, SymMatrix(sp.shape_operator.entries / t),
                    sp.area_weight * weight_factor, sp.umbilic_flag)
        for sp in field.samples
    )
    return ShapeField(field.spec, samples, minimal_claimed=field.minimal_claimed)


def report_to_dict(report: EnergyReport, include_pointwise: bool = True) -> dict:
    out = {
        "E_rot": report.e_rot,
        "E_rot_conf": report.e_rot_conf,
        "quadrature_scale": report.quadrature_scale,
        "quadrature_scale_conf": report.quadrature_scale_conf,
        "max_relative_defect": report.max_relative_defect,
        "min_relative_defect": report.min_relative_defect,
        "classification": report.classification,
        "samples": len(report.pointwise),
        "tolerances": dict(report.tolerances),
    }
    if include_pointwise:
        out["pointwise"] = [
            {
                "index": r.index,
                "coords": list(r.coords),
                "weight": r.weight,
                "tracefree_norm_sq": r.tracefree_norm_sq,
                "tracefree_sq_norm_sq": r.tracefree_sq_norm_sq,
                "defect": r.defect,
                "relative_defect": r.relative_defect,
                "equality_kind": r.equality_kind,
                "umbilic": r.umbilic,
            }
            for r in report.pointwise
        ]
    return out


def report_csv_rows(report: EnergyReport) -> tuple[list[str], list[list]]:
    """Header and rows for the flat per-sample export."""
    width = max(len(r.coords) for r in report.pointwise)
    header = [f"coord{i}" for i in range(width)]
    header += ["tracefree_norm_sq", "tracefree_sq_norm_sq", "defect", "equality_kind"]
    rows = []
    for r in report.pointwise:
        coords = list(r.coords) + [""] * (width - len(r.coords))
        rows.append(coords + [r.tracefree_norm_sq, r.tracefree_sq_norm_sq,
                              r.defect, r.equality_kind])
    return header, rows
