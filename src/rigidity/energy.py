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

from .defaults import tolerance
from .errors import BadDimension, BadParams, InvalidField, NonFiniteResult
from .inequalities import main_inequality
from .spectral import SymMatrix, norms, trace_free_project
from .surfaces import SamplePoint, ShapeField

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


def rotational_energy(field: ShapeField, cluster_tol: float | None = None,
                      verdict_tol: float | None = None,
                      umbilic_tol: float | None = None) -> EnergyReport:
    """Quadrature of the pointwise defect over a shape field.

    Summation is math.fsum in sample order, so results do not depend on how
    integrand evaluation is batched. Every sample is classified through the
    sharp inequality so the report carries an equality-locus map. A power of
    |tracefree(A)| too large for a double raises NonFiniteResult.
    """
    if not isinstance(field, ShapeField) or not field.samples:
        raise InvalidField("expected a nonempty ShapeField")
    n = field.n
    if n < 4:
        raise InvalidField(f"energies need dimension >= 4, got {n}")
    u_tol = tolerance("umbilic_tol", umbilic_tol)
    records: list[PointwiseRecord] = []
    rot_terms: list[float] = []
    conf_terms: list[float] = []
    scale_terms: list[float] = []
    scale_conf_terms: list[float] = []
    all_umbilic = True
    all_large = True
    any_nonumbilic = False
    for idx, sp in enumerate(field.samples):
        devi = trace_free_project(sp.shape_operator)
        a2, a22, _ = norms(devi)
        umbilic = math.sqrt(a2) <= u_tol * max(1.0, sp.shape_operator.frobenius())
        try:
            verdict, case = main_inequality(devi, tol=verdict_tol, cluster_tol=cluster_tol,
                                            umbilic_tol=umbilic_tol)
        except BadDimension as exc:  # pragma: no cover - field dimension checked above
            raise InvalidField(str(exc)) from exc
        defect = verdict.defect
        try:
            conf_factor = 1.0 if n == 4 else a2 ** ((n - 4) / 2.0)
            norm_n = a2 ** (n / 2.0)
        except OverflowError as exc:
            raise NonFiniteResult(f"sample {idx}: |A|^{n} overflows at |A|^2 = {a2:.3e}") from exc
        rot_terms.append(sp.area_weight * defect)
        conf_terms.append(sp.area_weight * conf_factor * defect)
        scale_terms.append(sp.area_weight * max(1.0, a2 * a2))
        scale_conf_terms.append(sp.area_weight * max(1.0, norm_n))
        records.append(PointwiseRecord(
            index=idx,
            coords=sp.coords,
            weight=sp.area_weight,
            tracefree_norm_sq=a2,
            tracefree_sq_norm_sq=a22,
            defect=defect,
            relative_defect=verdict.relative_defect,
            equality_kind=case.kind.value,
            umbilic=umbilic,
        ))
        all_umbilic = all_umbilic and umbilic
        all_large = all_large and case.large_eigenspace
        any_nonumbilic = any_nonumbilic or not umbilic
    if all_umbilic:
        classification = "AllUmbilic"
    elif all_large and any_nonumbilic:
        classification = "CatenoidCandidate" if field.minimal_claimed else "RotationCandidate"
    else:
        classification = "Generic"
    rels = [r.relative_defect for r in records]
    return EnergyReport(
        e_rot=math.fsum(rot_terms),
        e_rot_conf=math.fsum(conf_terms),
        quadrature_scale=math.fsum(scale_terms),
        quadrature_scale_conf=math.fsum(scale_conf_terms),
        max_relative_defect=max(rels),
        min_relative_defect=min(rels),
        classification=classification,
        pointwise=tuple(records),
        tolerances={
            "cluster_tol": tolerance("cluster_tol", cluster_tol),
            "verdict_tol": tolerance("verdict_tol", verdict_tol),
            "umbilic_tol": u_tol,
        },
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
