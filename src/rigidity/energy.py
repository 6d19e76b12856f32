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
from .errors import InvalidField, NonFiniteResult
from .fields import SampleTable, ShapeField, equal_runs, text_rows
from .inequalities import classify_spectrum_batch, main_inequality_batch
from .inequalities import main_inequality  # noqa: F401  (unused; the benchmark's tests read it)
from .spectral import examine_batch, trace_free_project_batch

__all__ = [
    "EnergyReport",
    "rotational_energy",
    "report_to_dict",
    "report_csv",
]


@dataclass(frozen=True)
class EnergyReport:
    """Energies and classification of a field; ``pointwise`` maps each per-sample
    quantity to its column: ``coords`` (N, d), ``weight``, ``tracefree_norm_sq``,
    ``tracefree_sq_norm_sq``, ``defect``, ``relative_defect``, ``equality_kind``
    (EqualityKind values) and ``umbilic``, each (N,).
    """

    e_rot: float
    e_rot_conf: float
    quadrature_scale: float
    quadrature_scale_conf: float
    max_relative_defect: float
    min_relative_defect: float
    classification: str
    pointwise: dict


def rotational_energy(field: ShapeField) -> EnergyReport:
    """Quadrature of the pointwise defect over a shape field.

    The operators go through the examination and kernels of the verify campaigns
    as one stack, each run of equal consecutive operators once; summation is
    math.fsum in sample order. The trace-free part of an operator that passes
    the umbilic test is taken as zero before examination. Every sample is
    classified through the sharp inequality, so the report carries an
    equality-locus map. A norm or power
    of |tracefree(A)| too large for a double raises NonFiniteResult naming the
    first such sample, and a sum beyond the double range raises it naming the
    sum.
    """
    if not isinstance(field, ShapeField):
        raise InvalidField("expected a ShapeField")
    n, operators, weights = field.spec.n, field.operators, field.weights  # SurfaceSpec keeps n >= 4
    # the kernels run once per run of equal operators (an orbit, or a sphere); results are per matrix
    starts, runs = equal_runs(operators)
    distinct = operators[starts]
    tracefree = trace_free_project_batch(distinct)
    with np.errstate(over="ignore"):
        # the umbilic test |tracefree(A)| <= umbilic_tol * max(1, |A|), |tracefree(A)|^2 as
        # examine_batch sums it; |A| may overflow to inf
        a2 = (tracefree * tracefree).sum(axis=(1, 2))
        frob = np.sqrt((distinct * distinct).sum(axis=(1, 2)))
    umbilic = np.sqrt(a2) <= tolerance("umbilic_tol") * np.maximum(1.0, frob)
    # an umbilic trace-free part is rounding, whose trace examine_batch would weigh against that
    # same rounding, so it is zero; where |A| or |tracefree(A)|^2 overflows the test compares with
    # inf and decides nothing, so the row is left for examine_batch
    tracefree[umbilic & np.isfinite(a2) & np.isfinite(frob)] = 0.0
    try:
        stack = examine_batch(tracefree)
    except NonFiniteResult:  # an overflow is at a run's first sample; the whole stack names it
        examine_batch(np.repeat(tracefree, runs, axis=0))
        raise
    with np.errstate(over="ignore"):
        # a numpy scalar's pow rounds as Python's float pow, as reports always did; np.power does not
        norm_n = np.array([x ** (n / 2.0) for x in stack.a2])
        conf_factor = np.array([x ** ((n - 4) / 2.0) for x in stack.a2])
    verdict, large = main_inequality_batch(stack)
    if umbilic.all():
        classification = "AllUmbilic"
    elif large.all():
        classification = "CatenoidCandidate" if field.minimal_claimed else "RotationCandidate"
    else:
        classification = "Generic"
    a2, a22, norm_n, conf_factor, defect, rels, kinds, umbilic = (np.repeat(x, runs) for x in (
        stack.a2, stack.a22, norm_n, conf_factor, verdict.defect, verdict.relative_defect,
        classify_spectrum_batch(stack.w, stack.links), umbilic))
    with np.errstate(over="ignore"):  # an infinite term is left for the report writer to reject
        # E_rot, E_rot_conf and the two quadrature scales, in EnergyReport's field order
        terms = (weights * defect, weights * conf_factor * defect,
                 weights * np.maximum(1.0, a2 * a2), weights * np.maximum(1.0, norm_n))
    sums = []
    for name, t in zip(("E_rot", "E_rot_conf", "quadrature_scale", "quadrature_scale_conf"), terms):
        try:
            sums.append(math.fsum(t.tolist()))
        except (OverflowError, ValueError) as exc:  # finite terms past the double range, or inf - inf
            raise NonFiniteResult(f"{name}: {exc}") from exc
    return EnergyReport(
        *sums,
        max_relative_defect=float(rels.max()),
        min_relative_defect=float(rels.min()),
        classification=classification,
        pointwise={"coords": field.coords, "weight": weights, "tracefree_norm_sq": a2,
                   "tracefree_sq_norm_sq": a22, "defect": defect, "relative_defect": rels,
                   "equality_kind": kinds, "umbilic": umbilic},
    )


def report_to_dict(report: EnergyReport) -> dict:
    """The report's JSON object; its ``pointwise`` list is a SampleTable for ``write_json``."""
    count = len(report.pointwise["weight"])
    return {
        "E_rot": report.e_rot,
        "E_rot_conf": report.e_rot_conf,
        "quadrature_scale": report.quadrature_scale,
        "quadrature_scale_conf": report.quadrature_scale_conf,
        "max_relative_defect": report.max_relative_defect,
        "min_relative_defect": report.min_relative_defect,
        "classification": report.classification,
        "samples": count,
        "pointwise": SampleTable(dict(report.pointwise, index=np.arange(count))),
    }


def report_csv(report: EnergyReport):
    """The flat per-sample export as the text pieces of a header and one row per sample, with
    the bytes of csv.writer, rendered by ``text_rows``: the repr of each number, the kind as is."""
    p = report.pointwise
    keys = ("tracefree_norm_sq", "tracefree_sq_norm_sq", "defect")
    header = [f"coord{i}" for i in range(p["coords"].shape[1])] + [*keys, "equality_kind"]
    yield ",".join(header) + "\r\n"
    yield from text_rows([p["coords"], *(p[key] for key in keys), p["equality_kind"]],
                         ",".join(["%s"] * len(header)) + "\r\n", strings=str)
