"""Reference JSON objects built sample by sample, as plain dicts and lists.

The files the package writes are streamed from arrays; the tests compare
their bytes with ``json.dumps(reference, indent=2, sort_keys=True) + "\\n"``
of the objects built here, which share no code with the streaming writer.
"""

import dataclasses
import json

from rigidity.defaults import ARTIFACT, TOLERANCES, VERSION
from rigidity.surfaces import save_field


def dumped(reference) -> bytes:
    return (json.dumps(reference, indent=2, sort_keys=True) + "\n").encode()


def field_to_dict(field) -> dict:
    spec = dataclasses.asdict(field.spec)
    spec["grid"] = list(field.spec.grid)
    samples = []
    for coords, operator, weight in zip(field.coords.tolist(), field.operators.tolist(),
                                        field.weights.tolist()):
        samples.append({"coords": coords, "shape_operator": operator, "area_weight": weight})
    return {"spec": spec, "samples": samples, "minimal_claimed": field.minimal_claimed}


def report_to_dict(report) -> dict:
    p = report.pointwise
    count = len(p["weight"])
    pointwise = []
    for i in range(count):
        pointwise.append({
            "index": i,
            "coords": p["coords"][i].tolist(),
            "weight": float(p["weight"][i]),
            "tracefree_norm_sq": float(p["tracefree_norm_sq"][i]),
            "tracefree_sq_norm_sq": float(p["tracefree_sq_norm_sq"][i]),
            "defect": float(p["defect"][i]),
            "relative_defect": float(p["relative_defect"][i]),
            "equality_kind": str(p["equality_kind"][i]),
            "umbilic": bool(p["umbilic"][i]),
        })
    return {
        "E_rot": report.e_rot,
        "E_rot_conf": report.e_rot_conf,
        "quadrature_scale": report.quadrature_scale,
        "quadrature_scale_conf": report.quadrature_scale_conf,
        "max_relative_defect": report.max_relative_defect,
        "min_relative_defect": report.min_relative_defect,
        "classification": report.classification,
        "samples": count,
        "pointwise": pointwise,
    }


def analyze_payload(field_path, field, report) -> dict:
    """What ``rigidity analyze --field field_path`` writes for ``field`` and its ``report``."""
    return {
        "artifact": ARTIFACT,
        "version": VERSION,
        "command": "analyze",
        "field": {"path": str(field_path), "kind": field.spec.kind, "n": field.spec.n,
                  "minimal_claimed": field.minimal_claimed},
        "tolerances": dict(TOLERANCES),
        "report": report_to_dict(report),
    }


def saved_dict(field, directory) -> dict:
    """The field as save_field writes it, parsed back: a dict for tests to edit."""
    path = directory / "saved_field.json"
    save_field(field, path)
    return json.loads(path.read_text(encoding="utf-8"))
