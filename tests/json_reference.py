"""Reference JSON objects built sample by sample, as plain dicts and lists.

The files the package writes are streamed from arrays; the tests compare
their bytes with ``json.dumps(reference, indent=2, sort_keys=True) + "\\n"``
of the objects built here, which share no code with the streaming writer.
"""

import copy
import dataclasses
import itertools
import json

from rigidity.defaults import ARTIFACT, TOLERANCES, VERSION
from rigidity.fields import save_field


def dumped(reference) -> bytes:
    return (json.dumps(reference, indent=2, sort_keys=True) + "\n").encode()


def field_to_table_dict(field) -> dict:
    """The field as save_field writes it: the ``axes`` read off the coords of the samples on each
    grid direction's first line, the area weights as ``samples``, and one ``operators`` entry, with
    the ``count`` of samples it covers, per run of equal consecutive operators. Runs are found in
    pure Python by the float.hex text of each entry, so -0.0 and 0.0 count as different. An
    AssertionError says that the coords are not the row-major grid of those axes, bit for bit."""
    spec = dataclasses.asdict(field.spec)
    spec["grid"] = list(field.spec.grid)
    coords, axes, step = field.coords.tolist(), [], len(field.coords)
    for j, count in enumerate(field.spec.grid):
        step //= count
        axes.append([coords[k * step][j] for k in range(count)])
    assert [[value.hex() for value in point] for point in itertools.product(*axes)] == [
        [value.hex() for value in point] for point in coords]
    operators, previous = [], None
    for operator in field.operators.tolist():
        key = [[value.hex() for value in row] for row in operator]
        if key != previous:
            operators.append({"count": 0, "shape_operator": operator})
            previous = key
        operators[-1]["count"] += 1
    return {"spec": spec, "axes": axes, "operators": operators, "samples": field.weights.tolist(),
            "minimal_claimed": field.minimal_claimed}


def to_older_layout(data: dict, per_sample_operators: bool) -> dict:
    """Rewrite a parsed field file, in place, to the layout of earlier versions: ``samples`` holds
    an object of ``coords`` and ``area_weight`` per sample, and ``axes`` is gone. With
    ``per_sample_operators`` each sample also holds its ``shape_operator`` and the ``operators``
    table is gone, as before the table; without, the table stays."""
    points = itertools.product(*data.pop("axes"))
    data["samples"] = [{"coords": list(point), "area_weight": weight}
                       for point, weight in zip(points, data["samples"])]
    if per_sample_operators:
        samples = iter(data["samples"])
        for entry in data.pop("operators"):
            for _ in range(entry["count"]):
                next(samples)["shape_operator"] = copy.deepcopy(entry["shape_operator"])
    return data


def split_entries(data: dict) -> dict:
    """Rewrite a parsed field file's ``operators``, in place, to one entry per sample."""
    data["operators"] = [{"count": 1, "shape_operator": copy.deepcopy(entry["shape_operator"])}
                         for entry in data["operators"] for _ in range(entry["count"])]
    return data


def own_entry(data: dict, i: int) -> dict:
    """Split the ``operators`` run that holds sample ``i``, in place, so that sample ``i`` has an
    entry of its own, a copy of the run's; return that entry."""
    start = 0
    for k, entry in enumerate(data["operators"]):
        if start + entry["count"] > i:
            break
        start += entry["count"]
    parts = [{"count": count, "shape_operator": copy.deepcopy(entry["shape_operator"])}
             for count in (i - start, 1, start + entry["count"] - i - 1)]
    data["operators"][k:k + 1] = [part for part in parts if part["count"]]
    return parts[1]


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
