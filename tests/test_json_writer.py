"""Streamed JSON: the same bytes as json.dumps of reference dicts, and never an inf or NaN."""

import dataclasses
import math

import numpy as np
import pytest

from rigidity.cli import main
from rigidity.energy import report_to_dict, rotational_energy
from rigidity.errors import NonFiniteResult
from rigidity.surfaces import (
    _CHUNK,
    SampleTable,
    ShapeField,
    SurfaceSpec,
    _write_json,
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
    ingest_field,
    save_field,
)
from rigidity.verify import run_verification_campaign

from json_reference import analyze_payload, dumped, field_to_dict

CATALOG = {
    "sphere": lambda: build_sphere(4, 1.5, grid=[3, 3, 3, 4]),
    "cylinder": lambda: build_cylinder(4, 2.0, 1.0, grid=[6, 4]),
    "catenoid": lambda: build_catenoid(4, grid=[24, 8]),
    "rotation": lambda: build_rotation_hypersurface(5, lambda t: 1.0 + 0.5 * t * t, grid=[8, 3],
                                                    fp=lambda t: t, fpp=lambda t: 1.0),
    "ellipsoid": lambda: build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[3, 3, 3, 4]),
}

# signed zero, the least subnormal, the first double repr writes in exponent form, the largest double
EDGE = [-0.0, 5e-324, 1e16, 1.7976931348623157e308]


@pytest.mark.parametrize("build", CATALOG.values(), ids=CATALOG.keys())
def test_field_bytes_match_reference(tmp_path, build):
    field = build()
    path = tmp_path / "field.json"
    save_field(field, path)
    assert path.read_bytes() == dumped(field_to_dict(field))


@pytest.mark.parametrize("build", CATALOG.values(), ids=CATALOG.keys())
def test_analyze_report_bytes_match_reference(tmp_path, build):
    field_path, out = tmp_path / "field.json", tmp_path / "report.json"
    save_field(build(), field_path)
    assert main(["analyze", "--field", str(field_path), "--out", str(out)]) == 0
    field = ingest_field(field_path)
    assert out.read_bytes() == dumped(analyze_payload(field_path, field, rotational_energy(field)))


def test_verify_report_bytes_match_reference(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--n", "4,5", "--samples", "60", "--seed", "11", "--out", str(out)]) == 0
    assert out.read_bytes() == dumped(run_verification_campaign([4, 5], 60, 11))


def edge_field(count: int) -> ShapeField:
    """``count`` samples with the EDGE values in coords, operators and weights (the writer
    does not read the grid), and integer spec params."""
    rng = np.random.default_rng(count)
    operators = rng.normal(size=(count, 4, 4))
    operators = operators + np.swapaxes(operators, 1, 2)
    operators[:, 0, 1] = operators[:, 1, 0] = np.resize(EDGE, count)
    coords = np.column_stack([np.resize(EDGE, count), rng.normal(size=count)])
    weights = np.resize([5e-324, 1e16, 1.7976931348623157e308, 0.5], count)
    spec = SurfaceSpec("Chart", 4, {"count": count, "big": 10 ** 20, "scale": 2.0}, (2, 2))
    return ShapeField(spec, coords, operators, weights)


@pytest.mark.parametrize("count", [1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_chunk_edges_and_extreme_values(tmp_path, count):
    field = edge_field(count)
    path = tmp_path / "field.json"
    save_field(field, path)
    assert path.read_bytes() == dumped(field_to_dict(field))


def test_strings_booleans_integers_and_nesting(tmp_path):
    kinds = ['quote " and backslash \\', "café", "100%", "plain"]
    columns = {"kind": np.array(kinds), "flag": [True, False, False, True], "index": np.arange(4),
               "value": np.array([0.1, -0.0, 2.5, 1e-7])}
    rows = [{"kind": k, "flag": f, "index": i, "value": v}
            for k, f, i, v in zip(kinds, columns["flag"], range(4), columns["value"].tolist())]
    path = tmp_path / "rows.json"
    _write_json(path, {"inner": {"rows": SampleTable(columns)}, "listed": [SampleTable(columns), 1],
                       "top": 3})
    assert path.read_bytes() == dumped({"inner": {"rows": rows}, "listed": [rows, 1], "top": 3})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", ["area_weight", "coords", "shape_operator"])
def test_nonfinite_field_column_names_sample_and_key(tmp_path, key, bad):
    count = _CHUNK + 5
    shapes = {"area_weight": (), "coords": (2,), "shape_operator": (3, 3)}
    columns = {k: np.ones((count,) + shape) for k, shape in shapes.items()}
    columns[key].reshape(count, -1)[_CHUNK + 2, -1] = bad
    out = tmp_path / "field.json"
    out.write_text("previous\n", encoding="utf-8")
    with pytest.raises(NonFiniteResult, match=f"sample {_CHUNK + 2}: {key} .*not JSON compliant"):
        _write_json(out, {"samples": SampleTable(columns), "minimal_claimed": False})
    assert out.read_text(encoding="utf-8") == "previous\n"


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("key", ["coords", "weight", "tracefree_norm_sq", "tracefree_sq_norm_sq",
                                 "defect", "relative_defect"])
def test_nonfinite_report_column_names_sample_and_key(tmp_path, key, bad):
    report = rotational_energy(build_cylinder(4, 1.0, 2.0, grid=[4, 3]))
    column = report.pointwise[key].copy()
    column.reshape(len(column), -1)[7, 0] = bad
    broken = dataclasses.replace(report, pointwise=dict(report.pointwise, **{key: column}))
    out = tmp_path / "report.json"
    with pytest.raises(NonFiniteResult, match=f"sample 7: {key} .*not JSON compliant"):
        _write_json(out, {"command": "analyze", "report": report_to_dict(broken)})
    assert not out.exists()
