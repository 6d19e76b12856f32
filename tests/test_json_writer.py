"""Streamed JSON: the same bytes as json.dumps of reference dicts, and never an inf or NaN."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rigidity.cli import main
from rigidity.energy import report_to_dict, rotational_energy
from rigidity.errors import InvariantViolation, NonFiniteResult, SchemaError
from rigidity.fields import (
    CHUNK,
    SampleTable,
    ShapeField,
    SurfaceSpec,
    grid_points,
    ingest_field,
    save_field,
    write_json,
)
from rigidity.surfaces import (
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
)
from rigidity.verify import run_verification_campaign

from json_reference import (analyze_payload, dumped, field_to_table_dict, saved_dict, split_entries,
                            to_older_layout)

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
    assert path.read_bytes() == dumped(field_to_table_dict(field))


@pytest.mark.parametrize("build", CATALOG.values(), ids=CATALOG.keys())
def test_one_entry_per_sample_reads_the_same(tmp_path, build):
    # an operators table with an entry for every sample, runs or not, loads bit for bit, and
    # analyze writes the same report and CSV bytes for it as for the file save_field writes
    field = build()
    field_path, out, csv_path = tmp_path / "field.json", tmp_path / "report.json", tmp_path / "s.csv"
    outputs = []
    for split in (False, True):
        if split:
            field_path.write_bytes(dumped(split_entries(field_to_table_dict(field))))
        else:
            save_field(field, field_path)
        loaded = ingest_field(field_path)
        assert loaded.spec == field.spec and loaded.minimal_claimed == field.minimal_claimed
        for name in ("coords", "operators", "weights"):
            assert np.array_equal(getattr(loaded, name).view(np.int64),
                                  getattr(field, name).view(np.int64))
        assert main(["analyze", "--field", str(field_path), "--out", str(out),
                     "--csv", str(csv_path)]) == 0
        outputs.append((out.read_bytes(), csv_path.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("per_sample_operators", [False, True], ids=["table", "per_sample"])
@pytest.mark.parametrize("build", CATALOG.values(), ids=CATALOG.keys())
def test_older_layouts_are_refused_by_name(tmp_path, capsys, build, per_sample_operators):
    # files with an object per sample, as earlier versions wrote them, exit 2 with one line that
    # names the layout, and leave the report path alone
    field_path, out = tmp_path / "field.json", tmp_path / "report.json"
    data = to_older_layout(field_to_table_dict(build()), per_sample_operators)
    field_path.write_bytes(dumped(data))
    out.write_text("previous\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="per-sample layout of earlier versions"):
        ingest_field(field_path)
    capsys.readouterr()
    assert main(["analyze", "--field", str(field_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("analyze: samples are objects: ") and err.count("\n") == 1, err
    assert out.read_text(encoding="utf-8") == "previous\n"


@pytest.mark.parametrize("build", CATALOG.values(), ids=CATALOG.keys())
def test_saved_samples_are_one_weight_per_grid_point(tmp_path, build):
    # the benchmark checks a catalog file by the length of its samples list
    field = build()
    data = saved_dict(field, tmp_path)
    assert len(data["samples"]) == math.prod(field.spec.grid) == len(field.weights)
    assert [len(axis) for axis in data["axes"]] == list(field.spec.grid)
    assert all(type(weight) is float for weight in data["samples"])


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


@pytest.mark.parametrize("sample", [0, 5, 11])
def test_save_field_off_the_grid_names_the_first_sample(tmp_path, sample):
    # a sample whose coords are not the grid point of the axes, by one bit, is not written; the
    # axes are read off the first line of each direction, so moving sample 0's angle moves the
    # angle axis, and the first sample to disagree is the next one at that angle, sample 4
    field = build_cylinder(4, 2.0, 1.0, grid=[3, 4])
    coords = field.coords.copy()
    coords[sample, 1] = np.nextafter(coords[sample, 1], math.inf)
    path = tmp_path / "field.json"
    path.write_text("previous\n", encoding="utf-8")
    bad = 4 if sample == 0 else sample
    with pytest.raises(InvariantViolation, match=rf"^sample {bad}: coords \[.*\] are not \["):
        save_field(ShapeField(field.spec, coords, field.operators, field.weights), path)
    assert path.read_text(encoding="utf-8") == "previous\n"


def test_save_field_refuses_a_sample_count_off_the_grid(tmp_path):
    # the constructor holds N = prod(spec.grid), so 12 samples on a 4x4 grid never reach the file
    field = build_cylinder(4, 2.0, 1.0, grid=[3, 4])
    spec = dataclasses.replace(field.spec, grid=(4, 4))
    path = tmp_path / "field.json"
    with pytest.raises(InvariantViolation, match=r"weights have shape \(12,\), expected \(16,\)"):
        save_field(ShapeField(spec, field.coords, field.operators, field.weights), path)
    assert not path.exists()


def test_signed_zero_coords_read_back_bitwise(tmp_path):
    # -0.0 and 0.0 on one axis stay distinct points through the axes
    axes = [np.array([-0.0, 0.0, 5e-324]), np.array([-1.5, -0.0])]
    field = ShapeField(SurfaceSpec("Chart", 4, {}, (3, 2)), grid_points(axes),
                       np.broadcast_to(np.eye(4), (6, 4, 4)), np.full(6, 0.5))
    path = tmp_path / "field.json"
    save_field(field, path)
    assert saved_dict(field, tmp_path)["axes"] == [[-0.0, 0.0, 5e-324], [-1.5, -0.0]]
    assert path.read_bytes() == dumped(field_to_table_dict(field))
    loaded = ingest_field(path)
    assert np.array_equal(loaded.coords.view(np.int64), field.coords.view(np.int64))
    assert np.signbit(loaded.coords[[0, 1, 3, 5], [0, 0, 1, 1]]).all()


def edge_field(count: int) -> ShapeField:
    """``count`` samples on a grid of one direction, with the EDGE values in its axis, operators
    and weights, and integer spec params."""
    rng = np.random.default_rng(count)
    operators = rng.normal(size=(count, 4, 4))
    operators = operators + np.swapaxes(operators, 1, 2)
    operators[:, 0, 1] = operators[:, 1, 0] = np.resize(EDGE, count)
    coords = np.resize(EDGE, count).reshape(count, 1)
    weights = np.resize([5e-324, 1e16, 1.7976931348623157e308, 0.5], count)
    spec = SurfaceSpec("Chart", 4, {"count": count, "big": 10 ** 20, "scale": 2.0}, (count,))
    return ShapeField(spec, coords, operators, weights)


@pytest.mark.parametrize("count", [2, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_chunk_edges_and_extreme_values(tmp_path, count):
    field = edge_field(count)
    if count > 2 * CHUNK:
        # texts are made once per table: 0.25 recurs in pieces 0 and 2 of the weights but not in
        # piece 1, and 0.0 and -0.0 sit in different pieces of one operator entry and of the axis
        coords, operators, weights = field.coords.copy(), field.operators.copy(), field.weights.copy()
        coords[[5, 2 * CHUNK + 1], 0] = 0.1
        coords[9, 0], coords[2 * CHUNK + 2, 0] = 0.0, -0.0
        weights[[1, 2 * CHUNK + 1]] = 0.25
        operators[4, 2, 3] = operators[4, 3, 2] = 0.0
        operators[2 * CHUNK, 2, 3] = operators[2 * CHUNK, 3, 2] = -0.0
        field = ShapeField(field.spec, coords, operators, weights)
    path = tmp_path / "field.json"
    save_field(field, path)
    assert path.read_bytes() == dumped(field_to_table_dict(field))


@pytest.mark.parametrize("tail", [0, 1], ids=["one_entry_columns", "with_a_three_entry_column"])
def test_distinct_values_are_sorted_once_per_table(monkeypatch, tail):
    # np.unique runs per column, or per entry and once to merge, never per piece: a table of 3
    # rows sorts each column once, as one piece; past a piece, a column of E entries takes E + 1
    sorts = []

    def counted(*args, **kwargs):
        sorts.append(args[0])
        return unique(*args, **kwargs)

    unique = np.unique
    monkeypatch.setattr(np, "unique", counted)

    def calls(count):
        rng = np.random.default_rng(count)
        columns = {"x": rng.normal(size=count), "i": np.arange(count), "flag": np.arange(count) % 3 == 0,
                   "kind": np.resize(np.array(["a", "bb", "ccc"]), count)}
        if tail:
            columns["xyz"] = np.round(rng.normal(size=(count, 3)), 1)
        sorts.clear()
        assert "".join(SampleTable(columns).pieces("")).startswith("[")
        return len(sorts)

    assert calls(2 * CHUNK + 3) == calls(8 * CHUNK) == 2 + 4 * tail
    assert calls(3) == 2 + tail


def test_rendering_holds_less_than_the_columns(tmp_path):
    # an all-distinct float column is rendered once per table, so its texts are all held at once;
    # a string column is rendered a piece at a time. Together they stay under the columns' bytes
    count = 20000
    columns = {"value": np.random.default_rng(7).normal(size=count),
               "kind": np.array([f"{i:027d}" for i in range(count)])}
    assert columns["kind"].dtype == np.dtype("<U27")
    budget = sum(column.nbytes for column in columns.values())
    table = SampleTable(columns)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_json(tmp_path / "rows.json", {"rows": table})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < budget, (peak, budget)


def test_runs_split_at_any_bit_difference(tmp_path):
    # runs of 1 to 4 equal operators over several chunks; neighbouring runs that differ only
    # in the sign of a zero, or in the last bit of one entry, stay separate entries
    count = 2 * CHUNK + 3
    field = edge_field(count)
    runs = np.resize([1, 2, 3, 4], count)
    operators = field.operators[np.repeat(np.arange(count), runs)[:count]]
    operators[1:3, 2, 3] = operators[1:3, 3, 2] = 0.0
    operators[3:6] = operators[1]
    operators[3:6, 2, 3] = operators[3:6, 3, 2] = -0.0
    operators[6:9] = operators[3]
    operators[6:9, 0, 0] = np.nextafter(operators[3, 0, 0], math.inf)
    field = ShapeField(field.spec, field.coords, operators, field.weights)
    path = tmp_path / "field.json"
    save_field(field, path)
    reference = field_to_table_dict(field)
    assert [entry["count"] for entry in reference["operators"][:4]] == [1, 2, 3, 3]
    assert path.read_bytes() == dumped(reference)
    loaded = ingest_field(path)
    assert np.array_equal(loaded.operators.view(np.int64), operators.view(np.int64))


# finite doubles, weighted toward signed zeros, subnormals and the ends of the range
ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 1.7976931348623157e308,
                           -1.7976931348623157e308, 1e-300]) | st.floats(allow_nan=False,
                                                                         allow_infinity=False)
MATRICES = st.lists(ENTRIES, min_size=10, max_size=10)  # upper triangle of a symmetric 4 x 4


@settings(max_examples=50, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(MATRICES, st.integers(1, 30), st.booleans()), min_size=2, max_size=8),
       st.data())
def test_round_trip_is_bit_exact(tmp_path, runs, data):
    # the runs, twice over: a (2, len) grid; a twin run differs from the one before it only in
    # its last entry, by the sign of a zero or by one step toward zero
    operators = []
    for upper, length, twin in runs:
        matrix = np.zeros((4, 4))
        matrix[np.triu_indices(4)] = matrix.T[np.triu_indices(4)] = upper
        if twin and operators:
            matrix = operators[-1].copy()
            last = matrix[3, 3]
            matrix[3, 3] = -last if last == 0.0 else np.nextafter(last, 0.0)
        operators += [matrix] * length
    operators = np.array(operators * 2)
    count = len(operators)
    axes = [data.draw(st.lists(ENTRIES, min_size=2, max_size=2)),
            np.resize(data.draw(st.lists(ENTRIES, min_size=1, max_size=9)), count // 2)]
    coords = grid_points(axes)
    weights = np.resize(data.draw(st.lists(st.floats(min_value=5e-324,
                                                     max_value=1.7976931348623157e308),
                                           min_size=1, max_size=9)), count)
    field = ShapeField(SurfaceSpec("Chart", 4, {}, (2, count // 2)), coords, operators, weights)
    path = tmp_path / "field.json"
    save_field(field, path)
    assert path.read_bytes() == dumped(field_to_table_dict(field))
    loaded = ingest_field(path)
    assert loaded.spec == field.spec
    for name in ("coords", "operators", "weights"):
        assert np.array_equal(getattr(loaded, name).view(np.int64),
                              getattr(field, name).view(np.int64))


def test_strings_booleans_integers_and_nesting(tmp_path):
    kinds = ['quote " and backslash \\', "café", "100%", "plain"]
    columns = {"kind": np.array(kinds), "flag": [True, False, False, True], "index": np.arange(4),
               "value": np.array([0.1, -0.0, 2.5, 1e-7])}
    rows = [{"kind": k, "flag": f, "index": i, "value": v}
            for k, f, i, v in zip(kinds, columns["flag"], range(4), columns["value"].tolist())]
    path = tmp_path / "rows.json"
    write_json(path, {"inner": {"rows": SampleTable(columns)}, "listed": [SampleTable(columns), 1],
                       "top": 3})
    assert path.read_bytes() == dumped({"inner": {"rows": rows}, "listed": [rows, 1], "top": 3})


def test_one_column_table_is_a_list_of_its_entries(tmp_path):
    # a table of one column, not a dict, writes each sample's entry alone, nested for trailing axes
    path = tmp_path / "rows.json"
    values = np.array([0.1, -0.0, 0.1, 1e16])
    write_json(path, {"flat": SampleTable(values), "nested": SampleTable(np.arange(6).reshape(3, 2)),
                      "flags": SampleTable(np.array([True, False]))})
    assert path.read_bytes() == dumped({"flat": values.tolist(), "nested": [[0, 1], [2, 3], [4, 5]],
                                        "flags": [True, False]})
    values[2] = math.inf
    with pytest.raises(NonFiniteResult, match="sample 2: value inf is not JSON compliant"):
        write_json(path, {"flat": SampleTable(values)})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", ["area_weight", "coords", "shape_operator"])
def test_nonfinite_field_column_names_sample_and_key(tmp_path, key, bad):
    count = CHUNK + 5
    shapes = {"area_weight": (), "coords": (2,), "shape_operator": (3, 3)}
    columns = {k: np.ones((count,) + shape) for k, shape in shapes.items()}
    columns[key].reshape(count, -1)[CHUNK + 2, -1] = bad
    out = tmp_path / "field.json"
    out.write_text("previous\n", encoding="utf-8")
    with pytest.raises(NonFiniteResult, match=f"sample {CHUNK + 2}: {key} .*not JSON compliant"):
        write_json(out, {"samples": SampleTable(columns), "minimal_claimed": False})
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
        write_json(out, {"command": "analyze", "report": report_to_dict(broken)})
    assert not out.exists()


def test_written_table_is_freed_without_a_collection(tmp_path):
    # json.dumps(indent=2) runs the pure-Python encoder, whose closures form a reference cycle
    # that holds its default= function; that function must not keep the tables alive
    table = SampleTable({"x": np.arange(4.0), "kind": np.array(["a", "b", "c", "d"])})
    freed = weakref.ref(table)
    enabled = gc.isenabled()
    gc.disable()
    try:
        write_json(tmp_path / "rows.json", {"rows": table})
        del table
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
