"""Mutated field files: ingest returns a field or a named error, and analyze never ends in a traceback.

A small valid field file, as save_field writes it (grid axes, one area weight per
sample and a table of operator runs), with one operators entry per sample, and in
the per-sample layout of earlier versions that readers refuse, is edited at
random places: values replaced by other JSON types, numbers, strings or
containers, keys and list elements deleted, list elements duplicated. The draws
are derandomized, so the module runs the same examples every time.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rigidity.cli import main
from rigidity.errors import InvariantViolation, ParseError, SchemaError
from rigidity.fields import ShapeField, ingest_field
from rigidity.surfaces import build_catenoid

from json_reference import saved_dict, split_entries, to_older_layout

# other JSON types, counts and sizes, edge numbers (json writes nan and inf as NaN and Infinity),
# digit strings and containers of the wrong shape
JUNK = [None, True, False, 0, 1, 2, -1, 2 ** 70, 0.5, -0.0, 5e-324, 1e308, math.nan, math.inf,
        -math.inf, "", "4", "1.0", [], {}, [1.0], [[0.0]], [1, 2], {"count": 1}]


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    # a catenoid of 8 samples in 4 runs of equal operators, so the table has several entries
    table = saved_dict(build_catenoid(4, grid=[4, 2]), tmp_path_factory.mktemp("base"))
    return {"table": table, "entry_per_sample": split_entries(copy.deepcopy(table)),
            "older_layout": to_older_layout(copy.deepcopy(table), per_sample_operators=True)}


def paths(node, prefix=()):
    """The path, a tuple of keys and indices, of ``node`` and of everything inside it."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(child, prefix + (key,))


def mutate(doc, data):
    """``doc`` with one drawn edit: a value replaced, or a key or list element deleted or doubled."""
    path = data.draw(st.sampled_from(list(paths(doc))))
    how = data.draw(st.sampled_from(["replace", "delete", "double"]))
    if not path or how == "replace":
        value = data.draw(st.sampled_from(JUNK))
        if not path:
            return copy.deepcopy(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "replace":
        parent[key] = copy.deepcopy(value)
    elif how == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:  # a doubled key is a second copy under a new name, which readers ignore
        parent[f"{key}_copy"] = copy.deepcopy(parent[key])
    return doc


@settings(max_examples=120, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["table", "entry_per_sample", "older_layout"]), st.integers(1, 3), st.data())
def test_mutated_field_file_is_loaded_or_refused_by_name(tmp_path, capsys, layouts, layout, edits,
                                                         data):
    doc = copy.deepcopy(layouts[layout])
    for _ in range(edits):
        doc = mutate(doc, data)
    field_path, out = tmp_path / "field.json", tmp_path / "report.json"
    field_path.write_text(json.dumps(doc), encoding="utf-8")
    out.write_text("previous\n", encoding="utf-8")
    try:
        refused = not isinstance(ingest_field(field_path), ShapeField)  # always a field, if no error
    except (SchemaError, ParseError, InvariantViolation):  # value faults are InvariantViolations
        refused = True
    capsys.readouterr()
    code = main(["analyze", "--field", str(field_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if refused:
        assert code == 2
    if code == 2:
        assert err.startswith("analyze: ") and err.count("\n") == 1, err
        assert out.read_text(encoding="utf-8") == "previous\n"
