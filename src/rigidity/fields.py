"""The shape-field record, its JSON files, and the text writer that reports share.

A field is a ``SurfaceSpec`` plus per-sample coordinates, shape operators and
area weights. Its samples are the row-major ``grid_points`` of one axis per grid
direction, so a file keeps the axes, the weights and each run of equal
consecutive operators once. The writer streams ``SampleTable`` columns through
one chunked text renderer, ``text_rows``, which the per-sample CSV export
shares; it renders each distinct number of a column once per table.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import tempfile
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .defaults import tolerance
from .errors import (BadDimension, BadParams, InvariantViolation, NonFiniteResult, ParseError,
                     SchemaError, WriteError)

__all__ = [
    "SURFACE_KINDS",
    "SurfaceSpec",
    "ShapeField",
    "grid_points",
    "equal_runs",
    "CHUNK",
    "text_rows",
    "SampleTable",
    "json_pieces",
    "write_json",
    "write_text",
    "save_field",
    "field_from_dict",
    "ingest_field",
]

SURFACE_KINDS = ("Sphere", "Cylinder", "RotationHypersurface", "Catenoid", "Chart")


@dataclass(frozen=True)
class SurfaceSpec:
    """Construction record for a sampled hypersurface."""

    kind: str
    n: int
    params: dict
    grid: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in SURFACE_KINDS:
            raise BadParams(f"kind {self.kind!r} is not a surface kind; valid: {SURFACE_KINDS}")
        if self.n < 4:
            raise BadDimension(f"n, the hypersurface dimension, must be >= 4, got {self.n}")
        if not self.grid:
            raise BadParams("grid must contain at least one count")
        if any(g < 2 for g in self.grid):
            raise BadParams(f"grid counts must be >= 2, got {self.grid}")


@dataclass(frozen=True, eq=False)
class ShapeField:
    """Samples of an immersed hypersurface patch as read-only arrays: parameter ``coords``
    (N, len(spec.grid)), exactly symmetric finite shape ``operators`` (N, n, n) and positive
    finite quadrature ``weights`` (N,), with N = prod(spec.grid), one sample per grid point.
    Built and ingested fields pass the same checks, each naming the first sample that fails it."""

    spec: SurfaceSpec
    coords: np.ndarray
    operators: np.ndarray
    weights: np.ndarray
    minimal_claimed: bool = False

    def __post_init__(self) -> None:
        coords, operators, weights = (np.array(a, dtype=float)
                                      for a in (self.coords, self.operators, self.weights))
        count, n = math.prod(self.spec.grid), self.spec.n
        for name, array, shape in (("weights", weights, (count,)),
                                   ("operators", operators, (count, n, n)),
                                   ("coords", coords, (count, len(self.spec.grid)))):
            if array.shape != shape:
                raise InvariantViolation(f"{name} have shape {array.shape}, expected {shape}")
        _first_bad(~np.isfinite(coords).all(axis=1), "coords must be finite")
        _first_bad(~np.isfinite(operators).all(axis=(1, 2)), "shape operator entries must be finite")
        _first_bad((operators != np.swapaxes(operators, 1, 2)).any(axis=(1, 2)),
                   "shape operator entries are not exactly symmetric")
        _first_bad(~((weights > 0.0) & (weights < math.inf)),
                   lambda i: f"area weight must be positive and finite, got {weights[i]}")
        if self.minimal_claimed:
            tol = tolerance("minimality_tol")
            residual = (np.abs(np.trace(operators, axis1=1, axis2=2))
                        / (1.0 + np.sqrt((operators * operators).sum(axis=(1, 2)))))
            _first_bad(residual > tol,
                       lambda i: f"minimality residual {residual[i]:.3e} exceeds {tol:.1e}")
        for name, array in (("coords", coords), ("operators", operators), ("weights", weights)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def grid_points(axes) -> np.ndarray:
    """Row-major grid of the axes' values as an (N, len(axes)) array, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _first_bad(bad: np.ndarray, message) -> None:
    """InvariantViolation naming the first sample where ``bad`` holds; ``message`` may take its index."""
    if bad.any():
        i = int(np.argmax(bad))
        raise InvariantViolation(f"sample {i}: {message(i) if callable(message) else message}")


def equal_runs(operators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First sample and length of each run of bitwise-equal consecutive operators (N, n, n)."""
    bits = operators.view(np.int64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=(1, 2))])
    return starts, np.diff(np.r_[starts, len(operators)])


CHUNK = 256  # samples per piece of text that text_rows renders


def _table_texts(column: np.ndarray, strings) -> tuple[np.ndarray, np.ndarray]:
    """The text of each distinct value in a column (N, E) of numbers or booleans, made once
    (floats by bit pattern, so -0.0 keeps its sign), and each entry's index into those texts,
    in the least unsigned type that holds it: the repr of a number, ``strings`` of a boolean.

    Each sort holds one entry or, when more fit, as many entries as a ``CHUNK``-sample
    piece holds. Several sorts' distinct values are merged by one more sort, and each
    sort's codes are mapped into the merged values by one ``np.searchsorted``.
    """
    if column.dtype.kind == "b":
        return np.array([strings(False), strings(True)], dtype=object), column.view(np.uint8)
    floats = column.dtype.kind == "f"
    keys = column.view(np.int64) if floats else column
    step = max(1, CHUNK * keys.shape[1] // len(keys))
    found = [(values, codes.reshape(len(keys), -1).astype(np.min_scalar_type(len(values))))
             for values, codes in (np.unique(keys[:, k:k + step], return_inverse=True)
                                   for k in range(0, keys.shape[1], step))]
    # return_inverse keeps numpy's sort; without it numpy 2.4 hashes, which imports numpy.ma
    distinct = (np.unique(np.concatenate([v for v, _ in found]), return_inverse=True)[0]
                if found[1:] else found[0][0])
    kind = np.min_scalar_type(len(distinct))
    codes = np.concatenate([np.searchsorted(distinct, v).astype(kind)[c] for v, c in found], axis=1)
    values = distinct.view(float) if floats else distinct
    texts = np.empty(len(values), dtype=object)
    for lo in range(0, len(values), CHUNK):  # a piece at a time: no list of every value is made
        texts[lo:lo + CHUNK] = [repr(value) for value in values[lo:lo + CHUNK].tolist()]
    return texts, codes


def _piece_texts(part: np.ndarray, strings) -> np.ndarray:
    """``strings`` of each entry of ``part``, made once per distinct value."""
    values = part.ravel().tolist()
    made = {value: strings(value) for value in set(values)}
    return np.array([made[value] for value in values], dtype=object).reshape(part.shape)


def text_rows(columns, row: str, strings=json.dumps):
    """The text of one ``row`` per sample, ``CHUNK`` samples a piece: ``row`` holds a %s for each
    entry of a sample's ``columns`` (per-sample arrays, trailing axes flattened), in order.

    Numbers are written as their repr, which is what json and csv write, and anything
    else as ``strings`` of it. Each distinct number or boolean of a column is rendered
    once per table, and every piece indexes those texts; strings, which sorting would
    copy whole, are rendered once per distinct value of a piece.
    """
    columns = list(columns)
    count = len(columns[0])
    columns = [column.reshape(count, -1) for column in columns]
    tables = [_table_texts(column, strings) if column.dtype.kind in "biuf" and column.size
              else (None, None) for column in columns]
    for lo in range(0, count, CHUNK):
        hi = min(lo + CHUNK, count)
        values = np.concatenate([texts[codes[lo:hi]] if texts is not None
                                 else _piece_texts(column[lo:hi], strings)
                                 for column, (texts, codes) in zip(columns, tables)], axis=1)
        yield row * (hi - lo) % tuple(values.ravel().tolist())


class SampleTable:
    """Per-sample arrays (numbers, booleans or strings; trailing axes become nested lists) that
    ``write_json`` writes as a list: one key-sorted object per sample of a dict of columns, or the
    entries of one column. ``text_rows`` renders each distinct number of a column once per table."""

    def __init__(self, columns) -> None:
        self.keyed = isinstance(columns, dict)
        items = sorted(columns.items()) if self.keyed else [("value", columns)]
        self.columns = {key: np.asarray(value) for key, value in items}

    def nonfinite(self) -> str | None:
        """The first inf or NaN, by key then sample, as a message."""
        for key, column in self.columns.items():
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                i = int(np.argmin(np.isfinite(column).all(axis=tuple(range(1, column.ndim)))))
                return f"sample {i}: {key} {column[i].tolist()} is not JSON compliant"
        return None

    def pieces(self, indent: str):
        """The list's JSON text at ``indent``, rendered by ``text_rows`` into the row template
        that json.dumps makes of a row of placeholders."""
        # "\0s", not "\0": numpy strips a trailing NUL from the fill value
        marks = {key: np.full(column.shape[1:], "\0s", dtype=object).tolist()
                 for key, column in self.columns.items()}
        row = json.dumps(marks if self.keyed else marks["value"], indent=2, sort_keys=True)
        row = row.replace("%", "%%").replace('"\\u0000s"', "%s")
        rows = text_rows(self.columns.values(), f",\n{indent}  " + row.replace("\n", f"\n{indent}  "))
        yield "[\n" + next(rows)[2:]  # every table has a sample; no comma before the first
        yield from rows
        yield f"\n{indent}]"


def json_pieces(path, payload: dict):
    """The text of ``payload`` as ``json.dump(payload, indent=2, sort_keys=True)`` writes it, plus
    a newline, as an iterator of pieces.

    A SampleTable anywhere in ``payload`` is streamed from its columns through
    ``text_rows``, so no per-sample object or whole text is built. An inf or NaN
    raises NonFiniteResult naming ``path`` before this returns, so a caller can
    check a payload before it writes anything.
    """
    tables = []

    def mark(value):
        if not isinstance(value, SampleTable):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        tables.append(value)
        return f"\0table{len(tables) - 1}\0"

    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=mark)
    except ValueError as exc:
        raise NonFiniteResult(f"{path} not written: {exc}") from exc
    finally:
        # indent= selects the pure-Python encoder, a reference cycle that holds ``mark``: emptying
        # its cell frees the tables with the payload, not at the next collection
        found, tables = tables, None
    for table in found:
        if problem := table.nonfinite():
            raise NonFiniteResult(f"{path} not written: {problem}")
    parts = []
    for i, table in enumerate(found):  # in text order, the order json.dumps met them
        head, text = text.split(f'"\\u0000table{i}\\u0000"', 1)
        line = head[head.rfind("\n") + 1:]
        parts += [[head], table.pieces(line[:len(line) - len(line.lstrip(" "))])]
    return chain(*parts, [f"{text}\n"])


def write_json(path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as ``json_pieces`` renders it, through ``write_text``.

    Nothing is written when ``payload`` holds an inf or NaN. Once this returns,
    nothing of the writer's holds the payload's tables, so they go with the payload
    by reference counting, with no wait for a garbage collection.
    """
    write_text(path, json_pieces(path, payload))


def write_text(path, pieces) -> None:
    """Write text ``pieces`` to a temporary file, copied to ``path`` only once all are made.

    A ``path`` that cannot be opened or written raises WriteError naming it.
    """
    with tempfile.TemporaryFile() as tmp:
        for piece in pieces:
            tmp.write(piece.encode())
        tmp.seek(0)
        try:
            with open(path, "wb") as fh:
                shutil.copyfileobj(tmp, fh)
        except OSError as exc:
            raise WriteError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def save_field(field_: ShapeField, path) -> None:
    """Write ``field_`` as ``axes``, read off the samples on each grid direction's first line;
    ``samples``, the area weights in row-major grid order; and ``operators``, one entry with its
    ``count`` per run of equal consecutive shape operators. InvariantViolation names the first
    sample whose coords are not, bit for bit, its point of the axes' grid."""
    coords, grid = field_.coords, field_.spec.grid
    steps = [math.prod(grid[j + 1:]) for j in range(len(grid))]
    axes = [coords[:count * step:step, j] for j, (count, step) in enumerate(zip(grid, steps))]
    points = grid_points(axes)
    _first_bad((points.view(np.int64) != coords.view(np.int64)).any(axis=1),
               lambda i: f"coords {coords[i].tolist()} are not {points[i].tolist()} of the axes")
    starts, runs = equal_runs(field_.operators)
    write_json(path, {
        "spec": dict(asdict(field_.spec), grid=list(grid)),
        "axes": [axis.tolist() for axis in axes],
        "operators": SampleTable({"count": runs, "shape_operator": field_.operators[starts]}),
        "samples": SampleTable(field_.weights),
        "minimal_claimed": field_.minimal_claimed,
    })


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _numbers(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """``value`` as a float array if it is JSON numbers, not booleans, nested to ``shape``; else None."""
    try:
        array = np.array(value)
    except (TypeError, ValueError, OverflowError):  # ragged, or an integer beyond int64
        return None
    if array.dtype.kind not in "if" or array.shape != shape:
        return None
    items = [value]
    for _ in shape:
        items = chain.from_iterable(items)
    # numpy reads true and false among numbers as 1.0 and 0.0
    return array.astype(float) if set(map(type, items)) <= {int, float} else None


def _stacked(values: list, shape: tuple[int, ...], what: str, item: str = "sample") -> np.ndarray:
    """The ``values`` as one (N, *shape) float array; SchemaError names the first bad ``item``."""
    array = _numbers(values, (len(values),) + shape)
    if array is None:
        bad = next(i for i, value in enumerate(values) if _numbers(value, shape) is None)
        raise SchemaError(f"{item} {bad}: {what}")
    return array


def field_from_dict(data: dict) -> ShapeField:
    """The ShapeField of a parsed field file; SchemaError on bad keys, types or shapes, and on
    the per-sample layout of earlier versions, with an object per sample."""
    _expect(isinstance(data, dict), "top level must be an object")
    raw_samples = data.get("samples")
    _expect(not (isinstance(raw_samples, list) and raw_samples and isinstance(raw_samples[0], dict)),
            "samples are objects: this is the per-sample layout of earlier versions, which is not "
            "read; write the field again with catalog")
    for key in ("spec", "axes", "operators", "samples", "minimal_claimed"):
        _expect(key in data, f"missing top-level key {key!r}")
    _expect(type(data["minimal_claimed"]) is bool, "minimal_claimed must be true or false")
    raw_spec = data["spec"]
    _expect(isinstance(raw_spec, dict) and raw_spec.keys() == {"grid", "kind", "n", "params"},
            "spec must be an object with the keys grid, kind, n and params, and no other")
    # type() is int: a JSON integer, where isinstance would also let a bool through
    _expect(type(raw_spec["n"]) is int, "spec n must be an integer")
    _expect(isinstance(raw_spec["grid"], list) and all(type(g) is int for g in raw_spec["grid"]),
            "spec grid must be a list of integer counts")
    try:
        spec = SurfaceSpec(
            kind=str(raw_spec["kind"]),
            n=raw_spec["n"],
            params=dict(raw_spec["params"]),
            grid=tuple(raw_spec["grid"]),
        )
    except (TypeError, ValueError, BadParams, BadDimension) as exc:
        raise SchemaError(f"spec: {exc}") from exc
    _expect(isinstance(raw_samples, list) and len(raw_samples) == math.prod(spec.grid),
            f"samples must be a list of {math.prod(spec.grid)} area weights, one per point of the "
            f"spec grid {list(spec.grid)}")
    raw_axes, axes = data["axes"], []
    _expect(isinstance(raw_axes, list) and len(raw_axes) == len(spec.grid),
            f"axes must be a list of {len(spec.grid)} lists, one per grid direction")
    for j, (axis, count) in enumerate(zip(raw_axes, spec.grid)):
        axes.append(_numbers(axis, (count,)))
        _expect(axes[-1] is not None, f"axes {j} must be a list of {count} numbers")
    table = data["operators"]
    _expect(isinstance(table, list)
            and all(isinstance(e, dict) and e.keys() >= {"count", "shape_operator"} for e in table),
            "operators must be a list of objects with keys 'count' and 'shape_operator'")
    counts = [e["count"] for e in table]
    bad = next((i for i, k in enumerate(counts) if type(k) is not int or k < 1), None)
    _expect(bad is None, f"operators entry {bad}: count must be an integer >= 1")
    _expect(sum(counts) == len(raw_samples),
            f"operators counts add up to {sum(counts)}, but there are {len(raw_samples)} samples")
    operators = _stacked([e["shape_operator"] for e in table], (spec.n, spec.n),
                         f"shape_operator must be a list of {spec.n} lists of {spec.n} numbers",
                         "operators entry")
    return ShapeField(
        spec, grid_points(axes),
        # counts of at least 1 that add up to N are all 1 when there are N entries
        operators if len(table) == len(raw_samples) else np.repeat(operators, counts, axis=0),
        _stacked(raw_samples, (), "area weight must be a number"),
        minimal_claimed=data["minimal_claimed"])


def ingest_field(path) -> ShapeField:
    """Load and validate a shape-field JSON file. A ``path`` that cannot be read, is not UTF-8
    text or is not JSON raises ParseError naming it.

    The cyclic garbage collector is paused while the parsed tree is alive, and the
    caller's setting is restored on return. The tree (about 390 lists and dicts for a
    64x32 catenoid, 2.6k for an n = 6 ellipsoid of 324 distinct operators) holds no
    cycle, so reference counting frees it; with the collector running, it would outlive
    young collections, be promoted, and start full collections of every object.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return field_from_dict(data)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    finally:
        if enabled:
            gc.enable()
