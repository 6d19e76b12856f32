"""Drawn ``catalog`` command lines: every one writes a field or exits 2 with one named error line.

Every surface is drawn with n = 4..6, a small grid (counts that may also be out
of range) and its geometry options, each given or left at its default. Numbers
come from the edges of the double range (NaN, infinities, zeros, subnormals,
1e+-300), from ordinary values and, for the catenoid, from around the end of
its profile. The draws are derandomized, so the module runs the same examples
every time.
"""

import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rigidity import surfaces
from rigidity.cli import main
from rigidity.fields import ShapeField, ingest_field

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300,
         1e300, -1e300]
# positive ordinary values twice, so that about half the draws are valid geometry
NUMBERS = st.one_of(st.sampled_from(EDGES), st.floats(-3.0, 3.0), st.floats(0.1, 10.0),
                    st.floats(0.1, 10.0))


def near_profile_end(n: int):
    """t_max values at, just below and just past the end of the n-dimensional catenoid profile."""
    t_end = surfaces._profile_end(n - 1)
    return st.one_of(
        st.sampled_from([t_end, math.nextafter(t_end, 0.0), math.nextafter(t_end, 1.0)]),
        st.floats(0.99, 1.01).map(lambda r: r * t_end))


def numbers(count):
    return st.lists(NUMBERS, min_size=count, max_size=count)


def text(values) -> str:
    return ",".join(repr(v) for v in values)


@st.composite
def catalog_args(draw):
    surface = draw(st.sampled_from(["sphere", "cylinder", "catenoid", "rotation", "ellipsoid"]))
    n = draw(st.integers(4, 6))
    directions = {"sphere": n, "ellipsoid": n}.get(surface, 2)
    # a grid is always given: the default sphere and ellipsoid grids hold 8^n and 6^n samples;
    # one in four has counts below 2 or more counts than the surface has directions
    good = st.lists(st.integers(2, 3), min_size=1, max_size=directions)
    grid = draw(st.one_of(good, good, good,
                          st.lists(st.integers(-1, 3), min_size=1, max_size=directions + 1)))
    args = ["catalog", f"--surface={surface}", f"--n={n}", "--grid=" + "x".join(map(str, grid))]
    options = {
        "sphere": {"radius": NUMBERS},
        "cylinder": {"radius": NUMBERS, "height": NUMBERS},
        "catenoid": {"t-max": st.one_of(NUMBERS, near_profile_end(n))},
        "rotation": {"profile-coeffs": st.integers(0, 3).flatmap(numbers).map(text),
                     "t-range": st.integers(1, 3).flatmap(numbers).map(text)},
        "ellipsoid": {"semi-axes": st.one_of(
            st.just(n + 1), st.integers(1, n + 2)).flatmap(numbers).map(text)},
    }[surface]
    for name, values in options.items():
        if draw(st.booleans()):
            value = draw(values)
            args.append(f"--{name}={value if isinstance(value, str) else repr(value)}")
    return args


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(catalog_args())
# a chart grid count of 0 was sampled before the spec checked it: ZeroDivisionError
@example(["catalog", "--surface=ellipsoid", "--n=4", "--grid=0"])
def test_catalog_writes_a_field_or_refuses_by_name(tmp_path, capsys, args):
    out = tmp_path / "field.json"
    out.write_text("previous\n", encoding="utf-8")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*args, f"--out={out}"])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("catalog: ") and err.count("\n") == 1, err
        assert out.read_text(encoding="utf-8") == "previous\n"
    else:
        assert err == ""
        assert isinstance(ingest_field(out), ShapeField)
