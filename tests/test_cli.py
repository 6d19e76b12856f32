"""CLI contract: subcommands, exit codes, determinism, file formats."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigidity
from rigidity import cli
from rigidity.cli import main
from rigidity.defaults import TOLERANCES, VERSION
from rigidity.errors import BadParams, RigidityError, SchemaError
from rigidity.fields import field_from_dict, ingest_field, save_field
from rigidity.surfaces import build_cylinder, build_ellipsoid

from json_reference import own_entry, saved_dict, split_entries, to_older_layout

# the check families of a verify report, in the order the campaign runs them
CHECK_FAMILIES = (
    "newton_gap",
    "prop_p3",
    "prop_p4",
    "cubic_bound",
    "main_inequality",
    "sigma_norm_identities",
    "lambda_scan",
    "kn_identity_suite",
)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestVerify:
    def test_small_campaign_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--n", "4,5,6", "--samples", "200", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["version"] == VERSION
        assert set(report["checks"].keys()) == set(CHECK_FAMILIES)
        assert all(stats["pass"] for stats in report["checks"].values())
        assert report["tolerances"] == {k: pytest.approx(v) for k, v in TOLERANCES.items()}
        assert report["pass"] is True

    def test_zero_samples_usage_error(self, tmp_path, capsys):
        code = main(["verify", "--samples", "0", "--seed", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "samples must be >= 1" in capsys.readouterr().err

    def test_seed_required(self, tmp_path):
        code = main(["verify", "--samples", "10", "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["verify", "--n", "4,5", "--samples", "120", "--seed", "7",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        outputs = []
        for threads in (1, 2, 4, 8):
            out = tmp_path / f"t{threads}.json"
            assert main(["verify", "--n", "4,5", "--samples", "150", "--seed", "3",
                         "--threads", str(threads), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    def test_seed_out_of_range_exit_2(self, tmp_path, capsys, seed):
        code = main(["verify", "--samples", "10", "--seed", seed,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "seed must be in" in capsys.readouterr().err

    def test_bad_dimension(self, tmp_path, capsys):
        code = main(["verify", "--n", "3", "--samples", "10", "--seed", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert ">= 4" in capsys.readouterr().err


# (surface, option, value, the parameter the error must name, further argv); a case's id is
# its strings joined by "-"
BAD_GEOMETRY = [
    ("sphere", "--radius", "nan", "radius", ()),
    ("cylinder", "--height", "nan", "height", ()),
    ("sphere", "--radius", "1e300", "radius", ()),
    ("cylinder", "--radius", "1e300", "radius", ()),
    ("sphere", "--radius", "1e-300", "radius", ()),
    ("cylinder", "--radius", "1e-300", "radius", ()),
    ("ellipsoid", "--semi-axes", "nan,1,1,1,1", "semi-axes", ()),
    ("ellipsoid", "--semi-axes", "inf,1,1,1,1", "semi-axes", ()),
    # squares that leave the double range in the chart's Gram product
    ("ellipsoid", "--semi-axes", "1e300,1,1,1,1", "semi-axis 0", ()),
    ("ellipsoid", "--semi-axes", "1,1,1,1,1e-300", "semi-axis 4", ()),
    # an axis ratio of 1 / chart_rank_tol, which the chart Jacobian cannot resolve
    ("ellipsoid", "--semi-axes", "1e8,1,1,1,1", "semi-axes", ("--grid", "3x3x3x3")),
    ("ellipsoid", "--semi-axes", "1e-8,1,1,1,1", "semi-axes", ("--grid", "3x3x3x3")),
    ("ellipsoid", "--semi-axes", "1,1,1e4,1,1e-4", "semi-axes", ("--grid", "3x3x3x3")),
    # a smaller ratio whose metric still has a Cholesky pivot ratio under chart_rank_tol
    ("ellipsoid", "--semi-axes", "3e7,1,1,1,1", "semi-axes", ("--grid", "3x3x3x3")),
    ("catenoid", "--t-max", "50", "t_max", ()),
    # the end of the n = 4 profile, t_end = B(1/3, 1/2) / 6, and just past it
    ("catenoid", "--t-max", "0.7010910526627274", "t_end", ()),
    ("catenoid", "--t-max", "0.7010910526627275", "t_end", ()),
    # finite scales whose area weights leave the double range
    ("sphere", "--radius", "1.14e77", "radius", ("--grid", "2")),
    ("ellipsoid", "--semi-axes", "1e100,1e100,1e100,1e100,1e100", "semi-axes", ("--grid", "2")),
    ("cylinder", "--radius", "1e102", "height", ("--height", "1e300")),
    ("rotation", "--profile-coeffs", "1e200", "profile", ()),
    ("rotation", "--profile-coeffs", "1,0,1e200", "profile", ()),
    ("rotation", "--profile-coeffs", "inf", "profile", ()),
    ("rotation", "--profile-coeffs", "nan", "profile", ()),
    # coefficients whose derivative coefficients leave the double range
    ("rotation", "--profile-coeffs", "1,0,1e308", "profile", ()),
    ("rotation", "--profile-coeffs", "1e308", "profile", ()),
    ("rotation", "--profile-coeffs", "1,1e308", "profile", ()),
]


class TestCatalog:
    def test_catenoid_round_trip(self, tmp_path):
        out = tmp_path / "cat.json"
        code = main(["catalog", "--surface", "catenoid", "--n", "4",
                     "--grid", "24x4", "--out", str(out)])
        assert code == 0
        field = ingest_field(out)
        assert field.spec.kind == "Catenoid"
        assert field.minimal_claimed
        round_trip = tmp_path / "cat2.json"
        save_field(field, round_trip)
        assert out.read_bytes() == round_trip.read_bytes()

    def test_cylinder_constant_eigenvalues(self, tmp_path):
        out = tmp_path / "cyl.json"
        code = main(["catalog", "--surface", "cylinder", "--n", "4", "--radius", "2",
                     "--grid", "4x4", "--out", str(out)])
        assert code == 0
        field = ingest_field(out)
        assert (field.operators == field.operators[0]).all()

    def test_unknown_surface_lists_names(self, tmp_path, capsys):
        code = main(["catalog", "--surface", "torus", "--n", "4",
                     "--out", str(tmp_path / "t.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "catenoid" in err and "cylinder" in err

    def test_bad_params_exit_2(self, tmp_path, capsys):
        code = main(["catalog", "--surface", "sphere", "--n", "4", "--radius", "-1",
                     "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_rotation_without_coefficients_exit_2(self, tmp_path, capsys):
        code = main(["catalog", "--surface", "rotation", "--n", "4", "--profile-coeffs", "",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "profile-coeffs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--surface", "rotation", "--profile-coeffs="],
        ["--surface", "rotation", "--t-range=1"],
        ["--surface", "ellipsoid", "--semi-axes=1,2"],
    ], ids=["no_coefficients", "one_t_value", "two_semi_axes"])
    def test_argument_errors_are_bad_params(self, argv):
        args = cli.make_parser().parse_args(["catalog", "--n", "4", *argv, "--out", "unused.json"])
        with pytest.raises(BadParams):
            cli._build_surface(args)

    @pytest.mark.parametrize("surface, grid, message", [
        ("sphere", "2x3x4x5x6x7", "grid [2, 3, 4, 5, 6, 7] has 6 counts, but the surface has 4"),
        ("cylinder", "4x2x2", "grid [4, 2, 2] has 3 counts, but the surface has 2"),
        ("ellipsoid", "2x2x2x2x2", "grid [2, 2, 2, 2, 2] has 5 counts, but the surface has 4"),
    ], ids=["sphere", "cylinder", "ellipsoid"])
    def test_over_long_grid_is_refused(self, tmp_path, capsys, surface, grid, message):
        # a grid with more counts than the surface has directions is not cut short
        out = tmp_path / "field.json"
        code = main(["catalog", "--surface", surface, "--n", "4", "--grid", grid, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert f"catalog: {message} directions\n" == capsys.readouterr().err

    @pytest.mark.parametrize("surface, grid", [
        ("sphere", "2"), ("cylinder", "4x2"), ("catenoid", "8x2"), ("rotation", "4x2"),
        ("ellipsoid", "2x2x2x3"),
    ])
    def test_every_kind_round_trips(self, tmp_path, surface, grid):
        out = tmp_path / "field.json"
        assert main(["catalog", "--surface", surface, "--n", "4", "--grid", grid,
                     "--out", str(out)]) == 0
        again = tmp_path / "again.json"
        save_field(ingest_field(out), again)
        assert out.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_catenoid_t_max_not_finite_exit_2(self, tmp_path, capsys, t_max):
        out = tmp_path / "c.json"
        code = main(["catalog", "--surface", "catenoid", "--n", "4", "--t-max", t_max,
                     "--out", str(out)])
        assert code == 2
        assert "t_max must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_profile_tol_is_not_an_option(self, tmp_path):
        assert main(["catalog", "--surface", "catenoid", "--n", "4", "--profile-tol", "1e-3",
                     "--out", str(tmp_path / "c.json")]) == 2

    def test_ellipsoid_semi_axes_validation(self, tmp_path, capsys):
        code = main(["catalog", "--surface", "ellipsoid", "--n", "4",
                     "--semi-axes", "1,1.2", "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert "semi-axes" in capsys.readouterr().err

    def test_pivot_refusal_names_the_semi_axes_and_their_ratio(self, tmp_path, capsys):
        code = main(["catalog", "--surface", "ellipsoid", "--n", "4", "--semi-axes", "3e7,1,1,1,1",
                     "--grid", "3x3x3x3", "--out", str(tmp_path / "e.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "catalog: chart Jacobian is nearly rank deficient for semi-axes "
            "[30000000.0, 1.0, 1.0, 1.0, 1.0] (ratio largest / smallest 3e+07)\n")

    def test_a_long_last_semi_axis_builds(self, tmp_path):
        # the finite-difference route refused it: its default step failed the step-halving check
        out = tmp_path / "e.json"
        assert main(["catalog", "--surface", "ellipsoid", "--n", "4", "--grid", "3",
                     "--semi-axes", "1,1,1,1,1e7", "--out", str(out)]) == 0
        field = ingest_field(out)
        assert field.spec.params == {"semi_axes": [1.0, 1.0, 1.0, 1.0, 1e7]}
        report = tmp_path / "r.json"
        assert main(["analyze", "--field", str(out), "--out", str(report)]) == 0
        assert read_json(report)["report"]["classification"] == "Generic"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("surface, option, value, named, extra", BAD_GEOMETRY,
                             ids=["-".join(case[:4] + case[4]) for case in BAD_GEOMETRY])
    def test_bad_geometry_exit_2_naming_the_parameter(self, tmp_path, capsys, surface, option,
                                                      value, named, extra):
        # refused with one line that names the parameter; numpy warnings are errors here
        out = tmp_path / "field.json"
        out.write_text("previous field\n", encoding="utf-8")
        code = main(["catalog", "--surface", surface, "--n", "4", f"{option}={value}", *extra,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(rf"catalog: [^\n]*\b{named}\b[^\n]*\n", err), err
        assert "Traceback" not in err
        assert out.read_text(encoding="utf-8") == "previous field\n"


@pytest.fixture(scope="module")
def catenoid_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "catenoid.json"
    assert main(["catalog", "--surface", "catenoid", "--n", "4",
                 "--grid", "16x4", "--out", str(path)]) == 0
    return path


class TestAnalyze:
    def test_catenoid_assert_zero_passes(self, tmp_path, catenoid_path):
        out = tmp_path / "report.json"
        code = main(["analyze", "--field", str(catenoid_path), "--out", str(out),
                     "--assert-zero", "1e-6"])
        assert code == 0
        report = read_json(out)
        assert report["report"]["classification"] == "CatenoidCandidate"

    @pytest.mark.parametrize("split", [False, True], ids=["table", "entry_per_sample"])
    def test_perturbed_operator_fails_the_catenoid_gate(self, tmp_path, catenoid_path, split):
        # one sample's operator moved off its orbit's by a symmetric 1e-3 is no catenoid, in an
        # operators table of runs and in one with an entry for every sample alike
        data = read_json(catenoid_path)
        operator = (split_entries(data)["operators"][9] if split else own_entry(data, 9))["shape_operator"]
        operator[0][1] += 1e-3
        operator[1][0] += 1e-3
        field_path, out = tmp_path / "field.json", tmp_path / "report.json"
        field_path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["analyze", "--field", str(field_path), "--out", str(out)]) == 0
        report = read_json(out)["report"]
        assert report["classification"] != "CatenoidCandidate" and report["E_rot"] > 0

    def test_ellipsoid_assert_zero_fails(self, tmp_path):
        field_path = tmp_path / "ell.json"
        assert main(["catalog", "--surface", "ellipsoid", "--n", "4",
                     "--grid", "3x3x3x4",
                     "--out", str(field_path)]) == 0
        out = tmp_path / "report.json"
        code = main(["analyze", "--field", str(field_path), "--out", str(out),
                     "--assert-zero", "1e-6"])
        assert code == 1
        assert read_json(out)["report"]["E_rot"] > 0.0

    def test_sphere_all_umbilic(self, tmp_path):
        field_path = tmp_path / "sphere.json"
        assert main(["catalog", "--surface", "sphere", "--n", "4", "--grid", "4",
                     "--out", str(field_path)]) == 0
        out = tmp_path / "report.json"
        assert main(["analyze", "--field", str(field_path), "--out", str(out)]) == 0
        report = read_json(out)
        assert report["report"]["classification"] == "AllUmbilic"
        assert report["report"]["E_rot"] == 0.0
        assert report["report"]["E_rot_conf"] == 0.0

    @pytest.mark.parametrize("surface", [
        ["--surface", "sphere", "--n", "7", "--radius", "0.3", "--grid", "2"],
        ["--surface", "ellipsoid", "--n", "4", "--semi-axes", "1,1,1,1,1", "--grid", "3"],
    ], ids=["sphere", "ellipsoid"])
    def test_round_sphere_all_umbilic(self, tmp_path, surface):
        # each exited 2 with NotTraceFree: the trace of rounding measured against rounding
        field_path = tmp_path / "sphere.json"
        assert main(["catalog", *surface, "--out", str(field_path)]) == 0
        out = tmp_path / "report.json"
        assert main(["analyze", "--field", str(field_path), "--out", str(out)]) == 0
        report = read_json(out)["report"]
        assert (report["classification"], report["E_rot"], report["E_rot_conf"]) == (
            "AllUmbilic", 0.0, 0.0)

    def test_csv_export(self, tmp_path, catenoid_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "samples.csv"
        assert main(["analyze", "--field", str(catenoid_path), "--out", str(out),
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("coord0,coord1,tracefree_norm_sq")
        assert len(lines) == 1 + len(ingest_field(catenoid_path).weights)

    def test_failed_csv_write_leaves_csv_untouched(self, tmp_path, catenoid_path, monkeypatch,
                                                   capsys):
        def failing(report):
            yield "coord0\r\n"
            raise RigidityError("rendering failed")

        monkeypatch.setattr(cli, "report_csv", failing)
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("previous\n", encoding="utf-8")
        assert main(["analyze", "--field", str(catenoid_path), "--out", str(tmp_path / "r.json"),
                     "--csv", str(csv_path)]) == 2
        assert "rendering failed" in capsys.readouterr().err
        assert csv_path.read_text(encoding="utf-8") == "previous\n"

    def test_stored_umbilic_flags_are_ignored(self, tmp_path, catenoid_path):
        # analyze decides the umbilic test from the operators, so a file that carries a list of
        # per-sample flags as a key of its own, even a contradicting one, reads the same
        data = read_json(catenoid_path)
        assert "umbilic_flag" not in data
        field_path, out, csv_path = (tmp_path / name for name in ("f.json", "r.json", "s.csv"))
        outputs = []
        for flags in (True, False):
            edited = json.loads(json.dumps(data))
            if flags:
                # a catenoid has no umbilic sample
                edited["umbilic_flag"] = [i == 3 for i in range(len(edited["samples"]))]
            field_path.write_text(json.dumps(edited, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
            assert main(["analyze", "--field", str(field_path), "--out", str(out),
                         "--csv", str(csv_path)]) == 0
            outputs.append((out.read_bytes(), csv_path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert not any(row["umbilic"] for row in read_json(out)["report"]["pointwise"])

    def test_schema_error_names_sample(self, tmp_path, catenoid_path, capsys):
        data = read_json(catenoid_path)
        own_entry(data, 3)["shape_operator"][0][1] = 99.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code = main(["analyze", "--field", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "sample 3" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{", encoding="utf-8")
        code = main(["analyze", "--field", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_infinite_weight_exit_2(self, tmp_path, catenoid_path, capsys):
        data = read_json(catenoid_path)
        data["samples"][5] = math.inf
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code = main(["analyze", "--field", str(bad), "--out", str(tmp_path / "r.json"),
                     "--assert-zero", "1e-6"])
        assert code == 2
        assert "sample 5" in capsys.readouterr().err

    def test_nan_coordinate_exit_2_naming_sample(self, tmp_path, catenoid_path, capsys):
        data = read_json(catenoid_path)
        data["axes"][1][2] = math.nan  # the angle of samples 2, 6, 10, ... on the 16x4 grid
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data), encoding="utf-8")  # json writes NaN, and reads it back
        assert math.isnan(read_json(bad)["axes"][1][2])
        out = tmp_path / "r.json"
        assert main(["analyze", "--field", str(bad), "--out", str(out)]) == 2
        assert "sample 2: coords must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-6"])
    def test_assert_zero_tol_not_finite_or_negative_exit_2(self, tmp_path, capsys, tol):
        # the chart ellipsoid has E_rot_conf > 0, so a TOL that let it through would exit 0
        field_path = tmp_path / "ell.json"
        assert main(["catalog", "--surface", "ellipsoid", "--n", "4", "--grid", "3x3x3x3",
                     "--out", str(field_path)]) == 0
        assert main(["analyze", "--field", str(field_path), "--out", str(tmp_path / "ok.json"),
                     "--assert-zero", "1e-6"]) == 1
        out = tmp_path / "r.json"
        code = main(["analyze", "--field", str(field_path), "--out", str(out),
                     f"--assert-zero={tol}"])
        assert code == 2
        assert "TOL must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_assert_zero_fails_on_nan(self, tmp_path, catenoid_path, monkeypatch):
        real = cli.rotational_energy

        def nan_energy(field):
            return dataclasses.replace(real(field), e_rot_conf=math.nan)

        monkeypatch.setattr(cli, "rotational_energy", nan_energy)
        code = main(["analyze", "--field", str(catenoid_path),
                     "--out", str(tmp_path / "r.json"), "--assert-zero", "1e-6"])
        assert code == 1

    @pytest.mark.parametrize("edit", [
        lambda d: d["spec"].update(n="four"),
        lambda d: d["spec"].update(grid="16x4"),
        lambda d: d["spec"].update(params=[1.0, 2.0]),
        lambda d: d["axes"].__setitem__(0, "abc"),
        lambda d: d["operators"][0]["shape_operator"][1].pop(),
        lambda d: d.update(minimal_claimed="no"),
        lambda d: d["spec"].update(n=4.9),
        lambda d: d["spec"].update(grid=[16.7, 4.2]),
        lambda d: d["samples"].__setitem__(0, True),
        lambda d: d["axes"].append([1.0, 2.0]),
        lambda d: d["axes"].__setitem__(1, []),
        lambda d: d["samples"].__setitem__(0, 10 ** 400),
        # no grid direction: one sample with no coordinates
        lambda d: d.update(spec=dict(d["spec"], grid=[]), axes=[], samples=d["samples"][:1]),
        lambda d: d["spec"].update(kind="Torus"),
        # no version of the package writes this kind
        lambda d: d["spec"].update(kind="FieldFile"),
        lambda d: to_older_layout(d, per_sample_operators=True)["samples"][0]["shape_operator"][1].pop(),
    ], ids=["string_n", "string_grid", "list_params", "string_coords", "ragged_operator",
            "string_minimal_claimed", "float_n", "float_grid", "bool_weight",
            "coords_too_long", "coords_empty", "integer_weight_beyond_double", "empty_grid",
            "unknown_kind", "field_file_kind", "ragged_operator_older_layout"])
    def test_schema_type_error_exit_2(self, tmp_path, catenoid_path, capsys, edit):
        data = read_json(catenoid_path)
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code = main(["analyze", "--field", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "analyze:" in capsys.readouterr().err

    @pytest.mark.parametrize("previous, split", [
        (None, False), ("previous report\n", False), (None, True), ("previous report\n", True),
    ], ids=["absent", "existing", "absent_entry_per_sample", "existing_entry_per_sample"])
    def test_overflowing_report_exit_2_and_out_untouched(self, tmp_path, capsys, previous, split):
        data = saved_dict(build_cylinder(4, 1.0, 2.0, grid=[2, 2]), tmp_path)
        data["samples"] = [1e308] * len(data["samples"])
        for entry in (split_entries(data) if split else data)["operators"]:
            entry["shape_operator"] = (1e3 * np.diag([1.0, 1.0, 1.0, 0.0])).tolist()
        field_path = tmp_path / "field.json"
        field_path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "r.json"
        if previous is not None:
            out.write_text(previous, encoding="utf-8")
        code = main(["analyze", "--field", str(field_path), "--out", str(out),
                     "--assert-zero", "1e-6"])
        assert code == 2
        assert "not JSON compliant" in capsys.readouterr().err
        if previous is None:
            assert not out.exists()
        else:
            assert out.read_text(encoding="utf-8") == previous

    @pytest.mark.parametrize("previous", [None, "previous report\n"], ids=["absent", "existing"])
    def test_overflowing_sum_exit_2_and_out_untouched(self, tmp_path, capsys, previous):
        data = saved_dict(build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[2, 2, 2, 3]), tmp_path)
        data["samples"] = [1e308] * len(data["samples"])
        field_path = tmp_path / "field.json"
        field_path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "r.json"
        if previous is not None:
            out.write_text(previous, encoding="utf-8")
        assert main(["analyze", "--field", str(field_path), "--out", str(out)]) == 2
        assert "quadrature_scale: intermediate overflow" in capsys.readouterr().err
        if previous is None:
            assert not out.exists()
        else:
            assert out.read_text(encoding="utf-8") == previous

    def test_huge_entries_exit_2(self, tmp_path, capsys):
        self.check_huge_entries(tmp_path, capsys, split=False)

    def test_huge_entries_in_entry_per_sample_table_exit_2(self, tmp_path, capsys):
        self.check_huge_entries(tmp_path, capsys, split=True)

    @staticmethod
    def check_huge_entries(tmp_path, capsys, split):
        data = saved_dict(build_cylinder(5, 1.0, 2.0, grid=[2, 2]), tmp_path)
        for entry in (split_entries(data) if split else data)["operators"]:
            entry["shape_operator"] = (1e100 * np.array(entry["shape_operator"])).tolist()
        field_path = tmp_path / "field.json"
        field_path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["analyze", "--field", str(field_path), "--out", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda d: d["spec"].update(grid="22"),
        lambda d: d["axes"].__setitem__(0, "12"),
        lambda d: d["spec"].update(grid=[64, 32]),
        lambda d: d["spec"].update(ambient_curvature=5.0),
    ], ids=["digit_string_grid", "digit_string_coords", "grid_not_sample_count",
            "nonzero_ambient_curvature"])
    def test_schema_holes_exit_2(self, tmp_path, capsys, edit):
        data = saved_dict(build_cylinder(4, 1.0, 2.0, grid=[2, 2]), tmp_path)
        edit(data)
        with pytest.raises(SchemaError):
            field_from_dict(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code = main(["analyze", "--field", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "analyze:" in capsys.readouterr().err


# (argv with {field}, {tmp} and {out} to fill in, the path the error must name, what it says)
UNUSABLE_PATHS = {
    "missing_field": (["analyze", "--field", "{tmp}/missing.json", "--out", "{out}"],
                      "{tmp}/missing.json", "cannot read"),
    "directory_field": (["analyze", "--field", "{tmp}/a_directory", "--out", "{out}"],
                        "{tmp}/a_directory", "cannot read"),
    "latin1_field": (["analyze", "--field", "{tmp}/latin1.json", "--out", "{out}"],
                     "{tmp}/latin1.json", "not UTF-8 text"),
    "deeply_nested_field": (["analyze", "--field", "{tmp}/deep.json", "--out", "{out}"],
                            "{tmp}/deep.json", "invalid JSON"),
    "verify_out": (["verify", "--n", "4", "--samples", "10", "--seed", "1",
                    "--out", "{tmp}/no_dir/r.json"], "{tmp}/no_dir/r.json", "cannot write"),
    "catalog_out": (["catalog", "--surface", "sphere", "--n", "4", "--grid", "2",
                     "--out", "{tmp}/no_dir/f.json"], "{tmp}/no_dir/f.json", "cannot write"),
    "analyze_out": (["analyze", "--field", "{field}", "--out", "{tmp}/no_dir/r.json"],
                    "{tmp}/no_dir/r.json", "cannot write"),
    "analyze_csv": (["analyze", "--field", "{field}", "--out", "{out}",
                     "--csv", "{tmp}/no_dir/s.csv"], "{tmp}/no_dir/s.csv", "cannot write"),
}


@pytest.mark.parametrize("argv, named, says", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS.keys())
def test_unusable_path_exit_2_naming_it(tmp_path, catenoid_path, capsys, argv, named, says):
    # a path that cannot be read or written is one line naming it, not a traceback, and
    # the existing --out keeps its bytes
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"spec": "\xe9"}')
    (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
    out = tmp_path / "r.json"
    out.write_text("previous report\n", encoding="utf-8")
    fill = {"field": str(catenoid_path), "tmp": str(tmp_path), "out": str(out)}
    code = main([arg.format(**fill) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(rf"{argv[0]}: {re.escape(named.format(**fill))}: {says}[^\n]*\n", err), err
    assert out.read_text(encoding="utf-8") == "previous report\n"
    assert not (tmp_path / "no_dir").exists()


def test_one_parser_per_process(tmp_path, monkeypatch):
    # a parser takes about a millisecond to build and leaves a cyclic graph behind; a usage
    # error in between leaves the parser, and so the good calls' bytes, as they were
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.make_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    out = tmp_path / "report.json"
    good = ["verify", "--samples", "20", "--seed", "3", "--out", str(out)]  # the default --n list
    assert main(good) == 0
    first, count = out.read_bytes(), len(built)
    assert main(["verify", "--samples", "twenty", "--seed", "3", "--out", str(out)]) == 2
    assert out.read_bytes() == first
    assert main(good) == 0
    assert out.read_bytes() == first
    assert count > 0 and len(built) == count


def test_import_loads_neither_numpy_random_nor_polynomial():
    # both cost milliseconds of start-up; verify and the rotation surfaces load them when called
    probe = ("import sys, rigidity, rigidity.cli; "
             "print([m for m in ('numpy.random', 'numpy.polynomial') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(rigidity.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs_the_cli(tmp_path):
    # python -m rigidity.cli is the console script's command line
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(rigidity.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rigidity.cli", "verify", "--n", "4", "--samples",
                           "10", "--seed", "0", "--out", str(out)], env=env, capture_output=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert read_json(out)["config"]["samples"] == 10
