"""Rotational energies: quadrature, classification, conformal behavior."""

import csv
import io
import math

import numpy as np
import pytest

from rigidity.energy import (
    conformal_rescale,
    report_csv,
    report_to_dict,
    rotational_energy,
)
from rigidity.defaults import tolerance
from rigidity.errors import BadParams, InvalidField, NonFiniteResult
from rigidity.surfaces import (
    ShapeField,
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
)

from reference import (
    SymMatrix,
    derived_rng,
    main_inequality,
    norms,
    random_trace_free,
    trace_free_project,
)


@pytest.fixture(scope="module")
def cylinder4():
    return build_cylinder(4, 1.0, 2.0, grid=[6, 4])


@pytest.fixture(scope="module")
def ellipsoid4():
    return build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[3, 3, 3, 4], fd_step=1e-4)


class TestRotationalEnergy:
    def test_sphere_all_umbilic(self):
        report = rotational_energy(build_sphere(4, 1.0, grid=[4]))
        assert report.classification == "AllUmbilic"
        assert report.e_rot == 0.0
        assert report.e_rot_conf == 0.0

    def test_cylinder_zero_energy(self, cylinder4):
        report = rotational_energy(cylinder4)
        assert report.classification == "RotationCandidate"
        assert abs(report.e_rot) <= 1e-12 * report.quadrature_scale
        assert (report.pointwise["equality_kind"] == "EigenspaceDimExactlyNMinus1").all()

    def test_catenoid_candidate(self):
        field = build_catenoid(4, grid=[16, 4])
        report = rotational_energy(field)
        assert report.classification == "CatenoidCandidate"
        assert abs(report.e_rot) <= 1e-7 * report.quadrature_scale

    def test_rotation_profile_zero_energy(self):
        field = build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[8, 3],
                                            fp=lambda t: 2.0 * t, fpp=lambda t: 2.0)
        report = rotational_energy(field)
        assert report.classification == "RotationCandidate"
        assert abs(report.e_rot) <= 1e-10 * report.quadrature_scale

    def test_ellipsoid_generic_positive(self, ellipsoid4):
        report = rotational_energy(ellipsoid4)
        assert report.classification == "Generic"
        assert report.e_rot > 0.0
        assert report.min_relative_defect > 0.0

    def test_nonnegativity_across_catalog(self, cylinder4, ellipsoid4):
        fields = [build_sphere(4, 1.0, grid=[3]), cylinder4, ellipsoid4,
                  build_catenoid(5, grid=[8, 2])]
        for field in fields:
            report = rotational_energy(field)
            assert report.e_rot >= -1e-10 * report.quadrature_scale
            assert report.e_rot_conf >= -1e-10 * report.quadrature_scale_conf

    def test_zero_energy_iff_pointwise_equality(self, cylinder4, ellipsoid4):
        for field in (cylinder4, ellipsoid4):
            report = rotational_energy(field)
            zero = abs(report.e_rot_conf) <= 1e-10 * report.quadrature_scale_conf
            pointwise = np.isin(report.pointwise["equality_kind"],
                                ("Zero", "EigenspaceDimAtLeastNMinus1",
                                 "EigenspaceDimExactlyNMinus1")).all()
            assert zero == pointwise

    def test_perturbation_onset(self, cylinder4):
        rng = derived_rng(501)
        bump = random_trace_free(rng, 4)

        def perturbed(eps):
            return ShapeField(cylinder4.spec, cylinder4.coords,
                              cylinder4.operators + eps * bump.entries, cylinder4.weights,
                              minimal_claimed=False)

        e_small = rotational_energy(perturbed(1e-2)).e_rot
        e_large = rotational_energy(perturbed(1e-1)).e_rot
        assert e_small > 0.0 and e_large > 0.0
        rate = math.log(e_large / e_small) / math.log(10.0)
        assert rate >= 1.9  # quadratic or faster onset

    def test_overflow_names_the_sample(self, cylinder4):
        operators = cylinder4.operators.copy()
        operators[7] *= 1e100
        with pytest.raises(NonFiniteResult, match="sample 7: .* overflows"):
            rotational_energy(ShapeField(cylinder4.spec, cylinder4.coords, operators,
                                         cylinder4.weights))

    def test_sum_overflow_names_the_sum(self, ellipsoid4):
        # each term of the quadrature scale is 1e308 * max(1, |A|^4) = 1e308; their sum is not finite
        huge = ShapeField(ellipsoid4.spec, ellipsoid4.coords, ellipsoid4.operators,
                          np.full(len(ellipsoid4.weights), 1e308))
        with pytest.raises(NonFiniteResult, match="^quadrature_scale: .*overflow"):
            rotational_energy(huge)

    def test_invalid_field(self):
        with pytest.raises(InvalidField):
            rotational_energy("not a field")

    def test_report_serialization(self, cylinder4):
        report = rotational_energy(cylinder4)
        data = report_to_dict(report)
        assert data["classification"] == "RotationCandidate"
        assert data["samples"] == data["pointwise"].count == len(cylinder4.weights)
        header, *rows = csv.reader(io.StringIO("".join(report_csv(report)), newline=""))
        assert header[:2] == ["coord0", "coord1"]
        assert len(rows) == len(cylinder4.weights)
        assert rows[0][-1] == "EigenspaceDimExactlyNMinus1"

    @pytest.mark.parametrize("grid", [[2, 2], [40, 8], [64, 4]], ids=["4", "320", "256"])
    def test_csv_is_what_csv_writer_writes(self, grid):
        # the columns' values, written row by row through the csv module
        field = build_cylinder(4, 1.0, 2.0, grid=grid)
        coords = field.coords.copy()
        coords[0, 0] = -0.0
        report = rotational_energy(ShapeField(field.spec, coords, field.operators, field.weights))
        keys = ("coords", "tracefree_norm_sq", "tracefree_sq_norm_sq", "defect", "equality_kind")
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["coord0", "coord1", *keys[1:]])
        columns = (report.pointwise[k].tolist() for k in keys)
        writer.writerows([*c, *rest] for c, *rest in zip(*columns))
        text = "".join(report_csv(report))
        assert text == want.getvalue() and "\r\n-0.0," in text


CATALOG = {
    "sphere": lambda: build_sphere(5, 1.5, grid=[3]),
    "cylinder": lambda: build_cylinder(4, 1.0, 2.0, grid=[6, 4]),
    "catenoid": lambda: build_catenoid(5, grid=[16, 4]),
    "rotation": lambda: build_rotation_hypersurface(6, lambda t: 1.0 + 0.5 * t * t, grid=[8, 3],
                                                    fp=lambda t: t, fpp=lambda t: 1.0),
    "ellipsoid": lambda: build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[3, 3, 3, 4],
                                         fd_step=1e-4),
}


@pytest.mark.parametrize("build", CATALOG.values(), ids=CATALOG.keys())
def test_batched_records_match_per_sample_oracle(build):
    field = build()
    report = rotational_energy(field)
    n, u_tol = field.spec.n, tolerance("umbilic_tol")
    rot, conf, scale, scale_conf = [], [], [], []
    p = report.pointwise
    assert np.array_equal(p["coords"], field.coords) and np.array_equal(p["weight"], field.weights)
    for i, (entries, weight) in enumerate(zip(field.operators, field.weights.tolist())):
        a = SymMatrix(entries)
        devi = trace_free_project(a)
        a2, a22, _ = norms(devi)
        verdict, case = main_inequality(devi)
        assert tuple(p[key][i] for key in ("tracefree_norm_sq", "tracefree_sq_norm_sq", "defect",
                                           "relative_defect", "equality_kind")) == (
            a2, a22, verdict.defect, verdict.relative_defect, case.kind.value)
        assert p["umbilic"][i] == (math.sqrt(a2) <= u_tol * max(1.0, a.frobenius()))
        conf_factor = 1.0 if n == 4 else a2 ** ((n - 4) / 2.0)
        rot.append(weight * verdict.defect)
        conf.append(weight * conf_factor * verdict.defect)
        scale.append(weight * max(1.0, a2 * a2))
        scale_conf.append(weight * max(1.0, a2 ** (n / 2.0)))
    assert (report.e_rot, report.e_rot_conf, report.quadrature_scale,
            report.quadrature_scale_conf) == tuple(map(math.fsum, (rot, conf, scale, scale_conf)))
    rels = p["relative_defect"].tolist()
    assert (report.min_relative_defect, report.max_relative_defect) == (min(rels), max(rels))


class TestConformalRescale:
    def test_identity_factor(self, cylinder4):
        out = conformal_rescale(cylinder4, 1.0)
        assert np.array_equal(cylinder4.operators, out.operators)
        assert np.array_equal(cylinder4.weights, out.weights)

    def test_rejects_nonpositive(self, cylinder4):
        with pytest.raises(BadParams):
            conformal_rescale(cylinder4, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [1e100, math.inf, math.nan, 1e-200, 0.0, -1.0])
    def test_scale_out_of_range_names_t(self, cylinder4, t):
        # t ** 4 overflows at 1e100 and underflows to 0 at 1e-200
        with pytest.raises(BadParams, match=r"\bt\b"):
            conformal_rescale(cylinder4, t)

    def test_n4_bit_for_bit(self, cylinder4, ellipsoid4):
        for field in (cylinder4, ellipsoid4):
            base = rotational_energy(field)
            assert base.e_rot == base.e_rot_conf  # n = 4
            for t in (0.5, 2.0):
                scaled = rotational_energy(conformal_rescale(field, t))
                assert scaled.e_rot_conf == base.e_rot_conf

    def test_n5_homogeneity(self):
        field = build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8, 2.0], grid=[2, 2, 2, 2, 3],
                                fd_step=1e-4)
        base = rotational_energy(field)
        assert base.e_rot > 0.0
        for t in (0.5, 2.0):
            scaled = rotational_energy(conformal_rescale(field, t))
            # E_rot scales by t^(n-4) = t; E_rot_conf is invariant
            assert scaled.e_rot / base.e_rot == pytest.approx(t, rel=1e-12)
            assert scaled.e_rot_conf == pytest.approx(base.e_rot_conf, rel=1e-12)

    def test_n5_cylinder_conf_invariant(self):
        field = build_cylinder(5, 1.0, 2.0, grid=[4, 3])
        base = rotational_energy(field)
        for t in (0.5, 2.0):
            scaled = rotational_energy(conformal_rescale(field, t))
            assert abs(scaled.e_rot_conf - base.e_rot_conf) <= 1e-12 * max(
                1.0, base.quadrature_scale_conf)

    def test_umbilic_conf_integrand_extension(self):
        # n > 4 sphere: |tracefree|^(n-4) factor is 0 at umbilic points
        field = build_sphere(5, 1.0, grid=[3])
        report = rotational_energy(field)
        assert report.e_rot_conf == 0.0
        assert report.classification == "AllUmbilic"
