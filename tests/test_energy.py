"""Rotational energies: quadrature, classification, conformal behavior."""

import math

import numpy as np
import pytest

from rigidity.energy import (
    conformal_rescale,
    report_csv_rows,
    report_to_dict,
    rotational_energy,
)
from rigidity.defaults import tolerance
from rigidity.errors import BadParams, InvalidField, NonFiniteResult
from rigidity.inequalities import main_inequality
from rigidity.sampling import derived_rng, random_trace_free
from rigidity.spectral import SymMatrix, norms, trace_free_project
from rigidity.surfaces import (
    SamplePoint,
    ShapeField,
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
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
        assert all(r.equality_kind == "EigenspaceDimExactlyNMinus1" for r in report.pointwise)

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
            pointwise = all(
                r.equality_kind in ("Zero", "EigenspaceDimAtLeastNMinus1",
                                    "EigenspaceDimExactlyNMinus1")
                for r in report.pointwise)
            assert zero == pointwise

    def test_perturbation_onset(self, cylinder4):
        rng = derived_rng(501)
        bump = random_trace_free(rng, 4)

        def perturbed(eps):
            samples = tuple(
                SamplePoint(sp.coords,
                            SymMatrix(sp.shape_operator.entries + eps * bump.entries),
                            sp.area_weight, False)
                for sp in cylinder4.samples)
            return ShapeField(cylinder4.spec, samples, minimal_claimed=False)

        e_small = rotational_energy(perturbed(1e-2)).e_rot
        e_large = rotational_energy(perturbed(1e-1)).e_rot
        assert e_small > 0.0 and e_large > 0.0
        rate = math.log(e_large / e_small) / math.log(10.0)
        assert rate >= 1.9  # quadratic or faster onset

    def test_overflow_names_the_sample(self, cylinder4):
        samples = list(cylinder4.samples)
        big = samples[7]
        samples[7] = SamplePoint(big.coords, SymMatrix(1e100 * big.shape_operator.entries),
                                 big.area_weight, False)
        with pytest.raises(NonFiniteResult, match="sample 7: .* overflows"):
            rotational_energy(ShapeField(cylinder4.spec, samples))

    def test_invalid_field(self):
        with pytest.raises(InvalidField):
            rotational_energy("not a field")

    def test_report_serialization(self, cylinder4):
        report = rotational_energy(cylinder4)
        data = report_to_dict(report)
        assert data["classification"] == "RotationCandidate"
        assert len(data["pointwise"]) == len(cylinder4.samples)
        header, rows = report_csv_rows(report)
        assert header[:2] == ["coord0", "coord1"]
        assert len(rows) == len(cylinder4.samples)
        assert rows[0][-1] == "EigenspaceDimExactlyNMinus1"


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
    n, u_tol = field.n, tolerance("umbilic_tol")
    rot, conf, scale, scale_conf = [], [], [], []
    for sp, r in zip(field.samples, report.pointwise):
        devi = trace_free_project(sp.shape_operator)
        a2, a22, _ = norms(devi)
        verdict, case = main_inequality(devi)
        assert (r.tracefree_norm_sq, r.tracefree_sq_norm_sq, r.defect, r.relative_defect,
                r.equality_kind) == (a2, a22, verdict.defect, verdict.relative_defect,
                                     case.kind.value)
        assert r.umbilic == (math.sqrt(a2) <= u_tol * max(1.0, sp.shape_operator.frobenius()))
        conf_factor = 1.0 if n == 4 else a2 ** ((n - 4) / 2.0)
        rot.append(sp.area_weight * verdict.defect)
        conf.append(sp.area_weight * conf_factor * verdict.defect)
        scale.append(sp.area_weight * max(1.0, a2 * a2))
        scale_conf.append(sp.area_weight * max(1.0, a2 ** (n / 2.0)))
    assert (report.e_rot, report.e_rot_conf, report.quadrature_scale,
            report.quadrature_scale_conf) == tuple(map(math.fsum, (rot, conf, scale, scale_conf)))
    rels = [r.relative_defect for r in report.pointwise]
    assert (report.min_relative_defect, report.max_relative_defect) == (min(rels), max(rels))


class TestConformalRescale:
    def test_identity_factor(self, cylinder4):
        out = conformal_rescale(cylinder4, 1.0)
        for a, b in zip(cylinder4.samples, out.samples):
            assert np.array_equal(a.shape_operator.entries, b.shape_operator.entries)
            assert a.area_weight == b.area_weight

    def test_rejects_nonpositive(self, cylinder4):
        with pytest.raises(BadParams):
            conformal_rescale(cylinder4, 0.0)

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
