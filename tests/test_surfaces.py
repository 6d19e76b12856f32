"""Hypersurface catalog: analytic builders, chart differentiation, field I/O."""

import json
import math

import numpy as np
import pytest

from rigidity.errors import (
    BadDimension,
    BadParams,
    BadProfile,
    DegenerateChart,
    InvariantViolation,
    ODEStepFailure,
    ParseError,
    SchemaError,
    RigidityError,
    StepTooLarge,
)
from rigidity.inequalities import main_inequality
from rigidity.sampling import derived_rng, random_rotation
from rigidity.spectral import trace_free_project
from rigidity.surfaces import (
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
    catenoid_profile,
    chart_shape_operator,
    cylinder_chart,
    field_from_dict,
    field_to_dict,
    ingest_field,
    minimality_residual,
    save_field,
    sphere_chart,
    unit_sphere_volume,
)


def field_volume(field):
    return math.fsum(s.area_weight for s in field.samples)


def field_minimality(field):
    return max(abs(s.shape_operator.trace()) / (1.0 + s.shape_operator.frobenius())
               for s in field.samples)


class TestSphere:
    def test_unit_shape_operator(self):
        field = build_sphere(4, 1.0, grid=[4])
        for sample in field.samples:
            assert np.array_equal(sample.shape_operator.entries, np.eye(4))
            assert sample.umbilic_flag

    def test_scaled_radius(self):
        field = build_sphere(4, 2.0, grid=[4])
        assert np.array_equal(field.samples[0].shape_operator.entries, np.eye(4) / 2.0)

    def test_volume_within_two_percent(self):
        field = build_sphere(4, 1.0)
        exact = unit_sphere_volume(4)
        assert abs(field_volume(field) - exact) <= 0.02 * exact

    def test_volume_scales_with_radius(self):
        field = build_sphere(4, 2.0)
        exact = 2.0 ** 4 * unit_sphere_volume(4)
        assert abs(field_volume(field) - exact) <= 0.02 * exact

    def test_refinement_halves_volume_error(self):
        exact = unit_sphere_volume(4)
        coarse = abs(field_volume(build_sphere(4, 1.0, grid=[6])) - exact)
        fine = abs(field_volume(build_sphere(4, 1.0, grid=[12])) - exact)
        assert fine <= coarse / 2.0

    def test_bad_params(self):
        with pytest.raises(BadParams):
            build_sphere(4, -1.0)
        with pytest.raises(BadParams):
            build_sphere(4, 1.0, grid=[1])
        with pytest.raises(BadDimension):
            build_sphere(3, 1.0)


class TestCylinder:
    def test_shape_operator(self):
        field = build_cylinder(4, 1.0, 2.0, grid=[4, 4])
        expected = np.diag([1.0, 1.0, 1.0, 0.0])
        for sample in field.samples:
            assert np.array_equal(sample.shape_operator.entries, expected)
            assert not sample.umbilic_flag

    def test_trace_free_part_structure(self):
        field = build_cylinder(4, 1.0, 2.0, grid=[2, 2])
        devi = trace_free_project(field.samples[0].shape_operator)
        assert np.allclose(devi.entries, np.diag([0.25, 0.25, 0.25, -0.75]), atol=0)

    def test_pointwise_equality(self):
        for radius in (1.0, 3.0):
            field = build_cylinder(4, radius, 2.0, grid=[3, 3])
            devi = trace_free_project(field.samples[0].shape_operator)
            verdict, case = main_inequality(devi)
            assert verdict.equality
            assert max(case.multiplicities) == 3

    def test_exact_volume(self):
        field = build_cylinder(5, 2.0, 1.5)
        exact = 2.0 ** 4 * unit_sphere_volume(4) * 1.5
        assert field_volume(field) == pytest.approx(exact, rel=1e-12)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            build_cylinder(4, 0.0, 1.0)


class TestCatenoid:
    def test_waist_shape_operator(self):
        # f(0) = 1, f'(0) = 0: curvatures (1, 1, 1, -(n-1)) at the waist
        field = build_catenoid(4, grid=[9, 4], t_max=0.3)
        middle = [s for s in field.samples if s.coords[0] == 0.0]
        assert middle
        a = middle[0].shape_operator.entries
        assert np.allclose(np.diag(a), [1.0, 1.0, 1.0, -3.0], atol=1e-10)

    def test_minimality_residual_default(self):
        field = build_catenoid(4)
        assert field.minimal_claimed
        assert field_minimality(field) <= 1e-8

    def test_pointwise_equality(self):
        field = build_catenoid(4, grid=[12, 2])
        for sample in field.samples:
            devi = trace_free_project(sample.shape_operator)
            verdict, _ = main_inequality(devi)
            assert abs(verdict.relative_defect) <= 1e-8

    def test_ode_fourth_order_convergence(self):
        t_max = 0.45
        _, f1, fp1 = catenoid_profile(4, t_max, 96)
        _, f2, fp2 = catenoid_profile(4, t_max, 192)
        r1 = minimality_residual(4, f1, fp1)
        r2 = minimality_residual(4, f2, fp2)
        assert r1 / r2 >= 8.0

    def test_step_failure(self):
        with pytest.raises(ODEStepFailure):
            build_catenoid(4, grid=[8, 2], profile_tol=1e-14, ode_substeps=1)

    def test_other_dimensions(self):
        for n in (5, 6):
            field = build_catenoid(n, grid=[10, 2])
            assert field_minimality(field) <= 1e-8
            devi = trace_free_project(field.samples[0].shape_operator)
            verdict, _ = main_inequality(devi)
            assert abs(verdict.relative_defect) <= 1e-8


class TestRotationHypersurface:
    def test_constant_profile_matches_cylinder(self):
        field = build_rotation_hypersurface(4, lambda t: 2.0, grid=[4, 4],
                                            t_range=(0.0, 2.0),
                                            fp=lambda t: 0.0, fpp=lambda t: 0.0)
        expected = np.diag([0.5, 0.5, 0.5, 0.0])
        for sample in field.samples:
            assert np.allclose(sample.shape_operator.entries, expected, atol=1e-12)
        cylinder = build_cylinder(4, 2.0, 2.0, grid=[4, 4])
        assert field_volume(field) == pytest.approx(field_volume(cylinder), rel=1e-12)

    def test_matches_catenoid_profile(self):
        # feed the integrated minimal profile through the generic builder
        n, t_max, m_t, substeps = 4, 0.4, 8, 16
        nodes, f, fp = catenoid_profile(n, t_max, m_t * substeps)
        lookup = {round(t / (t_max / (m_t * substeps))): i for i, t in enumerate(nodes)}

        def f_at(t):
            i = lookup[round(abs(t) / (t_max / (m_t * substeps)))]
            return float(f[i])

        def fp_at(t):
            i = lookup[round(abs(t) / (t_max / (m_t * substeps)))]
            return math.copysign(1.0, t) * float(fp[i]) if t != 0 else float(fp[i])

        def fpp_at(t):
            return (n - 1) * f_at(t) ** (2 * n - 3)

        generic = build_rotation_hypersurface(n, f_at, grid=[m_t, 2],
                                              t_range=(-t_max, t_max),
                                              fp=fp_at, fpp=fpp_at)
        direct = build_catenoid(n, grid=[m_t, 2], t_max=t_max, ode_substeps=substeps)
        for a, b in zip(generic.samples, direct.samples):
            assert np.allclose(a.shape_operator.entries, b.shape_operator.entries,
                               rtol=1e-12, atol=1e-12)
            assert a.area_weight == pytest.approx(b.area_weight, rel=1e-12)

    def test_polynomial_profile_is_rotation_candidate(self):
        field = build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[10, 3],
                                            fp=lambda t: 2.0 * t, fpp=lambda t: 2.0)
        for sample in field.samples:
            devi = trace_free_project(sample.shape_operator)
            verdict, case = main_inequality(devi)
            assert abs(verdict.relative_defect) <= 1e-9
            assert case.large_eigenspace

    def test_finite_difference_fallback(self):
        exact = build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[6, 2],
                                            fp=lambda t: 2.0 * t, fpp=lambda t: 2.0)
        fd = build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[6, 2])
        for a, b in zip(exact.samples, fd.samples):
            assert np.allclose(a.shape_operator.entries, b.shape_operator.entries,
                               atol=1e-6)

    def test_rejects_nonpositive_profile(self):
        with pytest.raises(BadProfile):
            build_rotation_hypersurface(4, lambda t: t, grid=[4, 2], t_range=(-1.0, 1.0))


class TestChart:
    def test_sphere_recovery(self):
        chart, domain = sphere_chart(4, 2.0)
        field = chart_shape_operator(chart, domain, grid=[3, 3, 3, 4], fd_step=1e-4)
        for sample in field.samples:
            assert np.max(np.abs(sample.shape_operator.entries - np.eye(4) / 2.0)) <= 1e-6

    def test_sphere_quadratic_convergence(self):
        chart, domain = sphere_chart(4, 1.0)

        def worst_error(h):
            field = chart_shape_operator(chart, domain, grid=[2, 2, 2, 2],
                                         fd_step=h, self_check=False)
            return max(np.max(np.abs(s.shape_operator.entries - np.eye(4)))
                       for s in field.samples)

        e_coarse = worst_error(2e-2)
        e_fine = worst_error(1e-2)
        assert 2.8 <= e_coarse / e_fine <= 6.0

    def test_cylinder_recovery(self):
        chart, domain = cylinder_chart(4, 2.0, 1.0)
        field = chart_shape_operator(chart, domain, grid=[3, 4, 3], fd_step=1e-4)
        for sample in field.samples:
            eigs = np.sort(np.linalg.eigvalsh(sample.shape_operator.entries))
            assert np.max(np.abs(eigs - np.array([0.0, 0.5, 0.5, 0.5]))) <= 1e-6

    def test_ellipsoid_strictly_generic(self):
        field = build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[3, 3, 3, 4], fd_step=1e-4)
        positive = 0
        for sample in field.samples:
            devi = trace_free_project(sample.shape_operator)
            verdict, _ = main_inequality(devi)
            if verdict.defect > 1e-6 * verdict.scale:
                positive += 1
        assert positive == len(field.samples)

    def test_ambient_rotation_invariance(self):
        # truncation-dominated step: rounding in the rotated chart evaluations
        # is the only difference between the two runs
        from rigidity.surfaces import ellipsoid_chart
        e_chart, e_domain = ellipsoid_chart([1.0, 1.2, 1.4, 1.6, 1.8])
        q = random_rotation(derived_rng(401), 5)

        def rotated(u):
            return e_chart(u) @ q.T  # q @ x for each row x

        base = chart_shape_operator(e_chart, e_domain, grid=[2, 2, 2, 3], fd_step=1e-2,
                                    self_check=False)
        turned = chart_shape_operator(rotated, e_domain, grid=[2, 2, 2, 3], fd_step=1e-2,
                                      self_check=False)
        for a, b in zip(base.samples, turned.samples):
            ea = np.sort(np.linalg.eigvalsh(a.shape_operator.entries))
            eb = np.sort(np.linalg.eigvalsh(b.shape_operator.entries))
            assert np.max(np.abs(ea - eb)) <= 1e-10 * max(1.0, np.max(np.abs(ea)))

    def test_orientation_flip_preserves_invariants(self):
        chart, domain = sphere_chart(4, 1.0)
        plus = chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=1e-4,
                                    self_check=False)
        minus = chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=1e-4,
                                     orientation=-1.0, self_check=False)
        for a, b in zip(plus.samples, minus.samples):
            assert np.allclose(a.shape_operator.entries, -b.shape_operator.entries, atol=0)
            assert a.area_weight == b.area_weight

    def test_degenerate_chart(self):
        def collapsed(u):
            # image is a curve: rank 1 Jacobian everywhere
            s = np.sum(u, axis=-1, keepdims=True)
            return s * np.array([1.0, 2.0, 3.0, 4.0, 5.0])

        with pytest.raises(DegenerateChart):
            chart_shape_operator(collapsed, [(0.0, 1.0)] * 4, grid=[2, 2, 2, 2],
                                 self_check=False)

    @pytest.mark.parametrize("grid", [[2, 2, 2, 2], [3, 2, 4, 3]])
    def test_one_chart_call_per_stencil_offset(self, grid):
        chart, domain = sphere_chart(4, 1.0)
        shapes = []

        def counted(u):
            shapes.append(u.shape)
            return chart(u)

        field = chart_shape_operator(counted, domain, grid=grid, fd_step=1e-4)
        # 2n^2 + 1 offsets for the self-check probes (3 points at h and h / 2), then for all points
        assert shapes == [(6, 4)] * 33 + [(len(field.samples), 4)] * 33

    @pytest.mark.parametrize("wrong", [
        lambda x: x[:, :-1],
        lambda x: x[0],
        lambda x: x.T,
    ], ids=["too_few_coordinates", "one_point", "transposed"])
    def test_chart_of_wrong_shape_is_named(self, wrong):
        chart, domain = sphere_chart(4, 1.0)
        with pytest.raises(RigidityError, match=r"\(N, 4\) parameters to \(N, 5\) points"):
            chart_shape_operator(lambda u: wrong(chart(u)), domain, grid=[2, 2, 2, 2])

    @pytest.mark.parametrize("squash", [0.0, 1e-9], ids=["singular", "below_rank_floor"])
    def test_degenerate_chart_names_first_point(self, squash):
        def chart(u):
            # graph of a paraboloid over (u0, u1, u2), with u3 squashed where u0 > 0.5
            scale = np.where(u[..., :1] > 0.5, squash, 1.0)
            height = np.sum(u[..., :3] ** 2, axis=-1, keepdims=True)
            return np.concatenate([u[..., :3], scale * u[..., 3:], height], axis=-1)

        with pytest.raises(DegenerateChart, match=r"rank deficient at \(0\.75, 0\.25, 0\.25, 0\.25\)"):
            chart_shape_operator(chart, [(0.0, 1.0)] * 4, grid=[2, 2, 2, 2], self_check=False)

    def test_step_too_large(self):
        chart, domain = sphere_chart(4, 1.0)
        with pytest.raises(StepTooLarge):
            chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=0.9)


class TestFieldIO:
    def test_round_trip_identity(self, tmp_path):
        field = build_cylinder(4, 2.0, 1.5, grid=[3, 4])
        path = tmp_path / "cylinder.json"
        save_field(field, path)
        loaded = ingest_field(path)
        assert loaded.spec == field.spec
        assert loaded.minimal_claimed == field.minimal_claimed
        assert len(loaded.samples) == len(field.samples)
        for a, b in zip(field.samples, loaded.samples):
            assert a.coords == b.coords
            assert np.array_equal(a.shape_operator.entries, b.shape_operator.entries)
            assert a.area_weight == b.area_weight
            assert a.umbilic_flag == b.umbilic_flag

    @pytest.mark.parametrize("build, index", [
        (lambda: build_cylinder(4, 1.0, 1.0, grid=[4, 2]), 5),
        (lambda: build_sphere(4, 1.0, grid=[2]), 9),
    ], ids=["cylinder_claims_umbilic", "sphere_denies_umbilic"])
    def test_tampered_umbilic_flag_rejected(self, build, index):
        data = field_to_dict(build())
        data["samples"][index]["umbilic_flag"] = not data["samples"][index]["umbilic_flag"]
        with pytest.raises(SchemaError, match=f"sample {index}: umbilic_flag"):
            field_from_dict(data)

    def test_asymmetric_matrix_names_sample(self, tmp_path):
        field = build_cylinder(4, 1.0, 1.0, grid=[4, 2])
        data = field_to_dict(field)
        data["samples"][7]["shape_operator"][0][1] = 0.25
        with pytest.raises(InvariantViolation, match="sample 7"):
            field_from_dict(data)

    def test_negative_weight_rejected(self, tmp_path):
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = field_to_dict(field)
        data["samples"][2]["area_weight"] = -1.0
        with pytest.raises(InvariantViolation, match="sample 2"):
            field_from_dict(data)

    def test_schema_errors(self, tmp_path):
        with pytest.raises(SchemaError):
            field_from_dict({"spec": {}, "samples": []})
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = field_to_dict(field)
        del data["samples"][0]["coords"]
        with pytest.raises(SchemaError, match="sample 0"):
            field_from_dict(data)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_field(path)

    def test_minimality_claim_enforced(self):
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = field_to_dict(field)
        data["minimal_claimed"] = True  # cylinder is not minimal
        with pytest.raises(InvariantViolation, match="minimality"):
            field_from_dict(data)
