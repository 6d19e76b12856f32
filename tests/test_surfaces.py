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
from rigidity.surfaces import (
    ShapeField,
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
    catenoid_profile,
    chart_shape_operator,
    cylinder_chart,
    ellipsoid_chart,
    field_from_dict,
    ingest_field,
    minimality_residual,
    save_field,
    umbilic_flags,
    unit_sphere_volume,
)

from json_reference import saved_dict
from reference import SymMatrix, derived_rng, main_inequality, random_rotation, trace_free_project


def field_volume(field):
    return math.fsum(field.weights.tolist())


def field_minimality(field):
    return max(abs(a.trace()) / (1.0 + a.frobenius()) for a in map(SymMatrix, field.operators))


def tracefree_at(field, index):
    return trace_free_project(SymMatrix(field.operators[index]))


class TestSphere:
    def test_unit_shape_operator(self):
        field = build_sphere(4, 1.0, grid=[4])
        for a in field.operators:
            assert np.array_equal(a, np.eye(4))
        assert umbilic_flags(field.operators).all()

    def test_scaled_radius(self):
        field = build_sphere(4, 2.0, grid=[4])
        assert np.array_equal(field.operators[0], np.eye(4) / 2.0)

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
        for a in field.operators:
            assert np.array_equal(a, expected)
        assert not umbilic_flags(field.operators).any()

    def test_trace_free_part_structure(self):
        field = build_cylinder(4, 1.0, 2.0, grid=[2, 2])
        devi = tracefree_at(field, 0)
        assert np.allclose(devi.entries, np.diag([0.25, 0.25, 0.25, -0.75]), atol=0)

    def test_pointwise_equality(self):
        for radius in (1.0, 3.0):
            field = build_cylinder(4, radius, 2.0, grid=[3, 3])
            devi = tracefree_at(field, 0)
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
        middle = field.operators[field.coords[:, 0] == 0.0]
        assert len(middle)
        a = middle[0]
        assert np.allclose(np.diag(a), [1.0, 1.0, 1.0, -3.0], atol=1e-10)

    def test_minimality_residual_default(self):
        field = build_catenoid(4)
        assert field.minimal_claimed
        assert field_minimality(field) <= 1e-8

    def test_pointwise_equality(self):
        field = build_catenoid(4, grid=[12, 2])
        for i in range(len(field.operators)):
            verdict, _ = main_inequality(tracefree_at(field, i))
            assert abs(verdict.relative_defect) <= 1e-8

    def test_ode_fourth_order_convergence(self):
        t_max = 0.45
        _, f1, fp1 = catenoid_profile(4, t_max, 96)
        _, f2, fp2 = catenoid_profile(4, t_max, 192)
        r1 = minimality_residual(4, f1, fp1)
        r2 = minimality_residual(4, f2, fp2)
        assert r1 / r2 >= 8.0

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, 0.0, -0.5])
    def test_t_max_must_be_positive_and_finite(self, t_max):
        with pytest.raises(BadParams, match="positive and finite"):
            build_catenoid(4, grid=[8, 2], t_max=t_max)
        with pytest.raises(BadParams, match="positive and finite"):
            catenoid_profile(4, t_max, 8)

    def test_nan_residual_fails_closed(self):
        # the profile blows up long before t = 50, so the residual is NaN
        with np.errstate(all="ignore"), pytest.raises(ODEStepFailure, match="residual nan"):
            build_catenoid(4, grid=[8, 2], t_max=50.0, ode_substeps=1)

    def test_step_failure(self):
        with pytest.raises(ODEStepFailure):
            build_catenoid(4, grid=[8, 2], ode_substeps=1)

    def test_other_dimensions(self):
        for n in (5, 6):
            field = build_catenoid(n, grid=[10, 2])
            assert field_minimality(field) <= 1e-8
            devi = tracefree_at(field, 0)
            verdict, _ = main_inequality(devi)
            assert abs(verdict.relative_defect) <= 1e-8


class TestRotationHypersurface:
    def test_constant_profile_matches_cylinder(self):
        field = build_rotation_hypersurface(4, lambda t: 2.0, grid=[4, 4],
                                            t_range=(0.0, 2.0),
                                            fp=lambda t: 0.0, fpp=lambda t: 0.0)
        expected = np.diag([0.5, 0.5, 0.5, 0.0])
        for a in field.operators:
            assert np.allclose(a, expected, atol=1e-12)
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
        assert np.allclose(generic.operators, direct.operators, rtol=1e-12, atol=1e-12)
        assert generic.weights == pytest.approx(direct.weights, rel=1e-12)

    def test_polynomial_profile_is_rotation_candidate(self):
        field = build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[10, 3],
                                            fp=lambda t: 2.0 * t, fpp=lambda t: 2.0)
        for i in range(len(field.operators)):
            verdict, case = main_inequality(tracefree_at(field, i))
            assert abs(verdict.relative_defect) <= 1e-9
            assert case.large_eigenspace

    def test_finite_difference_fallback(self):
        exact = build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[6, 2],
                                            fp=lambda t: 2.0 * t, fpp=lambda t: 2.0)
        fd = build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[6, 2])
        assert np.allclose(exact.operators, fd.operators, atol=1e-6)

    def test_rejects_nonpositive_profile(self):
        with pytest.raises(BadProfile):
            build_rotation_hypersurface(4, lambda t: t, grid=[4, 2], t_range=(-1.0, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_profile_not_finite(self, value):
        with pytest.raises(BadProfile, match="profile must be positive and finite"):
            build_rotation_hypersurface(4, lambda t: value, grid=[4, 2])


class TestChart:
    def test_sphere_recovery(self):
        chart, domain = ellipsoid_chart([2.0] * 5)
        field = chart_shape_operator(chart, domain, grid=[3, 3, 3, 4], fd_step=1e-4)
        assert np.max(np.abs(field.operators - np.eye(4) / 2.0)) <= 1e-6

    def test_sphere_quadratic_convergence(self):
        chart, domain = ellipsoid_chart([1.0] * 5)

        def worst_error(h):
            field = chart_shape_operator(chart, domain, grid=[2, 2, 2, 2],
                                         fd_step=h, self_check=False)
            return np.max(np.abs(field.operators - np.eye(4)))

        e_coarse = worst_error(2e-2)
        e_fine = worst_error(1e-2)
        assert 2.8 <= e_coarse / e_fine <= 6.0

    def test_cylinder_recovery(self):
        chart, domain = cylinder_chart(4, 2.0, 1.0)
        field = chart_shape_operator(chart, domain, grid=[3, 4, 3], fd_step=1e-4)
        for a in field.operators:
            eigs = np.sort(np.linalg.eigvalsh(a))
            assert np.max(np.abs(eigs - np.array([0.0, 0.5, 0.5, 0.5]))) <= 1e-6

    def test_ellipsoid_strictly_generic(self):
        field = build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[3, 3, 3, 4], fd_step=1e-4)
        positive = 0
        for i in range(len(field.operators)):
            verdict, _ = main_inequality(tracefree_at(field, i))
            if verdict.defect > 1e-6 * verdict.scale:
                positive += 1
        assert positive == len(field.operators)

    def test_ambient_rotation_invariance(self):
        # truncation-dominated step: rounding in the rotated chart evaluations
        # is the only difference between the two runs
        e_chart, e_domain = ellipsoid_chart([1.0, 1.2, 1.4, 1.6, 1.8])
        q = random_rotation(derived_rng(401), 5)

        def rotated(u):
            return e_chart(u) @ q.T  # q @ x for each row x

        base = chart_shape_operator(e_chart, e_domain, grid=[2, 2, 2, 3], fd_step=1e-2,
                                    self_check=False)
        turned = chart_shape_operator(rotated, e_domain, grid=[2, 2, 2, 3], fd_step=1e-2,
                                      self_check=False)
        for a, b in zip(base.operators, turned.operators):
            ea = np.sort(np.linalg.eigvalsh(a))
            eb = np.sort(np.linalg.eigvalsh(b))
            assert np.max(np.abs(ea - eb)) <= 1e-10 * max(1.0, np.max(np.abs(ea)))

    def test_orientation_flip_preserves_invariants(self):
        chart, domain = ellipsoid_chart([1.0] * 5)
        plus = chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=1e-4,
                                    self_check=False)
        minus = chart_shape_operator(lambda u: chart(u) * [1, 1, 1, 1, -1], domain,
                                     grid=[2, 2, 2, 2], fd_step=1e-4, self_check=False)
        assert np.allclose(plus.operators, -minus.operators, atol=0)
        assert np.array_equal(plus.weights, minus.weights)

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
        chart, domain = ellipsoid_chart([1.0] * 5)
        shapes = []

        def counted(u):
            shapes.append(u.shape)
            return chart(u)

        field = chart_shape_operator(counted, domain, grid=grid, fd_step=1e-4)
        # 2n^2 + 1 offsets for the self-check probes (3 points at h and h / 2), then for all points
        assert shapes == [(6, 4)] * 33 + [(len(field.weights), 4)] * 33

    @pytest.mark.parametrize("wrong", [
        lambda x: x[:, :-1],
        lambda x: x[0],
        lambda x: x.T,
    ], ids=["too_few_coordinates", "one_point", "transposed"])
    def test_chart_of_wrong_shape_is_named(self, wrong):
        chart, domain = ellipsoid_chart([1.0] * 5)
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
        chart, domain = ellipsoid_chart([1.0] * 5)
        with pytest.raises(StepTooLarge):
            chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=0.9)


class TestShapeField:
    def test_built_arrays_are_read_only(self):
        field = build_cylinder(4, 1.0, 1.0, grid=[4, 2])
        for array in (field.coords, field.operators, field.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_arrays_are_copied_on_construction(self):
        base = build_cylinder(4, 1.0, 1.0, grid=[4, 2])
        weights = base.weights.copy()
        field = ShapeField(base.spec, base.coords, base.operators, weights)
        weights[0] = -1.0
        assert field.weights[0] == base.weights[0]

    @pytest.mark.parametrize("target, index, value, message", [
        ("operators", (5, 0, 1), 0.25, "sample 5: .*not exactly symmetric"),
        ("operators", (6, 2, 2), math.nan, "sample 6: .*finite"),
        ("operators", (3, 1, 1), math.inf, "sample 3: .*finite"),
        ("weights", 4, 0.0, "sample 4: area weight"),
    ], ids=["asymmetric", "nan_entry", "infinite_entry", "zero_weight"])
    def test_rejects_bad_sample_by_index(self, target, index, value, message):
        base = build_cylinder(4, 1.0, 1.0, grid=[4, 2])
        arrays = {"operators": base.operators.copy(), "weights": base.weights.copy()}
        arrays[target][index] = value
        with pytest.raises(InvariantViolation, match=message):
            ShapeField(base.spec, base.coords, **arrays)

    def test_rejects_shapes_disagreeing_with_spec(self):
        base = build_cylinder(4, 1.0, 1.0, grid=[4, 2])
        with pytest.raises(InvariantViolation, match="operators"):
            ShapeField(base.spec, base.coords, base.operators[:, :3, :3], base.weights)
        with pytest.raises(InvariantViolation, match="coords"):
            ShapeField(base.spec, base.coords[:, :1], base.operators, base.weights)
        with pytest.raises(InvariantViolation, match="weights"):
            ShapeField(base.spec, base.coords, base.operators, base.weights[:, None])
        with pytest.raises(InvariantViolation, match="at least one sample"):
            ShapeField(base.spec, base.coords[:0], base.operators[:0], base.weights[:0])


class TestFieldIO:
    def test_round_trip_identity(self, tmp_path):
        field = build_cylinder(4, 2.0, 1.5, grid=[3, 4])
        path = tmp_path / "cylinder.json"
        save_field(field, path)
        loaded = ingest_field(path)
        assert loaded.spec == field.spec
        assert loaded.minimal_claimed == field.minimal_claimed
        for name in ("coords", "operators", "weights"):
            assert np.array_equal(getattr(loaded, name), getattr(field, name))
        assert np.array_equal(umbilic_flags(loaded.operators), umbilic_flags(field.operators))

    @pytest.mark.parametrize("build, index", [
        (lambda: build_cylinder(4, 1.0, 1.0, grid=[4, 2]), 5),
        (lambda: build_sphere(4, 1.0, grid=[2]), 9),
    ], ids=["cylinder_claims_umbilic", "sphere_denies_umbilic"])
    def test_tampered_umbilic_flag_rejected(self, tmp_path, build, index):
        data = saved_dict(build(), tmp_path)
        data["samples"][index]["umbilic_flag"] = not data["samples"][index]["umbilic_flag"]
        with pytest.raises(SchemaError, match=f"sample {index}: umbilic_flag"):
            field_from_dict(data)

    def test_asymmetric_matrix_names_sample(self, tmp_path):
        field = build_cylinder(4, 1.0, 1.0, grid=[4, 2])
        data = saved_dict(field, tmp_path)
        data["samples"][7]["shape_operator"][0][1] = 0.25
        with pytest.raises(InvariantViolation, match="sample 7"):
            field_from_dict(data)

    def test_negative_weight_rejected(self, tmp_path):
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = saved_dict(field, tmp_path)
        data["samples"][2]["area_weight"] = -1.0
        with pytest.raises(InvariantViolation, match="sample 2"):
            field_from_dict(data)

    def test_schema_errors(self, tmp_path):
        with pytest.raises(SchemaError):
            field_from_dict({"spec": {}, "samples": []})
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = saved_dict(field, tmp_path)
        del data["samples"][0]["coords"]
        with pytest.raises(SchemaError, match="sample 0"):
            field_from_dict(data)

    @pytest.mark.parametrize("key, edit", [
        ("coords", lambda sample: sample["coords"].__setitem__(0, True)),
        ("shape_operator", lambda sample: sample["shape_operator"][3].__setitem__(3, False)),
    ], ids=["coords", "shape_operator"])
    def test_boolean_in_row_rejected(self, tmp_path, key, edit):
        # numpy would read [true, 0.5] as [1.0, 0.5]; a row holds JSON numbers only
        data = saved_dict(build_cylinder(4, 1.0, 1.0, grid=[4, 2]), tmp_path)
        edit(data["samples"][5])
        with pytest.raises(SchemaError, match=f"sample 5: {key}"):
            field_from_dict(data)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_nonfinite_coords_rejected(self, bad):
        field = build_cylinder(4, 1.0, 1.0, grid=[4, 2])
        coords = field.coords.copy()
        coords[3, 1] = bad
        with pytest.raises(InvariantViolation, match="sample 3: coords must be finite"):
            ShapeField(field.spec, coords, field.operators, field.weights)

    @pytest.mark.parametrize("build", [
        lambda: build_sphere(4, 1.0, grid=[2]),
        lambda: build_cylinder(4, 1.0, 1.0, grid=[2, 2]),
        lambda: build_catenoid(4, grid=[2, 2]),
        lambda: build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[2, 2]),
        lambda: build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[2, 2, 2, 2], fd_step=1e-3),
    ], ids=["sphere", "cylinder", "catenoid", "rotation", "chart"])
    def test_ambient_curvature_key(self, tmp_path, build):
        # files written before the key was dropped carry the flat ambient space as 0.0
        field = build()
        data = saved_dict(field, tmp_path)
        assert "ambient_curvature" not in data["spec"]
        data["spec"]["ambient_curvature"] = 0.0
        assert field_from_dict(data).spec == field.spec
        for value in (5.0, -1e-300, True, "0.0"):
            data["spec"]["ambient_curvature"] = value
            with pytest.raises(SchemaError, match="ambient_curvature"):
                field_from_dict(data)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_field(path)

    def test_minimality_claim_enforced(self, tmp_path):
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = saved_dict(field, tmp_path)
        data["minimal_claimed"] = True  # cylinder is not minimal
        with pytest.raises(InvariantViolation, match="minimality"):
            field_from_dict(data)
