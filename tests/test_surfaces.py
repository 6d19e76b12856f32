"""Hypersurface catalog: analytic builders, chart differentiation, field I/O."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidity import surfaces
from rigidity.errors import (
    BadDimension,
    BadParams,
    BadProfile,
    DegenerateChart,
    InvariantViolation,
    ParseError,
    SchemaError,
    RigidityError,
    StepTooLarge,
)
from rigidity.fields import ShapeField, field_from_dict, ingest_field, save_field
from rigidity.surfaces import (
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
    chart_shape_operator,
    ellipsoid_chart,
    unit_sphere_volume,
)

from charts import cylinder_chart
from json_reference import own_entry, saved_dict, split_entries, to_older_layout
from reference import (
    SymMatrix,
    catenoid_profile,
    derived_rng,
    main_inequality,
    minimality_residual,
    random_rotation,
    trace_free_project,
)


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

    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_profile_end_is_the_beta_function(self, n):
        mpmath = pytest.importorskip("mpmath")
        m = n - 1
        with mpmath.workdps(30):
            exact = mpmath.beta(mpmath.mpf(1) / 2 - mpmath.mpf(1) / (2 * m), 0.5) / (2 * m)
            assert abs(surfaces._profile_end(m) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("past", [0.0, 1e-15, 0.3, 50.0])
    def test_t_max_at_or_past_the_profile_end_is_refused(self, past):
        t_end = surfaces._profile_end(3)
        assert t_end == pytest.approx(0.70109, abs=1e-5)
        with pytest.raises(BadParams, match=rf"below t_end = {t_end!r}, got {t_end + past}$"):
            build_catenoid(4, grid=[8, 2], t_max=t_end + past)
        build_catenoid(4, grid=[8, 2], t_max=math.nextafter(t_end, 0.0))

    def test_default_t_max_is_nine_tenths_of_the_cap_time(self):
        # 0.9 t_cap, where f(t_cap) = f_cap = 2, at n = 4
        assert build_catenoid(4, grid=[4, 2]).spec.params == {"t_max": 0.5182607358970058,
                                                              "f_cap": 2.0}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_closed_form_matches_rk4(self, n):
        # RK4 over 256 steps per cell; its nodes hold the cell midpoints of [-t_max, t_max]
        m_t, substeps = 12, 256
        t_max = 0.8 * build_catenoid(n, grid=[2, 2]).spec.params["t_max"]
        _, f, fp = catenoid_profile(n, t_max, m_t * substeps)
        node = np.abs(2 * np.arange(m_t) + 1 - m_t) * substeps
        f, fp = f[node], fp[node]
        u = 1.0 + fp * fp
        kr, kp = 1.0 / (f * np.sqrt(u)), -(n - 1) * f ** (2 * n - 3) / u ** 1.5
        field = build_catenoid(n, grid=[m_t, 3], t_max=t_max)
        expected = np.zeros((m_t, n, n))
        expected[:, range(n), range(n)] = np.column_stack([kr] * (n - 1) + [kp])
        assert np.abs(field.operators[::3] - expected).max() <= 1e-11 * np.abs(expected).max()
        weights = (f ** (n - 1) * np.sqrt(u) * (2.0 * t_max / m_t)
                   * unit_sphere_volume(n - 1) / (2.0 * math.pi) * (2.0 * math.pi / 3))
        assert np.abs(field.weights[::3] / weights - 1.0).max() <= 1e-11

    @pytest.mark.parametrize("n", range(4, 13))
    def test_closed_form_matches_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        m, t_end = n - 1, surfaces._profile_end(n - 1)
        with mpmath.workdps(30):
            half, b = mpmath.mpf(1) / 2, mpmath.mpf(1) / 2 - mpmath.mpf(1) / (2 * m)

            def t_of(phi):  # t(phi) = B(sin^2 phi; 1/2, b) / (2m)
                return mpmath.betainc(half, b, 0, mpmath.sin(phi) ** 2) / (2 * m)

            # backward error: the t at each solved angle, up to 0.999999 t_end
            t = t_end * np.array([0.0, 0.05, 0.3, 0.6, 0.7, 0.8, 0.9, 0.99, 0.9999, 0.999999])
            phi = surfaces._profile_angle(m, t)
            assert all(0.0 <= p < math.pi / 2 for p in phi.tolist())
            backward = max(abs(t_of(mpmath.mpf(p)) - mpmath.mpf(s)) for p, s in zip(phi, t))
            assert backward <= 1e-12 * t_end
            # forward error in f = kappa_rot^(-1/n) on the default range, against the root of t(phi)
            field = build_catenoid(n, grid=[7, 2])
            nodes, f = field.coords[::2, 0], field.operators[::2, 0, 0] ** (-1.0 / n)
            for s, value in zip(nodes.tolist(), f.tolist()):
                root = mpmath.findroot(lambda q: t_of(q) - abs(s), math.acos(value ** -m))
                exact = mpmath.cos(root) ** (-mpmath.mpf(1) / m)
                assert abs(value - exact) <= 1e-13 * exact

    def test_mirrored_nodes_share_operators(self, tmp_path):
        # the angle of each node is solved on |t|: 64 profile nodes make 63 runs in the field file
        field = build_catenoid(4, grid=[64, 32], t_max=0.4123456789)
        profile = field.operators[::32]
        assert np.array_equal(profile, profile[::-1])
        assert len(saved_dict(field, tmp_path)["operators"]) == 63

    def test_gauss_legendre_rule(self):
        from numpy.polynomial.legendre import leggauss

        x, w = surfaces._gauss_legendre()
        nodes, weights = leggauss(32)
        order = np.argsort(x)
        assert np.abs(x[order] - (1.0 + nodes) / 2.0).max() <= 1e-15
        assert np.abs(w[order] - weights / 2.0).max() <= 1e-15

    def test_gauss_legendre_rule_is_built_on_first_use(self):
        probe = ("import sys; from rigidity import surfaces; "
                 "print(surfaces._gauss_legendre.cache_info().currsize); "
                 "surfaces.build_catenoid(4, grid=[4, 2]); "
                 "print(surfaces._gauss_legendre.cache_info().currsize, "
                 "'numpy.polynomial' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(surfaces.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout.split() == ["0", "1", "False"]

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
        # feed the RK4 minimal profile, at 256 steps per cell, through the generic builder
        n, t_max, m_t, substeps = 4, 0.4, 8, 256
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
        direct = build_catenoid(n, grid=[m_t, 2], t_max=t_max)
        assert np.allclose(generic.operators, direct.operators, rtol=1e-12, atol=1e-12)
        assert generic.weights == pytest.approx(direct.weights, rel=1e-12)

    def test_polynomial_profile_is_rotation_candidate(self):
        field = build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[10, 3],
                                            fp=lambda t: 2.0 * t, fpp=lambda t: 2.0)
        for i in range(len(field.operators)):
            verdict, case = main_inequality(tracefree_at(field, i))
            assert abs(verdict.relative_defect) <= 1e-9
            assert case.large_eigenspace

    def test_rejects_nonpositive_profile(self):
        with pytest.raises(BadProfile):
            build_rotation_hypersurface(4, lambda t: t, grid=[4, 2], t_range=(-1.0, 1.0),
                                        fp=lambda t: 1.0, fpp=lambda t: 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_profile_not_finite(self, value):
        with pytest.raises(BadProfile, match="profile must be positive and finite"):
            build_rotation_hypersurface(4, lambda t: value, grid=[4, 2],
                                        fp=lambda t: 0.0, fpp=lambda t: 0.0)


class TestChart:
    def test_sphere_recovery(self):
        chart, domain = ellipsoid_chart([2.0] * 5)
        field = chart_shape_operator(chart, domain, grid=[3, 3, 3, 4], fd_step=1e-4)
        assert np.max(np.abs(field.operators - np.eye(4) / 2.0)) <= 1e-6

    def test_sphere_quadratic_convergence(self):
        chart, domain = ellipsoid_chart([1.0] * 5)

        def worst_error(h):
            field = chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=h)
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

    @pytest.mark.parametrize("big", [1e6, 1e-6])
    def test_axis_ratio_of_a_million_builds(self, big):
        # a ratio of 1e8 is refused naming the semi-axes (test_cli's BAD_GEOMETRY)
        field = build_ellipsoid([big, 1, 1, 1, 1], grid=[3, 3, 3, 3])
        assert len(field.weights) == 81

    def test_ellipsoid_strictly_generic(self):
        field = build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[3, 3, 3, 4])
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

        base = chart_shape_operator(e_chart, e_domain, grid=[2, 2, 2, 3], fd_step=1e-2)
        turned = chart_shape_operator(rotated, e_domain, grid=[2, 2, 2, 3], fd_step=1e-2)
        for a, b in zip(base.operators, turned.operators):
            ea = np.sort(np.linalg.eigvalsh(a))
            eb = np.sort(np.linalg.eigvalsh(b))
            assert np.max(np.abs(ea - eb)) <= 1e-10 * max(1.0, np.max(np.abs(ea)))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_round_sphere_chart_gives_plus_identity_over_r(self, n):
        # the normal is oriented by det([normal | J]), the same for every n, as build_sphere's A
        chart, domain = ellipsoid_chart([2.0] * (n + 1))
        field = chart_shape_operator(chart, domain, grid=[2], fd_step=1e-4)
        assert np.abs(field.operators - np.eye(n) / 2.0).max() <= 1e-6

    def test_orientation_flip_preserves_invariants(self):
        chart, domain = ellipsoid_chart([1.0] * 5)
        plus = chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=1e-4)
        minus = chart_shape_operator(lambda u: chart(u) * [1, 1, 1, 1, -1], domain,
                                     grid=[2, 2, 2, 2], fd_step=1e-4)
        assert np.allclose(plus.operators, -minus.operators, atol=0)
        assert np.array_equal(plus.weights, minus.weights)

    def test_degenerate_chart(self):
        def collapsed(u):
            # image is a curve: rank 1 Jacobian everywhere
            s = np.sum(u, axis=-1, keepdims=True)
            return s * np.array([1.0, 2.0, 3.0, 4.0, 5.0])

        with pytest.raises(DegenerateChart):
            chart_shape_operator(collapsed, [(0.0, 1.0)] * 4, grid=[2, 2, 2, 2])

    @pytest.mark.parametrize("grid", [[2, 2, 2, 2], [3, 2, 4, 3]])
    def test_one_chart_call_per_stencil_offset(self, grid):
        chart, domain = ellipsoid_chart([1.0] * 5)
        shapes = []

        def counted(u):
            shapes.append(u.shape)
            return chart(u)

        field = chart_shape_operator(counted, domain, grid=grid, fd_step=1e-4)
        # 2n^2 + 1 offsets, each over all points at h and the 3 self-check probes at h / 2
        assert shapes == [(len(field.weights) + 3, 4)] * 33

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
            chart_shape_operator(chart, [(0.0, 1.0)] * 4, grid=[2, 2, 2, 2])

    @pytest.mark.parametrize("step", [math.nan, 0.0, -1e-3])
    def test_fd_step_out_of_range_is_refused(self, step):
        chart, domain = ellipsoid_chart([1.0, 1.2, 1.4, 1.6, 1.8])
        with pytest.raises(BadParams, match=r"^fd_step must be positive and finite"):
            chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=step)

    def test_step_too_large(self):
        chart, domain = ellipsoid_chart([1.0] * 5)
        with pytest.raises(StepTooLarge):
            chart_shape_operator(chart, domain, grid=[2, 2, 2, 2], fd_step=0.9)

    def test_degenerate_point_wins_over_a_large_step(self):
        # u3 is frozen near u1 = pi / 2, the middle of three u1 values, where no probe lies; the
        # probes and every point share one stencil pass, so the rank fault is found first
        chart, domain = ellipsoid_chart([1.0] * 5)

        def frozen(u):
            u = u.copy()
            u[np.abs(u[:, 1] - math.pi / 2) < 0.1, 3] = 0.0
            return chart(u)

        with pytest.raises(StepTooLarge):
            chart_shape_operator(chart, domain, grid=[2, 3, 2, 2], fd_step=0.9)
        with pytest.raises(DegenerateChart, match=r"rank deficient at \(0\.785[0-9]*, 1\.570"):
            chart_shape_operator(frozen, domain, grid=[2, 3, 2, 2], fd_step=0.9)


# unequal semi-axes with n = 4, 5, 6, and a grid for each
ELLIPSOIDS = [
    ([1.0, 1.3, 0.8, 1.7, 1.2], [3, 3, 3, 4]),
    ([1.0, 1.2, 1.4, 1.6, 1.8, 2.0], [2, 2, 2, 2, 3]),
    ([0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.3], [2, 2, 2, 2, 2, 3]),
]


class TestEllipsoid:
    @pytest.mark.parametrize("axes, grid", ELLIPSOIDS, ids=["n4", "n5", "n6"])
    def test_finite_differences_converge_to_the_closed_form(self, axes, grid):
        field = build_ellipsoid(axes, grid=grid)

        def gaps(h):
            fd = chart_shape_operator(*ellipsoid_chart(axes), grid=grid, fd_step=h)
            assert np.array_equal(fd.coords, field.coords)
            return (np.abs(fd.operators - field.operators).max()
                    / np.abs(field.operators).max(),
                    np.abs(fd.weights / field.weights - 1.0).max())

        coarse, fine = gaps(1e-3), gaps(5e-4)
        assert max(fine) <= 1e-6
        # central differences converge at O(h^2): halving h divides the gap by about 4
        assert coarse[0] >= 3.0 * fine[0] and coarse[1] >= 3.0 * fine[1]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_equal_axes_give_the_round_sphere(self, n):
        grid = [3] * (n - 1) + [4]
        field = build_ellipsoid([1.7] * (n + 1), grid=grid)
        sphere = build_sphere(n, 1.7, grid=grid)
        assert np.abs(field.operators - np.eye(n) / 1.7).max() <= 1e-13 / 1.7
        assert np.array_equal(field.coords, sphere.coords)
        assert np.abs(field.weights / sphere.weights - 1.0).max() <= 1e-13

    def test_frame_checks_name_the_sample(self):
        # the frame both routes share: A = L^-1 II L^-T with g = L L^T, and sqrt(det g)
        gram = np.stack([np.diag([4.0, 1.0, 1.0, 9.0])] * 3)
        second = gram.copy()
        operators, density = surfaces._frame_operators(gram, second, lambda k: f"at sample {k}")
        assert np.allclose(operators, np.eye(4), rtol=0, atol=1e-15)
        assert np.array_equal(density, [6.0] * 3)
        second[2, 0, 1] += 1e-3
        with pytest.raises(InvariantViolation, match="asymmetry exceeds tolerance at sample 2$"):
            surfaces._frame_operators(gram, second, lambda k: f"at sample {k}")
        gram[1, 3, 3] = 1e-17  # a pivot ratio of sqrt(1e-17) / 2, under chart_rank_tol
        with pytest.raises(DegenerateChart, match="nearly rank deficient at sample 1$"):
            surfaces._frame_operators(gram, second, lambda k: f"at sample {k}")
        gram[0, 3, 3] = -1.0
        with pytest.raises(DegenerateChart, match="Jacobian is rank deficient at sample 0$"):
            surfaces._frame_operators(gram, second, lambda k: f"at sample {k}")


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
        with pytest.raises(InvariantViolation, match=r"weights have shape \(0,\), expected \(8,\)"):
            ShapeField(base.spec, base.coords[:0], base.operators[:0], base.weights[:0])


def profile_field():
    """A rotation field of 8 samples on 4 orbits with 4 different operators: one run per orbit."""
    return build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[4, 2], t_range=(0.0, 1.0),
                                       fp=lambda t: 2.0 * t, fpp=lambda t: 2.0)


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

    def test_asymmetric_matrix_names_sample(self, tmp_path):
        field = build_cylinder(4, 1.0, 1.0, grid=[4, 2])
        data = saved_dict(field, tmp_path)
        own_entry(data, 7)["shape_operator"][0][1] = 0.25
        with pytest.raises(InvariantViolation, match="sample 7"):
            field_from_dict(data)

    def test_asymmetric_matrix_names_sample_in_entry_per_sample_table(self, tmp_path):
        data = split_entries(saved_dict(build_cylinder(4, 1.0, 1.0, grid=[4, 2]), tmp_path))
        data["operators"][7]["shape_operator"][0][1] = 0.25
        with pytest.raises(InvariantViolation, match="sample 7"):
            field_from_dict(data)

    @pytest.mark.parametrize("value, message", [
        (0.25, "sample 6: .*not exactly symmetric"),
        (math.nan, "sample 6: .*must be finite"),
    ], ids=["asymmetric", "nan"])
    def test_bad_entry_names_first_sample_using_it(self, tmp_path, value, message):
        data = saved_dict(profile_field(), tmp_path)
        assert [entry["count"] for entry in data["operators"]] == [2, 2, 2, 2]
        data["operators"][3]["shape_operator"][0][1] = value
        with pytest.raises(InvariantViolation, match=message):
            field_from_dict(data)

    def test_negative_weight_rejected(self, tmp_path):
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = saved_dict(field, tmp_path)
        data["samples"][2] = -1.0
        with pytest.raises(InvariantViolation, match="sample 2"):
            field_from_dict(data)

    def test_schema_errors(self, tmp_path):
        with pytest.raises(SchemaError):
            field_from_dict({"spec": {}, "samples": []})
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = saved_dict(field, tmp_path)
        del data["axes"]
        with pytest.raises(SchemaError, match="missing top-level key 'axes'"):
            field_from_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["axes"][1].__setitem__(0, True), "axes 1 must be a list of 2 numbers"),
        (lambda d: d["operators"][0]["shape_operator"][3].__setitem__(3, False),
         "operators entry 0: shape_operator"),
        (lambda d: split_entries(d)["operators"][5]["shape_operator"][3].__setitem__(3, False),
         "operators entry 5: shape_operator"),
    ], ids=["coords", "shape_operator", "shape_operator_entry_per_sample"])
    def test_boolean_in_row_rejected(self, tmp_path, edit, message):
        # numpy would read [true, 0.5] as [1.0, 0.5]; a row holds JSON numbers only
        data = saved_dict(build_cylinder(4, 1.0, 1.0, grid=[4, 2]), tmp_path)
        edit(data)
        with pytest.raises(SchemaError, match=message):
            field_from_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["axes"].pop(), "axes must be a list of 2 lists, one per grid direction"),
        (lambda d: d["axes"].append([0.5]), "axes must be a list of 2 lists"),
        (lambda d: d.update(axes={"0": [0.0]}), "axes must be a list of 2 lists"),
        (lambda d: d["axes"][0].pop(), "axes 0 must be a list of 4 numbers"),
        (lambda d: d["axes"][1].append(7.0), "axes 1 must be a list of 2 numbers"),
        (lambda d: d["axes"][0].__setitem__(2, False), "axes 0 must be a list of 4 numbers"),
        (lambda d: d["axes"][0].__setitem__(2, "0.5"), "axes 0 must be a list of 4 numbers"),
        (lambda d: d["axes"][1].__setitem__(0, [0.5]), "axes 1 must be a list of 2 numbers"),
        (lambda d: d["samples"].pop(), r"samples must be a list of 8 area weights, one per point "
                                       r"of the spec grid \[4, 2\]"),
        (lambda d: d["samples"].append(0.5), "samples must be a list of 8 area weights"),
        (lambda d: d["samples"].__setitem__(3, True), "sample 3: area weight must be a number"),
        (lambda d: d["samples"].__setitem__(3, [0.5]), "sample 3: area weight must be a number"),
        (lambda d: d.update(samples=[]), "samples must be a list of 8 area weights"),
        (lambda d: d.update(samples=0.5), "samples must be a list of 8 area weights"),
    ], ids=["axes_too_few", "axes_too_many", "axes_object", "axis_too_short", "axis_too_long",
            "axis_boolean", "axis_string", "axis_nested", "samples_too_few", "samples_too_many",
            "weight_boolean", "weight_list", "samples_empty", "samples_number"])
    def test_axes_and_weights_schema_errors(self, tmp_path, edit, message):
        data = saved_dict(profile_field(), tmp_path)
        edit(data)
        with pytest.raises(SchemaError, match=message):
            field_from_dict(data)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_nonfinite_axis_value_names_the_first_sample_on_it(self, tmp_path, bad):
        # axis 0 value 2 is the profile coordinate of samples 4 and 5 on the 4x2 grid
        data = saved_dict(profile_field(), tmp_path)
        data["axes"][0][2] = bad
        with pytest.raises(InvariantViolation, match="sample 4: coords must be finite"):
            field_from_dict(data)

    @pytest.mark.parametrize("per_sample_operators", [False, True], ids=["table", "per_sample"])
    def test_older_layout_is_one_named_schema_error(self, tmp_path, per_sample_operators):
        data = to_older_layout(saved_dict(profile_field(), tmp_path), per_sample_operators)
        assert sorted(data["samples"][0]) == (["area_weight", "coords", "shape_operator"]
                                             if per_sample_operators else ["area_weight", "coords"])
        with pytest.raises(SchemaError, match="^samples are objects: this is the per-sample layout "
                                              "of earlier versions, which is not read; write the "
                                              "field again with catalog$"):
            field_from_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["operators"][1].update(count=2.0), "operators entry 1: count must be an int"),
        (lambda d: d["operators"][1].update(count=True), "operators entry 1: count must be an int"),
        (lambda d: d["operators"][1].update(count="2"), "operators entry 1: count must be an int"),
        (lambda d: d["operators"][1].update(count=0), "operators entry 1: count must be an int"),
        (lambda d: d["operators"][1].update(count=-1), "operators entry 1: count must be an int"),
        (lambda d: d["operators"][1].update(count=3), "add up to 9, but there are 8 samples"),
        (lambda d: d["operators"][1].update(count=10 ** 30), "add up to 10+6, but there are 8"),
        (lambda d: d["operators"].pop(), "add up to 6, but there are 8 samples"),
        (lambda d: d.update(operators=[]), "add up to 0, but there are 8 samples"),
        (lambda d: d["operators"][1]["shape_operator"].pop(), "operators entry 1: shape_operator"),
        (lambda d: d["operators"][1].pop("count"), "operators must be a list of objects"),
        (lambda d: d["operators"][1].pop("shape_operator"), "operators must be a list of objects"),
        (lambda d: d.update(operators=None), "operators must be a list of objects"),
    ], ids=["float", "bool", "string", "zero", "negative", "too_many", "beyond_int64",
            "too_few", "empty_table", "ragged_entry", "entry_without_count",
            "entry_without_matrix", "null_table"])
    def test_operator_table_schema_errors(self, tmp_path, edit, message):
        data = saved_dict(profile_field(), tmp_path)
        edit(data)
        with pytest.raises(SchemaError, match=message):
            field_from_dict(data)

    @pytest.mark.parametrize("key, value, message", [
        ("kind", "Torus", "spec: kind 'Torus' is not a surface kind"),
        ("n", 3, "spec: n, the hypersurface dimension, must be >= 4, got 3"),
        ("grid", [1, 4], r"spec: grid counts must be >= 2, got \(1, 4\)"),
    ], ids=["unknown_kind", "n_below_4", "grid_count_1"])
    def test_spec_refused_by_surface_spec_is_schema_error(self, tmp_path, key, value, message):
        data = saved_dict(build_cylinder(4, 1.0, 1.0, grid=[2, 2]), tmp_path)
        data["spec"][key] = value
        with pytest.raises(SchemaError, match=message):
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
        lambda: build_rotation_hypersurface(4, lambda t: 1.0 + t * t, grid=[2, 2],
                                            fp=lambda t: 2.0 * t, fpp=lambda t: 2.0),
        lambda: build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8], grid=[2, 2, 2, 2]),
    ], ids=["sphere", "cylinder", "catenoid", "rotation", "chart"])
    def test_ambient_curvature_key(self, tmp_path, build):
        # files of earlier versions carried the flat ambient space as 0.0; a spec holds its four
        # keys only, so a file that claims any ambient curvature is refused, flat or not
        field = build()
        data = saved_dict(field, tmp_path)
        assert sorted(data["spec"]) == ["grid", "kind", "n", "params"]
        assert field_from_dict(data).spec == field.spec
        for value in (0.0, 5.0, -1e-300, True, "0.0"):
            data["spec"]["ambient_curvature"] = value
            with pytest.raises(SchemaError, match="spec must be an object with the keys grid, kind, n "
                                                  "and params, and no other"):
                field_from_dict(data)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_field(path)

    def test_ingest_starts_no_collection(self, tmp_path):
        # json.load's tree of the n = 6 ellipsoid (about 2.6k lists and dicts, one nest per
        # distinct operator) is freed by reference counting; left running, the collector starts
        # three young collections while it is built
        path = tmp_path / "ellipsoid.json"
        save_field(build_ellipsoid([1.0, 1.12, 1.24, 1.36, 1.48, 1.6, 1.6], grid=[3, 3, 3, 3, 2, 2]),
                   path)
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            field = ingest_field(path)
        finally:
            gc.callbacks.remove(record)
            if not enabled:
                gc.disable()
        assert started == []
        assert len(field.weights) == 324

    @pytest.mark.parametrize("text, error", [
        (None, None), ("{not json", ParseError), ('{"spec": 1}', SchemaError),
    ], ids=["loaded", "parse_error", "schema_error"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
    def test_ingest_restores_the_collector(self, tmp_path, enabled, text, error):
        path = tmp_path / "field.json"
        if text is None:
            save_field(build_cylinder(4, 1.0, 2.0, grid=[2, 2]), path)
        else:
            path.write_text(text, encoding="utf-8")
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                ingest_field(path)
            else:
                with pytest.raises(error):
                    ingest_field(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()

    def test_minimality_claim_enforced(self, tmp_path):
        field = build_cylinder(4, 1.0, 1.0, grid=[2, 2])
        data = saved_dict(field, tmp_path)
        data["minimal_claimed"] = True  # cylinder is not minimal
        with pytest.raises(InvariantViolation, match="minimality"):
            field_from_dict(data)
