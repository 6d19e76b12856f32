"""Acceptance gate: every criterion at its stated tolerance.

One pass/fail line is printed per criterion (run with ``pytest -s`` to see
them on a green suite). Criteria 1, 3, 4 and the profile-oracle half of 9
share one 100k-matrix campaign so the heavy work runs once.
"""

import time

import numpy as np
import pytest

from rigidity.cli import main
from rigidity.energy import conformal_rescale, rotational_energy
from rigidity.surfaces import (
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
    catenoid_profile,
    chart_shape_operator,
    cylinder_chart,
    ellipsoid_chart,
    minimality_residual,
)
from rigidity.verify import run_verification_campaign

from equality_family import equality_family_stats
from reference import (
    SymMatrix,
    derived_rng,
    eigen_spectrum,
    equality_family_matrix,
    kn_identity_suite,
    norms,
    prop_p3,
    prop_p4,
    random_rotation,
    random_trace_free,
    symfun_from_spectrum,
    tensor_norm_sq,
    weyl_from_gauss_codazzi,
    weyl_norm_closed_form,
)

FUZZ_SAMPLES = 100_000
FUZZ_SEED = 20240

_here = {}


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def fuzz_campaign():
    if "report" not in _here:
        start = time.perf_counter()
        report = run_verification_campaign(range(4, 13), FUZZ_SAMPLES, FUZZ_SEED,
                                           lambda_count=100, threads=1, include_kn=False)
        _here["runtime"] = time.perf_counter() - start
        _here["report"] = report
    return _here["report"], _here["runtime"]


def test_criterion_1_main_inequality_fuzz(fuzz_campaign):
    report, runtime = fuzz_campaign
    stats = report["checks"]["main_inequality"]
    ok = (stats["count"] == FUZZ_SAMPLES
          and stats["violations"] == 0
          and stats["min_relative_defect"] >= -1e-12
          and stats["false_equalities"] == 0
          and runtime < 60.0)
    announce(1, ok, f"{FUZZ_SAMPLES} matrices n in 4..12, zero violations at 1e-12, "
                    f"runtime {runtime:.1f}s single-threaded")
    assert stats["violations"] == 0
    assert stats["min_relative_defect"] >= -1e-12
    assert stats["false_equalities"] == 0
    assert runtime < 60.0


def test_criterion_2_equality_family():
    stats = equality_family_stats(range(4, 9), 100, seed=FUZZ_SEED + 1)
    canonical = SymMatrix(np.diag([1.0, 1.0, 1.0, -3.0]))
    profile = symfun_from_spectrum(eigen_spectrum(canonical))
    p_ok = all(abs(profile.p[k] - (1 - k)) <= 1e-12 for k in range(5))
    a2, a22, _ = norms(canonical)
    value_ok = abs(a22 - 84.0) <= 1e-12 * 84.0 and abs(a22 - (7.0 / 12.0) * a2 * a2) <= 1e-12 * 84.0
    ok = (stats["all_equality"] and stats["all_multiplicity_n_minus_1"]
          and stats["max_abs_relative_defect"] <= 1e-10 and p_ok and value_ok)
    announce(2, ok, f"100 conjugated equality matrices flagged, worst defect "
                    f"{stats['max_abs_relative_defect']:.2e}; canonical p_k = 1-k and "
                    f"|A^2|^2 = 84 = (7/12)*144")
    assert stats["all_equality"] and stats["all_multiplicity_n_minus_1"]
    assert stats["max_abs_relative_defect"] <= 1e-10
    assert p_ok and value_ok


def test_criterion_3_newton_lambda_chain(fuzz_campaign):
    report, _ = fuzz_campaign
    newton = report["checks"]["newton_gap"]
    lam = report["checks"]["lambda_scan"]
    p3 = report["checks"]["prop_p3"]
    p4 = report["checks"]["prop_p4"]
    family_equalities = True
    for i in range(100):
        rng = derived_rng(FUZZ_SEED + 2, i)
        n = 4 + i % 5
        a = equality_family_matrix(n, float(rng.uniform(0.5, 2.0)),
                                   rotation=random_rotation(rng, n))
        prof = symfun_from_spectrum(eigen_spectrum(a))
        family_equalities = (family_equalities and prop_p3(prof).equality
                             and prop_p4(prof).equality)
    ok = (newton["violations"] == 0 and newton["min_relative_defect"] >= -1e-12
          and p3["violations"] == 0 and p4["violations"] == 0
          and lam["min_relative_gap"] >= -1e-12
          and lam["max_relative_product"] <= 1e-12
          and family_equalities)
    announce(3, ok, f"Newton gaps >= -1e-12 (worst {newton['min_relative_defect']:.2e}), "
                    f"shifted gap worst {lam['min_relative_gap']:.2e}, product worst "
                    f"{lam['max_relative_product']:.2e}, equality family exact")
    assert newton["violations"] == 0 and newton["min_relative_defect"] >= -1e-12
    assert p3["violations"] == 0 and p4["violations"] == 0
    assert lam["min_relative_gap"] >= -1e-12
    assert lam["max_relative_product"] <= 1e-12
    assert family_equalities


def test_criterion_4_bridge_and_sigma_identities(fuzz_campaign):
    report, _ = fuzz_campaign
    bridge = report["checks"]["main_inequality"]["max_bridge_residual"]
    sigma = report["checks"]["sigma_norm_identities"]["max_relative_residual"]
    ok = bridge <= 1e-10 and sigma <= 1e-10
    announce(4, ok, f"bridge identity worst residual {bridge:.2e}, "
                    f"sigma_2/sigma_4 worst residual {sigma:.2e} (tol 1e-10)")
    assert bridge <= 1e-10
    assert sigma <= 1e-10


def test_criterion_5_weyl_identities():
    start = time.perf_counter()
    worst_match = 0.0
    worst_kn = 0.0
    for i in range(1000):
        rng = derived_rng(FUZZ_SEED + 3, i)
        n = 4 + i % 5
        a = random_trace_free(rng, n)
        a2, a22, _ = norms(a)
        scale = max(1.0, a2 * a2)
        direct = tensor_norm_sq(weyl_from_gauss_codazzi(a))
        closed = weyl_norm_closed_form((a2, a22), n)
        worst_match = max(worst_match, abs(direct - closed) / scale)
        worst_kn = max(worst_kn, max(abs(r) for r in kn_identity_suite(a)) / scale)
    worst_equality = 0.0
    for i in range(100):
        rng = derived_rng(FUZZ_SEED + 4, i)
        n = 4 + i % 5
        a = equality_family_matrix(n, float(rng.uniform(0.5, 2.0)),
                                   rotation=random_rotation(rng, n))
        a2, a22, _ = norms(a)
        direct = tensor_norm_sq(weyl_from_gauss_codazzi(a))
        worst_equality = max(worst_equality, abs(direct) / max(1.0, a2 * a2))
    runtime = time.perf_counter() - start
    ok = worst_match <= 1e-9 and worst_kn <= 1e-9 and worst_equality <= 1e-9 and runtime < 120.0
    announce(5, ok, f"1000 Weyl contractions match closed form (worst {worst_match:.2e}), "
                    f"KN identities worst {worst_kn:.2e}, equality family |W|^2 worst "
                    f"{worst_equality:.2e}, runtime {runtime:.1f}s")
    assert worst_match <= 1e-9
    assert worst_kn <= 1e-9
    assert worst_equality <= 1e-9
    assert runtime < 120.0


def test_criterion_6_catenoid():
    field = build_catenoid(4)
    residual = max(abs(a.trace()) / (1.0 + a.frobenius()) for a in map(SymMatrix, field.operators))
    report = rotational_energy(field)
    worst_defect = float(np.abs(report.pointwise["relative_defect"]).max())
    energy_ok = abs(report.e_rot) <= 1e-7 * report.quadrature_scale
    t_max = 0.45
    _, f1, fp1 = catenoid_profile(4, t_max, 96)
    _, f2, fp2 = catenoid_profile(4, t_max, 192)
    ratio = minimality_residual(4, f1, fp1) / minimality_residual(4, f2, fp2)
    ok = (residual <= 1e-8 and worst_defect <= 1e-8 and energy_ok
          and report.classification == "CatenoidCandidate" and ratio >= 8.0)
    announce(6, ok, f"catenoid minimality residual {residual:.2e}, pointwise defect "
                    f"{worst_defect:.2e}, E_rot/scale {abs(report.e_rot)/report.quadrature_scale:.2e}, "
                    f"classification {report.classification}, step-halving ratio {ratio:.1f}x")
    assert residual <= 1e-8
    assert worst_defect <= 1e-8
    assert energy_ok
    assert report.classification == "CatenoidCandidate"
    assert ratio >= 8.0


def test_criterion_7_rotation_vs_generic():
    cylinder = rotational_energy(build_cylinder(4, 1.0, 2.0, grid=[8, 4]))
    poly = rotational_energy(build_rotation_hypersurface(
        4, lambda t: 1.0 + t * t, grid=[10, 3], fp=lambda t: 2.0 * t, fpp=lambda t: 2.0))
    sphere = rotational_energy(build_sphere(4, 1.0, grid=[4]))

    grid = [3, 3, 3, 4]
    axes = [1.0, 1.2, 1.4, 1.6, 1.8]
    ell = rotational_energy(build_ellipsoid(axes, grid=grid, fd_step=2e-4))
    ell_half = rotational_energy(build_ellipsoid(axes, grid=grid, fd_step=1e-4))
    noise_floor = abs(ell.e_rot - ell_half.e_rot) + 1e-15 * ell.quadrature_scale

    cyl_ok = (abs(cylinder.e_rot) <= 1e-10 * cylinder.quadrature_scale
              and cylinder.classification == "RotationCandidate")
    poly_ok = (abs(poly.e_rot) <= 1e-10 * poly.quadrature_scale
               and poly.classification == "RotationCandidate")
    ell_ok = ell.e_rot > 1e3 * noise_floor and ell.classification == "Generic"
    sphere_ok = (sphere.classification == "AllUmbilic"
                 and sphere.e_rot == 0.0 and sphere.e_rot_conf == 0.0)
    ok = cyl_ok and poly_ok and ell_ok and sphere_ok
    announce(7, ok, f"cylinder/poly-profile E_rot = 0 at 1e-10 scale, ellipsoid E_rot "
                    f"{ell.e_rot:.3e} > 1e3 x noise floor {noise_floor:.3e} (Generic), "
                    f"sphere AllUmbilic with zero energies")
    assert cyl_ok and poly_ok and ell_ok and sphere_ok


def test_criterion_8_conformal_invariance():
    fields = {
        4: build_cylinder(4, 1.0, 2.0, grid=[5, 3]),
        5: build_cylinder(5, 1.0, 2.0, grid=[5, 3]),
        6: build_cylinder(6, 1.0, 2.0, grid=[5, 3]),
    }
    conf_ok = True
    for n, field in fields.items():
        base = rotational_energy(field)
        for t in (0.5, 2.0):
            scaled = rotational_energy(conformal_rescale(field, t))
            conf_ok = conf_ok and abs(scaled.e_rot_conf - base.e_rot_conf) <= 1e-12 * max(
                1.0, base.quadrature_scale_conf)

    ell5 = build_ellipsoid([1.0, 1.2, 1.4, 1.6, 1.8, 2.0], grid=[2, 2, 2, 2, 3], fd_step=1e-4)
    base5 = rotational_energy(ell5)
    factor_ok = base5.e_rot > 0.0
    for t in (0.5, 2.0):
        scaled5 = rotational_energy(conformal_rescale(ell5, t))
        factor_ok = factor_ok and abs(scaled5.e_rot / base5.e_rot - t) <= 1e-12
        conf_ok = conf_ok and abs(scaled5.e_rot_conf / base5.e_rot_conf - 1.0) <= 1e-12

    base4 = rotational_energy(fields[4])
    bit_ok = base4.e_rot == base4.e_rot_conf
    for t in (0.5, 2.0):
        scaled4 = rotational_energy(conformal_rescale(fields[4], t))
        bit_ok = bit_ok and scaled4.e_rot_conf == base4.e_rot_conf

    ok = conf_ok and factor_ok and bit_ok
    announce(8, ok, "E_rot_conf invariant under t in {0.5, 2} for n in {4,5,6}; "
                    "n=5 E_rot scales by exactly t; n=4 E_rot_conf == E_rot bit-for-bit")
    assert conf_ok
    assert factor_ok
    assert bit_ok


def test_criterion_9_oracle_agreement(fuzz_campaign):
    report, _ = fuzz_campaign
    deviation = report["diagnostics"]["symfun_oracle_max_relative_deviation"]

    def chart_errors(chart, domain, grid, target):
        errors = []
        for h in (2e-2, 1e-2):
            field = chart_shape_operator(chart, domain, grid=grid, fd_step=h,
                                         self_check=False)
            errors.append(max(
                float(np.max(np.abs(np.sort(np.linalg.eigvalsh(a)) - target)))
                for a in field.operators))
        return errors

    s_chart, s_domain = ellipsoid_chart([1.0] * 5)
    sphere_err = chart_errors(s_chart, s_domain, [2, 2, 2, 2], np.ones(4))
    c_chart, c_domain = cylinder_chart(4, 1.0, 1.0)
    cyl_err = chart_errors(c_chart, c_domain, [2, 3, 2], np.array([0.0, 1.0, 1.0, 1.0]))
    sphere_ratio = sphere_err[0] / sphere_err[1]
    cyl_ratio = cyl_err[0] / cyl_err[1]
    order_ok = 2.8 <= sphere_ratio <= 6.0 and 2.8 <= cyl_ratio <= 6.0
    ok = deviation <= 1e-9 and order_ok
    announce(9, ok, f"profile routes agree to {deviation:.2e} on the fuzz corpus; "
                    f"chart error halving ratios sphere {sphere_ratio:.2f}, "
                    f"cylinder {cyl_ratio:.2f} (quadratic order)")
    assert deviation <= 1e-9
    assert order_ok


def test_criterion_10_thread_determinism(tmp_path):
    payloads = []
    for threads in (1, 4, 8):
        out = tmp_path / f"report_t{threads}.json"
        code = main(["verify", "--n", "4,5,6", "--samples", "600", "--seed", "99",
                     "--threads", str(threads), "--out", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    announce(10, ok, "verify reports byte-identical at 1, 4, and 8 threads")
    assert ok
