"""Negative controls: every gate of ``verify``, fed one planted failure, fails its report.

The theorem is true, so honest random matrices never violate it, and a gate that
had stopped counting would look exactly like one that passes. Each case wraps one
kernel that ``rigidity.verify`` imports so that its first call returns one bad
row: a relative defect of -1e-6 for the violation-count families, an equality
verdict off every (n-1)-eigenspace, or a residual at twice its tolerance. The
family must then fail, the report must fail, and ``rigidity verify`` must exit 1
with one family fewer counted as passed. The violation count is also probed at its
threshold: a relative defect of -2x ``fuzz_defect_tol`` counts, and one of -0.5x does not.
"""

import dataclasses
import json

import numpy as np
import pytest

from rigidity import verify
from rigidity.cli import main
from rigidity.defaults import tolerance
from rigidity.verify import run_verification_campaign

DIMS, SAMPLES, SEED = (4, 5), 60, 3
FAMILIES = 8  # with the Kulkarni-Nomizu suite, as verify runs by default


def first(values, value):
    """A float copy of ``values`` with its first entry set to ``value``."""
    values = np.array(values, dtype=float)
    values.flat[0] = value
    return values


def hom4(stack):
    # the scale that verify divides the identity residuals of a row by
    return max(1.0, float(stack.a2[0]) ** 2)


def defect(verdict, value=-1e-6):
    return dataclasses.replace(verdict, relative_defect=first(verdict.relative_defect, value))


def false_equality(out):
    verdict, large = out
    equality = np.array(verdict.equality)
    equality[0] = True
    return dataclasses.replace(verdict, equality=equality), first(large, 0.0).astype(bool)


def twice(name):
    """An edit that sets the first row's residual to twice the tolerance ``name`` at its scale."""
    return lambda stack, out: first(out, 2.0 * tolerance(name) * hom4(stack))


# family, the kernel to wrap, edit(first argument, kernel output), the stat that counts it
PLANTS = {
    "newton_gap": ("newton_gap", "newton_gap_batch", lambda _, out: defect(out), "violations"),
    "prop_p3": ("prop_p3", "prop_p3_batch", lambda _, out: defect(out), "violations"),
    "prop_p4": ("prop_p4", "prop_p4_batch", lambda _, out: defect(out), "violations"),
    "cubic_bound": ("cubic_bound", "cubic_bound_batch", lambda _, out: defect(out), "violations"),
    "main_inequality": ("main_inequality", "main_inequality_batch",
                        lambda _, out: (defect(out[0]), out[1]), "violations"),
    "false_equality": ("main_inequality", "main_inequality_batch",
                       lambda _, out: false_equality(out), "false_equalities"),
    "bridge": ("main_inequality", "bridge_residual", twice("bridge_tol"), None),
    "sigma_identity": ("sigma_norm_identities", "sigma_norm_identities_batch",
                       lambda stack, out: (twice("sigma_identity_tol")(stack, out[0]), out[1]), None),
    "lambda_gap": ("lambda_scan", "lambda_scan_batch",
                   lambda _, out: (first(out[0], -2.0 * tolerance("lambda_step_tol")), out[1]), None),
    "lambda_product": ("lambda_scan", "lambda_scan_batch",
                       lambda _, out: (out[0], first(out[1], 2.0 * tolerance("lambda_step_tol"))),
                       None),
    "kn_identity": ("kn_identity_suite", "kn_identity_suite_batch", twice("kn_identity_tol"), None),
}


def plant(monkeypatch, kernel, edit):
    """Wrap ``verify``'s ``kernel`` so that its first call's output passes through ``edit``."""
    real, planted = getattr(verify, kernel), []

    def wrapped(arg, *rest):
        out = real(arg, *rest)
        if planted:
            return out
        planted.append(kernel)
        return edit(arg, out)

    monkeypatch.setattr(verify, kernel, wrapped)
    return planted


def test_the_controls_start_from_a_passing_campaign():
    report = run_verification_campaign(DIMS, SAMPLES, SEED)
    assert report["pass"] is True and len(report["checks"]) == FAMILIES
    assert all(stats.get("violations", 0) == 0 for stats in report["checks"].values())
    assert report["checks"]["main_inequality"]["false_equalities"] == 0


@pytest.mark.parametrize("case", PLANTS)
def test_planted_failure_fails_its_family(monkeypatch, case):
    family, kernel, edit, counted = PLANTS[case]
    planted = plant(monkeypatch, kernel, edit)
    report = run_verification_campaign(DIMS, SAMPLES, SEED)
    assert planted == [kernel]
    assert report["checks"][family]["pass"] is False
    assert report["pass"] is False
    assert [name for name, stats in report["checks"].items() if not stats["pass"]] == [family]
    if counted is not None:
        assert report["checks"][family][counted] == 1
    assert report["diagnostics"]["symfun_oracle_pass"] is True


@pytest.mark.parametrize("case", PLANTS)
def test_planted_failure_exits_1(monkeypatch, capsys, tmp_path, case):
    family, kernel, edit, _ = PLANTS[case]
    plant(monkeypatch, kernel, edit)
    out = tmp_path / "report.json"
    code = main(["verify", "--n", ",".join(map(str, DIMS)), "--samples", str(SAMPLES),
                 "--seed", str(SEED), "--out", str(out)])
    assert code == 1
    passed = f"verify: {FAMILIES - 1}/{FAMILIES} check families passed"
    assert capsys.readouterr().out.startswith(passed)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["checks"][family]["pass"] is False and report["pass"] is False


@pytest.mark.parametrize("factor", [2.0, 0.5])
@pytest.mark.parametrize("family", ["newton_gap", "prop_p3", "prop_p4", "cubic_bound",
                                    "main_inequality"])
def test_violation_count_is_the_fuzz_defect_tol_boundary(monkeypatch, family, factor):
    # a relative defect of -2x the tolerance is one violation, and one of -0.5x is none
    value = -factor * tolerance("fuzz_defect_tol")
    _, kernel, _, _ = PLANTS[family]

    def edit(_, out):
        if family == "main_inequality":
            return defect(out[0], value), out[1]
        return defect(out, value)

    planted = plant(monkeypatch, kernel, edit)
    report = run_verification_campaign(DIMS, SAMPLES, SEED)
    assert planted == [kernel]
    stats = report["checks"][family]
    assert stats["min_relative_defect"] == value
    assert stats["violations"] == (1 if factor > 1.0 else 0)
    assert stats["pass"] is report["pass"] is (factor < 1.0)


def test_planted_oracle_deviation_fails_the_report(monkeypatch, capsys, tmp_path):
    # the symmetric-function oracle is a diagnostic, not a family: every family passes, and the
    # report and the exit code fail on it alone
    def deviate(_, sigma):
        return first(sigma, sigma.flat[0] + 2.0 * tolerance("oracle_agreement_tol")
                     * max(1.0, float(np.abs(sigma[:, 0]).max())))

    planted = plant(monkeypatch, "symfun_from_power_sums_batch", deviate)
    report = run_verification_campaign(DIMS, SAMPLES, SEED)
    assert planted == ["symfun_from_power_sums_batch"]
    assert report["diagnostics"]["symfun_oracle_pass"] is False
    assert report["pass"] is False
    assert all(stats["pass"] for stats in report["checks"].values())
    planted.clear()
    out = tmp_path / "report.json"
    assert main(["verify", "--n", ",".join(map(str, DIMS)), "--samples", str(SAMPLES),
                 "--seed", str(SEED), "--out", str(out)]) == 1
    assert capsys.readouterr().out.startswith(f"verify: {FAMILIES}/{FAMILIES} check families passed")
    assert json.loads(out.read_text(encoding="utf-8"))["pass"] is False
