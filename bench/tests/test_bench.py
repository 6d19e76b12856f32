"""Tests of the benchmark itself: per-layer counts against closed forms, the
correctness gate, and the span recorder.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import worker  # noqa: E402

sys.path.insert(0, str(worker.SRC))

from rigidity import cli, verify  # noqa: E402

ENTRY = worker.Entry(cli.main, verify.run_verification_campaign)


def one_traced_request(workload: str, workdir: Path):
    """One untraced and one traced request; returns the plan, both, and the per-layer metrics."""
    plan = worker.prepare(workload, 3, workdir)
    untraced = worker.closed_loop(plan, ENTRY, 0.0)
    traced, recorder = worker.traced_loop(plan, 0.0)
    metrics, _ = worker.per_layer(plan, untraced, traced, recorder)
    return plan, untraced, traced, {name: value for name, (value, _) in metrics.items()}


def assert_tracing_changed_nothing(untraced, traced):
    records = [r for request in untraced + traced for r in request]
    assert [r.error for r in records] == [None] * len(records)
    for kind in {r.kind for r in records}:
        assert len({r.digest for r in records if r.kind == kind}) == 1, kind


def verdicts_per_campaign(dims, samples: int) -> int:
    # newton_gap for k = 1..n-1, then prop_p3, prop_p4, cubic_bound, main_inequality,
    # sigma_norm_identities and lambda_scan once each
    return sum(dims[i % len(dims)] - 1 + 6 for i in range(samples))


def test_fuzz_acceptance_counts(tmp_path):
    _, untraced, traced, m = one_traced_request("fuzz_acceptance", tmp_path)
    assert_tracing_changed_nothing(untraced, traced)
    samples = worker.FUZZ_SAMPLES
    assert m["curvature.kn_identity_suite.calls"] == 0
    assert m["inequalities.verdicts"] == verdicts_per_campaign(worker.FUZZ_DIMS, samples)
    assert m["sampling.calls"] == 2 * samples  # derived_rng and random_symmetric
    assert m["spectral.eigen_spectrum.calls"] == samples
    assert m["energy.main_inequality.calls"] == 0
    assert m["surfaces.chart_evals"] == 0
    assert m["cli.self_s"] == 0  # the campaign is called through the API, not the CLI


def test_verify_cli_counts_with_two_threads(tmp_path):
    _, untraced, traced, m = one_traced_request("verify_cli", tmp_path)
    assert_tracing_changed_nothing(untraced, traced)
    samples = worker.CLI_SAMPLES
    assert m["curvature.kn_identity_suite.calls"] == samples
    assert m["inequalities.verdicts"] == verdicts_per_campaign(worker.CLI_DIMS, samples)
    assert m["sampling.calls"] == 2 * samples
    assert m["verify.self_s"] >= 0 and m["cli.self_s"] > 0


def test_catenoid_counts(tmp_path):
    _, untraced, traced, m = one_traced_request("catenoid_analyze", tmp_path)
    assert_tracing_changed_nothing(untraced, traced)
    m_t, m_theta = worker.CATENOID_GRID
    samples = m_t * m_theta
    assert m["energy.main_inequality.calls"] == samples == 2048
    # the profile is even, so t and -t give one operator: m_t / 2 distinct
    assert m["energy.useful_eval_ratio"] == (m_t // 2) / samples == 32 / 2048
    assert m["inequalities.verdicts"] == samples
    assert m["surfaces.chart_evals"] == 0
    assert m["surfaces.field_bytes"] > 0 and m["cli.report_bytes"] > 0


def test_ellipsoid_counts(tmp_path):
    _, untraced, traced, m = one_traced_request("ellipsoid_analyze", tmp_path)
    assert_tracing_changed_nothing(untraced, traced)
    n = worker.ELLIPSOID_N
    samples = 1
    for g in worker.ELLIPSOID_GRID:
        samples *= g
    per_point = 2 * n * n + 1  # centre, 2n first-order and 4 C(n, 2) mixed stencil points
    assert per_point == 73
    self_check = 6  # the FD step check probes three points, each at h and h / 2
    assert m["surfaces.chart_evals"] == per_point * (samples + self_check)
    assert m["surfaces.chart_evals_per_sample"] == m["surfaces.chart_evals"] / samples
    assert m["energy.main_inequality.calls"] == samples
    assert m["energy.useful_eval_ratio"] == 1.0


def test_perturbed_operator_fails_the_catenoid_gate(tmp_path):
    plan = worker.prepare("catenoid_analyze", 3, tmp_path)
    catalog, analyze = plan.calls
    assert worker.run_call(plan, catalog, ENTRY).error is None
    field_path = Path(catalog.outputs[0])
    data = json.loads(field_path.read_text())
    op = data["samples"][100]["shape_operator"]
    op[0][1] += 1e-3
    op[1][0] += 1e-3
    field_path.write_text(json.dumps(data))
    record = worker.run_call(plan, analyze, ENTRY)
    assert record.error is not None
    report = json.loads(Path(analyze.outputs[0]).read_text())
    assert report["report"]["classification"] != "CatenoidCandidate"


def test_changed_repeat_fails_the_determinism_check(tmp_path):
    plan = worker.prepare("fuzz_acceptance", 3, tmp_path)
    call = plan.calls[0]
    assert worker.run_call(plan, call, ENTRY).error is None
    call.kwargs["seed"] += 1
    assert "differs" in worker.run_call(plan, call, ENTRY).error


def test_inputs_come_from_the_seed_only(tmp_path):
    for name in worker.WORKLOADS:
        first = worker.prepare(name, 5, tmp_path).inputs
        assert worker.prepare(name, 5, tmp_path).inputs == first
        assert worker.prepare(name, 4, tmp_path).inputs != first
    # nearby seeds map to unrelated campaign seeds, not to seeds differing in low bits
    assert (worker.derive(0, "fuzz_acceptance") ^ worker.derive(1, "fuzz_acceptance")) >= 1 << 8


def test_self_time_subtracts_the_union_of_children():
    s = spans.Span
    recorded = [s(0, "cli.main", 0.0, 10.0, None, 1, 0),
                s(1, "spectral.norms", 1.0, 3.0, 0, 1, 0),
                s(2, "spectral.norms", 2.0, 5.0, 0, 2, 0),   # overlaps 1 on another thread
                s(3, "spectral.norms", 8.0, 12.0, 0, 2, 0)]  # runs past its parent
    own = spans.self_times(recorded)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0)


def test_tail_is_the_eleventh_largest():
    values = [float(v) for v in range(1, 31)]
    assert worker.tail(values) == (20.0, pytest.approx(100.0 * 19 / 29))
    assert worker.tail(values[:5]) == (5.0, 100.0)


def test_recorder_keeps_parents_per_thread():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("spectral.norms", lambda: None)
    outer = recorder.wrap("verify.run_verification_campaign", lambda: inner())
    threads, calls = 8, 300
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [outer() for _ in range(calls)])
                   for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in workers)
    finally:
        sys.setswitchinterval(previous)
    assert len(recorder.spans) == 2 * threads * calls
    assert len({s.id for s in recorder.spans}) == len(recorder.spans)
    by_id = {s.id: s for s in recorder.spans}
    for s in recorder.spans:
        if s.name == "spectral.norms":
            parent = by_id[s.parent]
            assert parent.name == "verify.run_verification_campaign" and parent.thread == s.thread


def test_wrappers_are_removed_after_the_traced_loop():
    from rigidity import energy, surfaces

    before = (energy.main_inequality, surfaces.ellipsoid_chart, cli.ingest_field)
    with spans.installed(spans.SpanRecorder()):
        assert energy.main_inequality is not before[0]
    assert (energy.main_inequality, surfaces.ellipsoid_chart, cli.ingest_field) == before


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fuzz_acceptance",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
