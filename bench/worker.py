"""One workload process of the benchmark.

``bench/run.py`` starts this script with a pinned environment; it is not a
user entry point. It imports rigidity from the checkout's ``src/``, makes the
workload's inputs from the seed, drives the package in a closed loop (one
client, the next request only after the previous one returned), checks every
output, and prints one JSON line with what it measured.

Modes: ``setup`` stops after set-up, ``measure`` times requests untraced,
``trace`` runs untraced then traced requests and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans as spanlib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

WORKLOADS = ("fuzz_acceptance", "verify_cli", "catenoid_analyze", "ellipsoid_analyze")

# fuzz_acceptance: the acceptance gate's campaign mix, cut to 30 rounds of n = 4..12.
FUZZ_DIMS = tuple(range(4, 13))
FUZZ_SAMPLES = 270
# verify_cli: `rigidity verify` defaults (n = 4,5,6, KN suite on), two worker threads.
CLI_DIMS = (4, 5, 6)
CLI_SAMPLES = 300
CLI_THREADS = 2
LAMBDA_COUNT = 100
# catenoid_analyze: 64 profile nodes x 32 orbit angles; the even profile gives 32 distinct operators.
CATENOID_N = 4
CATENOID_GRID = (64, 32)
# ellipsoid_analyze: n = 6, so 2n^2 + 1 = 73 chart evaluations per sample; every operator distinct.
ELLIPSOID_N = 6
ELLIPSOID_GRID = (3, 3, 3, 3, 2, 2)

# A tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
# The traced half of a --trace 1 run stops after this many requests, which
# bounds the spans held in memory (about 130k for fuzz_acceptance).
TRACED_REQUESTS = 20


def derive(seed: int, workload: str) -> int:
    """31-bit input seed; hashing keeps nearby benchmark seeds from sharing matrices."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def campaign_newton_count(dims, samples: int) -> int:
    return sum(dims[i % len(dims)] - 1 for i in range(samples))


@dataclass
class Call:
    """One operation of a request: a campaign or a CLI command, with its expected outputs."""

    kind: str
    argv: list | None = None          # CLI arguments of a command
    kwargs: dict | None = None        # keyword arguments of the API campaign
    outputs: tuple = ()               # files the call writes, digested in order
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    items: int                        # matrices or field samples per request
    calls: list
    inputs: dict
    digests: dict = field(default_factory=dict)   # kind -> digest of the first checked output


def prepare(workload: str, seed: int, workdir: Path) -> Plan:
    """Inputs of one workload, made only from ``seed``."""
    s = derive(seed, workload)
    rng = random.Random(s)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "fuzz_acceptance":
        kwargs = {"dims": list(FUZZ_DIMS), "samples": FUZZ_SAMPLES, "seed": s,
                  "lambda_count": LAMBDA_COUNT, "threads": 1, "include_kn": False}
        call = Call("campaign", kwargs=kwargs,
                    expect={"samples": FUZZ_SAMPLES, "kn": False,
                            "newton": campaign_newton_count(FUZZ_DIMS, FUZZ_SAMPLES)})
        return Plan(workload, FUZZ_SAMPLES, [call], kwargs)
    if workload == "verify_cli":
        out = workdir / "verify.json"
        argv = ["verify", "--n", ",".join(map(str, CLI_DIMS)), "--samples", str(CLI_SAMPLES),
                "--seed", str(s), "--lambda-count", str(LAMBDA_COUNT),
                "--threads", str(CLI_THREADS), "--out", str(out)]
        call = Call("verify", argv=argv, outputs=(out,),
                    expect={"samples": CLI_SAMPLES, "kn": True,
                            "newton": campaign_newton_count(CLI_DIMS, CLI_SAMPLES)})
        return Plan(workload, CLI_SAMPLES, [call], {"argv": argv})
    field_path, report, csv_path = workdir / "field.json", workdir / "report.json", workdir / "samples.csv"
    if workload == "catenoid_analyze":
        t_max = 0.31 + 0.21 * rng.random()  # inside (0, default 0.518]: one ODE pass meets the tolerance
        samples = CATENOID_GRID[0] * CATENOID_GRID[1]
        catalog = ["catalog", "--surface", "catenoid", "--n", str(CATENOID_N),
                   "--grid", "x".join(map(str, CATENOID_GRID)), "--t-max", repr(t_max),
                   "--out", str(field_path)]
        analyze = ["analyze", "--field", str(field_path), "--out", str(report),
                   "--csv", str(csv_path), "--assert-zero", "1e-6"]
        expect = {"samples": samples, "classification": "CatenoidCandidate"}
    elif workload == "ellipsoid_analyze":
        axes = sorted(1.0 + rng.random() for _ in range(ELLIPSOID_N + 1))
        samples = 1
        for g in ELLIPSOID_GRID:
            samples *= g
        catalog = ["catalog", "--surface", "ellipsoid", "--n", str(ELLIPSOID_N),
                   "--grid", "x".join(map(str, ELLIPSOID_GRID)),
                   "--semi-axes", ",".join(repr(a) for a in axes), "--out", str(field_path)]
        analyze = ["analyze", "--field", str(field_path), "--out", str(report), "--csv", str(csv_path)]
        expect = {"samples": samples, "classification": "Generic", "positive_energy": True}
    else:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    calls = [Call("catalog", argv=catalog, outputs=(field_path,), expect={"samples": samples}),
             Call("analyze", argv=analyze, outputs=(report, csv_path), expect=expect)]
    return Plan(workload, samples, calls, {"catalog": catalog, "analyze": analyze})


# ---------------------------------------------------------------------------
# correctness


def check_verify_report(report: dict, expect: dict) -> str | None:
    checks = report.get("checks", {})
    if report.get("pass") is not True:
        failing = sorted(k for k, v in checks.items() if not v.get("pass"))
        return f"report pass is not true (failing families: {failing})"
    if checks["main_inequality"]["count"] != expect["samples"]:
        return f"main_inequality.count {checks['main_inequality']['count']} != {expect['samples']}"
    if checks["newton_gap"]["count"] != expect["newton"]:
        return f"newton_gap.count {checks['newton_gap']['count']} != {expect['newton']}"
    if ("kn_identity_suite" in checks) != expect["kn"]:
        return "kn_identity_suite block present/absent contrary to the campaign config"
    return None


def check_field(data: dict, expect: dict) -> str | None:
    if len(data.get("samples", ())) != expect["samples"]:
        return f"field has {len(data.get('samples', ()))} samples, expected {expect['samples']}"
    return None


def check_analyze_report(payload: dict, expect: dict) -> str | None:
    report = payload.get("report", {})
    if report.get("classification") != expect["classification"]:
        return f"classification {report.get('classification')!r} != {expect['classification']!r}"
    if report.get("samples") != expect["samples"]:
        return f"report has {report.get('samples')} samples, expected {expect['samples']}"
    if expect.get("positive_energy") and not report.get("E_rot", 0.0) > 0.0:
        return f"E_rot {report.get('E_rot')} is not positive"
    return None


def check_call(call: Call, result, outputs: list[bytes]) -> str | None:
    """Content check of one call's outputs; ``result`` is the exit code or the campaign report."""
    if call.kind == "campaign":
        return check_verify_report(result, call.expect)
    if result != 0:
        return f"{call.kind} exited {result}, expected 0"
    if call.kind == "verify":
        return check_verify_report(json.loads(outputs[0]), call.expect)
    if call.kind == "catalog":
        return check_field(json.loads(outputs[0]), call.expect)
    return check_analyze_report(json.loads(outputs[0]), call.expect)


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class Entry:
    """The package entry points a request calls; wrapped in the traced phase."""

    main: object
    campaign: object


@dataclass
class CallRecord:
    kind: str
    wall: float
    cpu: float
    digest: str
    error: str | None
    output_bytes: int


def run_call(plan: Plan, call: Call, entry: Entry) -> CallRecord:
    error = None
    for path in call.outputs:  # so a call that writes nothing cannot pass on a stale file
        Path(path).unlink(missing_ok=True)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if call.kind == "campaign":
            result = entry.campaign(**call.kwargs)
        else:
            result = entry.main(list(call.argv))
    except Exception as exc:  # a raising call is a failed operation, not a crashed benchmark
        t1, c1 = time.perf_counter(), time.process_time()
        return CallRecord(call.kind, t1 - t0, c1 - c0, "", f"raised {exc!r}", 0)
    t1, c1 = time.perf_counter(), time.process_time()
    if call.kind == "campaign":
        outputs = [json.dumps(result, sort_keys=True).encode()]
    else:
        outputs = [Path(p).read_bytes() if Path(p).exists() else b"" for p in call.outputs]
    h = hashlib.sha256()
    for blob in outputs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    digest = h.hexdigest()
    known = plan.digests.get(call.kind)
    if known is None:
        # Full content check of the first output; a later output is correct iff its bytes match.
        try:
            error = check_call(call, result, outputs)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
        if error is None:
            plan.digests[call.kind] = digest
    elif call.kind != "campaign" and result != 0:
        error = f"{call.kind} exited {result}, expected 0"
    elif digest != known:
        error = f"output digest {digest[:12]} differs from the first repeat's {known[:12]}"
    size = sum(len(b) for b in outputs) if call.kind != "campaign" else 0
    return CallRecord(call.kind, t1 - t0, c1 - c0, digest, error, size)


def closed_loop(plan: Plan, entry: Entry, seconds: float, on_request=None,
                max_requests: int | None = None) -> list[list[CallRecord]]:
    """Requests back to back until ``seconds`` of wall time have passed (at least one)."""
    requests = []
    deadline = time.monotonic() + seconds
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while True:
            if on_request is None:
                records = [run_call(plan, call, entry) for call in plan.calls]
            else:
                with on_request(len(requests)):
                    records = [run_call(plan, call, entry) for call in plan.calls]
            requests.append(records)
            if time.monotonic() >= deadline or len(requests) == max_requests:
                break
    return requests


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0  # too few samples for a tail; the maximum stands in
    return ordered[k], 100.0 * k / (len(ordered) - 1)


def request_walls(requests) -> list[float]:
    return [sum(r.wall for r in records) for records in requests]


def end_to_end(plan: Plan, requests) -> tuple[dict, list[str]]:
    """Gated metrics (request_tail_s, peak_rss_mb) and the printed-only ones as lines."""
    walls = request_walls(requests)
    tail_value, tail_pct = tail(walls)
    metrics = {
        "request_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    verify_workload = plan.workload in ("fuzz_acceptance", "verify_cli")
    throughput = plan.items * len(walls) / sum(walls)
    attempted = sum(len(r) for r in requests)
    failed = sum(1 for records in requests for r in records if r.error)
    lines = [f"{len(walls)} closed-loop requests of {plan.items} "
             f"{'matrices' if verify_workload else 'samples'}; request_tail_s is p{tail_pct:.1f} "
             f"of the {len(walls)} (the maximum when fewer than {TAIL_BEYOND + 1})",
             f"request_p50_s = {statistics.median(walls):.6g} s",
             f"{'verify_matrices_per_s' if verify_workload else 'samples_per_s'} = {throughput:.6g} 1/s"]
    for kind in ("catalog", "analyze"):
        times = [r.wall for records in requests for r in records if r.kind == kind]
        if times:
            t_value, t_pct = tail(times)
            lines.append(f"{kind}_p50_s = {statistics.median(times):.6g} s; "
                         f"{kind}_tail_s = {t_value:.6g} s (p{t_pct:.1f} of {len(times)} calls)")
    lines.append(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    return metrics, lines


def traced_loop(plan: Plan, seconds: float):
    """Closed loop with every cross-layer call of the package recorded as a span."""
    from rigidity import cli, verify

    recorder = spanlib.SpanRecorder()
    entry = Entry(recorder.wrap("cli.main", cli.main),
                  recorder.wrap("verify.run_verification_campaign", verify.run_verification_campaign))
    with spanlib.installed(recorder):
        return closed_loop(plan, entry, seconds, recorder.request, TRACED_REQUESTS), recorder


def per_layer(plan: Plan, untraced, traced, recorder) -> tuple[dict, list[str]]:
    own = spanlib.self_times(recorder.spans)
    by_run: dict = {}
    for s in recorder.spans:
        by_run.setdefault(s.run, []).append(s)
    rows = []
    for run, records in enumerate(traced):
        row = spanlib.request_layers(by_run.get(run, []), own)
        calls = row["energy.main_inequality.calls"]
        row["energy.useful_eval_ratio"] = len(recorder.operators[run]) / calls if calls else 0.0
        evals = recorder.chart_evals[run]
        row["surfaces.chart_evals"] = float(evals)
        row["surfaces.chart_evals_per_sample"] = evals / plan.items if evals else 0.0
        row["surfaces.field_bytes"] = float(sum(r.output_bytes for r in records if r.kind == "catalog"))
        row["cli.report_bytes"] = float(sum(r.output_bytes for r in records
                                            if r.kind in ("verify", "analyze")))
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["verify.parallelism"] = statistics.median(
        sum(r.cpu for r in records) / sum(r.wall for r in records) for records in untraced)
    metrics["bench.trace_overhead"] = (statistics.median(request_walls(traced))
                                       / statistics.median(request_walls(untraced)) - 1.0)
    units = {}
    for name in metrics:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_bytes"):
            units[name] = "bytes"
        elif name.endswith(("ratio", "parallelism", "overhead")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    lines = [f"traced: {len(traced)} requests after {len(untraced)} untraced; "
             f"{len(recorder.spans)} spans; per-layer values are medians over traced requests"]
    return {k: (v, units[k]) for k, v in metrics.items()}, lines


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy as np

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": np.__version__, "seed": seed}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var)
    env["commit"] = git_commit()
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import rigidity
    from rigidity import cli, verify

    if not Path(rigidity.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported rigidity from {rigidity.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    plan = prepare(args.workload, args.seed, WORK / args.workload)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    entry = Entry(cli.main, verify.run_verification_campaign)
    if args.mode == "measure":
        requests = closed_loop(plan, entry, args.seconds)
        metrics, lines = end_to_end(plan, requests)
        traced = []
    else:
        requests = closed_loop(plan, entry, args.seconds / 2.0)
        traced, recorder = traced_loop(plan, args.seconds / 2.0)
        metrics, lines = per_layer(plan, requests, traced, recorder)
        span_file = WORK / args.workload / "spans.tsv"
        recorder.write(span_file)
        lines.append(f"spans written to {span_file.relative_to(ROOT)}")
    all_requests = requests + traced
    errors = [f"{r.kind}: {r.error}" for records in all_requests for r in records if r.error]
    digests = {r.kind: set() for records in all_requests for r in records}
    for records in all_requests:
        for r in records:
            if not r.error:
                digests[r.kind].add(r.digest)
    lines.append("output sha256 per kind (distinct values over all repeats): " + ", ".join(
        f"{kind} {' '.join(x[:16] for x in sorted(d))}" for kind, d in digests.items()))
    result.update({
        "attempted": sum(len(r) for r in all_requests),
        "failed": sum(1 for records in all_requests for r in records if r.error),
        "errors": sorted(set(errors))[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "lines": lines,
        "inputs": plan.inputs,
        "env": environment(args.seed),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
