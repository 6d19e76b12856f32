"""Benchmark of the rigidity toolkit: four workloads, correctness-checked, one command.

    python3 bench/run.py                                   # every workload, end-to-end metrics
    python3 bench/run.py --workload catenoid_analyze --seed 7 --seconds 27 --trace 0
    python3 bench/run.py --workload verify_cli --seed 7 --seconds 27 --trace 1

Each workload runs in its own process (bench/worker.py) with BLAS and OpenMP
pinned to one thread and the verify thread count passed explicitly, driven
by one client in a closed loop for ``--seconds``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced then traced requests and
reports per-layer metrics from spans recorded around every cross-layer call.
The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every output passed
its correctness check. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent

# Set-up is timed in this many separate workload processes (the measured one
# included) and reported as their median.
SETUP_SAMPLES = 7
# Spare time one workload's processes get beyond --seconds, all together,
# before a hung one is killed; keeps a 27 s run under 170 s.
GRACE_S = 140.0


def spawn(workload: str, seed: int, seconds: float, mode: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=max(1.0, deadline - spawned_at),
                          check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    env.pop("RIGIDITY_THREADS", None)
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = pinned_env()
    deadline = time.monotonic() + seconds + GRACE_S
    if trace:
        return spawn(workload, seed, seconds, "trace", env, deadline)
    setups = [spawn(workload, seed, 0.0, "setup", env, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(workload, seed, seconds, "measure", env, deadline)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["lines"].append(f"setup_s = median of {len(setups)} workload process starts "
                           f"(min {min(setups):.4f} s, max {max(setups):.4f} s)")
    return result


def report(workload: str, result: dict) -> None:
    print(f"== {workload}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    for line in result["lines"]:
        print("  " + line)
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for error in result["errors"]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rigidity" / "__init__.py").is_file():
        print(f"bench: no rigidity sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
