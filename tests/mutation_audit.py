"""Mutation audit: each widened decision in ``src`` must fail a tier-1 test.

    python3 tests/mutation_audit.py [NAME ...]

For each mutant below (or only those named), the script copies ``src``, ``tests``
and ``pyproject.toml`` of this checkout into a temporary directory, applies the
mutant as an exact text replacement that must occur once in its file, runs the
tier-1 suite there with ``-x``, and prints KILLED when a test fails or SURVIVED
when every test passes. It exits 1 if any mutant survived. pytest does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/rigidity, text, its replacement)
MUTANTS = {
    "trace_free_require": (
        "spectral.py", 'bad = np.abs(s1) > tolerance("trace_free_tol") * n * norm',
        'bad = np.abs(s1) > 1e3 * tolerance("trace_free_tol") * n * norm'),
    "trace_free_classify": (
        "inequalities.py", '<= tolerance("trace_free_tol") * w.shape[1] * np.maximum(1.0, radius))',
        '<= 1e3 * tolerance("trace_free_tol") * w.shape[1] * np.maximum(1.0, radius))'),
    "zero_radius": (
        "inequalities.py", 'radius <= tolerance("umbilic_tol")',
        'radius <= 1e3 * tolerance("umbilic_tol")'),
    "bridge_refusal": (
        "inequalities.py",
        'bad = np.abs(residual) > tolerance("bridge_tol") * np.maximum(1.0, hom)',
        'bad = np.abs(residual) > 1e3 * tolerance("bridge_tol") * np.maximum(1.0, hom)'),
    "passes_kn": (
        "verify.py", 'stats["max_relative_residual"] <= tolerance("kn_identity_tol")',
        'stats["max_relative_residual"] <= 1e3 * tolerance("kn_identity_tol")'),
    "passes_sigma_identity": (
        "verify.py", 'stats["max_relative_residual"] <= tolerance("sigma_identity_tol")',
        'stats["max_relative_residual"] <= 1e3 * tolerance("sigma_identity_tol")'),
    "passes_lambda_product": (
        "verify.py", 'stats["max_relative_product"] <= tolerance("lambda_step_tol")',
        'stats["max_relative_product"] <= 1e3 * tolerance("lambda_step_tol")'),
    "passes_lambda_gap": (
        "verify.py", 'stats["min_relative_gap"] >= -tolerance("lambda_step_tol")',
        'stats["min_relative_gap"] >= -1e3 * tolerance("lambda_step_tol")'),
    "fuzz_violations": (
        "verify.py", "violations=np.count_nonzero(~(rel >= -fuzz))",
        "violations=np.count_nonzero(~(rel >= -1e3 * fuzz))"),
    "fialkow_trace": (
        "curvature.py", "> 1e-12 * np.maximum(1.0, g)", "> 1e-6 * np.maximum(1.0, g)"),
    "field_count": (
        "fields.py", "math.prod(self.spec.grid)", "weights.size"),
    "merge_side": (
        "fields.py", "np.searchsorted(distinct, v)", 'np.searchsorted(distinct, v, side="right")'),
}

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def mutate(tree: Path, name: str) -> None:
    """Apply mutant ``name`` to the copy in ``tree``; ValueError unless its text occurs once."""
    file, old, new = MUTANTS[name]
    path = tree / "src" / "rigidity" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{name}: {old!r} occurs {text.count(old)} times in {file}, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def killed(name: str) -> bool:
    """Whether tier-1, run with ``-x`` on a mutated copy of the tree, fails a test."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        mutate(tree, name)
        env = dict(os.environ, PYTHONPATH="src")
        done = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{name}: pytest exited {done.returncode}")
    return done.returncode == 1


def main(names) -> int:
    unknown = sorted(set(names) - MUTANTS.keys())
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; valid: {', '.join(MUTANTS)}",
              file=sys.stderr)
        return 2
    survived = 0
    for name in names or MUTANTS:
        verdict = killed(name)
        survived += not verdict
        print(f"{'KILLED' if verdict else 'SURVIVED':8}  {name}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
