"""Compare the bytes that two source trees of the package write.

    python3 tests/same_bytes.py PARENT_SRC CHANGE_SRC

Each tree is a directory that holds the ``rigidity`` package (a checkout's
``src``). Every case below runs through the CLI of each tree in a subprocess
with ``OPENBLAS_NUM_THREADS=1``: ``catalog`` then ``analyze --csv`` of a
surface, or ``verify``. Both trees write to the same paths in one scratch
directory, since an analyze report echoes its field path. The script prints
one equal/different line per file, exit code and stdout, and exits 1 on any
difference. pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SURFACES = {
    "catenoid-64x32": "--surface catenoid --n 4 --grid 64x32 --t-max 0.4123456789",
    "catenoid-n5": "--surface catenoid --n 5",
    "catenoid-n6-10x3": "--surface catenoid --n 6 --grid 10x3",
    "catenoid-substeps": "--surface catenoid --n 4 --ode-substeps 64 --t-max 0.3 --grid 8x2",
    "ellipsoid-n6": "--surface ellipsoid --n 6 --grid 3x3x3x3x2x2",
    "ellipsoid-n4": "--surface ellipsoid --n 4",
    "ellipsoid-n4-fd": "--surface ellipsoid --n 4 --grid 3 --fd-step 1e-3",
    "sphere-n4": "--surface sphere --n 4",
    "sphere-n5-5": "--surface sphere --n 5 --grid 5",
    "cylinder-r2": "--surface cylinder --n 4 --radius 2",
    "cylinder-n5-7": "--surface cylinder --n 5 --grid 7",
    "rotation": "--surface rotation --n 4",
    "rotation-2-0.5": "--surface rotation --n 4 --profile-coeffs 2,0.5",
    "rotation-n5": ("--surface rotation --n 5 --profile-coeffs 2,0.5,0.3,0.1 "
                    "--t-range=-0.7,1.1 --grid 12x4"),
}

VERIFY = {
    "verify-99": "--n 4,5,6 --seed 99 --samples 600",
    "verify-7": "--n 4,5,6,7,8,9,10,11,12 --seed 7 --samples 2000",
    "verify-one": "--n 4 --samples 1 --seed 0 --lambda-count 1",
}

CLI = "import sys; from rigidity.cli import main; sys.exit(main(sys.argv[1:]))"


def commands():
    """(case, argv list, files written) in run order."""
    for case, args in SURFACES.items():
        field, report, csv = f"{case}.field.json", f"{case}.report.json", f"{case}.csv"
        yield case, [["catalog", *args.split(), "--out", field],
                     ["analyze", "--field", field, "--out", report, "--csv", csv]], (field, report, csv)
    for case, args in VERIFY.items():
        report = f"{case}.json"
        yield case, [["verify", *args.split(), "--out", report]], (report,)


def outputs(src: Path, work: Path) -> dict:
    """Every file, exit code and stdout of the cases, run with the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    seen = {}
    for case, argvs, files in commands():
        for argv in argvs:
            done = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=work, env=env,
                                  capture_output=True)
            seen[f"{case} {argv[0]} exit"] = str(done.returncode).encode()
            seen[f"{case} {argv[0]} stdout"] = done.stdout
        for name in files:
            path = work / name
            seen[name] = path.read_bytes() if path.exists() else None
            if path.exists():
                path.unlink()
    return seen


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in args)
    with tempfile.TemporaryDirectory() as tmp:
        before, after = outputs(parent, Path(tmp)), outputs(change, Path(tmp))
    different = 0
    for key in before:
        same = before[key] is not None and before[key] == after[key]
        different += not same
        print(f"{'equal' if same else 'DIFFERENT'}  {key}")
    print(f"{len(before) - different} equal, {different} different")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
