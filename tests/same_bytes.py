"""Compare the bytes that two source trees of the package write.

    python3 tests/same_bytes.py PARENT_SRC CHANGE_SRC

Each tree is a directory that holds the ``rigidity`` package (a checkout's
``src``). Every case below runs through the CLI of each tree in a subprocess
with ``OPENBLAS_NUM_THREADS=1``: ``catalog`` then ``analyze --csv`` of a
surface, or ``verify``. Both trees write to the same paths in one scratch
directory, since an analyze report echoes its field path. A cross-read pass
then has CHANGE ``analyze`` the field files that PARENT wrote. A file in the
per-sample layout of earlier versions (an object per sample) must be refused:
exit 2, no stdout, the one stderr line ``REFUSAL``, and no report or CSV. Any
other file must give the exit codes, stdout, reports and CSVs that CHANGE gave
for its own field files, and no stderr. The other direction is not checked,
since an older reader need not know a newer layout. The script prints one
equal/different line per file, exit code and stdout (and, in the cross-read
pass, stderr), and exits 1 on any difference. pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SURFACES = {
    "catenoid-64x32": "--surface catenoid --n 4 --grid 64x32 --t-max 0.4123456789",
    "catenoid-n5": "--surface catenoid --n 5",
    "catenoid-n6-10x3": "--surface catenoid --n 6 --grid 10x3",
    "catenoid-near-end": "--surface catenoid --n 4 --t-max 0.7 --grid 8x2",
    "ellipsoid-n6": "--surface ellipsoid --n 6 --grid 3x3x3x3x2x2",
    "ellipsoid-n4": "--surface ellipsoid --n 4",
    "ellipsoid-n4-long": "--surface ellipsoid --n 4 --grid 3 --semi-axes 1,1,1,1,1e7",
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
    # dimensions out of order, over more samples than one chunk holds
    "verify-two-chunks": "--n 12,4,7,5 --seed 3 --samples 3001 --lambda-count 7",
}

CLI = "import sys; from rigidity.cli import main; sys.exit(main(sys.argv[1:]))"

# what analyze prints when it refuses a field file in the per-sample layout
REFUSAL = (b"analyze: samples are objects: this is the per-sample layout of earlier versions, "
           b"which is not read; write the field again with catalog\n")


def commands():
    """(case, argv list, files written) in run order."""
    for case, args in SURFACES.items():
        field, report, csv = f"{case}.field.json", f"{case}.report.json", f"{case}.csv"
        yield case, [["catalog", *args.split(), "--out", field],
                     ["analyze", "--field", field, "--out", report, "--csv", csv]], (field, report, csv)
    for case, args in VERIFY.items():
        report = f"{case}.json"
        yield case, [["verify", *args.split(), "--out", report]], (report,)


def run(src: Path, work: Path, argvs, files, fields=None) -> dict:
    """Exit codes, stdout and ``files`` of the CLI calls ``argvs`` with the package in ``src``;
    ``fields`` maps file names to bytes written into ``work`` first, and with them stderr is kept
    too."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    for name, text in (fields or {}).items():
        (work / name).write_bytes(text)
    seen = {}
    for argv in argvs:
        done = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=work, env=env,
                              capture_output=True)
        seen[f"{argv[0]} exit"] = str(done.returncode).encode()
        seen[f"{argv[0]} stdout"] = done.stdout
        if fields:
            seen[f"{argv[0]} stderr"] = done.stderr
    for name in [*files, *(fields or {})]:
        path = work / name
        seen.setdefault(name, path.read_bytes() if path.exists() else None)
        if path.exists():
            path.unlink()
    return seen


def keyed(case: str, files, seen: dict) -> dict:
    # files by name, exit codes and stdout by case and subcommand
    return {key if key in files else f"{case} {key}": value for key, value in seen.items()}


def outputs(src: Path, work: Path) -> dict:
    """Every file, exit code and stdout of the cases, run with the package in ``src``."""
    seen = {}
    for case, argvs, files in commands():
        seen.update(keyed(case, files, run(src, work, argvs, files)))
    return seen


def per_sample_layout(text: bytes) -> bool:
    samples = json.loads(text).get("samples")
    return isinstance(samples, list) and bool(samples) and isinstance(samples[0], dict)


def cross_read(src: Path, work: Path, fields: dict, own: dict) -> dict:
    """(expected, seen) of what ``analyze`` with the package in ``src`` writes and prints for
    each surface case's field file in ``fields``, keyed as ``outputs`` keys the tree's ``own``:
    the refusal of a file in the per-sample layout, else ``own``'s outputs and no stderr."""
    pairs = {}
    for case, argvs, files in commands():
        if case in SURFACES and fields[files[0]] is not None:
            field, report, csv = files
            seen = keyed(case, files, run(src, work, argvs[1:], (report, csv), {field: fields[field]}))
            del seen[field]
            if per_sample_layout(fields[field]):
                expected = {f"{case} analyze exit": b"2", f"{case} analyze stdout": b"",
                            f"{case} analyze stderr": REFUSAL, report: None, csv: None}
            else:
                expected = dict(own, **{f"{case} analyze stderr": b""})
            pairs.update((key, (expected[key], value)) for key, value in seen.items())
    return pairs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in args)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        before, after = outputs(parent, work), outputs(change, work)
        crossed = cross_read(change, work, before, after)
    rows = [(key, before[key] is not None and before[key] == after[key]) for key in before]
    rows += [(f"cross-read: {key}", expected == seen) for key, (expected, seen) in crossed.items()]
    different = sum(not same for _, same in rows)
    for key, same in rows:
        print(f"{'equal' if same else 'DIFFERENT'}  {key}")
    print(f"{len(rows) - different} equal, {different} different")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
