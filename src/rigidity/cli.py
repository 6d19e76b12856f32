"""Command-line surface: verify / catalog / analyze.

Exit codes: 0 on success, 1 when a check or assertion fails (the report is
still written, except that ``analyze --assert-zero`` on a NaN or infinite
E_rot_conf exits 1 and writes no report), 2 on usage or schema errors and on
any RigidityError, such as a non-finite report value or ``--assert-zero`` TOL.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .defaults import ARTIFACT, TOLERANCES, VERSION
from .energy import report_csv, report_to_dict, rotational_energy
from .errors import BadParams, RigidityError
from .fields import ingest_field, json_pieces, save_field, write_json, write_text
from .surfaces import (
    build_catenoid,
    build_cylinder,
    build_ellipsoid,
    build_rotation_hypersurface,
    build_sphere,
)
from .verify import run_verification_campaign

SURFACES = ("sphere", "cylinder", "catenoid", "rotation", "ellipsoid")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _grid(text: str) -> list[int]:
    return [int(part) for part in text.lower().split("x") if part]


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: a build takes about a millisecond and leaves a
    cyclic graph of a few hundred objects for the garbage collector. Callers share it and its
    list defaults, which neither ``parse_args`` nor any command mutates."""
    parser = argparse.ArgumentParser(prog=ARTIFACT,
                                     description="Trace-free inequality and rotational energy toolkit")
    parser.add_argument("--version", action="version", version=f"{ARTIFACT} {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run randomized inequality campaigns")
    p_verify.add_argument("--n", type=_int_list, default=[4, 5, 6],
                          help="comma-separated matrix dimensions (default 4,5,6)")
    p_verify.add_argument("--samples", type=int, required=True,
                          help="total number of random matrices")
    p_verify.add_argument("--seed", type=int, required=True,
                          help="campaign seed, the key of its Philox stream: 0 <= seed < 2**128")
    p_verify.add_argument("--lambda-count", type=int, default=100,
                          help="shift values per matrix in the lambda scan")
    p_verify.add_argument("--threads", type=int, default=None,
                          help="accepted for compatibility and ignored; campaigns run on one thread")
    p_verify.add_argument("--out", required=True, help="report JSON path")

    p_catalog = sub.add_parser("catalog", help="construct a sampled hypersurface")
    p_catalog.add_argument("--surface", required=True, choices=SURFACES)
    p_catalog.add_argument("--n", type=int, required=True, help="hypersurface dimension")
    p_catalog.add_argument("--grid", type=_grid, default=None, help="sample counts, e.g. 64x32")
    p_catalog.add_argument("--radius", type=float, default=1.0)
    p_catalog.add_argument("--height", type=float, default=2.0)
    p_catalog.add_argument("--t-max", type=float, default=None, help="catenoid profile half-range")
    p_catalog.add_argument("--profile-coeffs", type=_float_list, default=[1.0, 0.0, 1.0],
                           help="polynomial profile coefficients, lowest degree first")
    p_catalog.add_argument("--t-range", type=_float_list, default=[-1.0, 1.0],
                           help="profile parameter range for rotation surfaces")
    p_catalog.add_argument("--semi-axes", type=_float_list, default=None,
                           help="semi-axes of the ellipsoid (n + 1 values), whose shape "
                                "operators are computed in closed form")
    p_catalog.add_argument("--out", required=True, help="field JSON path")

    p_analyze = sub.add_parser("analyze", help="energies and classification of a field file")
    p_analyze.add_argument("--field", required=True, help="field JSON path")
    p_analyze.add_argument("--out", required=True, help="report JSON path")
    p_analyze.add_argument("--csv", default=None, help="optional per-sample CSV path")
    p_analyze.add_argument("--assert-zero", type=float, default=None, metavar="TOL",
                           help="exit 1 when E_rot_conf exceeds TOL (finite, >= 0) x quadrature scale")
    return parser


def cmd_verify(args) -> int:
    report = run_verification_campaign(args.n, args.samples, args.seed,
                                       lambda_count=args.lambda_count)
    write_json(args.out, report)
    families = report["checks"]
    passed = sum(1 for stats in families.values() if stats["pass"])
    print(f"verify: {passed}/{len(families)} check families passed; report written to {args.out}")
    return 0 if report["pass"] else 1


def _build_surface(args):
    if args.surface == "sphere":
        return build_sphere(args.n, args.radius, grid=args.grid)
    if args.surface == "cylinder":
        return build_cylinder(args.n, args.radius, args.height, grid=args.grid)
    if args.surface == "catenoid":
        return build_catenoid(args.n, grid=args.grid, t_max=args.t_max)
    if args.surface == "rotation":
        # numpy.polynomial takes milliseconds to import, so only rotation surfaces load it
        from numpy.polynomial import Polynomial

        if not args.profile_coeffs:
            raise BadParams("profile-coeffs needs at least one value")
        if not all(map(math.isfinite, args.profile_coeffs)):  # an inf makes f' NaN
            raise BadParams(f"profile-coeffs must be finite, got {args.profile_coeffs}")
        if len(args.t_range) != 2:
            raise BadParams(f"t-range needs two values, got {args.t_range}")
        profile = Polynomial(args.profile_coeffs)
        with np.errstate(over="ignore"):  # an inf coefficient is for the builder to refuse
            fp, fpp = profile.deriv(), profile.deriv(2)
        return build_rotation_hypersurface(args.n, profile, grid=args.grid,
                                           t_range=(args.t_range[0], args.t_range[1]),
                                           fp=fp, fpp=fpp)
    axes = args.semi_axes  # an ellipsoid: argparse's choices allow no other surface
    if axes is None:
        axes = [1.0 + 0.2 * i for i in range(args.n + 1)]
    if len(axes) != args.n + 1:
        raise BadParams(
            f"ellipsoid of dimension {args.n} needs {args.n + 1} semi-axes, got {len(axes)}")
    return build_ellipsoid(axes, grid=args.grid)


def cmd_catalog(args) -> int:
    field = _build_surface(args)
    save_field(field, args.out)
    print(f"catalog: wrote {len(field.weights)} samples ({field.spec.kind}, n={field.spec.n}) "
          f"to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    tol = args.assert_zero
    if tol is not None and not 0.0 <= tol < math.inf:  # a NaN TOL would pass every field
        raise BadParams(f"--assert-zero TOL must be finite and >= 0, got {tol}")
    field = ingest_field(args.field)
    report = rotational_energy(field)
    payload = {
        "artifact": ARTIFACT,
        "version": VERSION,
        "command": "analyze",
        "field": {
            "path": str(args.field),
            "kind": field.spec.kind,
            "n": field.spec.n,
            "minimal_claimed": field.minimal_claimed,
        },
        "tolerances": dict(TOLERANCES),
        "report": report_to_dict(report),
    }
    if tol is not None and not math.isfinite(report.e_rot_conf):
        # the gate fails closed, and a non-finite energy cannot be written as JSON
        print(f"analyze: E_rot_conf is {report.e_rot_conf}; no report written", file=sys.stderr)
        return 1
    pieces = json_pieces(args.out, payload)  # a non-finite report stops here, with nothing written
    if args.csv:  # before the report, so that a failed CSV leaves --out as it was
        write_text(args.csv, report_csv(report))
    write_text(args.out, pieces)
    print(f"analyze: {field.spec.kind} n={field.spec.n} classification={report.classification} "
          f"E_rot={report.e_rot:.6e} E_rot_conf={report.e_rot_conf:.6e}")
    if tol is not None:
        bound = tol * report.quadrature_scale_conf
        if not abs(report.e_rot_conf) <= bound:
            print(f"analyze: E_rot_conf {report.e_rot_conf:.3e} exceeds "
                  f"{tol:g} x scale {report.quadrature_scale_conf:.3e}",
                  file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    command = {"verify": cmd_verify, "catalog": cmd_catalog, "analyze": cmd_analyze}[args.command]
    try:
        return command(args)
    except RigidityError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
