"""Command line interface: the verification harness plus inspectors for
the product table, plane waves, the momentum eigensystem, the idempotent
quadruples, and frames.

Exit codes: 0 all requested checks pass, 1 at least one failure,
2 usage error (unknown check or tolerance name, malformed arguments).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import N_BLADES, blade_name, blade_product
from .checks import check_definitions, report_json, run_checks
from .dirac import dirac_system, geometric_matrix_crosscheck, order_eigensystem
from .frames import GaugeField, build_frame, em_frame
from .matrices import RECIPROCAL_IMAGES, matrix_text, to_matrix
from .monogenic import MomentumVector, laplacian, plane_wave, vector_derivative
from .projectors import build_e_set, build_f_set, verify_su4_generators

_FIXED_POINTS = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (0.3, -0.2, 0.5, 0.1, -0.4),
    (-0.7, 0.4, -0.1, 0.8, 0.2),
)


def _parse_tolerance(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    try:
        return name, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value in {text!r}") from exc


def _cmd_verify(args) -> int:
    if args.list:
        for d in check_definitions():
            print(f"{d.name:30s} tolerance={d.tolerance:<8g} {d.anchor}")
        return 0
    overrides = dict(args.tolerance or [])
    results = run_checks(
        names=args.check or None, seed=args.seed, tolerances=overrides, step_h=args.step_h
    )
    if args.output == "json":
        print(report_json(results, seed=args.seed))
    else:
        for r in results:
            print(
                f"{r.status.upper():4s} {r.name:30s} "
                f"residual={r.residual:.3e} tolerance={r.tolerance:g} "
                f"({r.elapsed_ms:.1f} ms)"
            )
        passed = sum(1 for r in results if r.status == "pass")
        failed = len(results) - passed
        print(f"{passed} passed, {failed} failed, {len(results)} run")
    return 0 if all(r.status == "pass" for r in results) else 1


def _cmd_table(args) -> int:
    names = [blade_name(m) for m in range(N_BLADES)]
    width = max(len(n) for n in names) + 2
    header = " " * width + "".join(f"{n:>{width}s}" for n in names)
    print(header)
    for a in range(N_BLADES):
        cells = []
        for b in range(N_BLADES):
            sign, mask = blade_product(a, b)
            cells.append(f"{'-' if sign < 0 else ''}{blade_name(mask)}")
        print(f"{names[a]:>{width}s}" + "".join(f"{c:>{width}s}" for c in cells))
    print()
    for idx in range(5):
        print(f"raised-index image {idx}:")
        print(matrix_text(RECIPROCAL_IMAGES[idx]))
        print()
    return 0


def _momentum_from_args(values, negative_energy=False) -> MomentumVector:
    if len(values) == 5:
        energy, p1, p2, p3, mass = values
        return MomentumVector(energy, (p1, p2, p3), mass)
    p1, p2, p3, mass = values
    return MomentumVector.from_mass_momentum((p1, p2, p3), mass, negative_energy)


def _cmd_planewave(args) -> int:
    if len(args.momentum) not in (4, 5):
        raise ValueError("expected `E p1 p2 p3 m` or `p1 p2 p3 m`")
    if args.grid < 0:
        raise ValueError("--grid must be nonnegative")
    k = _momentum_from_args(args.momentum, args.negative_energy)
    wave = plane_wave(k)
    print(f"energy:    {k.energy:g}")
    print(f"momentum:  {k.momentum[0]:g} {k.momentum[1]:g} {k.momentum[2]:g}")
    print(f"mass:      {k.mass:g}")
    print(f"null gap:  {k.null_gap:.3e}")
    print(f"amplitude: {k.amplitude}")
    print(f"vector:    {k.vector}")
    first = vector_derivative(wave, _FIXED_POINTS)
    second = laplacian(wave, _FIXED_POINTS, h=1e-3, richardson=True)
    print(f"first-order residual:  {np.max(np.abs(first)):.3e}")
    print(f"second-order residual: {np.max(np.abs(second)):.3e}")
    if args.grid:
        print()
        points = np.repeat(0.1 * np.arange(args.grid)[:, None], 5, axis=1)
        for x, coeffs in zip(points, wave(points)):
            head = " ".join(f"{v:.12g}" for v in x)
            tail = " ".join(f"{c:.12g}" for c in coeffs)
            print(f"{head} | {tail}")
    return 0


def _cmd_eigen(args) -> int:
    k = _momentum_from_args(args.momentum)
    system = order_eigensystem(dirac_system(k))
    print("operator:")
    print(matrix_text(system.a_bar))
    print()
    print("eigencolumns:")
    print(matrix_text(system.psi_bar))
    print()
    print("eigenvalues:")
    print(matrix_text(system.lam))
    print()
    psi = np.asarray(system.psi_bar)
    reconstruction = float(
        np.max(np.abs(psi @ system.lam @ np.linalg.inv(psi) - system.a_bar))
    )
    eigen_equation = float(np.max(np.abs(system.a_bar @ psi - psi @ system.lam)))
    amplitude_image = float(
        np.max(np.abs(to_matrix(k.amplitude) - (k.energy * np.eye(4) + system.a_bar)))
    )
    crosscheck = geometric_matrix_crosscheck(k, _FIXED_POINTS)
    print(
        json.dumps(
            {
                "spectrum": [float(v) for v in np.real(np.diag(system.lam))],
                "reconstruction_residual": reconstruction,
                "eigen_equation_residual": eigen_equation,
                "amplitude_image_residual": amplitude_image,
                "crosscheck_residual": crosscheck,
            },
            indent=2,
        )
    )
    return 0


def _cmd_projectors(args) -> int:
    for s in (build_f_set(), build_e_set()):
        print(f"{s.name}:")
        for i, el in enumerate(s.elements, start=1):
            print(f"  [{i}] {el}")
        print()
    print(json.dumps(verify_su4_generators(), indent=2, default=float))
    return 0


def _cmd_frame(args) -> int:
    point = np.array(args.point, dtype=float)
    if not np.all(np.isfinite(point)):
        raise ValueError("--point must be finite")
    if args.em:
        if args.potential is None:
            raise ValueError("--em requires --potential")
        frame = em_frame(GaugeField(args.potential, charge=args.charge, mass=args.mass), point)
    elif args.matrix is not None:
        try:
            flat = [float(v) for v in args.matrix.replace(",", " ").split()]
        except ValueError:  # a word that is no number
            flat = []
        if len(flat) != 25:
            raise ValueError("--matrix needs 25 numbers")
        frame = build_frame(np.array(flat).reshape(5, 5), point)
    else:
        frame = build_frame(np.eye(5), point)
    print(
        json.dumps(
            {
                "metric": frame.metric.tolist(),
                "inverse_metric": frame.inverse_metric.tolist(),
                "vectors": [str(v) for v in frame.vectors],
                "reciprocal": [str(v) for v in frame.reciprocal],
            },
            indent=2,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ga41",
        description="Computational kernel for the Clifford algebra of "
        "signature (-++++): verification checks and inspectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification checks")
    verify.add_argument("--seed", type=int, default=0, help="base seed for check randomness")
    verify.add_argument(
        "--tolerance",
        action="append",
        type=_parse_tolerance,
        metavar="NAME=VALUE",
        help="override a check tolerance (repeatable)",
    )
    verify.add_argument(
        "--check", action="append", metavar="NAME", help="run only this check (repeatable)"
    )
    verify.add_argument(
        "--step-h", type=float, default=1e-3, help="base step for finite differences"
    )
    verify.add_argument("--list", action="store_true", help="list checks and exit")
    verify.add_argument("--output", choices=("text", "json"), default="text")
    verify.set_defaults(fn=_cmd_verify)

    table = sub.add_parser("table", help="print the blade product table and images")
    table.set_defaults(fn=_cmd_table)

    wave = sub.add_parser("planewave", help="inspect a plane wave")
    wave.add_argument("momentum", type=float, nargs="+", help="E p1 p2 p3 m, or p1 p2 p3 m")
    wave.add_argument("--grid", type=int, default=0, metavar="N", help="dump N sample rows")
    wave.add_argument(
        "--negative-energy", action="store_true", help="choose the negative branch"
    )
    wave.set_defaults(fn=_cmd_planewave)

    eigen = sub.add_parser("eigen", help="inspect the momentum eigensystem")
    eigen.add_argument("momentum", type=float, nargs=4, help="p1 p2 p3 m")
    eigen.set_defaults(fn=_cmd_eigen)

    projectors = sub.add_parser("projectors", help="print the idempotent quadruples")
    projectors.set_defaults(fn=_cmd_projectors)

    frame = sub.add_parser("frame", help="inspect a frame")
    frame.add_argument("--matrix", help="25 numbers (rows) for the index tensor")
    frame.add_argument("--em", action="store_true", help="electromagnetic frame")
    frame.add_argument("--potential", type=float, nargs=4, metavar="A")
    frame.add_argument("--charge", type=float, default=-1.0)
    frame.add_argument("--mass", type=float, default=1.0)
    frame.add_argument(
        "--point", type=float, nargs=5, default=(0.0, 0.0, 0.0, 0.0, 0.0)
    )
    frame.set_defaults(fn=_cmd_frame)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 after --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except ValueError as exc:  # every usage error a command or the library reports
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
