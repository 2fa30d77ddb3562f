#!/usr/bin/env python3
"""Sample a monogenic plane wave on a regular grid and emit CSV.

Rows hold the five coordinates followed by the 32 blade coefficients,
one sample per line, suitable for plotting or diffing between runs.

The whole grid is evaluated in one call of the field, and the residuals
in one call of the vector derivative.

Exit codes: 0 on success, 2 on bad input (an off-shell or non-finite
momentum, axes that are not two distinct indices in 0..4, fewer than one
point per axis, a non-finite extent or one whose grid is not finite).
"""

import argparse
import csv
import math
import sys

import numpy as np

from ga41 import MomentumVector, plane_wave
from ga41.algebra import N_BLADES, blade_name
from ga41.monogenic import vector_derivative


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="dump plane-wave samples on a grid as CSV"
    )
    parser.add_argument("p1", type=float, help="momentum component 1")
    parser.add_argument("p2", type=float, help="momentum component 2")
    parser.add_argument("p3", type=float, help="momentum component 3")
    parser.add_argument("mass", type=float, help="harmonic mass, nonnegative")
    parser.add_argument("--points", type=int, default=9,
                        help="grid points per varied axis (default 9)")
    parser.add_argument("--extent", type=float, default=1.0,
                        help="half-width of the grid (default 1.0)")
    parser.add_argument("--axes", default="0,1",
                        help="two comma-separated axes to vary (default 0,1)")
    parser.add_argument("--negative-energy", action="store_true",
                        help="use the negative-energy branch")
    parser.add_argument("--residuals", action="store_true",
                        help="append the first-order residual per sample")
    return parser.parse_args(argv)


def checked_inputs(args):
    """The momentum, the two grid axes and the grid ticks; ValueError on
    bad input."""
    k = MomentumVector.from_mass_momentum(
        (args.p1, args.p2, args.p3), args.mass,
        negative_energy=args.negative_energy,
    )
    try:
        axes = tuple(int(a) for a in args.axes.split(","))
    except ValueError:
        axes = ()
    if len(axes) != 2 or axes[0] == axes[1] or not all(0 <= a <= 4 for a in axes):
        raise ValueError("--axes needs two distinct indices in 0..4")
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    if not math.isfinite(args.extent):
        raise ValueError("--extent must be finite")
    # numpy warns on the way to an overflowing step; the check below says it once
    with np.errstate(over="ignore", invalid="ignore"):
        ticks = np.linspace(-args.extent, args.extent, args.points)
    if not np.isfinite(ticks).all():
        raise ValueError("--extent is too large: the grid it spans is not finite")
    return k, axes, ticks


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        k, axes, ticks = checked_inputs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wave = plane_wave(k)
    points = np.zeros((args.points**2, 5))
    points[:, axes[0]] = np.repeat(ticks, args.points)
    points[:, axes[1]] = np.tile(ticks, args.points)
    values = wave(points)
    if args.residuals:
        residuals = np.max(np.abs(vector_derivative(wave, points)), axis=-1)

    writer = csv.writer(sys.stdout)
    header = [f"x{a}" for a in range(5)] + [blade_name(m) for m in range(N_BLADES)]
    if args.residuals:
        header.append("residual")
    writer.writerow(header)
    for i, (x, value) in enumerate(zip(points, values)):
        row = [f"{c:.12g}" for c in x] + [f"{c:.12g}" for c in value]
        if args.residuals:
            row.append(f"{residuals[i]:.3e}")
        writer.writerow(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
