#!/usr/bin/env python3
"""Walk through the separable wavepacket construction.

Prints the polynomial solution bases degree by degree, then combines a
flagged factor with the two-axis harmonic wave and reports monogenicity
residuals at random points: the analytic vector derivative, and the
central difference with step STEP_H, each against its own bound.

Exit codes: 0 when every residual is within its bound (ANALYTIC_TOL for
the analytic one, NUMERIC_TOL s (1 + g)^3 for the numeric one), 1 when
one is larger or NaN, 2 on bad input (an unsupported degree, a
non-finite or overflowing mass, a negative seed, fewer than one sample).
"""

import argparse
import sys

import numpy as np

from ga41.monogenic import (
    monogenic_polynomials_3d,
    separable_wavepacket,
    vector_derivative,
)

#: step of the central-difference vector derivative
STEP_H = 1e-4
#: bound on the analytic residual, which is rounding alone
ANALYTIC_TOL = 1e-9
#: bound on the numeric residual relative to s (1 + g)^3, with s the larger
#: of 1 and the packet's largest coefficient at the sample and g the larger
#: of |mass| and the degree: the residual is the stencil's truncation term
#: h^2/6 |f'''| summed over the five axes, and each third derivative is
#: taken as at most s (1 + g)^3, as perfbench bounds its central differences
NUMERIC_TOL = 5 * STEP_H**2 / 6


def describe_basis(degree: int) -> None:
    fields = monogenic_polynomials_3d(degree)
    flagged = sum(1 for f in fields if f.flagged)
    print(f"degree {degree}: {len(fields)} solutions, {flagged} flagged")
    probe = np.array([0.0, 0.8, -0.5, 0.3, 0.0])
    for i, f in enumerate(fields):
        tag = "flagged" if f.flagged else "       "
        residual = vector_derivative(f, probe).max_abs()
        print(f"  [{i:2d}] {tag}  value at probe: {f(probe)}  residual: {residual:.2e}")


def checked_inputs(args):
    """The packet and the sample generator; ValueError on bad input."""
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    spatial = monogenic_polynomials_3d(args.degree)[0]
    packet = separable_wavepacket(spatial, (args.mass, args.mass))
    return packet, np.random.default_rng(args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="separable wavepacket demo")
    parser.add_argument("--degree", type=int, default=2,
                        help="spatial factor degree (default 2)")
    parser.add_argument("--mass", type=float, default=2.0,
                        help="harmonic mass of the two-axis wave (default 2)")
    parser.add_argument("--samples", type=int, default=5,
                        help="random sample points (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        packet, rng = checked_inputs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for degree in range(args.degree + 1):
        describe_basis(degree)

    print(f"\npacket: flagged degree-{args.degree} factor times the "
          f"(t, x4) wave with E = m = {args.mass}")
    growth = (1.0 + max(abs(args.mass), args.degree)) ** 3
    xs = rng.uniform(-1, 1, (args.samples, 5))
    analytic = np.max(np.abs(vector_derivative(packet, xs)), axis=-1)
    numeric = np.max(np.abs(vector_derivative(packet, xs, h=STEP_H)), axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(packet(xs)), axis=-1))
    for x, a, n in zip(xs, analytic, numeric):
        print(f"  x = {np.array2string(x, precision=3)}  "
              f"analytic: {a:.2e}  numeric: {n:.2e}")
    # np.max, not max: a NaN residual must fail
    worst = float(np.max([analytic, numeric]))
    ratios = [analytic / ANALYTIC_TOL, numeric / (NUMERIC_TOL * scale * growth)]
    worst_ratio = float(np.max(ratios))
    print(f"worst residual: {worst:.2e}  worst ratio to its bound: {worst_ratio:.2e}")
    return 0 if worst_ratio <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
