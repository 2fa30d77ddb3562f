#!/usr/bin/env python3
"""Time the one-point field operators of two ga41 trees in one process,
interleaved.

    python scripts/ab_fields.py PARENT_SRC CHANGE_SRC [ROUNDS]

A suite of the harness in ``ab_checks.py``, which loads, times, prints
and exits.  Each tree builds the same fields: a plane wave, the Dirac
column waves of eigencolumns 0 and 3, and a packet of each degree 1-3.
A key is a field and one of the five one-point operators (the value, the
analytic and the central-difference vector derivative, the Richardson
Laplacian and the covariant derivative in an electromagnetic frame), and
its calls are the operator at each point of POINTS.  The column waves
have no covariant key: the frame tilts only the axis-4 reciprocal
vector, and a column wave's axis-4 partial is zero, so theirs would be
their analytic derivative's bytes.  ``digest.py`` prints a line per key
over the calls' outputs.
"""

import sys
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))  # ab_checks sits beside this script
from ab_checks import load, run  # noqa: E402

FIELDS = ("plane", "column0", "column3", "packet1", "packet2", "packet3")
STEP_H = 1e-3
#: the points, one at a time, one of them with a -0.0 coordinate
POINTS = np.random.default_rng(27).uniform(-1.5, 1.5, (8, 5))
POINTS[0, 3] = -0.0


def suite(src: Path, label: str) -> dict:
    """{"field operator": [its call at each point]} for the tree in src."""
    m, d, f = load(src, label, "monogenic", "dirac", "frames")
    k = m.MomentumVector.from_mass_momentum((0.6, -1.1, 0.4), 0.9)
    system = d.order_eigensystem(d.dirac_system(k))
    fields = [m.plane_wave(k), d.column_wave(system, 0), d.column_wave(system, 3)]
    for degree in (1, 2, 3):
        fields.append(m.separable_wavepacket(m.monogenic_polynomials_3d(degree)[-1], (1.3, -1.3)))
    gauge = f.GaugeField(np.array([0.3, -0.2, 0.5, 0.1]), charge=-1.0, mass=1.3)
    operators = {
        "value": lambda field, x: field(x).coeffs,
        "derivative": lambda field, x: m.vector_derivative(field, x).coeffs,
        "derivative_h": lambda field, x: m.vector_derivative(field, x, h=STEP_H).coeffs,
        "laplacian": lambda field, x: m.laplacian(field, x, h=STEP_H, richardson=True).coeffs,
        "covariant": lambda field, x: f.covariant_derivative(field, f.em_frame(gauge, x), x).coeffs,
    }
    return {
        f"{kind} {name}": [partial(op, field, x) for x in POINTS]
        for kind, field in zip(FIELDS, fields)
        for name, op in operators.items()
        if not (kind.startswith("column") and name == "covariant")
    }


def main(argv=None) -> int:
    return run(argv, suite, "field operator")


if __name__ == "__main__":
    sys.exit(main())
