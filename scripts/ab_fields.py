#!/usr/bin/env python3
"""Time the one-point field operators of two ga41 trees in one process,
interleaved, and compare their output bytes.

    python scripts/ab_fields.py PARENT_SRC CHANGE_SRC [ROUNDS]

Each SRC is a directory that holds a ``ga41`` package, loaded as in
``ab_checks.py``.  Each tree builds the same fields: a plane wave, the
Dirac column waves of eigencolumns 0 and 3, and a packet of each degree
1-3.  A round times the five one-point operators (the value, the analytic
and the central-difference vector derivative, the Richardson Laplacian
and the covariant derivative in an electromagnetic frame) on each field,
one call per point of POINTS, on both trees in turn: the parent first in
even rounds and the change first in odd ones.  ROUNDS defaults to 10.

It prints one line per field and operator with the median microseconds
per call on each tree and their ratio (change over parent), then the
number of rounds whose calls took the change less time in total than the
parent (ties count for neither side), then whether the two trees' outputs
in the first round are byte-identical.  It exits 0 after printing when
they are, 1 when any differ, and 2 on bad arguments.
"""

import importlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))  # ab_checks sits beside this script
from ab_checks import TREES, _parse, load  # noqa: E402

FIELDS = ("plane", "column0", "column3", "packet1", "packet2", "packet3")
OPERATORS = ("value", "derivative", "derivative_h", "laplacian", "covariant")
STEP_H = 1e-3
#: the points, one at a time, one of them with a -0.0 coordinate
POINTS = np.random.default_rng(27).uniform(-1.5, 1.5, (8, 5))
POINTS[0, 3] = -0.0


def calls(src: Path, label: str) -> dict:
    """{(field, operator): call of one point} for the tree in src."""
    load(src, label)
    m, d, f = (importlib.import_module(f"ga41_{label}.{name}") for name in ("monogenic", "dirac", "frames"))
    k = m.MomentumVector.from_mass_momentum((0.6, -1.1, 0.4), 0.9)
    system = d.order_eigensystem(d.dirac_system(k))
    fields = [m.plane_wave(k), d.column_wave(system, 0), d.column_wave(system, 3)]
    for degree in (1, 2, 3):
        fields.append(m.separable_wavepacket(m.monogenic_polynomials_3d(degree)[-1], (1.3, -1.3)))
    gauge = f.GaugeField(np.array([0.3, -0.2, 0.5, 0.1]), charge=-1.0, mass=1.3)
    operators = (
        lambda field, x: field(x),
        lambda field, x: m.vector_derivative(field, x),
        lambda field, x: m.vector_derivative(field, x, h=STEP_H),
        lambda field, x: m.laplacian(field, x, h=STEP_H, richardson=True),
        lambda field, x: f.covariant_derivative(field, f.em_frame(gauge, x), x),
    )
    return {
        (kind, name): (lambda x, op=op, field=field: op(field, x))
        for kind, field in zip(FIELDS, fields)
        for name, op in zip(OPERATORS, operators)
    }


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        srcs, rounds = _parse(argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    trees = {label: calls(src, label) for label, src in zip(TREES, srcs)}
    keys = list(trees["parent"])
    times = {label: {key: [] for key in keys} for label in TREES}
    outputs = {label: [] for label in TREES}
    for r in range(rounds):
        for key in keys:
            for label in TREES if r % 2 == 0 else TREES[::-1]:
                call = trees[label][key]
                start = time.perf_counter()
                values = [call(x) for x in POINTS]
                times[label][key].append((time.perf_counter() - start) / len(POINTS) * 1e6)
                if r == 0:
                    outputs[label] += [np.asarray(v.coeffs).tobytes() for v in values]
    print(f"{'field':8s} {'operator':13s} {'parent us':>10s} {'change us':>10s} {'ratio':>7s}")
    for kind, name in keys:
        before = statistics.median(times["parent"][kind, name])
        after = statistics.median(times["change"][kind, name])
        print(f"{kind:8s} {name:13s} {before:10.2f} {after:10.2f} {after / before:7.3f}")
    totals = [[sum(times[label][key][r] for key in keys) for r in range(rounds)] for label in TREES]
    won = sum(c < p for p, c in zip(*totals))
    print(f"change faster in {won} of {rounds} rounds")
    same = outputs["parent"] == outputs["change"]
    print(f"outputs: {'identical' if same else 'differ'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
