#!/usr/bin/env python3
"""Time the one-momentum Dirac calls of two ga41 trees in one process,
interleaved, and compare their output bytes.

    python scripts/ab_eigen.py PARENT_SRC CHANGE_SRC [ROUNDS]

Each SRC is a directory that holds a ``ga41`` package, loaded as in
``ab_checks.py``.  Each tree builds the same momenta, one of them at
p = 0.  A round times the calls of the ``ga41 eigen`` path (the
eigensystem, its ordering, the inverse and forward matrix maps of a kept
column, both energy and both helicity projections, and the matrix-side
crosscheck at three points), one call per momentum of MOMENTA, on both
trees in turn: the parent first in even rounds and the change first in
odd ones.  ROUNDS defaults to 10.

It prints one line per call with the median microseconds per call on
each tree and their ratio (change over parent), then the number of
rounds whose calls took the change less time in total than the parent
(ties count for neither side), then whether the two trees' outputs in the
first round are byte-identical.  It exits 0 after printing when they
are, 1 when any differ, and 2 on bad arguments.
"""

import importlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))  # ab_checks sits beside this script
from ab_checks import TREES, _parse, load  # noqa: E402

CALLS = (
    "dirac_system",
    "order_eigensystem",
    "from_matrix",
    "to_matrix",
    "energy_project",
    "helicity_project",
    "crosscheck",
)
#: (momentum, mass) pairs, the first at rest
MOMENTA = (
    ((0.0, 0.0, 0.0), 1.3),
    ((0.6, -1.1, 0.4), 0.9),
    ((0.0, 0.0, -2.5), 0.05),
    ((1e-8, -3e-9, 2e-9), 2.0),
    ((-3.1, 0.2, 1.7), 4.4),
)
#: the crosscheck's points (t, x1, x2, x3), one with a -0.0 coordinate
POINTS = np.random.default_rng(28).uniform(-1.0, 1.0, (3, 4))
POINTS[1, 2] = -0.0


def _arrays(value) -> list:
    """The arrays of one call's output, whatever its type."""
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    if hasattr(value, "psi_bar"):
        return [value.a_bar, value.psi_bar, value.lam]
    if hasattr(value, "coeffs"):
        return [value.coeffs]
    return [np.asarray(value)]


def calls(src: Path, label: str) -> dict:
    """{call: [its call at each momentum]} for the tree in src."""
    load(src, label)
    m, d, mat, proj = (
        importlib.import_module(f"ga41_{label}.{name}")
        for name in ("monogenic", "dirac", "matrices", "projectors")
    )
    out = {name: [] for name in CALLS}
    for p, mass in MOMENTA:
        k = m.MomentumVector.from_mass_momentum(p, mass)
        system = d.dirac_system(k)
        column = np.zeros((4, 4), dtype=complex)
        column[:, 0] = system.psi_bar[:, 0]
        coeffs = mat.from_matrix(column)
        psi = system.psi_bar
        out["dirac_system"].append(lambda k=k: d.dirac_system(k))
        out["order_eigensystem"].append(lambda s=system: d.order_eigensystem(s))
        out["from_matrix"].append(lambda c=column: mat.from_matrix(c))
        out["to_matrix"].append(lambda a=coeffs: mat.to_matrix(a))
        out["energy_project"].append(
            lambda psi=psi: (proj.energy_project(psi, 1), proj.energy_project(psi, -1))
        )
        out["helicity_project"].append(
            lambda psi=psi: (proj.helicity_project(psi, 1), proj.helicity_project(psi, -1))
        )
        out["crosscheck"].append(lambda k=k: d.geometric_matrix_crosscheck(k, POINTS))
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        srcs, rounds = _parse(argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    trees = {label: calls(src, label) for label, src in zip(TREES, srcs)}
    times = {label: {name: [] for name in CALLS} for label in TREES}
    outputs = {label: [] for label in TREES}
    for r in range(rounds):
        for name in CALLS:
            for label in TREES if r % 2 == 0 else TREES[::-1]:
                each = trees[label][name]
                start = time.perf_counter()
                values = [call() for call in each]
                times[label][name].append((time.perf_counter() - start) / len(each) * 1e6)
                if r == 0:
                    outputs[label] += [a.tobytes() for v in values for a in _arrays(v)]
    print(f"{'call':17s} {'parent us':>10s} {'change us':>10s} {'ratio':>7s}")
    for name in CALLS:
        before = statistics.median(times["parent"][name])
        after = statistics.median(times["change"][name])
        print(f"{name:17s} {before:10.2f} {after:10.2f} {after / before:7.3f}")
    totals = [[sum(times[label][name][r] for name in CALLS) for r in range(rounds)] for label in TREES]
    won = sum(c < p for p, c in zip(*totals))
    print(f"change faster in {won} of {rounds} rounds")
    same = outputs["parent"] == outputs["change"]
    print(f"outputs: {'identical' if same else 'differ'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
