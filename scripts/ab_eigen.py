#!/usr/bin/env python3
"""Time the one-momentum Dirac calls of two ga41 trees in one process,
interleaved.

    python scripts/ab_eigen.py PARENT_SRC CHANGE_SRC [ROUNDS]

A suite of the harness in ``ab_checks.py``, which loads, times, prints
and exits.  Each tree builds the same momenta, one of them at p = 0.  A
key is one call of the ``ga41 eigen`` path (the eigensystem, its
ordering, the inverse and forward matrix maps of a kept column, both
energy and both helicity projections, and the matrix-side crosscheck at
three points), and its calls are that call at each momentum of MOMENTA.
``digest.py`` prints a line per key over the calls' outputs.
"""

import sys
from operator import attrgetter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))  # ab_checks sits beside this script
from ab_checks import load, run  # noqa: E402

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


def suite(src: Path, label: str) -> dict:
    """{call: [its call at each momentum]} for the tree in src."""
    m, d, mat, proj = load(src, label, "monogenic", "dirac", "matrices", "projectors")
    arrays = attrgetter("a_bar", "psi_bar", "lam")  # a system's output as the arrays it holds

    def calls(p, mass):  # closures over this call's names, one set per momentum
        k = m.MomentumVector.from_mass_momentum(p, mass)
        system = d.dirac_system(k)
        psi = system.psi_bar
        column = np.zeros((4, 4), dtype=complex)
        column[:, 0] = psi[:, 0]
        image = mat.from_matrix(column)
        return {
            "dirac_system": lambda: arrays(d.dirac_system(k)),
            "order_eigensystem": lambda: arrays(d.order_eigensystem(system)),
            "from_matrix": lambda: mat.from_matrix(column).coeffs,
            "to_matrix": lambda: mat.to_matrix(image),
            "energy_project": lambda: (proj.energy_project(psi, 1), proj.energy_project(psi, -1)),
            "helicity_project": lambda: (proj.helicity_project(psi, 1), proj.helicity_project(psi, -1)),
            "crosscheck": lambda: d.geometric_matrix_crosscheck(k, POINTS),
        }

    each = [calls(p, mass) for p, mass in MOMENTA]
    return {key: [c[key] for c in each] for key in each[0]}


def main(argv=None) -> int:
    return run(argv, suite, "call")


if __name__ == "__main__":
    sys.exit(main())
