"""The three benchmark workloads: input generation, one op, and its gate.

Every workload follows the same shape:

* ``build(seed)`` draws the inputs from the seed and returns a list; one
  entry is the input of one op.  Building is not timed.
* ``op(entry)`` calls ga41 through its public functions and returns the
  outputs to be gated.  Only this call is timed.
* ``gate(entry, out)`` turns the outputs into named residuals, each
  divided by its bound, so that a value above 1 (or NaN, or inf) fails.

The input lists are stratified: their composition (field kinds, point
counts, share of p = 0 momenta) is fixed and only the values and the
order come from the seed.  The work per pass over the list is therefore
the same for every seed, which keeps ops/s comparable across seeds.

ga41 is always reached through module attributes (``monogenic.laplacian``,
not a name imported into this file), so the wrappers of a traced run see
every call the workloads make.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

import numpy as np

from ga41 import algebra, checks, dirac, frames, matrices, monogenic, projectors

# -- gates -----------------------------------------------------------------


def worst(values) -> float:
    """Largest value; NaN wins, as with np.maximum (Python's max drops it)."""
    return float(np.max(np.asarray(values, dtype=float)))


def gate_failed(ratios: dict) -> bool:
    """True unless every residual/bound ratio is finite and at most 1."""
    r = np.asarray(list(ratios.values()), dtype=float)
    return not bool(np.all(np.isfinite(r)) and np.all(r <= 1.0))


# -- verify_full -------------------------------------------------------------

#: registry passes cycle through this many seeds derived from the workload seed
VERIFY_SEEDS = 3


def build_verify(seed: int) -> list:
    rng = np.random.default_rng([seed, 0])
    return [int(s) for s in rng.integers(0, 2**31, VERIFY_SEEDS)]


def op_verify(check_seed: int):
    return checks.run_checks(seed=check_seed)


class VerifyGate:
    """All checks pass, and the report of a seed with timings stripped is
    byte-identical to the first report of that seed."""

    def __init__(self):
        self.first: dict[int, str] = {}

    def __call__(self, check_seed: int, results) -> dict:
        report = checks.report_json(results, seed=check_seed, omit_timings=True)
        reference = self.first.setdefault(check_seed, report)
        # the residual is gated here too, so a NaN that a check let pass
        # still fails; a failure reads as ratio 2
        passing = all(
            r.status == "pass" and np.isfinite(r.residual) and r.residual <= r.tolerance
            for r in results
        )
        return {
            "checks": 0.0 if passing else 2.0,
            "registry": 0.0 if len(results) == len(checks.check_names()) else 2.0,
            "determinism": 0.0 if report == reference else 2.0,
        }


# -- field_sweep -------------------------------------------------------------

#: central-difference and Laplacian step
STEP_H = 1e-3
#: named bounds, each relative to the field scale s and the largest
#: phase rate g of the field: |F - F_ref| <= VALUE_TOL s (1+g) for the
#: value against the reference below, |D F| <= ANALYTIC_TOL s (1+g) for
#: the analytic vector derivative (mass term added for column waves),
#: |D_h F - D F| <= FD_TOL s (1+g)^3 for central differences (truncation
#: h^2/6 f''' summed over five axes), |L F - c F| <= LAPLACIAN_TOL s (1+g)^2
#: for the Richardson Laplacian (c = m^2 for column waves, else 0), and
#: |D_A F - D F - a d4 F_ref| <= COVARIANT_TOL s (1+g) (1+|a|) for the
#: covariant derivative in an electromagnetic frame with tilt vector a
VALUE_TOL = 1e-12
ANALYTIC_TOL = 1e-12
FD_TOL = 1e-5
LAPLACIAN_TOL = 1e-6
COVARIANT_TOL = 1e-12
#: bound on the inputs of a column wave: the to_matrix image of its
#: amplitude against the eigencolumn, and the unit norm of that column
COLUMN_TOL = 1e-12

#: points per field, taken from the repo's own field callers: `ga41
#: planewave` evaluates 3 fixed points, scripts/wavepacket_demo.py 5
#: random samples, and scripts/planewave_grid.py a 9 x 9 grid by default
POINT_COUNTS = (3, 5, 81)
GRID_TICKS = 9
#: each kind appears once with every point count per pass
FIELD_KINDS = ("plane", "plane", "column", "column", "packet1", "packet2", "packet3")


def _blade_signs() -> np.ndarray:
    """Signs of the basis blade products, without ga41: the parity of the
    swaps that sort the factors of a followed by those of b, negated when
    both hold the index-0 generator, which squares to -1."""
    n = algebra.N_BLADES
    sign = np.ones((n, n))
    for a in range(n):
        for b in range(n):
            swaps = sum(1 for i in range(5) if a >> i & 1 for j in range(i) if b >> j & 1)
            sign[a, b] = (-1.0) ** (swaps + (a & b & 1))
    return sign


_BLADES = np.arange(algebra.N_BLADES)
_PRODUCT = np.zeros((algebra.N_BLADES,) * 3)
_PRODUCT[_BLADES[:, None], _BLADES[None, :], _BLADES[:, None] ^ _BLADES[None, :]] = _blade_signs()


def geometric(u, v) -> np.ndarray:
    """Geometric product of coefficient arrays (..., 32), in numpy."""
    return np.einsum("...a,...b,abc->...c", u, v, _PRODUCT)


def _blade(mask: int, value: float = 1.0) -> np.ndarray:
    out = np.zeros(algebra.N_BLADES)
    out[mask] = value
    return out


_PSEUDOSCALAR = _blade(31)
#: I e^4 (e^4 = e4); column waves solve D F + m I e^4 F = 0
_MASS_AXIS = geometric(_PSEUDOSCALAR, _blade(16))


class FieldCase:
    """One field, its points and gauge, its reference values and what its
    gate needs."""

    __slots__ = ("field", "points", "gauge", "tilt", "mass_term", "lap_coeff", "rate",
                 "reference", "reference_d4", "scale", "input_ratios")


def _momentum(rng, min_mass: float, max_mass: float, max_p: float, zero_p: bool = False):
    mass = rng.uniform(min_mass, max_mass)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = 0.0 if zero_p else rng.uniform(0.0, max_p)
    return monogenic.MomentumVector.from_mass_momentum(radius * direction, mass)


def _points(rng, n: int) -> np.ndarray:
    """n random points, or for n = GRID_TICKS^2 a grid over two random
    axes at a random offset in the other three (at a zero offset, a
    polynomial factor can vanish on the whole grid)."""
    if n != GRID_TICKS**2:
        return rng.uniform(-1.0, 1.0, (n, 5))
    u, v = rng.choice(5, 2, replace=False)
    points = np.tile(rng.uniform(-1.0, 1.0, 5), (n, 1))
    ticks = np.linspace(-1.0, 1.0, GRID_TICKS)
    points[:, u] = np.repeat(ticks, GRID_TICKS)
    points[:, v] = np.tile(ticks, GRID_TICKS)
    return points


def _field_case(rng, kind: str, n: int, bases: dict, slot: int = 0) -> FieldCase:
    """Draw one field of the given kind at n points.

    The slot fixes which eigencolumn (slot mod 4) or basis polynomial
    (slot mod the basis size) the field uses, so the cost of a pass does
    not depend on the seed.

    The reference value is F_ref = S (A cos g.x + A I sin g.x), computed
    in numpy, and its axis-4 derivative likewise.  The amplitude A and
    the phase gradient g come from the drawn momentum.  The spatial
    factor S is 1, except for packets: there it is the slot's basis
    polynomial, evaluated before any op runs.  The scale s is the
    largest reference coefficient, at least 1.
    """
    case = FieldCase()
    case.points = _points(rng, n)
    case.mass_term = case.lap_coeff = case.rate = 0.0
    case.input_ratios = {}
    spatial = np.tile(_blade(0), (n, 1))
    if kind in ("plane", "column"):
        k = _momentum(rng, 0.1, 2.5, 2.5)
        p, mass = np.asarray(k.momentum), k.mass
        energy = np.sqrt(p @ p + mass**2)
    if kind == "plane":
        case.field = monogenic.plane_wave(k)
        amplitude = _blade(0, energy) + _blade(17, mass)
        amplitude[[3, 5, 9]] = p  # e01, e02, e03
        grad = np.array([-energy, *p, mass])
    elif kind == "column":
        index = slot % 4
        system = dirac.order_eigensystem(dirac.dirac_system(k))
        case.field = dirac.column_wave(system, index)
        column = np.zeros((4, 4), dtype=complex)
        column[:, index] = np.asarray(system.psi_bar)[:, index]
        amplitude = np.array(matrices.from_matrix(column).coeffs, dtype=float)
        image = matrices.to_matrix(algebra.Multivector(amplitude))
        case.input_ratios = {
            "column_image": np.max(np.abs(image - column)) / COLUMN_TOL,
            "column_norm": np.abs(np.linalg.norm(column) - 1.0) / COLUMN_TOL,
        }
        grad = np.array([-energy if index < 2 else energy, *p, 0.0])
        case.mass_term = mass
        case.lap_coeff = mass**2
    else:
        degree = int(kind[-1])
        basis = bases[degree][slot % len(bases[degree])]
        mass = rng.uniform(0.2, 2.5)
        energy = mass if rng.integers(0, 2) else -mass
        case.field = monogenic.separable_wavepacket(basis, (energy, mass))
        spatial = np.array([basis.value(x).coeffs for x in case.points], dtype=float)
        # a zero spatial factor would make the packet, and every check, vanish
        case.input_ratios = {"basis": 0.0 if np.max(np.abs(spatial)) > 0.0 else 2.0}
        amplitude = _blade(0, energy) + _blade(17, mass)
        grad = np.array([-energy, 0.0, 0.0, 0.0, mass])
        case.rate = float(degree)
    case.rate = np.maximum(case.rate, np.max(np.abs(grad)))
    amplitude_i = geometric(amplitude, _PSEUDOSCALAR)
    phase = (case.points @ grad)[:, None]
    case.reference = geometric(spatial, np.cos(phase) * amplitude + np.sin(phase) * amplitude_i)
    case.reference_d4 = geometric(
        spatial, grad[4] * (np.cos(phase) * amplitude_i - np.sin(phase) * amplitude)
    )
    case.scale = np.maximum(1.0, np.max(np.abs(case.reference)))

    # a constant-potential gauge field and its frame tilt a
    potential = rng.uniform(-1.0, 1.0, 4)
    charge = 1.0 if rng.integers(0, 2) else -1.0
    gauge_mass = rng.uniform(0.5, 2.0)
    case.gauge = frames.GaugeField(potential, charge=charge, mass=gauge_mass)
    case.tilt = np.zeros(algebra.N_BLADES)
    case.tilt[[1, 2, 4, 8]] = charge / gauge_mass * potential * np.array([-1.0, 1.0, 1.0, 1.0])
    return case


def build_field(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    bases = {d: monogenic.monogenic_polynomials_3d(d) for d in (1, 2, 3)}
    grid = [(kind, n) for kind in FIELD_KINDS for n in POINT_COUNTS]
    return [_field_case(rng, *grid[i], bases, slot=i) for i in rng.permutation(len(grid))]


def op_field(case: FieldCase):
    out = []
    for x in case.points:
        value = case.field(x)
        analytic = monogenic.vector_derivative(case.field, x)
        differenced = monogenic.vector_derivative(case.field, x, h=STEP_H)
        second = monogenic.laplacian(case.field, x, h=STEP_H, richardson=True)
        covariant = frames.covariant_derivative(
            case.field, frames.em_frame(case.gauge, x), x
        )
        out.append((value, analytic, differenced, second, covariant))
    return out


def gate_field(case: FieldCase, out) -> dict:
    s, g = case.scale, case.rate
    a = np.max(np.abs(case.tilt))
    value, dv, dh, second, covariant = (
        np.array([mv.coeffs for mv in outputs], dtype=float) for outputs in zip(*out)
    )
    ref = case.reference
    analytic = dv + case.mass_term * geometric(_MASS_AXIS, ref)
    expected = dv + geometric(case.tilt, case.reference_d4)
    return case.input_ratios | {
        "value": np.max(np.abs(value - ref)) / (VALUE_TOL * s * (1.0 + g)),
        "analytic": np.max(np.abs(analytic)) / (ANALYTIC_TOL * s * (1.0 + g)),
        "difference": np.max(np.abs(dh - dv)) / (FD_TOL * s * (1.0 + g) ** 3),
        "laplacian": np.max(np.abs(second - case.lap_coeff * ref))
        / (LAPLACIAN_TOL * s * (1.0 + g) ** 2),
        "covariant": np.max(np.abs(covariant - expected))
        / (COVARIANT_TOL * s * (1.0 + g) * (1.0 + a)),
    }


# -- eigen_sweep -------------------------------------------------------------

#: momenta per pass; every ZERO_P_EVERY-th one has p = 0
MOMENTA = 256
ZERO_P_EVERY = 8
CROSSCHECK_POINTS = 3
#: named bounds, each times (1 + E): the eigen equation, the
#: reconstruction through the inverse eigencolumn matrix, the amplitude
#: image E + A, the matrix-side wave crosscheck, the to_matrix round trip
#: of the four column amplitudes, and the energy and helicity projections.
#: The solver stops once the off-diagonal norm is below 1e-12 |A| = 2e-12 E,
#: so the three residuals it bounds get five times that
EIGEN_TOL = 1e-11
RECONSTRUCTION_TOL = 1e-11
AMPLITUDE_TOL = 1e-14
CROSSCHECK_TOL = 1e-12
ROUND_TRIP_TOL = 1e-14
PROJECTION_TOL = 1e-11


class MomentumCase:
    __slots__ = ("k", "points")


def build_eigen(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    cases = []
    for i in range(MOMENTA):
        case = MomentumCase()
        case.k = _momentum(rng, 0.05, 5.0, 4.9, zero_p=i % ZERO_P_EVERY == 0)
        case.points = rng.uniform(-1.0, 1.0, (CROSSCHECK_POINTS, 4))
        cases.append(case)
    order = rng.permutation(MOMENTA)
    return [cases[i] for i in order]


def op_eigen(case: MomentumCase):
    k = case.k
    system = dirac.order_eigensystem(dirac.dirac_system(k))
    psi = np.asarray(system.psi_bar)
    a_bar = system.a_bar
    energy = k.energy
    round_trip = 0.0
    for index in range(4):
        column = np.zeros((4, 4), dtype=complex)
        column[:, index] = psi[:, index]
        image = matrices.to_matrix(matrices.from_matrix(column))
        round_trip = np.maximum(round_trip, np.max(np.abs(image - column)))
    e_pos = projectors.energy_project(psi, 1)
    e_neg = projectors.energy_project(psi, -1)
    h_pos = projectors.helicity_project(psi, 1)
    h_neg = projectors.helicity_project(psi, -1)
    projection = np.max(
        [
            np.max(np.abs(a_bar @ e_pos - energy * e_pos)),
            np.max(np.abs(a_bar @ e_neg + energy * e_neg)),
            np.max(np.abs(e_pos + e_neg - psi)),
            np.max(np.abs(h_pos + h_neg - psi)),
        ]
    )
    return {
        "eigen": np.max(np.abs(a_bar @ psi - psi @ system.lam)),
        "reconstruction": np.max(
            np.abs(psi @ system.lam @ np.linalg.inv(psi) - a_bar)
        ),
        "amplitude": np.max(
            np.abs(matrices.to_matrix(k.amplitude) - (energy * np.eye(4) + a_bar))
        ),
        "crosscheck": dirac.geometric_matrix_crosscheck(k, case.points),
        "round_trip": round_trip,
        "projection": projection,
    }


_EIGEN_TOLS = {
    "eigen": EIGEN_TOL,
    "reconstruction": RECONSTRUCTION_TOL,
    "amplitude": AMPLITUDE_TOL,
    "crosscheck": CROSSCHECK_TOL,
    "round_trip": ROUND_TRIP_TOL,
    "projection": PROJECTION_TOL,
}


def gate_eigen(case: MomentumCase, out) -> dict:
    scale = 1.0 + case.k.energy
    return {name: float(out[name]) / (tol * scale) for name, tol in _EIGEN_TOLS.items()}


# -- gate self-test ----------------------------------------------------------


def gate_self_test() -> list[str]:
    """Feed NaN and inf residuals to every gate, and a zero and a doubled
    field to the field gate; return the names of the gates that let one
    through (or that reject a sound output)."""
    problems = []
    if not np.isnan(worst([1.0, np.nan, 2.0])):
        problems.append("worst drops NaN")

    verify_gate = VerifyGate()
    sound = checks.run_checks(["blade_squares"])
    if verify_gate(0, sound)["checks"] > 1.0:
        problems.append("verify gate rejects a passing check")
    for bad in (np.nan, np.inf):
        broken = [dataclasses.replace(sound[0], residual=bad)]
        if verify_gate(0, broken)["checks"] <= 1.0:
            problems.append(f"verify gate passes residual {bad}")

    rng = np.random.default_rng(0)
    bases = {2: monogenic.monogenic_polynomials_3d(2)}
    for kind in ("plane", "column", "packet2"):
        field_case = _field_case(rng, kind, 3, bases)
        out = op_field(field_case)
        if gate_failed(gate_field(field_case, out)):
            problems.append(f"field gate rejects a sound {kind} field")
        # a non-finite derivative, a zero field and a field at twice its
        # scale (whose derivatives stay consistent) must all fail
        broken = {
            f"residual {bad}": [
                (v, algebra.Multivector(np.full(algebra.N_BLADES, bad)), dh, second, cov)
                for v, _, dh, second, cov in out
            ]
            for bad in (np.nan, np.inf)
        }
        broken["zero field"] = [
            tuple(algebra.Multivector(np.zeros(algebra.N_BLADES)) for _ in row) for row in out
        ]
        broken["doubled field"] = [tuple(mv * 2.0 for mv in row) for row in out]
        for label, outputs in broken.items():
            if not gate_failed(gate_field(field_case, outputs)):
                problems.append(f"field gate passes a {kind} field with {label}")

    k = monogenic.MomentumVector.from_mass_momentum((3.0, 0.0, 0.0), 4.0)
    eigen_case = MomentumCase()
    eigen_case.k = k
    eigen_case.points = field_case.points[:, :4]
    out = op_eigen(eigen_case)
    if gate_failed(gate_eigen(eigen_case, out)):
        problems.append("eigen gate rejects a sound momentum")
    for bad in (np.nan, np.inf):
        if not gate_failed(gate_eigen(eigen_case, dict(out, eigen=bad))):
            problems.append(f"eigen gate passes residual {bad}")
    return problems


class Workload(NamedTuple):
    build: Callable
    op: Callable
    make_gate: Callable
    #: ops per timed block; None is one pass over the inputs
    block_ops: int | None


#: a registry pass is about a second, so it is a block of its own; the
#: three check seeds cost nearly the same
WORKLOADS = {
    "verify_full": Workload(build_verify, op_verify, VerifyGate, 1),
    "field_sweep": Workload(build_field, op_field, lambda: gate_field, None),
    "eigen_sweep": Workload(build_eigen, op_eigen, lambda: gate_eigen, None),
}
