"""Registry of runtime verification checks.

Each check yields its residual samples as arrays or floats, in a fixed
order; the harness folds them into the check's residual with one reducer,
which propagates NaN, and the check passes when that residual does not
exceed its tolerance.  Checks draw randomness from a counter-based
generator keyed by (seed, hash of the check name), so runs with the same
seed are reproducible check by check, in any subset, in any order.
Registration order is fixed and is the execution order.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .algebra import (
    _FULL,
    _INNER,
    _OUTER,
    _REVERSE_SIGNS,
    _VECTOR_MASKS,
    N_BLADES,
    ONE,
    PSEUDOSCALAR,
    _contract,
    _exp_rows,
    _fold,
    _gather,
    _integer,
    _product,
    _scalar_products,
    blade_product,
    e,
)
from .dirac import _check_ordered, _column_parts, _eigensystems, _operators
from .frames import (
    ETA,
    GaugeField,
    _frames,
    gauge_covariance_residual,
    phase_shift_residual,
)
from .matrices import (
    ALPHA,
    BETA,
    IDENTITY,
    RECIPROCAL_IMAGES,
    _BLADE_ROWS,
    _from_matrices,
    _to_matrices,
)
from .monogenic import (
    MomentumVector,
    harmonic_field,
    laplacian,
    reduced_vector_derivative,
    vector_derivative,
)
from .monogenic import _axis_sum, _check_steps, _momentum_rows
from .projectors import (
    COMMUTING_PAIRS,
    _generators,
    build_e_set,
    build_f_set,
    conjugated_unit_quadruple,
    validate_idempotent_set,
)

REPORT_VERSION = 1

#: signs of the 32 blade squares, indexed by mask
BLADE_SQUARE_CENSUS = (
    1, -1, 1, 1, 1, 1, -1, 1,
    1, 1, -1, 1, -1, 1, -1, -1,
    1, 1, -1, 1, -1, 1, -1, -1,
    -1, 1, -1, -1, -1, -1, 1, -1,
)

#: integer null quadruples (E, p1, p2, p3, m): exact float arithmetic
NULL_QUADRUPLES = (
    (1.0, (0.0, 0.0, 0.0), 1.0),
    (5.0, (3.0, 0.0, 0.0), 4.0),
    (3.0, (1.0, 2.0, 2.0), 0.0),
    (13.0, (3.0, 4.0, 12.0), 0.0),
    (7.0, (2.0, 3.0, 6.0), 0.0),
    (9.0, (1.0, 4.0, 8.0), 0.0),
)


@dataclass(frozen=True)
class CheckContext:
    rng: np.random.Generator
    step_h: float


@dataclass(frozen=True)
class CheckDefinition:
    name: str
    anchor: str
    tolerance: float
    run: Callable[[CheckContext], Iterable[np.ndarray | float]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    paper_anchor: str
    status: str
    residual: float
    tolerance: float
    elapsed_ms: float


_REGISTRY: list[CheckDefinition] = []


def _register(name: str, anchor: str, tolerance: float):
    def wrap(fn):
        _REGISTRY.append(CheckDefinition(name, anchor, tolerance, fn))
        return fn

    return wrap


def _residuals(*diffs: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each sample's difference, in the order of
    a per-sample loop: diffs[0][0], diffs[1][0], diffs[0][1], ..."""
    rows = [np.max(np.abs(d).reshape(len(d), -1), axis=1) for d in diffs]
    return np.stack(rows, axis=1).ravel()


def _clifford(pairs: np.ndarray, metric: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """|X_a X_b + X_b X_a - 2 metric[a, b] unit| per pair of the table pairs[a, b] = X_a X_b."""
    gaps = pairs + pairs.swapaxes(0, 1) - np.multiply.outer(2.0 * metric, unit)
    return _residuals(gaps.reshape(-1, unit.size))


def _commutators(pairs: np.ndarray) -> np.ndarray:
    """|X_a X_b - X_b X_a| for every ordered pair of the table pairs[a, b] = X_a X_b."""
    return _residuals((pairs - pairs.swapaxes(0, 1)).reshape(len(pairs) ** 2, -1))


def _uniform(rng, low: float, high: float, size=None):
    """rng.uniform(low, high, size) byte for byte, by its own arithmetic on
    the same draws, without its per-call argument handling: for draws made
    per sample in a loop (a one-shot array is faster through rng.uniform)."""
    return low + (high - low) * rng.random(size)


def _random_momentum(rng, min_mass=0.01, min_p=0.0) -> tuple:
    """The draws of one random momentum, in stream order: the mass, a
    direction and a radius."""
    return _uniform(rng, min_mass, 5.0), rng.normal(size=3), _uniform(rng, min_p, 4.9)


def _momenta(draws) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Momentum rows (n, 5), wave amplitudes and phase gradients of the
    draws of _random_momentum: the momentum is the direction scaled to
    unit length, then by the radius, all in one kernel call."""
    masses, directions, radii = (np.array(d) for d in zip(*draws))
    units = directions / np.linalg.norm(directions, axis=-1)[:, None]
    return _momentum_rows(radii[:, None] * units, masses)


def _random_momenta(rng, count: int, **momentum_kw):
    """Rows, wave amplitudes and phase gradients of count random momenta."""
    return _momenta([_random_momentum(rng, **momentum_kw) for _ in range(count)])


def _ordered_eigensystems(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a_bar, psi_bar and lam of momentum rows, with the guards of
    order_eigensystem on every row."""
    systems = _eigensystems(rows)
    _check_ordered(rows[:, 0], systems[2])
    return systems


def _momenta_and_points(ctx, count: int, shape: tuple, **momentum_kw):
    """count momenta, each drawn before its points (*shape, 5): their rows,
    plane-wave amplitudes and phase gradients, and the points."""
    draws = [
        (_random_momentum(ctx.rng, **momentum_kw), _uniform(ctx.rng, -1.0, 1.0, shape + (5,)))
        for _ in range(count)
    ]
    momenta, points = zip(*draws)
    return (*_momenta(momenta), np.array(points))


# -- algebra core --------------------------------------------------------


@_register(
    "blade_squares",
    "sign census of the 32 basis blade squares under the (-++++) metric",
    0.0,
)
def _check_blade_squares(ctx) -> Iterator[np.ndarray | float]:
    bad = 0
    for mask in range(N_BLADES):
        sign, out = blade_product(mask, mask)
        if out != 0 or sign != BLADE_SQUARE_CENSUS[mask]:
            bad += 1
    yield float(bad)


@_register(
    "anticommutation",
    "generator products satisfy ea eb + eb ea = 2 eta_ab",
    0.0,
)
def _check_anticommutation(ctx) -> Iterator[np.ndarray | float]:
    rows = np.array([e(a).coeffs for a in range(5)])
    yield _clifford(_product(_FULL, rows[:, None], rows[None]), ETA, ONE.coeffs)


@_register(
    "associativity",
    "(a b) c = a (b c) on integer-coefficient triples",
    0.0,
)
def _check_associativity(ctx) -> Iterator[np.ndarray | float]:
    coeffs = ctx.rng.integers(-3, 4, size=(1000, 3, N_BLADES)).astype(float)
    a, b, c = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    left = _product(_FULL, _product(_FULL, a, b), c)
    yield _residuals(left - _product(_FULL, a, _product(_FULL, b, c)))


@_register(
    "pseudoscalar_centrality",
    "the grade-5 unit commutes with every blade and squares to -1",
    0.0,
)
def _check_pseudoscalar_centrality(ctx) -> Iterator[np.ndarray | float]:
    yield (PSEUDOSCALAR * PSEUDOSCALAR + ONE).max_abs()
    blades, unit = np.eye(N_BLADES), PSEUDOSCALAR.coeffs
    yield _residuals(_product(_FULL, unit, blades) - _product(_FULL, blades, unit))


@_register(
    "vector_decomposition",
    "for vectors, ab = inner + outer and ba = inner - outer",
    1e-15,
)
def _check_vector_decomposition(ctx) -> Iterator[np.ndarray | float]:
    coeffs = np.zeros((200, 2, N_BLADES))
    coeffs[..., _VECTOR_MASKS] = ctx.rng.uniform(-1.0, 1.0, (200, 2, 5))
    a, b = coeffs[:, 0], coeffs[:, 1]
    # one product for the three tables: one gather and one term array
    inner, outer, full = _product(np.stack([_INNER, _OUTER, _FULL]), a, b)
    yield _residuals(full - (inner + outer), _product(_FULL, b, a) - (inner - outer))


@_register(
    "cross_product_link",
    "minus e123 times the wedge of spatial vectors is the cross product",
    1e-14,
)
def _check_cross_product_link(ctx) -> Iterator[np.ndarray | float]:
    spatial = _VECTOR_MASKS[1:4]
    coeffs = np.zeros((200, 2, N_BLADES))
    coeffs[..., spatial] = ctx.rng.uniform(-1.0, 1.0, (200, 2, 3))
    a, b = coeffs[:, 0], coeffs[:, 1]
    dual = _product(_FULL, (-e(1, 2, 3)).coeffs, _product(_OUTER, a, b))
    got = dual[:, spatial]
    stray = dual.copy()
    stray[:, spatial] -= got
    yield _residuals(got - np.cross(a[:, spatial], b[:, spatial]), stray)


@_register(
    "exp_closed_forms",
    "closed-form exponentials agree with the truncated power series",
    1e-12,
)
def _check_exp_closed_forms(ctx) -> Iterator[np.ndarray | float]:
    # theta e12, theta e01, theta (e0 + e4), then a spatial bivector of norm |theta|
    layouts = ([0b00110], [0b00011], [0b00001, 0b10000], [0b00110, 0b01010, 0b01100])
    rows = np.zeros((24, N_BLADES))
    for trial, row in enumerate(rows):
        theta = _uniform(ctx.rng, 0.1, 2.0) * (1 if trial % 2 else -1)
        c = _uniform(ctx.rng, -1.0, 1.0, 3) if trial % 4 == 3 else np.ones(1)
        row[layouts[trial % 4]] = c * (theta / np.linalg.norm(c))
    # the oracle: the power series to 30 terms, summed without the
    # exponential; rows is gathered once, and each term * rows contracted
    gathered = _gather(rows)
    term = series = ONE.coeffs
    for n in range(1, 31):
        term = _contract(term, gathered) * (1.0 / n)
        series = series + term
    yield _residuals(_exp_rows(rows) - series)


@_register(
    "rotor_unitarity",
    "reverse(R) R = 1 for exponentials of spatial bivectors",
    1e-12,
)
def _check_rotor_unitarity(ctx) -> Iterator[np.ndarray | float]:
    bivector_masks = [(1 << i) | (1 << j) for i in range(1, 5) for j in range(i + 1, 5)]
    coeffs = np.zeros((100, N_BLADES))
    coeffs[:, bivector_masks] = ctx.rng.uniform(-1.5, 1.5, (100, 6))
    rotors = _exp_rows(-0.5 * coeffs)
    yield _residuals(_product(_FULL, rotors * _REVERSE_SIGNS, rotors) - ONE.coeffs)


# -- matrix representation ----------------------------------------------


@_register(
    "phi_homomorphism",
    "the matrix map is multiplicative on random pairs",
    1e-12,
)
def _check_phi_homomorphism(ctx) -> Iterator[np.ndarray | float]:
    draws = ctx.rng.uniform(-1.0, 1.0, (1000, 2, N_BLADES))
    a, b = draws[:, 0], draws[:, 1]
    diff = _to_matrices(_product(_FULL, a, b)) - _to_matrices(a) @ _to_matrices(b)
    yield _residuals(diff)


@_register(
    "phi_round_trip",
    "the matrix map composed with its inverse is the identity both ways",
    1e-12,
)
def _check_phi_round_trip(ctx) -> Iterator[np.ndarray | float]:
    # per sample: 32 coefficients, then a matrix's 16 real and 16 imaginary parts
    draws = ctx.rng.uniform(-1.0, 1.0, (500, 64))
    a = draws[:, :32]
    m = draws[:, 32:48].reshape(500, 4, 4) + 1j * draws[:, 48:].reshape(500, 4, 4)
    yield _residuals(
        _from_matrices(_to_matrices(a)) - a, _to_matrices(_from_matrices(m)) - m
    )


@_register(
    "dirac_pauli_relations",
    "the three block constants and the diagonal one anticommute and square to 1",
    0.0,
)
def _check_dirac_pauli_relations(ctx) -> Iterator[np.ndarray | float]:
    images = np.array([*ALPHA, BETA])
    yield _clifford(images[:, None] @ images[None], np.eye(4), IDENTITY)


@_register(
    "sigma_clifford_relations",
    "the five raised-index images satisfy the (-++++) Clifford relations",
    0.0,
)
def _check_sigma_clifford_relations(ctx) -> Iterator[np.ndarray | float]:
    images = np.array(RECIPROCAL_IMAGES)
    pairs = images[:, None] @ images[None]
    # ETA is its own inverse, so it holds the raised-index metric too
    yield _clifford(pairs, ETA, IDENTITY)
    # sigma^m sigma^0 = alpha_m and sigma^4 sigma^0 = beta
    yield _residuals(pairs[1:, 0] - np.array([*ALPHA, BETA]))


@_register(
    "blade_images_span",
    "the 32 blade images are linearly independent over the reals",
    0.0,
)
def _check_blade_images_span(ctx) -> Iterator[np.ndarray | float]:
    # entries 0 and +-1: the Gram matrix is exact in any summation order
    yield _residuals(_BLADE_ROWS @ _BLADE_ROWS.T - 4.0 * np.eye(N_BLADES))


# -- monogenic fields -----------------------------------------------------


@_register(
    "monogenic_residual",
    "null-momentum plane waves are annihilated by the vector derivative "
    "and by the second-order operator",
    1.0,
)
def _check_monogenic_residual(ctx) -> Iterator[np.ndarray | float]:
    # positive control: the same stencil and step must recover the known
    # laplacian -(g.g) f, g.g = 1.75, of a harmonic field, so a step too
    # coarse or too fine to resolve second derivatives fails
    grad, x0 = (0.5, 1.0, 0.0, 0.0, 1.0), np.array([0.3, -0.7, 0.2, 0.5, -0.4])
    control = harmonic_field(ONE, grad)
    got = laplacian(control, x0, h=ctx.step_h, richardson=True)
    yield (got + 1.75 * control(x0)).max_abs() / 1e-6
    _, amplitudes, grads, points = _momenta_and_points(ctx, 100, (2,))
    waves = harmonic_field(amplitudes, grads)
    first = vector_derivative(waves, points) / 1e-10
    second = laplacian(waves, points, h=ctx.step_h, richardson=True) / 1e-6
    yield _residuals(first.reshape(-1, N_BLADES), second.reshape(-1, N_BLADES))


@_register(
    "derivative_order",
    "central differences of the wave converge at second order",
    0.0,
)
def _check_derivative_order(ctx) -> Iterator[np.ndarray | float]:
    base = 10.0 * ctx.step_h
    # floor at 0: convergence faster than second order passes at 0
    yield 0.0
    _, amplitudes, grads, points = _momenta_and_points(ctx, 5, ())
    waves = harmonic_field(amplitudes, grads)
    exact = vector_derivative(waves, points)
    errors = _residuals(*(vector_derivative(waves, points, h=s) - exact for s in (base, base / 2)))
    # per wave the errors at 10 h and 5 h; Python float division, so 0 at 5 h raises and fails
    yield [1.9 - math.log2(a / b) for a, b in errors.reshape(-1, 2).tolist()]


@_register(
    "null_annihilation",
    "a null momentum vector annihilates its own wave amplitude exactly",
    0.0,
)
def _check_null_annihilation(ctx) -> Iterator[np.ndarray | float]:
    momenta = [MomentumVector(*quadruple) for quadruple in NULL_QUADRUPLES]
    u = np.array([k.vector.coeffs for k in momenta])
    amplitudes = np.array([k.amplitude.coeffs for k in momenta])
    yield _residuals(
        _product(_FULL, u, u),
        _product(_FULL, u, amplitudes),
        amplitudes - _product(_FULL, u, (-1.0 * e(0)).coeffs),
    )


@_register(
    "phase_sign_exclusivity",
    "of the four time/mass phase sign choices only the canonical one is "
    "annihilated",
    0.0,
)
def _check_phase_sign_exclusivity(ctx) -> Iterator[np.ndarray | float]:
    # per momentum two points for each (time, mass) sign: ++, +-, -+, --
    _, amplitudes, grads, points = _momenta_and_points(ctx, 50, (4, 2), min_mass=0.1, min_p=0.1)
    grads = (grads[:, None] * [[t, 1, 1, 1, m] for t in (1, -1) for m in (1, -1)]).reshape(-1, 5)
    waves = harmonic_field(np.repeat(amplitudes, 4, axis=0), grads)
    rows = vector_derivative(waves, points.reshape(-1, 2, 5))
    residual = np.max(np.abs(rows), axis=(1, 2)).reshape(-1, 4)  # np.max keeps a NaN
    scale = np.max(np.abs(amplitudes), axis=1, keepdims=True)
    # each test is the condition that must hold, negated, so NaN violates it
    held = np.concatenate([residual[:, :1] <= 1e-10 * scale, residual[:, 1:] > 1e-8 * scale], 1)
    yield float(np.count_nonzero(~held))


# -- momentum eigensystem -------------------------------------------------


@_register(
    "dirac_spectrum",
    "the momentum operator has eigenvalues +-E, each doubled",
    1e-10,
)
def _check_dirac_spectrum(ctx) -> Iterator[np.ndarray | float]:
    rows, _, _ = _random_momenta(ctx.rng, 200, min_mass=0.05)
    vals = np.linalg.eigvalsh(_operators(rows))
    yield _residuals(vals - rows[:, :1] * [-1.0, -1.0, 1.0, 1.0])


@_register(
    "lambda_involution",
    "E^2 times the inverse eigenvalue matrix reproduces the matrix",
    1e-10,
)
def _check_lambda_involution(ctx) -> Iterator[np.ndarray | float]:
    rows, _, _ = _random_momenta(ctx.rng, 50, min_mass=0.05)
    lam = np.diagonal(_ordered_eigensystems(rows)[2], axis1=1, axis2=2)
    # off the diagonal both terms are exact zeros
    diff = (rows[:, 0] * rows[:, 0])[:, None] * (1.0 / lam) - lam
    yield np.max(np.abs(diff), axis=1)


@_register(
    "psi_determinism",
    "the ordered eigensystem is bit-reproducible",
    0.0,
)
def _check_psi_determinism(ctx) -> Iterator[np.ndarray | float]:
    rows, _, _ = _random_momenta(ctx.rng, 5, min_mass=0.05)
    (_, first_psi, first_lam), (_, second_psi, second_lam) = (
        _ordered_eigensystems(rows) for _ in range(2)
    )
    # a NaN compares unequal, so it fails
    same = (first_psi == second_psi).all(axis=(1, 2)) & (first_lam == second_lam).all(axis=(1, 2))
    yield np.where(same, 0.0, 1.0)


@_register(
    "dirac_column_fields",
    "eigencolumn waves satisfy the mass-term derivative equation",
    1e-10,
)
def _check_dirac_column_fields(ctx) -> Iterator[np.ndarray | float]:
    # per momentum two points for each of its four eigencolumns
    momenta, _, _, points = _momenta_and_points(ctx, 20, (4, 2), min_mass=0.05)
    _, psi_bar, lam = _ordered_eigensystems(momenta)
    lam = np.real(np.diagonal(lam, axis1=1, axis2=2))
    amplitudes, grads = _column_parts(psi_bar, lam, momenta[:, 1:4])
    masses = np.repeat(momenta[:, 4], 4)[:, None]
    waves = harmonic_field(amplitudes.reshape(-1, N_BLADES), grads.reshape(-1, 5))
    rows = reduced_vector_derivative(waves, points.reshape(-1, 2, 5), masses)
    yield _residuals(rows.reshape(-1, N_BLADES))


# -- idempotent splits ----------------------------------------------------


@_register(
    "idempotent_sets",
    "both quadruples are idempotent, mutually orthogonal, and complete",
    0.0,
)
def _check_idempotent_sets(ctx) -> Iterator[np.ndarray | float]:
    for s in (build_f_set(), build_e_set()):
        report = validate_idempotent_set(s)
        yield [report[p] for p in ("idempotency", "orthogonality", "completeness")]


@_register(
    "projector_commutation",
    "the two commuting factors of each quadruple and the quadruple "
    "elements commute",
    0.0,
)
def _check_projector_commutation(ctx) -> Iterator[np.ndarray | float]:
    for group in (*COMMUTING_PAIRS, build_f_set().elements, build_e_set().elements):
        rows = np.array([x.coeffs for x in group])
        yield _commutators(_product(_FULL, rows[:, None], rows[None]))


@_register(
    "triblade_squares",
    "all four commuting factors square to +1",
    0.0,
)
def _check_triblade_squares(ctx) -> Iterator[np.ndarray | float]:
    rows = np.array([b.coeffs for pair in COMMUTING_PAIRS for b in pair])
    yield _residuals(_product(_FULL, rows, rows) - ONE.coeffs)


@_register(
    "sets_not_aligned",
    "some cross product of the two quadruples is neither zero nor idempotent",
    0.0,
)
def _check_sets_not_aligned(ctx) -> Iterator[np.ndarray | float]:
    fs, es = (np.array([x.coeffs for x in s.elements]) for s in (build_f_set(), build_e_set()))
    table = _product(_FULL, fs[:, None], es[None]).reshape(-1, N_BLADES)
    # a NaN compares False, so a product with a NaN entry is never the one found
    found = (_residuals(table) > 0.0) & (_residuals(_product(_FULL, table, table) - table) > 0.0)
    yield 0.0 if found.any() else 1.0


@_register(
    "custom_quadruple_generators",
    "conjugated unit quadruples yield commuting traceless generators "
    "with the reference squared spectra",
    1e-10,
)
def _check_custom_quadruple_generators(ctx) -> Iterator[np.ndarray | float]:
    # the squared spectra of the three diagonal generators
    patterns = np.array([[0, 0, 1, 1], [0, 1, 1, 4], [1, 1, 1, 9]]) / [[1.0], [3.0], [6.0]]
    for _ in range(5):
        raw = ctx.rng.normal(size=(4, 4)) + 1j * ctx.rng.normal(size=(4, 4))
        q, r = np.linalg.qr(raw)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        quadruple = conjugated_unit_quadruple(q)
        report = validate_idempotent_set(quadruple, tol=1e-10)
        yield [report[p] for p in ("idempotency", "orthogonality", "completeness")]
        images = _to_matrices(np.array([g.coeffs for g in _generators(quadruple, 1e-10)]))
        pairs = images[:, None] @ images[None]
        yield _residuals(
            np.trace(images, axis1=1, axis2=2),
            images - images.conj().swapaxes(1, 2),
            np.linalg.eigvalsh(pairs[range(3), range(3)]) - patterns,
        )
        yield _commutators(pairs)


# -- frames and gauge -----------------------------------------------------


def _gauge_cases(ctx, min_mass: float):
    """Two (plane wave, gauge field with a linear phase, three points)
    cases, drawn in the order momentum, phase coefficients, potential,
    points."""
    for _ in range(2):
        rows, amplitudes, grads = _random_momenta(ctx.rng, 1, min_mass=min_mass)
        coefs = _uniform(ctx.rng, -0.8, 0.8, 4)
        potential = _uniform(ctx.rng, -1.0, 1.0, 4)
        field = GaugeField(
            potential,
            charge=-1.0,
            mass=rows[0, 4],
            phase=lambda x, c=coefs: float(c @ x[:4]),
            phase_gradient=lambda x, c=coefs: np.array([*c, 0.0]),
        )
        yield harmonic_field(amplitudes[0], grads[0]), field, _uniform(ctx.rng, -1.0, 1.0, (3, 5))


@_register(
    "frame_duality",
    "random frames satisfy the metric and reciprocal duality relations",
    1e-10,
)
def _check_frame_duality(ctx) -> Iterator[np.ndarray | float]:
    # the first 100 candidates, in draw order, with condition estimate at
    # most 100 that build_frame accepts; nearly all pass, so the first
    # chunk of 100 is usually the only one evaluated
    candidates = np.eye(5) + ctx.rng.uniform(-0.2, 0.2, (1000, 5, 5))
    accepted = []
    for chunk in np.split(candidates, 10):
        cond, faults, *parts = _frames(chunk)
        good = cond[[f is None for f in faults]] <= 100
        accepted.append([p[good] for p in parts])
        if sum(len(a[0]) for a in accepted) >= 100:
            break
    else:
        raise ArithmeticError("could not sample enough well-conditioned frames")
    vectors, metric, inverse, reciprocal = (np.concatenate(p)[:100] for p in zip(*accepted))

    def gram(a, b):  # scalar parts of a_i b_j, each as scalar_product
        return _scalar_products(a[:, :, None], b[:, None])

    yield np.abs(gram(vectors, vectors) - metric)
    yield np.abs(gram(reciprocal, vectors) - np.eye(5))
    yield np.abs(gram(reciprocal, reciprocal) - inverse)
    # metric[a, g] reciprocal[g], summed over g in order from zero
    combo = _axis_sum(metric[..., None] * reciprocal[:, None])
    yield np.max(np.abs(combo - vectors), axis=-1)


@_register(
    "nonmonogenic_identity",
    "the flat derivative of a phase-rotated wave picks up the phase "
    "gradient term",
    1e-8,
)
def _check_nonmonogenic_identity(ctx) -> Iterator[np.ndarray | float]:
    for wave, field, points in _gauge_cases(ctx, min_mass=0.1):
        yield phase_shift_residual(wave, field, points)


@_register(
    "em_covariance",
    "the electromagnetic covariant derivative transforms by the phase "
    "factor",
    1e-8,
)
def _check_em_covariance(ctx) -> Iterator[np.ndarray | float]:
    for wave, field, points in _gauge_cases(ctx, min_mass=0.5):
        yield gauge_covariance_residual(wave, field, points)


# -- harness self-checks --------------------------------------------------


@_register(
    "json_determinism",
    "two runs with the same seed produce identical reports",
    0.0,
)
def _check_json_determinism(ctx) -> Iterator[np.ndarray | float]:
    subset = ("blade_squares", "vector_decomposition", "null_annihilation", "triblade_squares")
    first = report_json(
        run_checks(subset, seed=42, step_h=ctx.step_h), seed=42, omit_timings=True
    )
    second = report_json(
        run_checks(subset, seed=42, step_h=ctx.step_h), seed=42, omit_timings=True
    )
    yield 0.0 if first == second else 1.0


EXPECTED_CHECK_NAMES = (
    "blade_squares",
    "anticommutation",
    "associativity",
    "pseudoscalar_centrality",
    "vector_decomposition",
    "cross_product_link",
    "exp_closed_forms",
    "rotor_unitarity",
    "phi_homomorphism",
    "phi_round_trip",
    "dirac_pauli_relations",
    "sigma_clifford_relations",
    "blade_images_span",
    "monogenic_residual",
    "derivative_order",
    "null_annihilation",
    "phase_sign_exclusivity",
    "dirac_spectrum",
    "lambda_involution",
    "psi_determinism",
    "dirac_column_fields",
    "idempotent_sets",
    "projector_commutation",
    "triblade_squares",
    "sets_not_aligned",
    "custom_quadruple_generators",
    "frame_duality",
    "nonmonogenic_identity",
    "em_covariance",
    "json_determinism",
    "registry_complete",
)


@_register(
    "registry_complete",
    "the registry holds exactly the expected checks in order",
    0.0,
)
def _check_registry_complete(ctx) -> Iterator[np.ndarray | float]:
    names = tuple(d.name for d in _REGISTRY)
    yield 0.0 if names == EXPECTED_CHECK_NAMES and len(names) == 31 else 1.0


# -- running --------------------------------------------------------------


def check_names() -> tuple[str, ...]:
    return tuple(d.name for d in _REGISTRY)


def check_definitions() -> tuple[CheckDefinition, ...]:
    return tuple(_REGISTRY)


def _check_rng(seed: int, name: str, rng=None) -> np.random.Generator:
    """The check's generator: Philox keyed by (seed, blake2b(name)), counter 0.
    A Philox rng is re-keyed: the same stream, no new Philox's entropy draw."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    key = np.array([seed, int.from_bytes(digest, "little")], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key)) if rng is None else rng
    zeros = np.zeros(4, np.uint64)
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                               "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def run_checks(
    names: Optional[Iterable[str]] = None,
    seed: int = 0,
    tolerances: Optional[dict[str, float]] = None,
    step_h: float = 1e-3,
) -> list[CheckResult]:
    """Run the selected checks (all by default) in registration order.

    ``tolerances`` overrides tolerances by check name.  Unknown check or
    tolerance names, an override that is not finite and non-negative, a
    seed that is not an integer in [0, 2**64), and a step that is not a
    finite positive real number (a bool is neither) raise ValueError.  Each check's residual is the largest of the
    samples it yields; a NaN sample, or none at all, makes it NaN, which
    fails.  A check whose computation raises ValueError or
    ArithmeticError (say, a step that underflows to 0 when halved)
    fails with residual inf, and the remaining checks still run.
    """
    known = {d.name for d in _REGISTRY}
    if names is not None:
        requested = list(names)
        unknown = [n for n in requested if n not in known]
        if unknown:
            raise ValueError(f"unknown check names: {', '.join(sorted(unknown))}")
        wanted = set(requested)
    else:
        wanted = known
    overrides = dict(tolerances or {})
    bad = [n for n in overrides if n not in known]
    if bad:
        raise ValueError(f"unknown tolerance names: {', '.join(sorted(bad))}")
    for name, value in overrides.items():
        if not 0.0 <= float(value) < math.inf:
            raise ValueError(f"tolerance for {name} must be finite and non-negative: {value}")
    _integer(seed, range(2**64), "seed must be in [0, 2**64): {}", seed)
    _check_steps((step_h,))
    results, rng = [], None
    for definition in _REGISTRY:
        if definition.name not in wanted:
            continue
        tolerance = float(overrides.get(definition.name, definition.tolerance))
        # one generator per call, re-keyed for each check (_fold uses it up)
        rng = _check_rng(seed, definition.name, rng)
        ctx = CheckContext(rng, step_h)
        start = time.perf_counter()
        # a check that overflows yields inf or NaN and fails on it; numpy's
        # warning on the way would only repeat that on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                residual = _fold(definition.run(ctx))
            except (ValueError, ArithmeticError):
                residual = math.inf
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        status = "pass" if residual <= tolerance else "fail"
        results.append(
            CheckResult(
                definition.name, definition.anchor, status, residual, tolerance, elapsed_ms
            )
        )
    return results


def report_dict(results: list[CheckResult], seed: int, omit_timings: bool = False) -> dict:
    """The report of results as plain data; the seed follows run_checks'
    rule and is written as an int."""
    seed = _integer(seed, range(2**64), "seed must be in [0, 2**64): {}", seed)
    rows = []
    for r in results:
        row = asdict(r)
        if omit_timings:
            del row["elapsed_ms"]
        rows.append(row)
    passed = sum(1 for r in results if r.status == "pass")
    failed = sum(1 for r in results if r.status == "fail")
    return {
        "version": REPORT_VERSION,
        "seed": seed,
        "results": rows,
        "summary": {
            "pass": passed,
            "fail": failed,
            "skip": len(_REGISTRY) - len(results),
        },
    }


def report_json(results: list[CheckResult], seed: int, omit_timings: bool = False) -> str:
    report = report_dict(results, seed, omit_timings)
    for row in report["results"]:  # standard JSON has no NaN or infinity
        row["residual"] = row["residual"] if math.isfinite(row["residual"]) else None
    return json.dumps(report, indent=2, allow_nan=False)
