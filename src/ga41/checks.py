"""Registry of runtime verification checks.

Each check yields residual samples; the harness folds them into the
check's residual with one reducer, which propagates NaN, and the check
passes when that residual does not exceed its tolerance.  Checks draw
randomness from a counter-based generator keyed by (seed, hash of the
check name), so runs with the same seed are reproducible check by
check, in any subset, in any order.  Registration order is fixed and
is the execution order.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .algebra import (
    _FULL,
    _INNER,
    _OUTER,
    _VECTOR_MASKS,
    Multivector,
    N_BLADES,
    ONE,
    PSEUDOSCALAR,
    _product,
    _worst,
    blade_product,
    e,
    scalar_product,
)
from .dirac import (
    build_dirac_operator,
    column_wave,
    dirac_system,
    order_eigensystem,
)
from .frames import (
    ETA,
    GaugeField,
    build_frame,
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
    to_matrix,
)
from .monogenic import (
    MomentumVector,
    harmonic_field,
    laplacian,
    plane_wave,
    plane_wave_variant,
    reduced_vector_derivative,
    vector_derivative,
)
from .projectors import (
    COMMUTING_PAIRS,
    build_e_set,
    build_f_set,
    conjugated_unit_quadruple,
    idempotents_to_generators,
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
    run: Callable[[CheckContext], Iterable[float]]


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


def _random_momentum(rng, min_mass=0.01, min_p=0.0) -> MomentumVector:
    mass = rng.uniform(min_mass, 5.0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = rng.uniform(min_p, 4.9)
    return MomentumVector.from_mass_momentum(radius * direction, mass)


# -- algebra core --------------------------------------------------------


@_register(
    "blade_squares",
    "sign census of the 32 basis blade squares under the (-++++) metric",
    0.0,
)
def _check_blade_squares(ctx) -> Iterator[float]:
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
def _check_anticommutation(ctx) -> Iterator[float]:
    for a in range(5):
        for b in range(5):
            lhs = e(a) * e(b) + e(b) * e(a)
            rhs = Multivector.from_scalar(2.0 * ETA[a, b])
            yield (lhs - rhs).max_abs()


@_register(
    "associativity",
    "(a b) c = a (b c) on integer-coefficient triples",
    0.0,
)
def _check_associativity(ctx) -> Iterator[float]:
    coeffs = ctx.rng.integers(-3, 4, size=(1000, 3, N_BLADES)).astype(float)
    a, b, c = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    left = _product(_FULL, _product(_FULL, a, b), c)
    yield from _residuals(left - _product(_FULL, a, _product(_FULL, b, c)))


@_register(
    "pseudoscalar_centrality",
    "the grade-5 unit commutes with every blade and squares to -1",
    0.0,
)
def _check_pseudoscalar_centrality(ctx) -> Iterator[float]:
    yield (PSEUDOSCALAR * PSEUDOSCALAR + ONE).max_abs()
    for mask in range(N_BLADES):
        coeffs = np.zeros(N_BLADES)
        coeffs[mask] = 1.0
        b = Multivector(coeffs)
        yield (PSEUDOSCALAR * b - b * PSEUDOSCALAR).max_abs()


@_register(
    "vector_decomposition",
    "for vectors, ab = inner + outer and ba = inner - outer",
    1e-15,
)
def _check_vector_decomposition(ctx) -> Iterator[float]:
    coeffs = np.zeros((200, 2, N_BLADES))
    coeffs[..., _VECTOR_MASKS] = ctx.rng.uniform(-1.0, 1.0, (200, 2, 5))
    a, b = coeffs[:, 0], coeffs[:, 1]
    inner, outer = _product(_INNER, a, b), _product(_OUTER, a, b)
    yield from _residuals(
        _product(_FULL, a, b) - (inner + outer), _product(_FULL, b, a) - (inner - outer)
    )


@_register(
    "cross_product_link",
    "minus e123 times the wedge of spatial vectors is the cross product",
    1e-14,
)
def _check_cross_product_link(ctx) -> Iterator[float]:
    spatial = _VECTOR_MASKS[1:4]
    coeffs = np.zeros((200, 2, N_BLADES))
    coeffs[..., spatial] = ctx.rng.uniform(-1.0, 1.0, (200, 2, 3))
    a, b = coeffs[:, 0], coeffs[:, 1]
    dual = _product(_FULL, (-e(1, 2, 3)).coeffs, _product(_OUTER, a, b))
    got = dual[:, spatial]
    stray = dual.copy()
    stray[:, spatial] -= got
    yield from _residuals(got - np.cross(a[:, spatial], b[:, spatial]), stray)


@_register(
    "exp_closed_forms",
    "closed-form exponentials agree with the truncated power series",
    1e-12,
)
def _check_exp_closed_forms(ctx) -> Iterator[float]:
    def series(b: Multivector) -> Multivector:
        term = ONE
        acc = ONE
        for n in range(1, 31):
            term = term * b * (1.0 / n)
            acc = acc + term
        return acc

    for trial in range(24):
        theta = ctx.rng.uniform(0.1, 2.0) * (1 if trial % 2 else -1)
        kind = trial % 4
        if kind == 0:
            b = theta * e(1, 2)
        elif kind == 1:
            b = theta * e(0, 1)
        elif kind == 2:
            b = theta * (e(0) + e(4))
        else:
            c = ctx.rng.uniform(-1.0, 1.0, 3)
            c *= theta / np.linalg.norm(c)
            b = c[0] * e(1, 2) + c[1] * e(1, 3) + c[2] * e(2, 3)
        yield (b.exp() - series(b)).max_abs()


@_register(
    "rotor_unitarity",
    "reverse(R) R = 1 for exponentials of spatial bivectors",
    1e-12,
)
def _check_rotor_unitarity(ctx) -> Iterator[float]:
    spatial_pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for _ in range(100):
        b = Multivector.from_scalar(0.0)
        for i, j in spatial_pairs:
            b = b + ctx.rng.uniform(-1.5, 1.5) * e(i, j)
        rotor = (-0.5 * b).exp()
        yield (rotor.reverse() * rotor - ONE).max_abs()


# -- matrix representation ----------------------------------------------


@_register(
    "phi_homomorphism",
    "the matrix map is multiplicative on random pairs",
    1e-12,
)
def _check_phi_homomorphism(ctx) -> Iterator[float]:
    draws = ctx.rng.uniform(-1.0, 1.0, (1000, 2, N_BLADES))
    a, b = draws[:, 0], draws[:, 1]
    diff = _to_matrices(_product(_FULL, a, b)) - _to_matrices(a) @ _to_matrices(b)
    yield from _residuals(diff)


@_register(
    "phi_round_trip",
    "the matrix map composed with its inverse is the identity both ways",
    1e-12,
)
def _check_phi_round_trip(ctx) -> Iterator[float]:
    # per sample: 32 coefficients, then a matrix's 16 real and 16 imaginary parts
    draws = ctx.rng.uniform(-1.0, 1.0, (500, 64))
    a = draws[:, :32]
    m = draws[:, 32:48].reshape(500, 4, 4) + 1j * draws[:, 48:].reshape(500, 4, 4)
    yield from _residuals(
        _from_matrices(_to_matrices(a)) - a, _to_matrices(_from_matrices(m)) - m
    )


@_register(
    "dirac_pauli_relations",
    "the three block constants and the diagonal one anticommute and square to 1",
    0.0,
)
def _check_dirac_pauli_relations(ctx) -> Iterator[float]:
    yield float(np.max(np.abs(BETA @ BETA - IDENTITY)))
    for m in range(3):
        yield float(np.max(np.abs(ALPHA[m] @ BETA + BETA @ ALPHA[m])))
        for n in range(3):
            want = 2.0 * (1.0 if m == n else 0.0) * IDENTITY
            got = ALPHA[m] @ ALPHA[n] + ALPHA[n] @ ALPHA[m]
            yield float(np.max(np.abs(got - want)))


@_register(
    "sigma_clifford_relations",
    "the five raised-index images satisfy the (-++++) Clifford relations",
    0.0,
)
def _check_sigma_clifford_relations(ctx) -> Iterator[float]:
    # ETA is its own inverse, so it holds the raised-index metric too
    for a in range(5):
        for b in range(5):
            got = RECIPROCAL_IMAGES[a] @ RECIPROCAL_IMAGES[b]
            got = got + RECIPROCAL_IMAGES[b] @ RECIPROCAL_IMAGES[a]
            want = 2.0 * ETA[a, b] * IDENTITY
            yield float(np.max(np.abs(got - want)))
    for m in range(3):
        got = RECIPROCAL_IMAGES[m + 1] @ RECIPROCAL_IMAGES[0]
        yield float(np.max(np.abs(got - ALPHA[m])))
    got = RECIPROCAL_IMAGES[4] @ RECIPROCAL_IMAGES[0]
    yield float(np.max(np.abs(got - BETA)))


@_register(
    "blade_images_span",
    "the 32 blade images are linearly independent over the reals",
    0.0,
)
def _check_blade_images_span(ctx) -> Iterator[float]:
    rank = int(np.linalg.matrix_rank(_BLADE_ROWS, tol=1e-10))
    yield float(N_BLADES - rank)


# -- monogenic fields -----------------------------------------------------


@_register(
    "monogenic_residual",
    "null-momentum plane waves are annihilated by the vector derivative "
    "and by the second-order operator",
    1.0,
)
def _check_monogenic_residual(ctx) -> Iterator[float]:
    # positive control: the same stencil and step must recover the known
    # laplacian -(g.g) f, g.g = 1.75, of a harmonic field, so a step too
    # coarse or too fine to resolve second derivatives fails
    grad, x0 = (0.5, 1.0, 0.0, 0.0, 1.0), np.array([0.3, -0.7, 0.2, 0.5, -0.4])
    control = harmonic_field(ONE, grad)
    got = laplacian(control, x0, h=ctx.step_h, richardson=True)
    yield (got + 1.75 * control(x0)).max_abs() / 1e-6
    for _ in range(100):
        k = _random_momentum(ctx.rng)
        wave = plane_wave(k)
        for _ in range(2):
            x = ctx.rng.uniform(-1.0, 1.0, 5)
            yield vector_derivative(wave, x).max_abs() / 1e-10
            yield laplacian(wave, x, h=ctx.step_h, richardson=True).max_abs() / 1e-6


@_register(
    "derivative_order",
    "central differences of the wave converge at second order",
    0.0,
)
def _check_derivative_order(ctx) -> Iterator[float]:
    base = 10.0 * ctx.step_h
    # floor at 0: convergence faster than second order passes at 0
    yield 0.0
    for _ in range(5):
        k = _random_momentum(ctx.rng)
        wave = plane_wave(k)
        x = ctx.rng.uniform(-1.0, 1.0, 5)
        exact = vector_derivative(wave, x)
        err1 = (vector_derivative(wave, x, h=base) - exact).max_abs()
        err2 = (vector_derivative(wave, x, h=base / 2.0) - exact).max_abs()
        order = math.log2(err1 / err2)
        yield 1.9 - order


@_register(
    "null_annihilation",
    "a null momentum vector annihilates its own wave amplitude exactly",
    0.0,
)
def _check_null_annihilation(ctx) -> Iterator[float]:
    for energy, p, mass in NULL_QUADRUPLES:
        k = MomentumVector(energy, p, mass)
        u = k.vector
        yield (u * u).max_abs()
        yield (u * k.amplitude).max_abs()
        yield (k.amplitude - u * (-1.0 * e(0))).max_abs()


@_register(
    "phase_sign_exclusivity",
    "of the four time/mass phase sign choices only the canonical one is "
    "annihilated",
    0.0,
)
def _check_phase_sign_exclusivity(ctx) -> Iterator[float]:
    violations = 0
    for _ in range(50):
        k = _random_momentum(ctx.rng, min_mass=0.1, min_p=0.1)
        scale = k.amplitude.max_abs()
        for time_sign in (1, -1):
            for mass_sign in (1, -1):
                wave = plane_wave_variant(k, time_sign, mass_sign)
                residual = _worst(
                    vector_derivative(wave, ctx.rng.uniform(-1.0, 1.0, 5)).max_abs()
                    for _ in range(2)
                )
                # each test is the condition that must hold, negated, so NaN violates it
                if (time_sign, mass_sign) == (1, 1):
                    if not residual <= 1e-10 * scale:
                        violations += 1
                elif not residual > 1e-8 * scale:
                    violations += 1
    yield float(violations)


# -- momentum eigensystem -------------------------------------------------


@_register(
    "dirac_spectrum",
    "the momentum operator has eigenvalues +-E, each doubled",
    1e-10,
)
def _check_dirac_spectrum(ctx) -> Iterator[float]:
    for _ in range(200):
        k = _random_momentum(ctx.rng, min_mass=0.05)
        vals = np.linalg.eigvalsh(build_dirac_operator(k))
        want = np.array([-k.energy, -k.energy, k.energy, k.energy])
        yield float(np.max(np.abs(vals - want)))


@_register(
    "lambda_involution",
    "E^2 times the inverse eigenvalue matrix reproduces the matrix",
    1e-10,
)
def _check_lambda_involution(ctx) -> Iterator[float]:
    for _ in range(50):
        k = _random_momentum(ctx.rng, min_mass=0.05)
        system = order_eigensystem(dirac_system(k))
        lam_inv = np.diag(1.0 / np.diag(system.lam))
        diff = k.energy**2 * lam_inv - system.lam
        yield float(np.max(np.abs(diff)))


@_register(
    "psi_determinism",
    "the ordered eigensystem is bit-reproducible",
    0.0,
)
def _check_psi_determinism(ctx) -> Iterator[float]:
    for _ in range(5):
        k = _random_momentum(ctx.rng, min_mass=0.05)
        first = order_eigensystem(dirac_system(k))
        second = order_eigensystem(dirac_system(k))
        same = np.array_equal(first.psi_bar, second.psi_bar) and np.array_equal(
            first.lam, second.lam
        )
        yield 0.0 if same else 1.0


@_register(
    "dirac_column_fields",
    "eigencolumn waves satisfy the mass-term derivative equation",
    1e-10,
)
def _check_dirac_column_fields(ctx) -> Iterator[float]:
    for _ in range(20):
        k = _random_momentum(ctx.rng, min_mass=0.05)
        system = order_eigensystem(dirac_system(k))
        for index in range(4):
            field = column_wave(system, index)
            for _ in range(2):
                x = ctx.rng.uniform(-1.0, 1.0, 5)
                yield reduced_vector_derivative(field, x, k.mass).max_abs()


# -- idempotent splits ----------------------------------------------------


@_register(
    "idempotent_sets",
    "both quadruples are idempotent, mutually orthogonal, and complete",
    0.0,
)
def _check_idempotent_sets(ctx) -> Iterator[float]:
    for s in (build_f_set(), build_e_set()):
        report = validate_idempotent_set(s)
        yield from (report[p] for p in ("idempotency", "orthogonality", "completeness"))


@_register(
    "projector_commutation",
    "the two commuting factors of each quadruple and the quadruple "
    "elements commute",
    0.0,
)
def _check_projector_commutation(ctx) -> Iterator[float]:
    for a, b in COMMUTING_PAIRS:
        yield (a * b - b * a).max_abs()
    for s in (build_f_set(), build_e_set()):
        for i in range(4):
            for j in range(4):
                fi, fj = s.elements[i], s.elements[j]
                yield (fi * fj - fj * fi).max_abs()


@_register(
    "triblade_squares",
    "all four commuting factors square to +1",
    0.0,
)
def _check_triblade_squares(ctx) -> Iterator[float]:
    for pair in COMMUTING_PAIRS:
        for b in pair:
            yield (b * b - ONE).max_abs()


@_register(
    "sets_not_aligned",
    "some cross product of the two quadruples is neither zero nor idempotent",
    0.0,
)
def _check_sets_not_aligned(ctx) -> Iterator[float]:
    fs, es = build_f_set(), build_e_set()
    products = (fi * ej for fi in fs.elements for ej in es.elements)
    found = any(p.max_abs() > 0.0 and (p * p - p).max_abs() > 0.0 for p in products)
    yield 0.0 if found else 1.0


@_register(
    "custom_quadruple_generators",
    "conjugated unit quadruples yield commuting traceless generators "
    "with the reference squared spectra",
    1e-10,
)
def _check_custom_quadruple_generators(ctx) -> Iterator[float]:
    patterns = (
        np.array([0.0, 0.0, 1.0, 1.0]),
        np.array([0.0, 1.0, 1.0, 4.0]) / 3.0,
        np.array([1.0, 1.0, 1.0, 9.0]) / 6.0,
    )
    for _ in range(5):
        raw = ctx.rng.normal(size=(4, 4)) + 1j * ctx.rng.normal(size=(4, 4))
        q, r = np.linalg.qr(raw)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        quadruple = conjugated_unit_quadruple(q)
        report = validate_idempotent_set(quadruple, tol=1e-10)
        yield from (report[p] for p in ("idempotency", "orthogonality", "completeness"))
        gens = idempotents_to_generators(quadruple)
        images = [to_matrix(g) for g in gens]
        for img, pattern in zip(images, patterns):
            yield abs(complex(np.trace(img)))
            yield float(np.max(np.abs(img - img.conj().T)))
            vals = np.linalg.eigvalsh(img @ img)
            yield float(np.max(np.abs(vals - pattern)))
        for i in range(3):
            for j in range(3):
                comm = images[i] @ images[j] - images[j] @ images[i]
                yield float(np.max(np.abs(comm)))


# -- frames and gauge -----------------------------------------------------


def _gauge_cases(ctx, min_mass: float):
    """Two (plane wave, gauge field with a linear phase, three points)
    cases, drawn in the order momentum, phase coefficients, potential,
    points."""
    for _ in range(2):
        k = _random_momentum(ctx.rng, min_mass=min_mass)
        coefs = ctx.rng.uniform(-0.8, 0.8, 4)
        potential = ctx.rng.uniform(-1.0, 1.0, 4)
        field = GaugeField(
            potential,
            charge=-1.0,
            mass=k.mass,
            phase=lambda x, c=coefs: float(c @ x[:4]),
            phase_gradient=lambda x, c=coefs: np.array([*c, 0.0]),
        )
        yield plane_wave(k), field, ctx.rng.uniform(-1.0, 1.0, (3, 5))


@_register(
    "frame_duality",
    "random frames satisfy the metric and reciprocal duality relations",
    1e-10,
)
def _check_frame_duality(ctx) -> Iterator[float]:
    produced = 0
    attempts = 0
    while produced < 100:
        attempts += 1
        if attempts > 1000:
            raise ArithmeticError("could not sample enough well-conditioned frames")
        n = np.eye(5) + ctx.rng.uniform(-0.2, 0.2, (5, 5))
        if np.linalg.cond(n) > 100:
            continue
        try:
            frame = build_frame(n)
        except ValueError:
            continue
        produced += 1
        for a in range(5):
            for b in range(5):
                yield abs(scalar_product(frame.vectors[a], frame.vectors[b]) - frame.metric[a, b])
                yield abs(
                    scalar_product(frame.reciprocal[a], frame.vectors[b])
                    - (1.0 if a == b else 0.0)
                )
                yield abs(
                    scalar_product(frame.reciprocal[a], frame.reciprocal[b])
                    - frame.inverse_metric[a, b]
                )
            combo = Multivector.from_scalar(0.0)
            for g in range(5):
                combo = combo + frame.metric[a, g] * frame.reciprocal[g]
            yield (combo - frame.vectors[a]).max_abs()


@_register(
    "nonmonogenic_identity",
    "the flat derivative of a phase-rotated wave picks up the phase "
    "gradient term",
    1e-8,
)
def _check_nonmonogenic_identity(ctx) -> Iterator[float]:
    for wave, field, points in _gauge_cases(ctx, min_mass=0.1):
        yield phase_shift_residual(wave, field, points)


@_register(
    "em_covariance",
    "the electromagnetic covariant derivative transforms by the phase "
    "factor",
    1e-8,
)
def _check_em_covariance(ctx) -> Iterator[float]:
    for wave, field, points in _gauge_cases(ctx, min_mass=0.5):
        yield gauge_covariance_residual(wave, field, points)


# -- harness self-checks --------------------------------------------------


@_register(
    "json_determinism",
    "two runs with the same seed produce identical reports",
    0.0,
)
def _check_json_determinism(ctx) -> Iterator[float]:
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
def _check_registry_complete(ctx) -> Iterator[float]:
    names = tuple(d.name for d in _REGISTRY)
    yield 0.0 if names == EXPECTED_CHECK_NAMES and len(names) == 31 else 1.0


# -- running --------------------------------------------------------------


def check_names() -> tuple[str, ...]:
    return tuple(d.name for d in _REGISTRY)


def check_definitions() -> tuple[CheckDefinition, ...]:
    return tuple(_REGISTRY)


def _check_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    key = np.array(
        [np.uint64(seed), np.uint64(int.from_bytes(digest, "little"))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def run_checks(
    names: Optional[Iterable[str]] = None,
    seed: int = 0,
    tolerances: Optional[dict[str, float]] = None,
    step_h: float = 1e-3,
) -> list[CheckResult]:
    """Run the selected checks (all by default) in registration order.

    ``tolerances`` overrides tolerances by check name.  Unknown check or
    tolerance names, an override that is not finite and non-negative, a
    seed outside [0, 2**64), and a step that is not finite and positive
    raise ValueError.  Each check's residual is the largest of the
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
    if not 0 <= operator.index(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64): {seed}")
    if not 0.0 < step_h < math.inf:
        raise ValueError("step h must be finite and positive")
    results = []
    for definition in _REGISTRY:
        if definition.name not in wanted:
            continue
        tolerance = float(overrides.get(definition.name, definition.tolerance))
        ctx = CheckContext(_check_rng(seed, definition.name), step_h)
        start = time.perf_counter()
        # a check that overflows yields inf or NaN and fails on it; numpy's
        # warning on the way would only repeat that on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                residual = _worst(definition.run(ctx))
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
