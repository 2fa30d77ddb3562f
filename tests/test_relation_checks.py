"""The Clifford, commutation and idempotent relation checks: each compares
one product table with its expected table, and each fails when one thing it
rests on is broken (negative controls)."""

import math
from collections import Counter

import numpy as np
import pytest

from ga41 import ONE, Multivector, algebra, checks, monogenic, projectors
from ga41.algebra import _sample_array, e, e_upper
from ga41.checks import check_definitions, run_checks
from ga41.matrices import ALPHA, RECIPROCAL_IMAGES


def _flipped_vector_cell():
    # the sign of e0 e1 in the full product table: e0 e1 = -e01 would make
    # e0 e1 + e1 e0 = -2 e01
    full = checks._FULL.copy()
    full[0b00011, 0b00001] *= -1.0
    return full


def _swapped_images(i, j):
    images = list(RECIPROCAL_IMAGES)
    images[i], images[j] = images[j], images[i]
    return tuple(images)


def _scaled_image(index, factor):
    images = list(RECIPROCAL_IMAGES)
    images[index] = images[index] * factor
    return tuple(images)


def _frames_with(change):
    """The frame kernel with change applied to its inverse metrics and reciprocal rows."""

    def mutant(real):
        def frames(mats):
            cond, faults, vectors, metric, inverse, reciprocal = real(mats)
            return (cond, faults, vectors, metric, *change(inverse, reciprocal))

        return frames

    return mutant


def _eigensystems_with(change):
    """The eigensystem kernel with change applied to its psi_bar and lam."""

    def mutant(real):
        def eigensystems(rows):
            a_bar, psi_bar, lam = real(rows)
            return (a_bar, *change(psi_bar, lam))

        return eigensystems

    return mutant


def _second_call_one_unit_off(real):
    """The eigensystem kernel whose second call moves one entry of each
    psi_bar to the next float."""
    calls = []

    def eigensystems(rows):
        a_bar, psi_bar, lam = real(rows)
        calls.append(rows)
        if len(calls) == 2:
            psi_bar = psi_bar.copy()
            corner = psi_bar[:, 0, 0]
            psi_bar[:, 0, 0] = np.nextafter(corner.real, np.inf) + 1j * corner.imag
        return a_bar, psi_bar, lam

    return eigensystems


def _doubled_first_generator(real):
    def generators(quadruple, tol):
        l3, l8, l15 = real(quadruple, tol)
        return 2.0 * l3, l8, l15

    return generators


def _time_unsigned_laplacian(real):
    """The second-order operator with +d2/dt2 in place of -d2/dt2: the real
    one plus twice the central second difference along the time axis."""

    def laplacian(field, x, h=1e-3, richardson=False):
        def time_second(s):
            step = np.array([s, 0.0, 0.0, 0.0, 0.0])
            return (field(x + step) - 2.0 * field(x) + field(x - step)) * (1.0 / (s * s))

        t = time_second(h)
        if richardson:
            t = (4.0 * time_second(h / 2.0) - t) * (1.0 / 3.0)
        return real(field, x, h=h, richardson=richardson) + 2.0 * t

    return laplacian


def _one_sided_differences(real):
    """The vector derivative with forward differences (f(x + h e_a) - f(x)) / h,
    each the central difference of step h/2 about x + (h/2) e_a: first order."""

    def vector_derivative(field, x, h=None, indices=(0, 1, 2, 3, 4)):
        if h is None:
            return real(field, x, indices=indices)
        half = 0.5 * h
        return sum(real(field, x + half * np.eye(5)[a], h=half, indices=(a,)) for a in indices)

    return vector_derivative


def _lowered_time_axis(real):
    """The vector derivative over the lowered basis e_a in place of the
    reciprocal e^a: e_0 = -e^0 flips the time term, so the canonical wave is
    no longer annihilated."""
    lowered = np.array([e(a).coeffs for a in range(5)])

    def vector_derivative(field, x, h=None, indices=monogenic._ALL_AXES):
        x = monogenic._points(x)
        return monogenic._result(x, monogenic._derivative_sum(field, x, h, lowered, indices))

    return vector_derivative


def _swapped_quads_product(real):
    """The product kernel with two quads of its signed gather swapped: in
    output cell 0, left blades 0-3 take the signed right factors of left
    blades 4-7, and the reverse."""

    def product(table, a, b):
        gathered = algebra._gather(b)
        gathered[..., 0, :8] = gathered[..., 0, [4, 5, 6, 7, 0, 1, 2, 3]]
        return algebra._contract(a, gathered)

    return product


ANTICOMMUTING = (e_upper(3), e_upper(0, 3))
#: the sign pairs of build_f_set's elements
F_SIGNS = ((-1, -1), (-1, 1), (1, 1), (1, -1))


def _doubled_mass_gauge(real):
    def built(potential, charge, mass, **kwargs):
        return real(potential, charge=charge, mass=2.0 * mass, **kwargs)

    return built


def _euclidean_e0(real):
    # the index-0 generator squaring to +1: every blade with e0 changes sign
    def blade_product(a, b):
        sign, mask = real(a, b)
        return (-sign if a & b & 1 else sign), mask

    return blade_product


def _phase_along_the_mass_axis(real):
    # a phase gradient with a component along axis 4, which the identity's
    # four-gradient term leaves out; a gradient that is not the phase's own
    # would not do, as both sides take the same gradient
    def built(potential, charge, mass, phase, phase_gradient):
        tilted = lambda x: phase_gradient(x) + [0.0, 0.0, 0.0, 0.0, 0.5]
        return real(potential, charge=charge, mass=mass, phase=phase, phase_gradient=tilted)

    return built


#: (check, name patched in ga41.checks, replacement from the real value)
MUTATIONS = (
    ("blade_squares", "blade_product", _euclidean_e0),
    # the inner product of vectors in the Euclidean metric
    ("vector_decomposition", "_INNER", lambda real: np.abs(real)),
    # the dual by e321 = -e123 gives minus the cross product
    ("cross_product_link", "e", lambda real: lambda *indices: real(*indices[::-1])),
    ("phi_round_trip", "_from_matrices", lambda real: lambda m: real(m.swapaxes(-1, -2))),
    # raised e3 and e03 anticommute, so their quarter products are not idempotent
    (
        "idempotent_sets",
        "build_f_set",
        lambda real: lambda: projectors._quadruple("f-set", ANTICOMMUTING, F_SIGNS),
    ),
    ("nonmonogenic_identity", "GaugeField", _phase_along_the_mass_axis),
    # timings left in the report, which differ from run to run
    (
        "json_determinism",
        "report_json",
        lambda real: lambda results, seed, omit_timings=False: real(results, seed),
    ),
    # a check registered twice
    ("registry_complete", "_REGISTRY", lambda real: [*real, real[0]]),
    ("anticommutation", "_FULL", lambda real: _flipped_vector_cell()),
    ("pseudoscalar_centrality", "PSEUDOSCALAR", lambda real: e(0, 1, 2, 3)),
    ("dirac_pauli_relations", "ALPHA", lambda real: (ALPHA[0], ALPHA[0], ALPHA[2])),
    # the Clifford relation holds for any order of the spatial images; the
    # links sigma^m sigma^0 = alpha_m do not
    ("sigma_clifford_relations", "RECIPROCAL_IMAGES", lambda real: _swapped_images(1, 2)),
    ("sigma_clifford_relations", "RECIPROCAL_IMAGES", lambda real: _scaled_image(3, 1j)),
    # raised e3 and e03 anticommute
    ("projector_commutation", "COMMUTING_PAIRS", lambda real: (ANTICOMMUTING, real[1])),
    # e_upper(0, 1) would not do: it squares to +1 too
    ("triblade_squares", "COMMUTING_PAIRS", lambda real: ((e_upper(1, 2), real[0][1]), real[1])),
    ("custom_quadruple_generators", "_generators", _doubled_first_generator),
    # the stencils: a Laplacian that keeps +d2/dt2 misses the null waves'
    # zero, and forward differences converge at first order
    ("monogenic_residual", "laplacian", _time_unsigned_laplacian),
    ("derivative_order", "vector_derivative", _one_sided_differences),
    ("phase_sign_exclusivity", "vector_derivative", _lowered_time_axis),
    # the product kernel, its gather two quads off
    ("associativity", "_product", _swapped_quads_product),
    ("phi_homomorphism", "_product", _swapped_quads_product),
    # the sampled checks evaluated on the row kernels
    ("null_annihilation", "e", lambda real: e_upper),
    ("sets_not_aligned", "build_e_set", lambda real: projectors.build_f_set),
    ("exp_closed_forms", "_exp_rows", lambda real: lambda rows: ONE.coeffs + rows),
    ("rotor_unitarity", "_exp_rows", lambda real: lambda rows: 2.0 * real(rows)),
    ("rotor_unitarity", "_REVERSE_SIGNS", lambda real: np.ones_like(real)),
    ("dirac_spectrum", "_operators", lambda real: lambda rows: 2.0 * real(rows)),
    (
        "lambda_involution",
        "_eigensystems",
        _eigensystems_with(lambda psi, lam: (psi, lam * (1.0 + 1e-9))),
    ),
    ("psi_determinism", "_eigensystems", _second_call_one_unit_off),
    # the eigenvalues reordered (+E, -E, +E, -E): the phase of two columns flips
    (
        "dirac_column_fields",
        "_eigensystems",
        _eigensystems_with(lambda psi, lam: (psi, lam[:, [0, 2, 1, 3]][:, :, [0, 2, 1, 3]])),
    ),
    # a repeated blade image: its Gram entry with the first is 4, not 0
    ("blade_images_span", "_BLADE_ROWS", lambda real: np.concatenate([real[:1], real[:-1]])),
    ("frame_duality", "_frames", _frames_with(lambda inv, rec: (inv, rec[:, ::-1]))),
    ("frame_duality", "_frames", _frames_with(lambda inv, rec: (inv * (1.0 + 1e-9), rec))),
    # the frame's tilt (charge/mass) A no longer matches the wave's mass
    # term; a flipped charge or a zero potential would not do, as the
    # identity holds for any consistent charge and potential
    ("em_covariance", "GaugeField", _doubled_mass_gauge),
)


@pytest.mark.parametrize("name, target, replace", MUTATIONS)
def test_relation_check_fails_when_what_it_rests_on_is_broken(monkeypatch, name, target, replace):
    assert run_checks([name], seed=0)[0].status == "pass"
    monkeypatch.setattr(checks, target, replace(getattr(checks, target)))
    result = run_checks([name], seed=0)[0]
    assert result.status == "fail"
    assert result.residual > 0.0


def test_a_nan_image_makes_the_sigma_relations_nan(monkeypatch):
    monkeypatch.setattr(checks, "RECIPROCAL_IMAGES", _scaled_image(2, math.nan))
    result = run_checks(["sigma_clifford_relations"], seed=0)[0]
    assert result.status == "fail"
    assert math.isnan(result.residual)


#: (check, _clifford calls, _commutators calls, _product calls, Multivector
#: products, samples): one table per relation, whatever the number of pairs;
#: the quadruples are constants and the generators are formed on rows, so
#: no check makes a Multivector product
RELATION_CHECKS = (
    ("anticommutation", 1, 0, 1, 0, 25),
    ("pseudoscalar_centrality", 0, 0, 2, 1, 33),
    ("dirac_pauli_relations", 1, 0, 0, 0, 16),
    ("sigma_clifford_relations", 1, 0, 0, 0, 29),
    ("projector_commutation", 0, 4, 4, 0, 2 * 4 + 2 * 16),
    ("triblade_squares", 0, 0, 1, 0, 4),
    ("custom_quadruple_generators", 0, 5, 5, 0, 5 * (3 + 3 * 3 + 9)),
)


@pytest.mark.parametrize(
    "name, clifford, commutators, products, mv_products, samples", RELATION_CHECKS
)
def test_relation_checks_state_each_relation_once_per_table(
    monkeypatch, name, clifford, commutators, products, mv_products, samples
):
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args):
            calls[label] += 1
            return fn(*args)

        return wrapper

    for label in ("_clifford", "_commutators", "_product"):
        monkeypatch.setattr(checks, label, counted(label, getattr(checks, label)))
    monkeypatch.setattr(projectors, "_product", counted("_product", projectors._product))
    monkeypatch.setattr(Multivector, "__mul__", counted("__mul__", Multivector.__mul__))
    definition = next(d for d in check_definitions() if d.name == name)
    ctx = checks.CheckContext(checks._check_rng(0, name), 1e-3)
    got = _sample_array(definition.run(ctx))
    assert got.size == samples
    want = Counter(
        _clifford=clifford, _commutators=commutators, _product=products, __mul__=mv_products
    )
    assert calls == +want


def test_idempotent_relations_come_from_one_product_table(monkeypatch):
    calls = Counter()
    real = projectors._product

    def counted(*args):
        calls["_product"] += 1
        return real(*args)

    quadruple = projectors.build_f_set()
    monkeypatch.setattr(projectors, "_product", counted)
    monkeypatch.setattr(Multivector, "__mul__", None)
    report = projectors.validate_idempotent_set(quadruple)
    assert calls == Counter(_product=1)
    assert report == {
        "name": "f-set",
        "idempotency": 0.0,
        "orthogonality": 0.0,
        "completeness": 0.0,
        "ok": True,
    }


def test_idempotent_relations_keep_a_nan():
    elements = list(projectors.build_e_set().elements)
    coeffs = elements[1].coeffs.copy()
    coeffs[5] = math.nan
    elements[1] = Multivector(coeffs)
    report = projectors.validate_idempotent_set(projectors.IdempotentSet("nan", tuple(elements)))
    assert all(math.isnan(report[p]) for p in ("idempotency", "orthogonality", "completeness"))
    assert report["ok"] is False
