"""Momentum-space wave operator: solver, ordering, and crosschecks."""

import math
import re

import numpy as np
import pytest

from ga41 import MomentumVector, dirac
from ga41.dirac import (
    DiracSystem,
    SPIN_IMAGES,
    build_dirac_operator,
    column_wave,
    dirac_system,
    geometric_matrix_crosscheck,
    order_eigensystem,
)
from ga41.matrices import ALPHA, BETA, _half_projector, from_matrix
from ga41.monogenic import harmonic_field, reduced_vector_derivative

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
Z2 = np.zeros((2, 2), dtype=complex)


def random_null(rng):
    mass = float(rng.uniform(0.1, 4.0))
    momentum = tuple(float(q) for q in rng.uniform(-3, 3, 3))
    return MomentumVector.from_mass_momentum(momentum, mass)


def test_operator_structure():
    k = MomentumVector(5.0, (3.0, 0.0, 0.0), 4.0)
    a = build_dirac_operator(k)
    want = 3.0 * np.block([[Z2, PAULI[0]], [PAULI[0], Z2]])
    want = want + 4.0 * np.block([[np.eye(2), Z2], [Z2, -np.eye(2)]])
    assert np.array_equal(a, want)
    assert np.array_equal(a, a.conj().T)
    assert np.trace(a) == 0.0


def test_operator_squares_to_energy():
    k = MomentumVector(5.0, (3.0, 0.0, 0.0), 4.0)
    a = build_dirac_operator(k)
    assert np.array_equal(a @ a, 25.0 * np.eye(4))
    rng = np.random.default_rng(41)
    for _ in range(20):
        k = random_null(rng)
        a = build_dirac_operator(k)
        res = np.max(np.abs(a @ a - k.energy**2 * np.eye(4)))
        assert res <= 1e-12 * max(1.0, k.energy**2)


def test_spin_images_are_block_pauli():
    for s, sigma in zip(SPIN_IMAGES, PAULI):
        assert np.array_equal(s, np.block([[sigma, Z2], [Z2, sigma]]))


def test_spectrum_is_doubled_pair():
    rng = np.random.default_rng(44)
    for _ in range(20):
        k = random_null(rng)
        system = dirac_system(k)
        vals = np.sort(np.real(np.diag(system.lam)))
        want = np.array([-k.energy, -k.energy, k.energy, k.energy])
        assert np.max(np.abs(vals - want)) <= 1e-10 * max(1.0, k.energy)


def _momenta_for_closed_form(rng):
    """Random null momenta on both energy branches, plus p = 0 and
    |p| near 1e-8 where the spin axis is set by a tiny momentum."""
    out = [MomentumVector(1.5, (0.0, 0.0, 0.0), 1.5)]
    for _ in range(30):
        out.append(random_null(rng))
    for _ in range(5):
        direction = rng.normal(size=3)
        p = 1e-8 * direction / np.linalg.norm(direction)
        out.append(MomentumVector.from_mass_momentum(p, float(rng.uniform(0.1, 4.0))))
    out.append(MomentumVector.from_mass_momentum((0.5, -1.0, 2.0), 1.0, negative_energy=True))
    return out


def test_closed_form_columns_against_library_solver():
    rng = np.random.default_rng(49)
    for k in _momenta_for_closed_form(rng):
        system = dirac_system(k)
        a, psi, e_val = system.a_bar, system.psi_bar, k.energy
        assert np.array_equal(
            system.lam, np.diag([e_val, e_val, -e_val, -e_val]).astype(complex)
        )
        scale = max(1.0, abs(e_val))
        assert np.max(np.abs(a @ psi - psi @ system.lam)) <= 1e-13 * scale
        assert np.max(np.abs(psi.conj().T @ psi - np.eye(4))) <= 1e-14
        vals, vecs = np.linalg.eigh(a)
        assert np.max(np.abs(vals - np.sort(np.real(np.diag(system.lam))))) <= 1e-13 * scale
        # the library eigenvectors span the same two eigenspaces
        upper = slice(2, 4) if e_val > 0 else slice(0, 2)
        want = vecs[:, upper] @ vecs[:, upper].conj().T
        got = psi[:, :2] @ psi[:, :2].conj().T
        assert np.max(np.abs(got - want)) <= 1e-12
        p = np.array(k.momentum)
        axis = p / np.linalg.norm(p) if p.any() else np.array([0.0, 0.0, 1.0])
        spin = sum(c * s for c, s in zip(axis, SPIN_IMAGES))
        for j, sigma in enumerate((1.0, -1.0, 1.0, -1.0)):
            col = psi[:, j]
            assert np.max(np.abs(spin @ col - sigma * col)) <= 1e-13
            lead = col[int(np.argmax(np.abs(col)))]
            assert abs(lead.imag) <= 1e-15
            assert lead.real > 0.0


def test_zero_energy_has_no_eigensystem():
    with pytest.raises(ValueError):
        dirac_system(MomentumVector(0.0, (0.0, 0.0, 0.0), 0.0))


def test_ordered_system_contract():
    rng = np.random.default_rng(45)
    for _ in range(10):
        k = random_null(rng)
        system = order_eigensystem(dirac_system(k))
        e_val = k.energy
        assert np.array_equal(
            system.lam, np.diag([e_val, e_val, -e_val, -e_val]).astype(complex)
        )
        recon = np.max(np.abs(system.a_bar @ system.psi_bar - system.psi_bar @ system.lam))
        assert recon <= 1e-10 * max(1.0, e_val)
        unit = np.max(np.abs(system.psi_bar.conj().T @ system.psi_bar - np.eye(4)))
        assert unit <= 1e-12


def test_rest_frame_columns_are_identity():
    k = MomentumVector(2.0, (0.0, 0.0, 0.0), 2.0)
    system = order_eigensystem(dirac_system(k))
    assert np.array_equal(system.psi_bar, np.eye(4, dtype=complex))


def test_ordering_by_spin_projection():
    k = MomentumVector.from_mass_momentum((0.0, 0.0, 1.5), 2.0)
    system = order_eigensystem(dirac_system(k))
    spin = SPIN_IMAGES[2]
    for cols in ((0, 1), (2, 3)):
        block = system.psi_bar[:, cols]
        proj = block.conj().T @ spin @ block
        assert np.max(np.abs(proj - np.diag([1.0, -1.0]))) <= 1e-10


def test_ordering_deterministic():
    k = MomentumVector.from_mass_momentum((1.0, -0.5, 2.0), 1.0)
    a = order_eigensystem(dirac_system(k))
    b = order_eigensystem(dirac_system(k))
    assert np.array_equal(a.psi_bar, b.psi_bar)


def test_ordering_validation():
    neg = MomentumVector.from_mass_momentum((1.0, 0.0, 0.0), 1.0, negative_energy=True)
    with pytest.raises(ValueError):
        order_eigensystem(dirac_system(neg))
    k = MomentumVector(1.0, (0.0, 0.0, 0.0), 1.0)
    fake = DiracSystem(k, np.eye(4), np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(ArithmeticError):
        order_eigensystem(fake)


def test_ordering_returns_the_closed_form_built_once(monkeypatch):
    calls = []
    real = dirac._eigensystems

    def counted(rows):
        calls.append(rows.tolist())
        return real(rows)

    monkeypatch.setattr(dirac, "_eigensystems", counted)
    k = MomentumVector.from_mass_momentum((0.3, -1.2, 0.8), 0.7)
    system = dirac_system(k)
    assert order_eigensystem(system) is system
    assert calls == [[[k.energy, *k.momentum, k.mass]]]


def test_phase_convention_leading_component():
    rng = np.random.default_rng(46)
    for _ in range(5):
        k = random_null(rng)
        system = order_eigensystem(dirac_system(k))
        for j in range(4):
            col = system.psi_bar[:, j]
            lead = col[int(np.argmax(np.abs(col)))]
            assert abs(lead.imag) <= 1e-12
            assert lead.real > 0.0


def test_geometric_matrix_crosscheck():
    points = [np.zeros(5), np.array([0.3, -0.2, 0.5, 0.1, 0.0])]
    exact = MomentumVector(5.0, (3.0, 0.0, 0.0), 4.0)
    assert geometric_matrix_crosscheck(exact, points) <= 1e-12
    rng = np.random.default_rng(47)
    for _ in range(10):
        k = random_null(rng)
        res = geometric_matrix_crosscheck(k, points)
        assert res <= 1e-10 * max(1.0, k.energy**2)


def test_geometric_matrix_crosscheck_keeps_a_nan_point():
    exact = MomentumVector(5.0, (3.0, 0.0, 0.0), 4.0)
    nan_point = np.array([math.nan, 0.0, 0.0, 0.0, 0.0])
    points = [np.zeros(5), nan_point, np.array([0.3, -0.2, 0.5, 0.1, 0.0])]
    assert math.isnan(geometric_matrix_crosscheck(exact, points))


def test_column_waves_solve_reduced_equation():
    rng = np.random.default_rng(48)
    k = MomentumVector.from_mass_momentum((1.0, 2.0, -0.5), 1.5)
    system = order_eigensystem(dirac_system(k))
    for index in range(4):
        field = column_wave(system, index)
        for _ in range(3):
            x = rng.uniform(-1, 1, 5)
            scale = max(1.0, field(x).max_abs()) * max(1.0, k.energy)
            res = reduced_vector_derivative(field, x, k.mass).max_abs()
            assert res <= 1e-10 * scale


def test_column_wave_validation():
    k = MomentumVector(1.0, (0.0, 0.0, 0.0), 1.0)
    system = order_eigensystem(dirac_system(k))
    with pytest.raises(ValueError):
        column_wave(system, 4)
    with pytest.raises(ValueError):
        column_wave(system, -1)


def test_geometric_matrix_crosscheck_rejects_malformed_points():
    exact = MomentumVector(5.0, (3.0, 0.0, 0.0), 4.0)
    for shape in ((4, 3), (2, 6), (7,)):
        with pytest.raises(ValueError, match="shape"):
            geometric_matrix_crosscheck(exact, np.zeros(shape))
    # four-vectors (t, x1, x2, x3) and five-axis points are both accepted
    four = geometric_matrix_crosscheck(exact, np.zeros((2, 3, 4)))
    assert four == geometric_matrix_crosscheck(exact, np.zeros((2, 3, 5)))


def test_column_wave_rejects_a_non_integer_index():
    k = MomentumVector(1.0, (0.0, 0.0, 0.0), 1.0)
    system = order_eigensystem(dirac_system(k))
    for index in (1.0, True, False, "1", None):
        with pytest.raises(ValueError):
            column_wave(system, index)
    assert column_wave(system, np.int64(2))(np.zeros(5)) == column_wave(system, 2)(np.zeros(5))


# -- the stacked eigensystem kernel against the per-momentum code it replaced


def _old_operator(k):
    terms = np.array([*k.momentum, k.mass])[:, None, None] * np.array([*ALPHA, BETA])
    return terms.sum(axis=0)


def _old_spin_operator(k):
    p = np.array(k.momentum)
    norm = float(np.sqrt((p * p).sum()))
    if norm == 0.0:
        return SPIN_IMAGES[2].copy()
    unit = p / norm
    return (unit[:, None, None] * np.array(SPIN_IMAGES)).sum(axis=0)


def _old_dirac_system(k):
    """(a_bar, psi_bar, lam) of one momentum, one projector at a time."""
    energy = k.energy
    if energy == 0.0:
        raise ValueError("the momentum operator vanishes at E = 0")
    a_bar = _old_operator(k)
    energy_halves, spin_halves = (
        [_half_projector(m, sign) for sign in (1, -1)]
        for m in (a_bar / energy, _old_spin_operator(k))
    )
    psi = np.empty((4, 4), dtype=complex)
    for j, proj in enumerate(a @ b for a in energy_halves for b in spin_halves):
        col = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
        lead = col[int(np.argmax(np.abs(col)))]
        col = col * (np.conj(lead) / abs(lead))
        psi[:, j] = col / np.sqrt((col.conj() * col).real.sum())
    lam = np.diag([energy, energy, -energy, -energy]).astype(complex)
    return a_bar, psi, lam


def _pin_momenta():
    """p = 0, p = -0.0, tiny and axis-aligned p, and random p, with masses
    from 0 to 5, on both energy branches; E = 0 left out."""
    rng = np.random.default_rng(18)
    momenta = [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (1e-300, 0.0, 0.0),
               (0.0, -5e-324, 0.0), (1e-300, -1e-300, 5e-324), (0.0, 0.0, 2.0), (0.0, -1.5, 0.0),
               (3.0, 0.0, 0.0), (0.0, 0.0, -0.0)]
    momenta += [tuple(rng.normal(size=3) * rng.uniform(0.0, 4.9)) for _ in range(60)]
    out = []
    for p in momenta:
        for mass in (0.0, -0.0, 0.05, 1.0, 2.5, 5.0, float(rng.uniform(0.05, 5.0))):
            for negative in (False, True):
                k = MomentumVector.from_mass_momentum(p, mass, negative_energy=negative)
                if k.energy != 0.0:
                    out.append(k)
    return out


def _rows(momenta):
    return np.array([[k.energy, *k.momentum, k.mass] for k in momenta])


def _bytes(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def test_the_eigensystem_kernel_equals_the_per_momentum_code_byte_for_byte():
    momenta = _pin_momenta()
    got = dirac._eigensystems(_rows(momenta))
    assert all(a.shape == (len(momenta), 4, 4) and a.dtype == complex for a in got)
    for i, k in enumerate(momenta):
        want = _old_dirac_system(k)
        assert _bytes(a[i] for a in got) == _bytes(want), k
        system = dirac_system(k)
        assert _bytes((system.a_bar, system.psi_bar, system.lam)) == _bytes(want), k
        assert _bytes([build_dirac_operator(k)]) == _bytes(want[:1]), k


def test_the_eigensystem_kernel_on_no_rows_and_one_row():
    assert [a.shape for a in dirac._eigensystems(np.zeros((0, 5)))] == [(0, 4, 4)] * 3
    k = MomentumVector.from_mass_momentum((0.3, -1.2, 0.8), 0.7)
    assert _bytes(a[0] for a in dirac._eigensystems(_rows([k]))) == _bytes(_old_dirac_system(k))


def test_the_eigensystem_kernel_raises_at_zero_energy_on_any_row():
    good = MomentumVector.from_mass_momentum((0.3, -1.2, 0.8), 0.7)
    rest = MomentumVector(0.0, (0.0, 0.0, 0.0), 0.0)
    for momenta in ([rest], [good, rest], [good, good, rest, good]):
        with pytest.raises(ValueError, match="vanishes at E = 0"):
            dirac._eigensystems(_rows(momenta))


def test_the_row_guards_are_those_of_order_eigensystem():
    k = MomentumVector.from_mass_momentum((0.5, -1.0, 2.0), 1.0)
    neg = MomentumVector.from_mass_momentum((0.5, -1.0, 2.0), 1.0, negative_energy=True)
    rows = _rows([k, neg, k])
    _, _, lam = dirac._eigensystems(rows)
    dirac._check_ordered(rows[[0, 2], 0], lam[[0, 2]])
    with pytest.raises(ValueError, match="positive-energy branch") as want:
        order_eigensystem(dirac_system(neg))
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        dirac._check_ordered(rows[:, 0], lam)
    for diag in ([1.0, 1.0, 1.0, -1.0], [1.0, math.nan, -1.0, -1.0]):
        fake = DiracSystem(k, np.eye(4), np.eye(4), np.diag(diag))
        with pytest.raises(ArithmeticError, match="doubled") as want:
            order_eigensystem(fake)
        bad = lam.copy()
        bad[1] = fake.lam
        with pytest.raises(ArithmeticError, match=re.escape(str(want.value))):
            dirac._check_ordered(rows[[0, 0, 2], 0], bad)


def test_the_column_parts_of_a_stack_are_each_system_s_own():
    momenta = _pin_momenta()[::7]
    _, psi, lam = dirac._eigensystems(_rows(momenta))
    lam = np.real(np.diagonal(lam, axis1=1, axis2=2))
    amplitudes, grads = dirac._column_parts(psi, lam, _rows(momenta)[:, 1:4])
    assert amplitudes.shape == (len(momenta), 4, 32) and grads.shape == (len(momenta), 4, 5)
    for i, k in enumerate(momenta):
        system = dirac_system(k)
        for index in range(4):
            column = np.zeros((4, 4), dtype=complex)
            column[:, index] = system.psi_bar[:, index]
            want = from_matrix(column).coeffs
            grad = np.array([-float(np.real(system.lam[index, index])), *k.momentum, 0.0])
            assert _bytes([amplitudes[i, index], grads[i, index]]) == _bytes([want, grad])
            field = column_wave(system, index)
            assert _bytes([field(np.full(5, 0.3)).coeffs]) == _bytes(
                [harmonic_field(want, grad)(np.full(5, 0.3)).coeffs]
            )
