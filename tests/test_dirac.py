"""Momentum-space wave operator: solver, ordering, and crosschecks."""

import math

import numpy as np
import pytest

from ga41 import MomentumVector
from ga41.dirac import (
    DiracSystem,
    SPIN_IMAGES,
    build_dirac_operator,
    column_wave,
    dirac_system,
    geometric_matrix_crosscheck,
    order_eigensystem,
)
from ga41.monogenic import reduced_vector_derivative

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
    from ga41 import dirac

    calls = []
    real = dirac._eigencolumns

    def counted(k, a_bar):
        calls.append(k)
        return real(k, a_bar)

    monkeypatch.setattr(dirac, "_eigencolumns", counted)
    k = MomentumVector.from_mass_momentum((0.3, -1.2, 0.8), 0.7)
    system = dirac_system(k)
    assert order_eigensystem(system) is system
    assert calls == [k]


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
