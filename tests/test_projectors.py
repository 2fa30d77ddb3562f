"""Idempotent quadruples, induced projections, and unitary generators."""

from collections import Counter

import numpy as np
import pytest

from ga41 import MomentumVector, Multivector, ONE, e_upper, to_matrix
from ga41 import matrices, projectors
from ga41.dirac import dirac_system, order_eigensystem
from ga41.matrices import from_matrix
from ga41.projectors import (
    COMMUTING_PAIRS,
    IdempotentSet,
    build_e_set,
    build_f_set,
    conjugated_unit_quadruple,
    energy_project,
    expm,
    helicity_project,
    idempotents_to_generators,
    su4_generators,
    validate_idempotent_set,
    verify_su4_generators,
)

N = 32
INV_SQRT3 = 1.0 / np.sqrt(3.0)
INV_SQRT6 = 1.0 / np.sqrt(6.0)


def from_cells(cells):
    coeffs = np.zeros(N)
    for mask, value in cells.items():
        coeffs[mask] = value
    return Multivector(coeffs)


def test_f_set_coefficients_exact():
    q = 0.25
    want = (
        from_cells({0: q, 8: -q, 17: q, 25: q}),
        from_cells({0: q, 8: -q, 17: -q, 25: -q}),
        from_cells({0: q, 8: q, 17: -q, 25: q}),
        from_cells({0: q, 8: q, 17: q, 25: -q}),
    )
    got = build_f_set().elements
    for g, w in zip(got, want):
        assert g == w


def test_e_set_coefficients_exact():
    q = 0.25
    want = (
        from_cells({0: q, 7: -q, 25: -q, 30: -q}),
        from_cells({0: q, 7: -q, 25: q, 30: q}),
        from_cells({0: q, 7: q, 25: q, 30: -q}),
        from_cells({0: q, 7: q, 25: -q, 30: q}),
    )
    got = build_e_set().elements
    for g, w in zip(got, want):
        assert g == w


def test_factor_squares_and_commutation():
    for a, b in ((e_upper(3), e_upper(0, 4)), (e_upper(0, 1, 2), e_upper(0, 3, 4))):
        assert (a * a - ONE).max_abs() == 0.0
        assert (b * b - ONE).max_abs() == 0.0
        assert (a * b - b * a).max_abs() == 0.0


def test_commuting_pairs_are_the_raised_factors():
    want = ((e_upper(3), e_upper(0, 4)), (e_upper(0, 1, 2), e_upper(0, 3, 4)))
    assert COMMUTING_PAIRS == want


def test_both_sets_validate_exactly():
    for build in (build_f_set, build_e_set):
        report = validate_idempotent_set(build(), tol=0.0)
        assert report["ok"]
        assert report["idempotency"] == 0.0
        assert report["orthogonality"] == 0.0
        assert report["completeness"] == 0.0


def test_validate_rejects_broken_set():
    f = build_f_set().elements
    broken = IdempotentSet("broken", (f[0], f[1], f[2], 0.3 * ONE))
    report = validate_idempotent_set(broken, tol=1e-12)
    assert not report["ok"]
    with pytest.raises(ValueError):
        IdempotentSet("short", (f[0], f[1], f[2]))


def test_validate_rejects_a_nan_element():
    # the idempotency sample of f[0] comes first and is finite, so a
    # fold that drops later NaN samples would call this set valid
    f = build_f_set().elements
    report = validate_idempotent_set(
        IdempotentSet("nan", (f[0], f[1] * np.nan, f[2], f[3])), tol=1e-12
    )
    assert not report["ok"]
    for part in ("idempotency", "orthogonality", "completeness"):
        assert np.isnan(report[part]), part


def test_f_images_are_matrix_units():
    images = [to_matrix(f) for f in build_f_set().elements]
    positions = (1, 2, 3, 0)
    for img, pos in zip(images, positions):
        want = np.zeros((4, 4), dtype=complex)
        want[pos, pos] = 1.0
        assert np.array_equal(img, want)


def test_e_images_idempotent_but_not_diagonal():
    images = [to_matrix(el) for el in build_e_set().elements]
    for img in images:
        assert np.max(np.abs(img @ img - img)) <= 1e-15
        off = img - np.diag(np.diag(img))
        assert np.max(np.abs(off)) > 0.1


def test_sets_not_simultaneously_aligned():
    f = to_matrix(build_f_set().elements[0])
    worst = 0.0
    for el in build_e_set().elements:
        m = to_matrix(el)
        worst = max(worst, float(np.max(np.abs(f @ m - m @ f))))
    assert worst > 0.1


def test_energy_projection_splits_spectrum():
    rng = np.random.default_rng(51)
    for _ in range(10):
        mass = float(rng.uniform(0.1, 3.0))
        momentum = tuple(float(q) for q in rng.uniform(-2, 2, 3))
        k = MomentumVector.from_mass_momentum(momentum, mass)
        system = order_eigensystem(dirac_system(k))
        for sign in (1, -1):
            proj = energy_project(system.psi_bar, sign)
            res = np.max(np.abs(system.a_bar @ proj - sign * k.energy * proj))
            assert res <= 1e-10 * max(1.0, k.energy)
        plus = energy_project(system.psi_bar, 1)
        minus = energy_project(system.psi_bar, -1)
        assert np.max(np.abs(plus + minus - system.psi_bar)) <= 1e-15


def test_energy_projection_keeps_column_pairs():
    k = MomentumVector.from_mass_momentum((0.5, -1.0, 0.25), 1.0)
    system = order_eigensystem(dirac_system(k))
    plus = energy_project(system.psi_bar, 1)
    assert np.array_equal(plus[:, :2], system.psi_bar[:, :2])
    assert np.max(np.abs(plus[:, 2:])) == 0.0


def test_helicity_projection_complementary():
    k = MomentumVector.from_mass_momentum((0.0, 0.0, 2.0), 1.0)
    system = order_eigensystem(dirac_system(k))
    up = helicity_project(system.psi_bar, 1)
    down = helicity_project(system.psi_bar, -1)
    assert np.max(np.abs(up + down - system.psi_bar)) <= 1e-15
    with pytest.raises(ValueError):
        helicity_project(system.psi_bar, 0)
    with pytest.raises(ValueError):
        energy_project(system.psi_bar, 2)


def _psi_bar():
    k = MomentumVector.from_mass_momentum((0.5, -1.0, 0.25), 1.0)
    return order_eigensystem(dirac_system(k)).psi_bar


@pytest.mark.parametrize("project", [energy_project, helicity_project])
@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, 2, 0])
def test_projections_take_only_the_integers_plus_and_minus_one(project, sign):
    psi = _psi_bar()
    with pytest.raises(ValueError, match="sign must be"):
        project(psi, sign)


@pytest.mark.parametrize("project", [energy_project, helicity_project])
def test_projections_take_numpy_integer_signs(project):
    psi = _psi_bar()
    assert project(psi, np.int64(-1)).tobytes() == project(psi, -1).tobytes()


def sequential_trace(m):
    total = 0.0 + 0.0j
    for v in np.diag(m):
        total += complex(v)
    return total


def test_generators_count_traceless_self_adjoint():
    gens = su4_generators()
    assert len(gens) == 15
    for g in gens:
        assert sequential_trace(g) == 0.0
        assert np.array_equal(g, g.conj().T)


def test_generator_literals():
    gens = su4_generators()
    first = np.zeros((4, 4), dtype=complex)
    first[0, 1] = first[1, 0] = 1.0
    assert np.array_equal(gens[0], first)
    assert np.array_equal(gens[2], np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex))
    assert np.array_equal(
        gens[7] * np.sqrt(3.0), np.diag([1.0, 1.0, -2.0, 0.0]).astype(complex)
    )
    assert np.array_equal(
        gens[14] * np.sqrt(6.0), np.diag([1.0, 1.0, 1.0, -3.0]).astype(complex)
    )


def test_generator_normalization():
    # tr(g_a g_b) = 2 delta_ab for the standard normalization
    gens = su4_generators()
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            want = 2.0 if i == j else 0.0
            assert abs(np.trace(a @ b) - want) <= 1e-15, (i, j)


def test_expm_against_series_and_eigv_oracle():
    rng = np.random.default_rng(52)
    small = rng.uniform(-0.1, 0.1, (4, 4)) + 1j * rng.uniform(-0.1, 0.1, (4, 4))
    series = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for i in range(1, 30):
        term = term @ small / i
        series = series + term
    assert np.max(np.abs(expm(small) - series)) <= 1e-14
    # hermitian route: exp(iH) = V exp(i diag) V^H
    h = rng.uniform(-2, 2, (4, 4)) + 1j * rng.uniform(-2, 2, (4, 4))
    h = h + h.conj().T
    vals, vecs = np.linalg.eigh(h)
    want = vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T
    assert np.max(np.abs(expm(1j * h) - want)) <= 1e-12
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_exponentials_land_in_unit_determinant_group():
    gens = su4_generators()
    for theta in (0.3, 1.0):
        for g in gens:
            u = expm(1j * theta * g)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-13
            assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_idempotents_to_generators_f_set():
    l3, l8, l15 = idempotents_to_generators(build_f_set())
    assert np.allclose(to_matrix(l3), np.diag([0, 1, -1, 0]), atol=1e-15)
    assert np.allclose(
        to_matrix(l8), np.diag([0, 1, 1, -2]) * INV_SQRT3, atol=1e-15
    )
    assert np.allclose(
        to_matrix(l15), np.diag([-3, 1, 1, 1]) * INV_SQRT6, atol=1e-15
    )


def test_idempotents_to_generators_rejects_invalid():
    f = build_f_set().elements
    broken = IdempotentSet("broken", (f[0], f[1], f[2], f[2]))
    with pytest.raises(ValueError):
        idempotents_to_generators(broken)


def test_idempotents_to_generators_is_its_validation_then_the_generators(monkeypatch):
    quadruple = build_f_set()
    want = projectors._generators(quadruple, 1e-10)
    got = idempotents_to_generators(quadruple)
    assert [g.coeffs.tobytes() for g in got] == [w.coeffs.tobytes() for w in want]
    f = quadruple.elements
    broken = IdempotentSet("broken", (f[0], f[1], f[2], f[2]))
    monkeypatch.setattr(projectors, "_generators", None)  # not reached
    with pytest.raises(ValueError, match="^input is not an idempotent quadruple: "):
        idempotents_to_generators(broken)


def _multivector_generators(s):
    """The generators in Multivector arithmetic, as idempotents_to_generators
    formed them before it took rows."""
    f1, f2, f3, f4 = s.elements
    return f1 - f2, (f1 + f2 - 2.0 * f3) * INV_SQRT3, (f1 + f2 + f3 - 3.0 * f4) * INV_SQRT6


def test_generators_on_rows_are_the_multivector_form_byte_for_byte(monkeypatch):
    rng = np.random.default_rng(61)
    quadruples = [build_f_set(), build_e_set()]
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        quadruples.append(conjugated_unit_quadruple(q))
    wants = [_multivector_generators(s) for s in quadruples]
    # rows only: a Multivector product or sum would raise
    for op in ("__mul__", "__rmul__", "__add__", "__sub__"):
        monkeypatch.setattr(Multivector, op, None)
    for s, want in zip(quadruples, wants):
        got = idempotents_to_generators(s)
        assert [g.coeffs.tobytes() for g in got] == [w.coeffs.tobytes() for w in want]
        assert all(not g.coeffs.flags.writeable for g in got)


def test_the_quadruples_are_built_once():
    fresh = (
        projectors._quadruple("f-set", COMMUTING_PAIRS[0], ((-1, -1), (-1, 1), (1, 1), (1, -1))),
        projectors._quadruple("e-set", COMMUTING_PAIRS[1], ((1, 1), (1, -1), (-1, -1), (-1, 1))),
    )
    for build, want in zip((build_f_set, build_e_set), fresh):
        assert build() is build()
        assert build() == want
        assert all(not x.coeffs.flags.writeable for x in build().elements)


def test_squared_spectrum_patterns():
    for build in (build_f_set, build_e_set):
        l3, l8, l15 = idempotents_to_generators(build())
        patterns = (
            np.array([0.0, 0.0, 1.0, 1.0]),
            np.array([0.0, 1.0, 1.0, 4.0]) / 3.0,
            np.array([1.0, 1.0, 1.0, 9.0]) / 6.0,
        )
        for gen, pattern in zip((l3, l8, l15), patterns):
            m = to_matrix(gen)
            vals = np.sort(np.linalg.eigvalsh(m @ m))
            assert np.max(np.abs(vals - pattern)) <= 1e-10


def test_conjugated_unit_quadruple():
    rng = np.random.default_rng(53)
    raw = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    unitary, _ = np.linalg.qr(raw)
    quadruple = conjugated_unit_quadruple(unitary)
    report = validate_idempotent_set(quadruple, tol=1e-13)
    assert report["ok"]
    l3, l8, l15 = idempotents_to_generators(quadruple)
    vals = np.sort(np.linalg.eigvalsh(to_matrix(l3)))
    assert np.max(np.abs(vals - np.array([-1.0, 0.0, 0.0, 1.0]))) <= 1e-10


def _seeded_unitaries(count):
    rng = np.random.default_rng(59)
    for _ in range(count):
        raw = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        yield np.linalg.qr(raw)[0]


def test_conjugated_unit_quadruple_equals_one_map_per_selector():
    for unitary in _seeded_unitaries(200):
        want = []
        for i in range(4):
            sel = np.zeros((4, 4), dtype=complex)
            sel[i, i] = 1.0
            want.append(from_matrix(unitary @ sel @ unitary.conj().T))
        got = conjugated_unit_quadruple(unitary).elements
        assert [f.coeffs.tobytes() for f in got] == [f.coeffs.tobytes() for f in want]


def test_conjugated_unit_quadruple_maps_its_four_images_in_one_call(monkeypatch):
    calls = Counter()
    real = matrices._from_matrices

    def counted(m):
        calls["_from_matrices", np.shape(m)] += 1
        return real(m)

    def forbidden(m):
        calls["from_matrix"] += 1
        return Multivector._wrap(real(np.asarray(m, dtype=complex)))

    monkeypatch.setattr(projectors, "_from_matrices", counted)
    monkeypatch.setattr(matrices, "_from_matrices", counted)
    monkeypatch.setattr(matrices, "from_matrix", forbidden)
    conjugated_unit_quadruple(next(_seeded_unitaries(1)))
    assert calls == Counter({("_from_matrices", (4, 4, 4)): 1})


def test_conjugated_unit_quadruple_validation():
    with pytest.raises(ValueError):
        conjugated_unit_quadruple(np.eye(3))
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 0.5
    with pytest.raises(ValueError):
        conjugated_unit_quadruple(skew)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (2, 3)])
def test_conjugated_unit_quadruple_rejects_non_finite_entries(bad, where):
    # a NaN unitarity gap compares false against any bound, so the guard
    # states the bound that must hold
    u = np.eye(4, dtype=complex)
    u[where] = bad
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not unitary"):
        conjugated_unit_quadruple(u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_expm_rejects_non_finite_entries(bad):
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        expm(m)


@pytest.mark.parametrize("at", [0, 13, 29])
def test_verify_su4_generators_fails_on_a_nan_determinant(monkeypatch, at):
    # the 30 samples |det exp(i theta g) - 1|, one of them NaN
    calls, real = [], projectors.expm

    def spiked(m):
        out = real(m)
        if m.any():  # not the exp(i 0) of the identity check
            calls.append(m)
            if len(calls) == at + 1:
                return out * np.nan
        return out

    monkeypatch.setattr(projectors, "expm", spiked)
    with np.errstate(invalid="ignore"):
        report = verify_su4_generators()
    assert len(calls) == 30
    assert np.isnan(report["unit_determinant_residual"]) and report["ok"] is False


@pytest.mark.parametrize("cells", ["[0, 0]", "[3, 3]", "every cell"])
def test_a_matrix_that_is_not_finite_gives_a_nan_determinant_residual(monkeypatch, cells):
    # det's pivot search passes over a lone NaN at [0, 0]: det reads 0j,
    # and |det - 1| a finite 1.0, for a matrix that is not finite
    where = {"[0, 0]": (0, 0), "[3, 3]": (3, 3), "every cell": ...}[cells]
    calls, real = [], projectors.expm

    def spiked(m):
        out = real(m)
        if m.any():  # not the exp(i 0) of the identity check
            calls.append(m)
            if len(calls) == 7:
                out = out.copy()
                out[where] = np.nan
        return out

    monkeypatch.setattr(projectors, "expm", spiked)
    with np.errstate(invalid="ignore"):
        report = verify_su4_generators()
    assert len(calls) == 30
    assert np.isnan(report["unit_determinant_residual"]) and report["ok"] is False


@pytest.mark.parametrize("at", range(4))
def test_verify_su4_generators_fails_on_a_nan_forward_relation(monkeypatch, at):
    real = projectors._idempotents

    def spiked(*args):
        out = [x.copy() for x in real(*args)]
        out[at][3 - at, at] = np.nan
        return out

    monkeypatch.setattr(projectors, "_idempotents", spiked)
    report = verify_su4_generators()
    assert np.isnan(report["forward_relations_residual"]) and report["ok"] is False


def test_verify_report_all_green():
    report = verify_su4_generators()
    assert report["traceless_exact"] is True
    assert report["self_adjoint_exact"] is True
    assert report["exp_zero_is_identity"] is True
    assert report["unit_determinant_residual"] <= 1e-12
    assert report["f_images_are_diagonal_units"] is True
    assert report["backward_relations_exact"] is True
    assert report["forward_relations_residual"] <= 1e-14
    assert report["ok"] is True
