"""Plane waves, derivative operators, polynomial solutions, wavepackets."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ga41 import MomentumVector, MultivectorField, Multivector, ONE, e, plane_wave
from ga41.algebra import PSEUDOSCALAR
from ga41.dirac import column_wave, dirac_system, order_eigensystem
from ga41.frames import GaugeField, build_frame, covariant_derivative, gauge_transform
from ga41 import monogenic
from ga41.algebra import N_BLADES
from ga41.monogenic import (
    FLAGGED_MASKS,
    harmonic_field,
    laplacian,
    monogenic_polynomials_3d,
    plane_wave_variant,
    reduced_vector_derivative,
    separable_wavepacket,
    vector_derivative,
)


def random_null(rng):
    mass = float(rng.uniform(0.1, 5.0))
    momentum = tuple(float(q) for q in rng.uniform(-3, 3, 3))
    return MomentumVector.from_mass_momentum(momentum, mass)


def random_points(rng, count):
    return [rng.uniform(-2, 2, 5) for _ in range(count)]


def test_momentum_vector_validation():
    k = MomentumVector(5.0, (3.0, 0.0, 0.0), 4.0)
    assert k.null_gap == 0.0
    with pytest.raises(ValueError):
        MomentumVector(5.0, (3.0, 0.0, 0.0), 3.0)
    with pytest.raises(ValueError):
        MomentumVector(5.0, (3.0, 0.0), 4.0)
    with pytest.raises(ValueError):
        MomentumVector(5.0, (3.0, 0.0, 0.0), -4.0)
    # a string is not read as digits, and neither a bool nor a numeric
    # string passes as a number; numpy scalars do
    for bad in [(3.0, "122", 0.0), ("5", (3.0, 0.0, 0.0), 4.0), (5.0, (3.0, 0.0, 0.0), "4"),
                (True, (0.0, 0.0, 0.0), 1.0), (5.0, (3.0, False, 0.0), 4.0), (5.0, 3.0, 4.0)]:
        with pytest.raises(ValueError):
            MomentumVector(*bad)
    for bad in [("300", 4.0), ((3.0, 0.0, 0.0), "4"), ((3.0, 0.0, 0.0), True), (3.0, 4.0),
                ((True, 0.0, 0.0), 1.0)]:
        with pytest.raises(ValueError):
            MomentumVector.from_mass_momentum(*bad)
    assert MomentumVector(np.float32(5.0), np.array([3, 0, 0]), np.int64(4)) == k
    assert MomentumVector.from_mass_momentum(np.array([3.0, 0.0, 0.0]), np.float64(4.0)) == k


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=5, max_size=5),
    st.integers(0, 4),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_momentum_vector_rejects_non_finite(values, index, bad):
    values[index] = bad
    energy, p1, p2, p3, mass = values
    with pytest.raises(ValueError, match="finite"):
        MomentumVector(energy, (p1, p2, p3), mass)
    if index > 0:
        with pytest.raises(ValueError, match="finite"):
            MomentumVector.from_mass_momentum((p1, p2, p3), mass)


def test_from_mass_momentum_branches():
    k = MomentumVector.from_mass_momentum((3.0, 0.0, 0.0), 4.0)
    assert k.energy == 5.0
    neg = MomentumVector.from_mass_momentum((3.0, 0.0, 0.0), 4.0, negative_energy=True)
    assert neg.energy == -5.0
    assert neg.null_gap == 0.0


def test_momentum_vector_and_amplitude_link():
    k = MomentumVector(5.0, (3.0, 0.0, 0.0), 4.0)
    u = k.vector
    assert (u - (5.0 * e(0) + 3.0 * e(1) + 4.0 * e(4))).max_abs() == 0.0
    assert (u * u).max_abs() == 0.0
    assert (k.amplitude - u * (-1.0 * e(0))).max_abs() == 0.0
    # the momentum vector annihilates its own amplitude
    assert (u * k.amplitude).max_abs() == 0.0


def test_amplitude_annihilation_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = random_null(rng)
        res = (k.vector * k.amplitude).max_abs()
        assert res <= 1e-13 * max(1.0, k.energy**2)


def test_plane_wave_value_and_phase():
    k = MomentumVector(5.0, (3.0, 0.0, 0.0), 4.0)
    wave = plane_wave(k)
    assert (wave(np.zeros(5)) - k.amplitude).max_abs() == 0.0
    x = np.array([0.2, -0.1, 0.3, 0.0, 0.5])
    ph = float(k.phase_gradient @ x)
    want = k.amplitude * math.cos(ph) + k.amplitude * PSEUDOSCALAR * math.sin(ph)
    assert (wave(x) - want).max_abs() <= 1e-15


def test_plane_wave_monogenic_analytic():
    rng = np.random.default_rng(32)
    for _ in range(15):
        k = random_null(rng)
        wave = plane_wave(k)
        for x in random_points(rng, 3):
            res = vector_derivative(wave, x).max_abs()
            assert res <= 1e-12 * max(1.0, k.energy**2)


def test_plane_wave_monogenic_finite_difference_order():
    k = MomentumVector.from_mass_momentum((1.0, -2.0, 0.5), 1.5)
    wave = plane_wave(k)
    x = np.array([0.3, 0.1, -0.4, 0.2, 0.6])
    r1 = vector_derivative(wave, x, h=1e-2).max_abs()
    r2 = vector_derivative(wave, x, h=5e-3).max_abs()
    order = math.log2(r1 / r2)
    assert order >= 1.9


def test_vector_derivative_index_split():
    k = MomentumVector.from_mass_momentum((0.5, 1.0, -1.0), 2.0)
    wave = plane_wave(k)
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    spatial = vector_derivative(wave, x, indices=(1, 2, 3))
    rest = vector_derivative(wave, x, indices=(0, 4))
    total = vector_derivative(wave, x)
    assert (spatial + rest - total).max_abs() <= 1e-15
    assert total.max_abs() <= 1e-13


def test_vector_derivative_validation():
    k = MomentumVector.from_mass_momentum((1.0, 0.0, 0.0), 1.0)
    wave = plane_wave(k)
    bare = MultivectorField(wave.value)
    with pytest.raises(ValueError):
        vector_derivative(bare, np.zeros(5))
    with pytest.raises(ValueError):
        vector_derivative(wave, np.zeros(5), h=0.0)
    with pytest.raises(ValueError):
        laplacian(wave, np.zeros(5), h=-1.0)


#: steps that are not finite and positive: zero, negative, NaN, infinite
bad_steps = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf]))


@settings(max_examples=60, deadline=None)
@given(bad_steps, st.booleans())
def test_step_must_be_finite_and_positive(h, richardson):
    wave = plane_wave(MomentumVector.from_mass_momentum((1.0, 0.0, 0.0), 1.0))
    x = np.zeros(5)
    with pytest.raises(ValueError, match="finite and positive"):
        vector_derivative(wave, x, h=h)
    with pytest.raises(ValueError, match="finite and positive"):
        vector_derivative(wave, x, h=h, indices=(1, 2, 3))
    with pytest.raises(ValueError, match="finite and positive"):
        laplacian(wave, x, h=h, richardson=richardson)


#: steps that are not real numbers, or are bools: True ran as h = 1.0, and
#: a string or a complex step raised a bare TypeError from the comparison
@pytest.mark.parametrize("h", [True, False, np.True_, "0.001", 1e-3 + 0j, np.complex128(1e-3)])
def test_step_must_be_a_real_number_and_not_a_bool(h):
    wave = plane_wave(MomentumVector.from_mass_momentum((1.0, 0.0, 0.0), 1.0))
    gauge = GaugeField(potential=(0.0, 0.0, 0.0, 0.0), charge=1.0, mass=1.0, phase=lambda y: 0.0)
    x = np.zeros(5)
    calls = (
        lambda: vector_derivative(wave, x, h=h),
        lambda: vector_derivative(wave, x, h=h, indices=(4, 0)),
        lambda: reduced_vector_derivative(wave, x, 1.0, h=h),
        lambda: laplacian(wave, x, h=h),
        lambda: laplacian(wave, x, h=h, richardson=True),
        lambda: gauge.phase_gradient_at(x, h=h),
    )
    for call in calls:
        with pytest.raises(ValueError, match="step h must be finite and positive"):
            call()


@pytest.mark.parametrize("h", [np.float64(0.25), np.float32(0.25), 1, np.int64(1)])
def test_real_steps_of_any_numeric_type_are_taken(h):
    wave = plane_wave(MomentumVector.from_mass_momentum((1.0, 0.5, 0.0), 1.0))
    x = np.array([0.1, -0.2, 0.3, 0.4, -0.5])
    want = vector_derivative(wave, x, h=float(h))
    assert _same_bits(vector_derivative(wave, x, h=h), want)
    assert _same_bits(laplacian(wave, x, h=h, richardson=True), laplacian(wave, x, h=float(h), richardson=True))


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf, [[1.0], [math.nan]]])
def test_reduced_vector_derivative_rejects_a_non_finite_mass(mass):
    # a family of two waves at points (2, 3, 5), one mass per wave
    k = MomentumVector.from_mass_momentum((0.5, 0.0, 1.0), 1.0)
    waves = harmonic_field(np.array([k.amplitude.coeffs] * 2), np.array([k.phase_gradient] * 2))
    x = np.zeros((2, 3, 5))
    with pytest.raises(ValueError, match="mass must be finite"):
        reduced_vector_derivative(waves, x, mass)
    with pytest.raises(ValueError, match="mass must be finite"):
        reduced_vector_derivative(waves, x, mass, h=1e-3)


def test_momentum_vector_rejects_squares_that_overflow():
    with pytest.raises(ValueError, match="too large"):
        MomentumVector(1e200, (0.0, 0.0, 0.0), 1e200)
    with pytest.raises(ValueError, match="too large"):
        MomentumVector.from_mass_momentum((0.0, 0.0, 0.0), 1e200)
    with pytest.raises(ValueError):
        MomentumVector(1.0, (1e200, 0.0, 0.0), 0.0)


def test_laplacian_annihilates_plane_wave():
    rng = np.random.default_rng(33)
    for _ in range(5):
        k = random_null(rng)
        wave = plane_wave(k)
        x = rng.uniform(-1, 1, 5)
        scale = max(1.0, k.energy**2) * max(1.0, k.energy)
        plain = laplacian(wave, x, h=1e-3).max_abs()
        refined = laplacian(wave, x, h=1e-3, richardson=True).max_abs()
        assert refined <= 1e-6 * scale
        assert refined <= plain


def test_laplacian_nonnull_identity():
    # for a non-null gradient g the operator returns (sum_a eta^aa g_a^2)
    # times the field with a sign flip, i.e. -(E^2 - p^2 - m^2) F
    amp = 2.0 * ONE + e(0, 1)
    grad = np.array([1.0, 2.0, 0.0, 0.0, 0.5])
    gap = grad[0] ** 2 - float(grad[1:] @ grad[1:])
    field = harmonic_field(amp, grad)
    x = np.array([0.3, -0.2, 0.1, 0.0, 0.4])
    got = laplacian(field, x, h=1e-3, richardson=True)
    want = field(x) * gap
    assert (got - want).max_abs() <= 1e-7


def test_phase_sign_exclusivity_moving():
    k = MomentumVector.from_mass_momentum((2.0, 1.0, 0.0), 1.0)
    x = np.array([0.2, 0.4, -0.3, 0.1, 0.0])
    scale = k.energy**2
    good = plane_wave_variant(k, 1, 1)
    assert vector_derivative(good, x).max_abs() <= 1e-12 * scale
    for ts, ms in ((-1, 1), (1, -1), (-1, -1)):
        bad = plane_wave_variant(k, ts, ms)
        assert vector_derivative(bad, x).max_abs() > 0.1 * scale


def test_phase_sign_exclusivity_at_rest():
    # with no spatial momentum the doubly flipped wave is annihilated too
    k = MomentumVector.from_mass_momentum((0.0, 0.0, 0.0), 2.0)
    x = np.array([0.3, 0.1, 0.2, -0.2, 0.5])
    scale = k.energy**2
    double = plane_wave_variant(k, -1, -1)
    assert vector_derivative(double, x).max_abs() <= 1e-12 * scale
    for ts, ms in ((-1, 1), (1, -1)):
        bad = plane_wave_variant(k, ts, ms)
        assert vector_derivative(bad, x).max_abs() > 0.1 * scale


@pytest.mark.parametrize("which", ["time_sign", "mass_sign"])
@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, 2, 0, 3, 0.5])
def test_plane_wave_variant_takes_only_the_integers_plus_and_minus_one(which, sign):
    k = MomentumVector.from_mass_momentum((1.0, 0.5, -0.3), 1.2)
    with pytest.raises(ValueError, match=f"^{which} must be"):
        plane_wave_variant(k, **{which: sign})


@pytest.mark.parametrize("which", ["time_sign", "mass_sign"])
def test_plane_wave_variant_takes_numpy_integer_signs(which):
    k = MomentumVector.from_mass_momentum((1.0, 0.5, -0.3), 1.2)
    x = np.array([0.2, 0.4, -0.3, 0.1, 0.5])
    got = plane_wave_variant(k, **{which: np.int64(-1)})(x)
    assert got.coeffs.tobytes() == plane_wave_variant(k, **{which: -1})(x).coeffs.tobytes()


def test_reduced_vector_derivative_matches_full():
    k = MomentumVector.from_mass_momentum((1.0, 1.0, 1.0), 2.5)
    wave = plane_wave(k)
    x = np.array([0.1, -0.5, 0.2, 0.3, 0.4])
    reduced = reduced_vector_derivative(wave, x, k.mass)
    full = vector_derivative(wave, x)
    assert (reduced - full).max_abs() <= 1e-13 * k.energy**2
    wrong = reduced_vector_derivative(wave, x, k.mass + 1.0)
    assert wrong.max_abs() > 0.5


def test_harmonic_field_validation():
    with pytest.raises(ValueError):
        harmonic_field(ONE, np.zeros(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", range(5))
def test_harmonic_field_rejects_a_non_finite_phase_gradient(bad, axis):
    grad = [0.5, 1.0, 0.0, 0.0, 1.0]
    grad[axis] = bad
    with pytest.raises(ValueError, match="finite"):
        harmonic_field(ONE, grad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_harmonic_field_rejects_a_non_finite_amplitude(bad):
    for blade in (0, 0b10001):  # the scalar and the e04 coefficient
        coeffs = ONE.coeffs.copy()
        coeffs[blade] = bad
        with pytest.raises(ValueError, match="finite"):
            harmonic_field(Multivector(coeffs), (1.0, 1.0, 0.0, 0.0, 0.0))


def test_polynomial_dimensions_and_flags():
    dims = {0: 4, 1: 8, 2: 12, 3: 16}
    for degree, dim in dims.items():
        fields = monogenic_polynomials_3d(degree)
        assert len(fields) == dim
        flags = [f.flagged for f in fields]
        assert flags[:2] == [True, True]
        assert not any(flags[2:])
        assert all(f.degree == degree for f in fields)
    with pytest.raises(ValueError):
        monogenic_polynomials_3d(4)
    with pytest.raises(ValueError):
        monogenic_polynomials_3d(-1)


def test_polynomial_fields_are_monogenic():
    rng = np.random.default_rng(34)
    points = random_points(rng, 4)
    for degree in (1, 2, 3):
        for field in monogenic_polynomials_3d(degree):
            for x in points:
                scale = max(1.0, field(x).max_abs())
                assert vector_derivative(field, x).max_abs() <= 1e-12 * scale
                numeric = vector_derivative(field, x, h=1e-5, indices=(1, 2, 3))
                assert numeric.max_abs() <= 1e-9 * scale


def test_flagged_fields_stay_in_two_cells():
    rng = np.random.default_rng(35)
    for degree in (1, 2, 3):
        fields = monogenic_polynomials_3d(degree)
        for f in fields[:2]:
            for x in random_points(rng, 3):
                v = f(x)
                live = set(np.nonzero(v.coeffs)[0])
                assert live <= set(FLAGGED_MASKS)


def test_flagged_degree_one_basis_is_planar_pair():
    a, b = monogenic_polynomials_3d(1)[:2]
    # no dependence on the third spatial axis
    p = np.array([0.0, 0.7, -0.4, 0.0, 0.0])
    q = np.array([0.0, 0.7, -0.4, 2.0, 0.0])
    assert (a(p) - a(q)).max_abs() == 0.0
    assert (b(p) - b(q)).max_abs() == 0.0
    # linearly independent pair of (scalar, e12) valued solutions
    m = np.array(
        [
            [a(np.array([0, 1.0, 0, 0, 0])).coeffs[i] for i in FLAGGED_MASKS]
            + [a(np.array([0, 0, 1.0, 0, 0])).coeffs[i] for i in FLAGGED_MASKS],
            [b(np.array([0, 1.0, 0, 0, 0])).coeffs[i] for i in FLAGGED_MASKS]
            + [b(np.array([0, 0, 1.0, 0, 0])).coeffs[i] for i in FLAGGED_MASKS],
        ]
    )
    assert np.linalg.matrix_rank(m) == 2


def test_polynomial_basis_deterministic():
    first = monogenic_polynomials_3d(2)
    second = monogenic_polynomials_3d(2)
    x = np.array([0.0, 1.3, -0.7, 0.4, 0.0])
    for f, g in zip(first, second):
        assert (f(x) - g(x)).max_abs() == 0.0


def test_separable_wavepacket_monogenic():
    rng = np.random.default_rng(36)
    spatial = monogenic_polynomials_3d(2)[0]
    packet = separable_wavepacket(spatial, (2.0, 2.0))
    for x in random_points(rng, 4):
        scale = max(1.0, packet(x).max_abs())
        assert vector_derivative(packet, x).max_abs() <= 1e-12 * scale
        assert vector_derivative(packet, x, h=1e-4).max_abs() <= 1e-9 * scale


def test_separable_wavepacket_constant_factor():
    fields = monogenic_polynomials_3d(0)
    constant = next(
        f for f in fields if (f(np.zeros(5)) - ONE).max_abs() == 0.0
    )
    packet = separable_wavepacket(constant, (1.5, 1.5))
    reference = harmonic_field(
        1.5 * ONE + 1.5 * e(0, 4), np.array([-1.5, 0, 0, 0, 1.5])
    )
    x = np.array([0.4, 0.1, 0.2, 0.3, -0.6])
    assert (packet(x) - reference(x)).max_abs() == 0.0


def test_separable_wavepacket_negative_control():
    # a spatial factor outside the solution space must leave a residual
    bad = MultivectorField(
        lambda x: float(x[1]) * ONE,
        lambda x, axis: ONE if axis == 1 else Multivector.from_scalar(0.0),
    )
    packet = separable_wavepacket(bad, (1.0, 1.0))
    x = np.array([0.2, 0.5, -0.1, 0.3, 0.0])
    assert vector_derivative(packet, x).max_abs() > 0.1


def test_separable_wavepacket_validation():
    spatial = monogenic_polynomials_3d(1)[0]
    with pytest.raises(ValueError):
        separable_wavepacket(spatial, (2.0, 1.0))
    odd = MultivectorField(lambda x: e(1))
    with pytest.raises(ValueError):
        separable_wavepacket(odd, (1.0, 1.0))


def test_degree_zero_basis_is_the_even_blades():
    fields = monogenic_polynomials_3d(0)
    x = np.array([0.4, -0.8, 0.5, 0.3, -0.1])
    want = (ONE, e(1, 2), e(1, 3), e(2, 3))
    assert [f(x) for f in fields] == list(want)
    assert [f.flagged for f in fields] == [True, True, False, False]


_ON_SHELL_SCALAR = monogenic_polynomials_3d(0)[0]


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(-5, 5)),
        st.tuples(st.floats(-5, 5), st.sampled_from([math.nan, math.inf, -math.inf])),
        st.floats(min_value=1e155, max_value=1e300).map(lambda v: (v, v)),
    ).flatmap(st.permutations)
)
def test_separable_wavepacket_rejects_non_finite(k):
    # NaN and inf - inf used to slip past the E^2 = m^2 guard, and so did
    # an E^2 that overflows to inf
    with pytest.raises(ValueError):
        separable_wavepacket(_ON_SHELL_SCALAR, tuple(k))


# -- batched evaluation ------------------------------------------------


def _fields_of_every_builder():
    k = MomentumVector.from_mass_momentum((0.7, -1.2, 0.4), 1.3)
    fields = {
        "plane": plane_wave(k),
        "column": column_wave(order_eigensystem(dirac_system(k)), 2),
        "packet": separable_wavepacket(monogenic_polynomials_3d(3)[0], (1.5, -1.5)),
    }
    for degree in range(4):
        for i, f in enumerate(monogenic_polynomials_3d(degree)):
            fields[f"polynomial {degree}.{i}"] = f
    gauge = GaugeField(
        (0.3, -0.1, 0.2, 0.5), charge=1.0, mass=1.0,
        phase=lambda x: 0.4 * x[0] + math.sin(x[2]),
    )
    fields["gauge-transformed"] = gauge_transform(fields["packet"], gauge)[0]
    return fields


_EVERY_BUILDER = _fields_of_every_builder()


def _bits(rows):
    return [np.asarray(row, dtype=float).tobytes() for row in rows]


def _same_bits(a: Multivector, b: Multivector) -> bool:
    return a.coeffs.tobytes() == b.coeffs.tobytes()


@pytest.mark.parametrize("name", list(_EVERY_BUILDER))
def test_value_is_the_row_of_a_batched_call(name):
    field = _EVERY_BUILDER[name]
    points = np.random.default_rng(41).uniform(-2, 2, (12, 5))
    rows = field._rows(points)
    assert rows.shape == (12, 32)
    assert _bits(rows) == _bits(field.value(x).coeffs for x in points)
    assert _bits(rows) == _bits(field(x).coeffs for x in points)
    # a row does not depend on the batch it sits in
    assert _bits(field._rows(points[3:8])) == _bits(rows[3:8])
    partials = field._partials(points)
    assert partials.shape == (12, 5, 32)
    for x, row in zip(points, partials):
        assert _bits(row) == _bits(field.derivative(x, a).coeffs for a in range(5))
    assert _bits(field._partials(points[3:8]).reshape(-1, 32)) == _bits(
        partials[3:8].reshape(-1, 32)
    )


@pytest.mark.parametrize("name", list(_EVERY_BUILDER))
def test_bare_callables_match_the_built_field(name):
    field = _EVERY_BUILDER[name]
    bare = MultivectorField(field.value, field.derivative)
    frame = build_frame(np.eye(5) + 0.1 * np.arange(25.0).reshape(5, 5) / 25.0)
    for x in random_points(np.random.default_rng(43), 3):
        for indices in ((0, 1, 2, 3, 4), (1, 2, 3), (4,)):
            assert _same_bits(
                vector_derivative(bare, x, indices=indices),
                vector_derivative(field, x, indices=indices),
            )
        assert _same_bits(covariant_derivative(bare, frame, x), covariant_derivative(field, frame, x))


@pytest.mark.parametrize("build", ["packet", "gauge-transformed"])
def test_products_over_a_base_without_derivative_need_a_step(build):
    gauge = GaugeField((0.0, 0.0, 0.0, 0.0), charge=1.0, mass=1.0, phase=lambda x: x[1])
    if build == "packet":
        make = lambda base: separable_wavepacket(base, (1.0, 1.0))
    else:
        make = lambda base: gauge_transform(base, gauge)[0]
    field = make(MultivectorField(_ON_SHELL_SCALAR.value))
    assert field.derivative is None
    x = np.array([0.3, -0.7, 0.2, 0.5, -0.4])
    with pytest.raises(ValueError, match="no analytic derivative"):
        vector_derivative(field, x)
    want = vector_derivative(make(_ON_SHELL_SCALAR), x, h=1e-3)
    assert _same_bits(vector_derivative(field, x, h=1e-3), want)


def test_bare_point_callable_matches_the_batched_field():
    wave = plane_wave(MomentumVector.from_mass_momentum((1.0, -0.5, 2.0), 0.8))
    bare = MultivectorField(wave.value)
    for x in random_points(np.random.default_rng(42), 4):
        for h, richardson in ((1e-3, False), (1e-3, True), (0.05, True)):
            assert _same_bits(
                laplacian(bare, x, h=h, richardson=richardson),
                laplacian(wave, x, h=h, richardson=richardson),
            )
        for h in (1e-3, 1e-5):
            assert _same_bits(vector_derivative(bare, x, h=h), vector_derivative(wave, x, h=h))


def _counted(field):
    """The field with its batched evaluators counting their calls (the row
    counts of the points they get)."""
    calls, derivs = [], []

    def rows(xs):
        calls.append(len(xs))
        return field._rows(xs)

    def partials(xs):
        derivs.append(len(xs))
        return field._partials(xs)

    return dataclasses.replace(field, _rows=rows, _partials=partials), calls, derivs


def test_each_stencil_is_one_batched_call():
    wave = plane_wave(MomentumVector.from_mass_momentum((0.5, 1.0, -1.0), 2.0))
    counted, calls, derivs = _counted(wave)
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    got = laplacian(counted, x, h=1e-3, richardson=True)
    assert calls == [21]  # the centre and ten neighbours at each of h and h/2
    assert _same_bits(got, laplacian(wave, x, h=1e-3, richardson=True))
    calls.clear()
    assert _same_bits(vector_derivative(counted, x, h=1e-3), vector_derivative(wave, x, h=1e-3))
    assert calls == [10]
    calls.clear()
    assert _same_bits(vector_derivative(counted, x), vector_derivative(wave, x))
    assert (calls, derivs) == ([], [1])


def test_a_stencil_evaluates_only_the_requested_axes():
    wave = plane_wave(MomentumVector.from_mass_momentum((0.5, 1.0, -1.0), 2.0))
    counted, calls, derivs = _counted(wave)
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    spatial = vector_derivative(counted, x, h=1e-3, indices=(1, 2, 3))
    assert _same_bits(spatial, vector_derivative(wave, x, h=1e-3, indices=(1, 2, 3)))
    assert calls == [6]
    calls.clear()
    reduced = reduced_vector_derivative(counted, x, 2.0, h=1e-3)
    assert _same_bits(reduced, reduced_vector_derivative(wave, x, 2.0, h=1e-3))
    # the eight stencil points, then the value at x for the mass term
    assert (calls, derivs) == ([8, 1], [])


@settings(max_examples=30, deadline=None)
@given(st.one_of(bad_steps, st.sampled_from([None, True]), st.floats(1e-6, 1.0)))
def test_empty_index_set_evaluates_nothing(h):
    # a good step, or none, gives zeros without a field call; a bad step
    # raises as it does for every other index set
    wave = plane_wave(MomentumVector.from_mass_momentum((1.0, 0.0, 0.0), 1.0))
    counted, calls, derivs = _counted(wave)
    if h is None or 0.0 < h < math.inf and not isinstance(h, bool):
        got = vector_derivative(counted, np.zeros(5), h=h, indices=())
        assert got.max_abs() == 0.0
    else:
        for indices in ((), (0,)):
            with pytest.raises(ValueError, match="finite and positive"):
                vector_derivative(counted, np.zeros(5), h=h, indices=indices)
        with pytest.raises(ValueError, match="finite and positive"):
            laplacian(counted, np.zeros(5), h=h, richardson=True)
    assert (calls, derivs) == ([], [])


def _fueter_rows(degree, points, constants_on_right=True):
    """One row per Fueter-variable polynomial, its values at the points:
    the symmetrised product of k factors z2 = x2 - x1 e12 and degree - k
    factors z3 = x3 - x1 e13, times 1, e12, e13 or e23 on the right.  Both
    variables are annihilated by d1 + e12 d2 + e13 d3, which is e1 times
    the spatial vector derivative, and so is such a product."""
    rows = []
    for k in range(degree + 1):
        for const in (ONE, e(1, 2), e(1, 3), e(2, 3)):
            values = []
            for x in points:
                z2, z3 = x[2] * ONE - x[1] * e(1, 2), x[3] * ONE - x[1] * e(1, 3)
                sym = Multivector.from_scalar(0.0)
                for spots in itertools.combinations(range(degree), k):
                    term = ONE
                    for i in range(degree):
                        term = term * (z2 if i in spots else z3)
                    sym = sym + term
                values.append(sym * const if constants_on_right else const * sym)
            rows.append(np.concatenate([v.coeffs for v in values]))
    return np.array(rows)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_fueter_variables_span_the_polynomial_basis(degree):
    # an independent closed form of the same space (Malonek 1990): equal
    # spans, 4 (d + 1) real dimensions, although the bases differ
    points = np.random.default_rng(degree).uniform(-1.0, 1.0, (40, 5))
    oracle = _fueter_rows(degree, points)
    basis = np.array(
        [np.concatenate([f(x).coeffs for x in points]) for f in monogenic_polynomials_3d(degree)]
    )
    rank = np.linalg.matrix_rank
    assert rank(oracle) == rank(basis) == rank(np.vstack([oracle, basis])) == 4 * (degree + 1)


def test_separable_wavepacket_takes_exactly_energy_and_mass():
    spatial = monogenic_polynomials_3d(1)[0]
    for k in ((1.0, 1.0, 99.0), (2.0,), (), 1.0, "11", [[1.0, 1.0]]):
        with pytest.raises(ValueError, match=r"\(E, m\)"):
            separable_wavepacket(spatial, k)
    assert separable_wavepacket(spatial, np.array([1.0, 1.0])) is not None


# -- momenta as rows: one kernel call against the one-momentum constructors


def _libm_squares_that_differ(count=6):
    """Masses in [0.05, 5] whose Python square m**2 (libm pow) is not m * m,
    which the momenta take."""
    draws = np.random.default_rng(19).uniform(0.05, 5.0, 50_000).tolist()
    found = [m for m in draws if m**2 != m * m]
    assert len(found) >= count
    return found[:count]


def _kernel_momenta():
    rng = np.random.default_rng(20)
    momenta = [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (1e-300, 0.0, -5e-324),
               (0.0, 0.0, 2.0), (-3.0, -0.0, 0.0), (-1.0, -2.0, -2.0)]
    momenta += [tuple(rng.normal(size=3) * rng.uniform(0.0, 4.9)) for _ in range(30)]
    masses = [0.0, -0.0, 1e-300, 0.05, 1.0, 5.0, *_libm_squares_that_differ()]
    return [(p, m) for p in momenta for m in masses]


def test_momentum_rows_equal_the_one_momentum_values_byte_for_byte():
    pairs = _kernel_momenta()
    rows, amplitudes, grads = monogenic._momentum_rows(
        np.array([p for p, _ in pairs]), np.array([m for _, m in pairs])
    )
    assert rows.shape == (len(pairs), 5) and amplitudes.shape == (len(pairs), N_BLADES)
    for i, (p, m) in enumerate(pairs):
        k = MomentumVector.from_mass_momentum(p, m)
        assert rows[i].tobytes() == np.array([k.energy, *k.momentum, k.mass]).tobytes(), (p, m)
        assert amplitudes[i].tobytes() == k.amplitude.coeffs.tobytes(), (p, m)
        assert grads[i].tobytes() == k.phase_gradient.tobytes(), (p, m)
        # the one-momentum arithmetic: squares x * x summed in index order,
        # and the numbers written into a zero row
        want = np.array([math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + m * m), *p, m])
        amplitude = np.zeros(N_BLADES)
        amplitude[monogenic._AMPLITUDE_LAYOUT] = want
        assert rows[i].tobytes() == want.tobytes(), (p, m)
        assert amplitudes[i].tobytes() == amplitude.tobytes(), (p, m)


@pytest.mark.parametrize(
    "p, m",
    [
        ((math.nan, 0.0, 0.0), 1.0),
        ((0.0, math.inf, 0.0), 1.0),
        ((1e200, 0.0, 0.0), 1.0),
        ((0.0, 0.0, 0.0), -1.0),
        ((0.0, 0.0, 0.0), math.nan),
        ((1.0, 0.0, 0.0), 1e200),
    ],
)
def test_momentum_rows_reject_what_the_constructor_rejects(p, m):
    with pytest.raises(ValueError) as want:
        MomentumVector.from_mass_momentum(p, m)
    good = ((0.3, -1.2, 0.8), 0.7)
    with pytest.raises(ValueError) as got:
        monogenic._momentum_rows(np.array([good[0], p, good[0]]), np.array([good[1], m, good[1]]))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("negative_energy", [False, True])
def test_from_mass_momentum_checks_its_row_once(monkeypatch, negative_energy):
    checked = []
    real = monogenic._checked_momenta
    monkeypatch.setattr(
        monogenic, "_checked_momenta", lambda rows, *rest: checked.append(rows.shape) or real(rows, *rest)
    )
    p, m = (0.4, -1.1, 0.9), 0.6
    k = MomentumVector.from_mass_momentum(p, m, negative_energy)
    assert checked == [(1, 5)]
    energy = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + m * m)
    want = -energy if negative_energy else energy
    assert type(k.energy) is float and k.energy.hex() == want.hex()
    assert k.momentum == p and type(k.mass) is float and k.mass == m
    # the constructor checks what it is given, once
    assert MomentumVector(k.energy, k.momentum, k.mass) == k
    assert checked == [(1, 5), (1, 5)]


@pytest.mark.parametrize(
    "row",
    [
        (5.0, 3.0, 0.0, 0.0, 3.0),
        (5.0, 3.0, 0.0, 0.0, -4.0),
        (1e200, 0.0, 0.0, 0.0, 1.0),
        (1.0, 1e200, 0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0, 0.0, math.inf),
    ],
)
def test_checked_momenta_give_the_constructor_s_message(row):
    with pytest.raises(ValueError) as want:
        MomentumVector(row[0], row[1:4], row[4])
    rows = np.array([(5.0, 3.0, 0.0, 0.0, 4.0), row])
    with pytest.raises(ValueError) as got:
        monogenic._checked_momenta(rows)
    assert str(got.value) == str(want.value)
    good = rows[:1]
    assert monogenic._checked_momenta(good) is good
