"""Field operators over point arrays.

Each operator takes one point (5,) to a Multivector and points (..., 5)
to coefficient rows (..., 32).  Each row must equal the one-point call
at its point bit for bit, for every kind of field, and a family of waves
must evaluate wave i at its own row of points exactly as wave i alone.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ga41 import ONE, MomentumVector, Multivector, MultivectorField, monogenic, plane_wave
from ga41.dirac import column_wave, dirac_system, order_eigensystem
from ga41.frames import GaugeField, build_frame, covariant_derivative, em_frame, gauge_transform
from ga41.monogenic import (
    harmonic_field,
    laplacian,
    monogenic_polynomials_3d,
    reduced_vector_derivative,
    separable_wavepacket,
    vector_derivative,
)

_K = MomentumVector.from_mass_momentum((0.7, -1.2, 0.4), 1.3)
_GAUGE = GaugeField(
    (0.3, -0.1, 0.2, 0.5), charge=1.0, mass=1.3, phase=lambda x: 0.4 * x[0] + math.sin(x[2])
)
_FRAME = build_frame(np.eye(5) + 0.1 * np.arange(25.0).reshape(5, 5) / 25.0)


def _fields():
    plane = plane_wave(_K)
    packet = separable_wavepacket(monogenic_polynomials_3d(3)[0], (1.5, -1.5))
    return {
        "plane": plane,
        "column": column_wave(order_eigensystem(dirac_system(_K)), 2),
        "polynomial": monogenic_polynomials_3d(2)[5],
        "packet": packet,
        "gauge-transformed": gauge_transform(packet, _GAUGE)[0],
        "bare": MultivectorField(plane.value, plane.derivative),
    }


_FIELDS = _fields()

#: every operator form, as a call of (field, points)
_OPERATORS = {
    "value": lambda f, x: f(x),
    "analytic": lambda f, x: vector_derivative(f, x),
    "differenced": lambda f, x: vector_derivative(f, x, h=1e-3),
    "spatial": lambda f, x: vector_derivative(f, x, h=1e-3, indices=(1, 2, 3)),
    "laplacian": lambda f, x: laplacian(f, x, h=1e-3),
    "richardson": lambda f, x: laplacian(f, x, h=1e-3, richardson=True),
    "reduced": lambda f, x: reduced_vector_derivative(f, x, 1.3),
    "reduced differenced": lambda f, x: reduced_vector_derivative(f, x, 0.7, h=1e-3),
    "covariant": lambda f, x: covariant_derivative(f, _FRAME, x),
    "covariant per point": lambda f, x: covariant_derivative(
        f, lambda y: em_frame(_GAUGE, y), x, h=1e-3
    ),
}


def _assert_rows_are_one_point_calls(rows, x, one_point):
    assert rows.shape == x.shape[:-1] + (32,)
    for index in np.ndindex(x.shape[:-1]):
        want = one_point(x[index], index)
        assert isinstance(want, Multivector)
        assert rows[index].tobytes() == want.coeffs.tobytes(), index


def _point_arrays(leading_dims):
    shapes = hnp.array_shapes(min_dims=leading_dims, max_dims=leading_dims + 1, max_side=4)
    return hnp.arrays(np.float64, shapes.map(lambda s: s + (5,)), elements=st.floats(-2.0, 2.0))


@pytest.mark.parametrize("op", list(_OPERATORS))
@settings(max_examples=10, deadline=None)
@given(x=_point_arrays(1))
def test_each_row_of_a_point_array_call_is_the_one_point_call(op, x):
    call = _OPERATORS[op]
    for name, field in _FIELDS.items():
        _assert_rows_are_one_point_calls(call(field, x), x, lambda p, _: call(field, p))


def _momenta(rng, count):
    return [
        MomentumVector.from_mass_momentum(rng.uniform(-3.0, 3.0, 3), rng.uniform(0.1, 5.0))
        for _ in range(count)
    ]


def _family(momenta):
    amplitudes = np.array([k.amplitude.coeffs for k in momenta])
    return harmonic_field(amplitudes, np.array([k.phase_gradient for k in momenta]))


@pytest.mark.parametrize("op", list(_OPERATORS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), x=_point_arrays(2))
def test_each_wave_of_a_family_is_its_own_plane_wave(op, seed, x):
    # x is (m, ..., 5): wave i of the family meets the points of row i
    momenta = _momenta(np.random.default_rng(seed), len(x))
    waves = [plane_wave(k) for k in momenta]
    call = _OPERATORS[op]
    _assert_rows_are_one_point_calls(
        call(_family(momenta), x), x, lambda p, index: call(waves[index[0]], p)
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), x=_point_arrays(2))
def test_a_family_takes_one_mass_per_wave(seed, x):
    momenta = _momenta(np.random.default_rng(seed), len(x))
    masses = np.array([k.mass for k in momenta]).reshape((-1,) + (1,) * (x.ndim - 2))
    rows = reduced_vector_derivative(_family(momenta), x, masses)

    def one_point(p, index):
        k = momenta[index[0]]
        return reduced_vector_derivative(plane_wave(k), p, k.mass)

    _assert_rows_are_one_point_calls(rows, x, one_point)


def test_a_family_of_twenty_thousand_phases_matches_every_wave_alone():
    # cos and sin of long arrays take vector paths of their own; each
    # element must still round as the one-element call does
    rng = np.random.default_rng(11)
    count = 20_000
    amplitudes = rng.uniform(-1.0, 1.0, (count, 32))
    grads = rng.uniform(-40.0, 40.0, (count, 5))
    x = rng.uniform(-2.0, 2.0, (count, 1, 5))
    family = harmonic_field(amplitudes, grads)
    got = np.stack([family(x)[:, 0], vector_derivative(family, x)[:, 0]], axis=1)
    want = np.empty_like(got)
    for i in range(count):
        wave = harmonic_field(amplitudes[i], grads[i])
        want[i] = wave(x[i, 0]).coeffs, vector_derivative(wave, x[i, 0]).coeffs
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_family_rejects_mismatched_rows_and_points():
    momenta = _momenta(np.random.default_rng(3), 3)
    amplitudes = np.array([k.amplitude.coeffs for k in momenta])
    grads = np.array([k.phase_gradient for k in momenta])
    with pytest.raises(ValueError, match="one amplitude row per gradient"):
        harmonic_field(amplitudes[:2], grads)
    with pytest.raises(ValueError, match="one amplitude row per gradient"):
        harmonic_field(momenta[0].amplitude, grads)
    with pytest.raises(ValueError, match="five components"):
        harmonic_field(amplitudes[:, None], grads[:, None])
    with pytest.raises(ValueError, match="broadcast"):
        vector_derivative(harmonic_field(amplitudes, grads), np.zeros((2, 4, 5)))


def test_a_point_array_call_gives_rows_not_a_multivector():
    wave = plane_wave(_K)
    rows = wave(np.zeros((3, 5)))
    one = wave(np.zeros(5))
    assert rows.shape == (3, 32)
    assert all(row.tobytes() == one.coeffs.tobytes() for row in rows)
    assert str(one) == str(Multivector(rows[0]))


@pytest.mark.parametrize("shape", [(), (4,), (6,), (3, 4), (2, 3, 6)])
def test_points_whose_last_axis_is_not_five_are_rejected(shape):
    x = np.zeros(shape)
    for field in (plane_wave(_K), monogenic_polynomials_3d(2)[0]):
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 5\)"):
            field.value(x)
        for call in _OPERATORS.values():
            with pytest.raises(ValueError, match=r"shape \(\.\.\., 5\)"):
                call(field, x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["plane", "column", "packet"])
def test_a_point_that_is_not_finite_is_rejected_at_the_source(name, bad):
    # with warnings as errors: no operator gets as far as cos(inf) or 0 * inf
    field = _FIELDS[name]
    one = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    one[2] = bad
    rows = np.zeros((2, 3, 5))
    rows[1, 2, 4] = bad
    for x in (one, rows):
        with pytest.raises(ValueError, match="^points must be finite$"):
            field.value(x)
        for a in (0, 4):
            with pytest.raises(ValueError, match="^points must be finite$"):
                field.derivative(x, a)
        for call in _OPERATORS.values():
            with pytest.raises(ValueError, match="^points must be finite$"):
                call(field, x)


@pytest.mark.parametrize("name", ["plane", "column", "polynomial", "packet", "gauge-transformed"])
def test_a_field_call_checks_its_points_once(monkeypatch, name):
    field, checked = _FIELDS[name], []
    real = monogenic._points

    def points(x):
        checked.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(monogenic, "_points", points)
    one = [0.3, -0.2, 0.5, 0.1, -0.4]
    for call, x in (
        (field, one),
        (field, np.zeros((2, 3, 5))),
        (field.value, one),
        (lambda x: field.derivative(x, 4), one),
    ):
        checked.clear()
        call(x)
        assert checked == [np.shape(x)]


def test_a_replaced_field_does_not_check_its_point_again(monkeypatch):
    # a tracer's replace wraps the value in a function of its own, whose
    # point is checked on top; replacing that field again, as
    # dataclasses.replace passes the checking value back in, adds no check
    plane = plane_wave(_K)
    traced = dataclasses.replace(plane, value=lambda x: plane.value(x))
    again = dataclasses.replace(traced)
    fields = [plane, traced, again, dataclasses.replace(again)]
    checked, real = [], monogenic._points

    def points(x):
        checked.append(np.shape(x))
        return real(x)

    one = [0.3, -0.2, 0.5, 0.1, -0.4]
    want = plane(one)
    monkeypatch.setattr(monogenic, "_points", points)
    counts = []
    for field in fields:
        checked.clear()
        assert field(one) == want
        counts.append(len(checked))
    assert counts == [1, 2, 2, 2]


def test_a_given_value_function_gets_checked_points():
    field = MultivectorField(lambda x: float(x[1]) * ONE)
    for x in ([0.0, math.nan, 0.0, 0.0, 0.0], [0.0] * 4):
        for call in (field, field.value):
            with pytest.raises(ValueError, match="^points must"):
                call(x)
    assert field([0.0, 2.0, 0.0, 0.0, 0.0]) == 2.0 * ONE


def test_a_field_needs_a_value_function_or_rows():
    with pytest.raises(ValueError, match="value function or rows"):
        MultivectorField()
