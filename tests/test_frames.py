"""Reciprocal frames, the potential-tilted frame, and gauge covariance."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ga41 import MomentumVector, Multivector, ONE, e, inner, plane_wave
from ga41.algebra import PSEUDOSCALAR, e_upper
from ga41.frames import (
    ETA,
    Frame,
    GaugeField,
    _frames,
    build_frame,
    covariant_derivative,
    em_frame,
    gauge_covariance_residual,
    gauge_transform,
    phase_rotor,
    phase_shift_residual,
)
from ga41.monogenic import vector_derivative


def well_conditioned(rng):
    while True:
        n = np.eye(5) + rng.uniform(-0.2, 0.2, (5, 5))
        if np.linalg.cond(n) <= 100.0:
            return n


def test_identity_frame_exact():
    frame = build_frame(np.eye(5))
    assert np.array_equal(frame.metric, ETA)
    assert np.array_equal(frame.inverse_metric, ETA)
    for a in range(5):
        assert (frame.vectors[a] - e(a)).max_abs() == 0.0
        assert (frame.reciprocal[a] - e_upper(a)).max_abs() == 0.0


def test_duality_random_frames():
    rng = np.random.default_rng(61)
    for _ in range(20):
        frame = build_frame(well_conditioned(rng))
        for a in range(5):
            for b in range(5):
                want = 1.0 if a == b else 0.0
                got = inner(frame.reciprocal[a], frame.vectors[b]).scalar
                assert abs(got - want) <= 1e-10, (a, b)


def test_metric_matches_vector_inner_products():
    rng = np.random.default_rng(62)
    frame = build_frame(well_conditioned(rng))
    for a in range(5):
        for b in range(5):
            got = inner(frame.vectors[a], frame.vectors[b]).scalar
            assert abs(got - frame.metric[a, b]) <= 1e-13
            got_up = inner(frame.reciprocal[a], frame.reciprocal[b]).scalar
            assert abs(got_up - frame.inverse_metric[a, b]) <= 1e-12


def test_build_frame_validation():
    singular = np.eye(5)
    singular[:, 2] = 0.0
    with pytest.raises(ValueError):
        build_frame(singular)
    swapped = np.eye(5)[:, [1, 0, 2, 3, 4]]  # puts a plus axis on slot 0
    with pytest.raises(ValueError):
        build_frame(swapped)
    with pytest.raises(ValueError):
        build_frame(np.eye(4))


def test_refractive_index_callable():
    def n(x):
        return np.eye(5) * (1.0 + 0.1 * float(x[1]))

    near = build_frame(n, x=(0.0, 0.0, 0.0, 0.0, 0.0))
    far = build_frame(n, x=(0.0, 1.0, 0.0, 0.0, 0.0))
    assert (near.vectors[1] - e(1)).max_abs() == 0.0
    assert (far.vectors[1] - 1.1 * e(1)).max_abs() <= 1e-15
    with pytest.raises(ValueError):
        build_frame(lambda x: np.eye(4))


def _frame_bytes(frame):
    rows = [v.coeffs for v in frame.vectors + frame.reciprocal]
    return b"".join(a.tobytes() for a in (frame.metric, frame.inverse_metric, *rows))


@pytest.mark.parametrize("seed", range(5))
def test_build_frame_takes_an_array_or_a_callable_returning_it(seed):
    n = well_conditioned(np.random.default_rng(seed))
    x = (0.3, -0.2, 0.1, 0.0, 0.5)
    seen = []

    def at(point):
        seen.append(point)
        return n

    assert _frame_bytes(build_frame(at, x)) == _frame_bytes(build_frame(n, x))
    assert len(seen) == 1 and seen[0].dtype == float and seen[0].tolist() == list(x)
    for bad in (np.eye(4), np.eye(4).tolist()):
        with pytest.raises(ValueError, match="^index tensor must be 5x5$"):
            build_frame(lambda point: bad, x)
        with pytest.raises(ValueError, match="^index tensor must be 5x5$"):
            build_frame(bad, x)


def _loop_frame(n):
    """build_frame's arithmetic on one tensor, as numpy's one-matrix calls."""
    cond = np.linalg.cond(n)
    if not cond <= 1e12:
        return cond, f"index tensor is singular (condition estimate {cond:.3e})"
    metric = n.T @ ETA @ n
    if metric[0, 0] >= 0 or any(metric[i, i] <= 0 for i in range(1, 5)):
        return cond, "frame breaks the (-++++) signature pattern"
    inverse = np.linalg.inv(metric)
    return cond, (metric, inverse, inverse @ n.T)


def _rows(components):
    rows = np.zeros((5, 32))
    rows[:, [1, 2, 4, 8, 16]] = components
    return rows


def test_stacked_frames_equal_the_one_tensor_arithmetic():
    rng = np.random.default_rng(71)
    # spreads up to 0.8 break the signature rule now and then; one tensor
    # has -0.0 entries, one is singular and one is not finite
    tensors = np.eye(5) + rng.uniform(-1.0, 1.0, (400, 5, 5)) * np.repeat([0.2, 0.8], 200)[:, None, None]
    tensors[3] = np.where(np.eye(5) == 1.0, 1.0, -0.0)  # its rows keep the -0.0
    tensors[7, :, 2] = 0.0
    tensors[11, 3, 1] = math.inf
    cond, faults, vectors, metric, inverse, reciprocal = _frames(tensors)
    kept = 0
    for i, n in enumerate(tensors):
        if i == 11:
            assert math.isnan(cond[i]) and faults[i] == "index tensor must be finite"
            continue
        want_cond, want = _loop_frame(n)
        assert cond[i].tobytes() == want_cond.tobytes()
        if isinstance(want, str):
            assert faults[i] == want
            continue
        assert faults[i] is None
        assert metric[kept].tobytes() == want[0].tobytes()
        assert inverse[kept].tobytes() == want[1].tobytes()
        assert reciprocal[kept].tobytes() == _rows(want[2]).tobytes()
        assert vectors[kept].tobytes() == _rows(n.T).tobytes()
        kept += 1
    assert 200 < kept < 399 and len(vectors) == len(reciprocal) == kept
    assert faults.count("frame breaks the (-++++) signature pattern") == 399 - kept - 1


def test_build_frame_rejects_a_non_finite_tensor():
    for bad in (math.nan, math.inf, -math.inf):
        n = np.eye(5)
        n[2, 3] = bad
        with pytest.raises(ValueError, match="^index tensor must be finite$"):
            build_frame(n)
        with pytest.raises(ValueError, match="^index tensor must be finite$"):
            build_frame(lambda x: n, (0.1, 0.2, 0.3, 0.4, 0.5))


@pytest.mark.parametrize(
    "x", ["abc", None, object(), 1.0, (1.0, 2.0), [[0.0] * 5], (0.0, 0.0, math.nan, 0.0, 0.0), [math.inf] * 5]
)
def test_build_frame_rejects_a_point_that_is_not_five_finite_coordinates(x):
    seen = []

    def at(point):
        seen.append(point)
        return np.eye(5)

    for n in (np.eye(5), at):
        with pytest.raises(ValueError, match="^point must be 5 finite coordinates$"):
            build_frame(n, x)
    assert seen == []


def test_gauge_field_constant_potential():
    field = GaugeField(potential=(0.7, 0.0, 0.0, 0.0), charge=-1.0, mass=1.0)
    assert np.array_equal(field.potential_at(np.zeros(5)), np.array([0.7, 0, 0, 0]))
    with pytest.raises(ValueError):
        GaugeField(potential=(1.0, 2.0), charge=1.0, mass=1.0)
    with pytest.raises(ValueError):
        field.phase_gradient_at(np.zeros(5))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    st.integers(0, 5),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_gauge_field_rejects_non_finite_constants(values, index, bad):
    values[index] = bad
    with pytest.raises(ValueError, match="finite"):
        GaugeField(potential=values[:4], charge=values[4], mass=values[5])


def test_gauge_field_leaves_callable_potentials_unchecked():
    field = GaugeField(potential=lambda x: np.full(4, math.nan), charge=1.0, mass=1.0)
    assert np.isnan(field.potential_at(np.zeros(5))).all()


def test_phase_gradient_numeric_fallback():
    field = GaugeField(
        potential=(0.0, 0.0, 0.0, 0.0),
        charge=1.0,
        mass=1.0,
        phase=lambda x: 0.3 * float(x[0]) - 0.2 * float(x[1]) ** 2,
    )
    x = np.array([0.5, 1.0, 0.0, 0.0, 0.0])
    got = field.phase_gradient_at(x)
    want = np.array([0.3, -0.4, 0.0, 0.0, 0.0])
    assert np.max(np.abs(got - want)) <= 1e-8
    exact = dataclasses.replace(
        field, phase_gradient=lambda x: np.array([0.3, -0.4 * float(x[1]), 0, 0, 0])
    )
    assert np.array_equal(exact.phase_gradient_at(x), want)


def test_em_frame_worked_example():
    field = GaugeField(potential=(0.7, 0.0, 0.0, 0.0), charge=-1.0, mass=1.0)
    frame = em_frame(field, np.zeros(5))
    assert (frame.reciprocal[0] + e(0)).max_abs() == 0.0
    for k in range(1, 4):
        assert (frame.reciprocal[k] - e(k)).max_abs() == 0.0
    assert (frame.reciprocal[4] - (0.7 * e(0) + e(4))).max_abs() == 0.0
    g44 = frame.inverse_metric[4, 4]
    assert g44 == pytest.approx(1.0 - 0.49, abs=1e-15)
    assert frame.inverse_metric[4, 0] == pytest.approx(0.7, abs=1e-15)


def test_em_frame_duality_and_validation():
    field = GaugeField(
        potential=lambda x: np.array([0.2, -0.3, 0.1, 0.4]) * (1.0 + float(x[1])),
        charge=2.0,
        mass=0.5,
    )
    x = np.array([0.0, 0.7, 0.0, 0.0, 0.0])
    frame = em_frame(field, x)
    for a in range(5):
        for b in range(5):
            want = 1.0 if a == b else 0.0
            got = inner(frame.reciprocal[a], frame.vectors[b]).scalar
            assert abs(got - want) <= 1e-12
    massless = GaugeField(potential=(0.0, 0.0, 0.0, 0.0), charge=1.0, mass=0.0)
    with pytest.raises(ValueError):
        em_frame(massless, x)


@pytest.mark.parametrize(
    "x", [[1.0, 2.0], [math.nan] * 5, [0.0, 0.0, math.inf, 0.0, 0.0], "abc", np.zeros((2, 5))]
)
def test_em_frame_rejects_a_point_as_build_frame_does(x):
    field = GaugeField(potential=(0.7, 0.0, 0.0, 0.0), charge=-1.0, mass=1.0)
    for make in (lambda: em_frame(field, x), lambda: build_frame(np.eye(5), x)):
        with pytest.raises(ValueError, match="^point must be 5 finite coordinates$"):
            make()


def test_covariant_derivative_identity_frame_is_flat():
    k = MomentumVector.from_mass_momentum((1.0, 0.5, -0.5), 1.5)
    wave = plane_wave(k)
    frame = build_frame(np.eye(5))
    x = np.array([0.2, -0.1, 0.4, 0.3, 0.1])
    flat = vector_derivative(wave, x)
    assert (covariant_derivative(wave, frame, x) - flat).max_abs() == 0.0
    numeric = covariant_derivative(wave, frame, x, h=1e-4)
    assert (numeric - vector_derivative(wave, x, h=1e-4)).max_abs() == 0.0
    with pytest.raises(ValueError):
        covariant_derivative(wave, frame, x, h=0.0)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])))
def test_frame_steps_must_be_finite_and_positive(h):
    wave = plane_wave(MomentumVector.from_mass_momentum((1.0, 0.5, -0.5), 1.5))
    x = np.array([0.2, -0.1, 0.4, 0.3, 0.1])
    with pytest.raises(ValueError, match="finite and positive"):
        covariant_derivative(wave, build_frame(np.eye(5)), x, h=h)
    field = GaugeField(potential=(0.0, 0.0, 0.0, 0.0), charge=1.0, mass=1.0, phase=lambda y: 0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        field.phase_gradient_at(x, h=h)


def test_covariant_derivative_adds_potential_term():
    a_mu = np.array([0.3, -0.2, 0.5, 0.1])
    field = GaugeField(potential=a_mu, charge=-1.0, mass=2.0)
    k = MomentumVector.from_mass_momentum((0.5, 1.0, 0.0), 2.0)
    wave = plane_wave(k)
    x = np.array([0.1, 0.2, -0.3, 0.4, 0.5])
    got = covariant_derivative(wave, lambda y: em_frame(field, y), x)
    tilt = Multivector.from_scalar(0.0)
    for mu in range(4):
        tilt = tilt + float(a_mu[mu]) * e_upper(mu)
    ratio = field.charge / field.mass
    want = vector_derivative(wave, x) + ratio * tilt * wave.derivative(x, 4)
    assert (got - want).max_abs() <= 1e-14


def test_phase_rotor_properties():
    r = phase_rotor(0.4)
    assert (r * phase_rotor(-0.4) - ONE).max_abs() <= 1e-16
    sample = e(1) + 2.0 * e(0, 4)
    assert (r * sample - sample * r).max_abs() == 0.0


def test_gauge_transform_value_and_potential():
    beta = lambda x: 0.3 * float(x[0]) - 0.2 * float(x[1]) + 0.1 * float(x[3])
    grad = lambda x: np.array([0.3, -0.2, 0.0, 0.1, 0.0])
    field = GaugeField(
        potential=(0.5, 0.0, -0.1, 0.2),
        charge=-2.0,
        mass=1.0,
        phase=beta,
        phase_gradient=grad,
    )
    k = MomentumVector.from_mass_momentum((1.0, 0.0, 0.0), 1.0)
    wave = plane_wave(k)
    rotated, shifted = gauge_transform(wave, field)
    x = np.array([0.4, 0.2, 0.1, -0.3, 0.6])
    assert (rotated(x) - wave(x) * phase_rotor(beta(x))).max_abs() == 0.0
    want_potential = field.potential_at(x) - grad(x)[:4] / field.charge
    assert np.max(np.abs(shifted.potential_at(x) - want_potential)) <= 1e-15
    # analytic derivative of the rotated field against finite differences
    for axis in range(5):
        step = np.zeros(5)
        step[axis] = 1e-5
        fd = (rotated(x + step) - rotated(x - step)) / 2e-5
        assert (rotated.derivative(x, axis) - fd).max_abs() <= 1e-8


def test_gauge_transform_constant_phase_keeps_potential():
    field = GaugeField(
        potential=(0.4, 0.1, 0.0, 0.0), charge=1.0, mass=1.0, phase=lambda x: 0.9
    )
    k = MomentumVector.from_mass_momentum((0.0, 0.0, 0.0), 1.0)
    rotated, shifted = gauge_transform(plane_wave(k), field)
    x = np.array([0.3, 0.1, 0.2, 0.0, 0.5])
    assert np.array_equal(shifted.potential_at(x), field.potential_at(x))
    assert (rotated(x) - plane_wave(k)(x) * phase_rotor(0.9)).max_abs() == 0.0


def test_gauge_transform_round_trip():
    beta = lambda x: 0.25 * float(x[1])
    grad = lambda x: np.array([0.0, 0.25, 0.0, 0.0, 0.0])
    field = GaugeField(
        potential=(0.0, 0.3, 0.0, 0.0),
        charge=1.5,
        mass=2.0,
        phase=beta,
        phase_gradient=grad,
    )
    k = MomentumVector.from_mass_momentum((0.5, 0.0, 0.0), 2.0)
    wave = plane_wave(k)
    rotated, shifted = gauge_transform(wave, field)
    inverse = dataclasses.replace(
        shifted,
        phase=lambda x: -beta(x),
        phase_gradient=lambda x: -grad(x),
    )
    back, restored = gauge_transform(rotated, inverse)
    x = np.array([0.2, -0.4, 0.3, 0.1, 0.0])
    assert (back(x) - wave(x)).max_abs() <= 1e-15
    assert np.max(np.abs(restored.potential_at(x) - field.potential_at(x))) <= 1e-15


def test_gauge_transform_validation():
    k = MomentumVector.from_mass_momentum((0.0, 0.0, 0.0), 1.0)
    wave = plane_wave(k)
    chargeless = GaugeField(
        potential=(0.0, 0.0, 0.0, 0.0), charge=0.0, mass=1.0, phase=lambda x: 0.0
    )
    with pytest.raises(ValueError):
        gauge_transform(wave, chargeless)
    phaseless = GaugeField(potential=(0.0, 0.0, 0.0, 0.0), charge=1.0, mass=1.0)
    with pytest.raises(ValueError):
        gauge_transform(wave, phaseless)


def test_gauge_covariance_plane_wave():
    beta = lambda x: 0.3 * float(x[0]) - 0.2 * float(x[1]) + 0.1 * float(x[3])
    grad = lambda x: np.array([0.3, -0.2, 0.0, 0.1, 0.0])
    field = GaugeField(
        potential=(0.4, -0.1, 0.2, 0.0),
        charge=-1.0,
        mass=1.5,
        phase=beta,
        phase_gradient=grad,
    )
    k = MomentumVector.from_mass_momentum((0.5, -0.5, 1.0), 1.5)
    wave = plane_wave(k)
    points = [np.zeros(5), np.array([0.3, 0.1, -0.2, 0.4, 0.5])]
    assert gauge_covariance_residual(wave, field, points) <= 1e-8


def test_gauge_covariance_negative_control():
    # field mass different from the wave's harmonic mass breaks the identity
    beta = lambda x: 0.5 * float(x[1])
    grad = lambda x: np.array([0.0, 0.5, 0.0, 0.0, 0.0])
    field = GaugeField(
        potential=(0.0, 0.0, 0.0, 0.0),
        charge=1.0,
        mass=2.5,
        phase=beta,
        phase_gradient=grad,
    )
    k = MomentumVector.from_mass_momentum((0.5, -0.5, 1.0), 1.5)
    wave = plane_wave(k)
    points = [np.array([0.3, 0.1, -0.2, 0.4, 0.5])]
    assert gauge_covariance_residual(wave, field, points) > 1e-3


def test_phase_shift_identity():
    beta = lambda x: 0.2 * float(x[0]) + 0.4 * float(x[2])
    field = GaugeField(
        potential=(0.0, 0.0, 0.0, 0.0),
        charge=1.0,
        mass=1.0,
        phase=beta,
        phase_gradient=lambda x: np.array([0.2, 0.0, 0.4, 0.0, 0.0]),
    )
    k = MomentumVector.from_mass_momentum((1.0, 1.0, 0.0), 1.0)
    wave = plane_wave(k)
    points = [np.zeros(5), np.array([0.1, -0.2, 0.3, 0.4, 0.5])]
    assert phase_shift_residual(wave, field, points) <= 1e-8
    numeric = GaugeField(
        potential=(0.0, 0.0, 0.0, 0.0), charge=1.0, mass=1.0, phase=beta
    )
    assert phase_shift_residual(wave, numeric, points) <= 1e-8


def test_residuals_keep_a_nan_point():
    # a phase that is NaN at the middle of three points makes that
    # point's sample, and with it each residual, NaN
    bad = np.array([0.1, -0.2, 0.3, 0.4, 0.5])
    field = GaugeField(
        potential=(0.0, 0.0, 0.0, 0.0),
        charge=1.0,
        mass=1.0,
        phase=lambda x: math.nan if np.array_equal(x, bad) else 0.2 * float(x[0]),
        phase_gradient=lambda x: np.array([0.2, 0.0, 0.0, 0.0, 0.0]),
    )
    wave = plane_wave(MomentumVector.from_mass_momentum((1.0, 1.0, 0.0), 1.0))
    points = [np.zeros(5), bad, np.array([-0.3, 0.2, 0.1, 0.0, 0.2])]
    assert phase_shift_residual(wave, field, [points[0], points[2]]) <= 1e-8
    assert gauge_covariance_residual(wave, field, [points[0], points[2]]) <= 1e-8
    assert math.isnan(phase_shift_residual(wave, field, points))
    assert math.isnan(gauge_covariance_residual(wave, field, points))
