"""The electromagnetic frame of a constant potential, built once per gauge
field and stored on it, and the reciprocal rows a Frame carries for
covariant_derivative.  The stored frame is the same computation as a
fresh build, so every comparison here is byte for byte."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ga41 import frames
from ga41.frames import Frame, GaugeField, build_frame, covariant_derivative, em_frame
from ga41.monogenic import (
    _ALL_AXES,
    _derivative_sum,
    MomentumVector,
    monogenic_polynomials_3d,
    plane_wave,
    separable_wavepacket,
)

_RNG_SEED = 20611
_POINTS = np.random.default_rng(5).uniform(-1.0, 1.0, (40, 5))


def _frame_bytes(frame):
    """Every array a frame holds, as bytes: both metrics, the direct and
    reciprocal vectors, and the reciprocal rows."""
    return [
        frame.metric.tobytes(),
        frame.inverse_metric.tobytes(),
        [v.coeffs.tobytes() for v in frame.vectors],
        [v.coeffs.tobytes() for v in frame.reciprocal],
        frame._reciprocal_rows.tobytes(),
    ]


def _counted_builds(monkeypatch):
    """Patch frames._em_frame with a wrapper that records its calls."""
    calls = []
    real = frames._em_frame

    def counted(ratio, a):
        calls.append(np.array(a))
        return real(ratio, a)

    monkeypatch.setattr(frames, "_em_frame", counted)
    return calls


def _gauge_fields(count):
    rng = np.random.default_rng(_RNG_SEED)
    for _ in range(count):
        potential = rng.uniform(-1.0, 1.0, 4) * rng.choice([1e-3, 1.0, 1e3])
        charge, mass = rng.choice([-1.0, 1.0]), rng.uniform(0.05, 3.0)
        yield potential, charge, mass


def test_the_stored_frame_is_a_fresh_build_byte_for_byte():
    for potential, charge, mass in _gauge_fields(100):
        field = GaugeField(potential, charge=charge, mass=mass)
        # a callable potential builds afresh at every point
        fresh = GaugeField(lambda x, a=potential: a, charge=charge, mass=mass)
        for x in _POINTS[:3]:
            want = _frame_bytes(em_frame(fresh, x))
            assert _frame_bytes(em_frame(field, x)) == want
            assert _frame_bytes(frames._em_frame(charge / mass, potential)) == want


def test_a_frame_carries_read_only_reciprocal_rows_of_its_vectors():
    field = GaugeField((0.3, -0.2, 0.5, 0.1), charge=-1.0, mass=2.0)
    for frame in (em_frame(field, _POINTS[0]), build_frame(np.eye(5))):
        rows = frame._reciprocal_rows
        assert rows.shape == (5, 32)
        assert rows.tobytes() == np.array([v.coeffs for v in frame.reciprocal]).tobytes()
        assert not rows.flags.writeable
        assert "_reciprocal_rows" not in repr(frame)
    # a Frame built by hand gets its rows too, and replace rebuilds them
    frame = em_frame(field, _POINTS[0])
    by_hand = Frame(frame.vectors, frame.metric, frame.inverse_metric, frame.reciprocal)
    assert by_hand._reciprocal_rows.tobytes() == frame._reciprocal_rows.tobytes()
    turned = dataclasses.replace(frame, reciprocal=frame.vectors)
    assert turned._reciprocal_rows.tobytes() == np.array(
        [v.coeffs for v in frame.vectors]
    ).tobytes()


def test_one_build_per_constant_gauge_field(monkeypatch):
    calls = _counted_builds(monkeypatch)
    field = GaugeField((0.2, -0.4, 0.1, 0.3), charge=-1.0, mass=1.2)
    got = [em_frame(field, x) for x in _POINTS]
    assert len(calls) == 1
    assert all(frame is got[0] for frame in got)
    # the one-point operators of a pass, at every point
    wave = plane_wave(MomentumVector.from_mass_momentum((0.4, -0.9, 1.1), 0.8))
    for x in _POINTS:
        covariant_derivative(wave, em_frame(field, x), x)
    covariant_derivative(wave, lambda y: em_frame(field, y), _POINTS)
    assert len(calls) == 1
    other = GaugeField((0.2, -0.4, 0.1, 0.3), charge=-1.0, mass=1.2)
    assert em_frame(other, _POINTS[0]) is not got[0]
    assert len(calls) == 2


def test_no_frame_is_built_with_the_gauge_field(monkeypatch):
    calls = _counted_builds(monkeypatch)
    field = GaugeField((0.2, -0.4, 0.1, 0.3), charge=-1.0, mass=1.2)
    assert calls == [] and "_frame" not in vars(field)


def test_a_potential_that_varies_gives_a_frame_per_point(monkeypatch):
    calls = _counted_builds(monkeypatch)
    base = np.array([0.2, -0.3, 0.1, 0.4])
    field = GaugeField(lambda x: base * (1.0 + x[1]), charge=2.0, mass=0.5)
    got = [em_frame(field, x) for x in _POINTS]
    assert len(calls) == len(_POINTS)
    for x, frame, a in zip(_POINTS, got, calls):
        assert a.tobytes() == (base * (1.0 + x[1])).tobytes()
        constant = GaugeField(base * (1.0 + x[1]), charge=2.0, mass=0.5)
        assert _frame_bytes(frame) == _frame_bytes(em_frame(constant, x))
    assert len({frame.inverse_metric.tobytes() for frame in got}) == len(_POINTS)


@pytest.mark.parametrize(
    "change",
    [{"mass": 2.5}, {"charge": 1.0}, {"potential": (0.5, 0.5, -0.5, 0.0)}],
    ids=["mass", "charge", "potential"],
)
def test_a_replaced_gauge_field_does_not_inherit_the_frame(change):
    field = GaugeField((0.2, -0.4, 0.1, 0.3), charge=-1.0, mass=1.2)
    stored = em_frame(field, _POINTS[0])
    changed = dataclasses.replace(field, **change)
    got = em_frame(changed, _POINTS[0])
    assert got is not stored
    potential = change.get("potential", (0.2, -0.4, 0.1, 0.3))
    ratio = changed.charge / changed.mass
    want = frames._em_frame(ratio, np.array(potential, dtype=float))
    assert _frame_bytes(got) == _frame_bytes(want)
    assert got.inverse_metric.tobytes() != stored.inverse_metric.tobytes()
    # the field it came from keeps its frame
    assert em_frame(field, _POINTS[1]) is stored


def test_a_replaced_gauge_field_keeps_its_constant_and_stores_its_frame_once(monkeypatch):
    calls = _counted_builds(monkeypatch)
    field = GaugeField((0.2, -0.4, 0.1, 0.3), charge=-1.0, mass=1.2)
    for change in ({"mass": 2.0}, {"charge": 1.0}, {"phase": lambda x: 0.0}):
        changed = dataclasses.replace(field, **change)
        assert not callable(changed.potential) and not changed.potential.flags.writeable
        assert changed.potential.tobytes() == field.potential.tobytes()
        calls.clear()
        got = [em_frame(changed, x) for x in _POINTS[:10]]
        assert len(calls) == 1 and all(frame is got[0] for frame in got)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="constant potential must be finite"):
            dataclasses.replace(field, potential=(0.2, bad, 0.1, 0.3))


@pytest.mark.parametrize(
    "x", [[math.nan] * 5, [0.0, math.inf, 0.0, 0.0, 0.0], [1.0, 2.0], "abc", np.zeros((2, 5))]
)
def test_a_bad_point_raises_on_the_stored_path(x):
    field = GaugeField((0.7, 0.0, 0.0, 0.0), charge=-1.0, mass=1.0)
    em_frame(field, _POINTS[0])
    assert "_frame" in vars(field)
    with pytest.raises(ValueError, match="^point must be 5 finite coordinates$"):
        em_frame(field, x)


def test_a_zero_mass_raises_at_em_frame_and_not_at_construction():
    field = GaugeField((0.7, 0.0, 0.0, 0.0), charge=-1.0, mass=0.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="nonzero mass"):
            em_frame(field, _POINTS[0])
    assert "_frame" not in vars(field)


def test_the_constant_potential_is_read_only():
    given = np.array([0.7, 0.1, -0.2, 0.3])
    field = GaugeField(given, charge=-1.0, mass=1.0)
    stored = em_frame(field, _POINTS[0])
    a = field.potential_at(_POINTS[0])
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 99.0
    given[0] = 99.0  # the field holds its own copy
    assert field.potential_at(_POINTS[1]).tolist() == [0.7, 0.1, -0.2, 0.3]
    fresh = frames._em_frame(-1.0, np.array([0.7, 0.1, -0.2, 0.3]))
    assert _frame_bytes(em_frame(field, _POINTS[1])) == _frame_bytes(fresh)
    assert em_frame(field, _POINTS[1]) is stored


#: (potential, charge, mass) whose tilt (charge/mass) A is not finite, or
#: whose square overflows
_BAD_TILTS = [
    ((1.0, 0.0, 0.0, 0.0), 1e300, 1e-300),  # the ratio overflows
    ((0.0, 0.0, 0.0, 0.0), 1.0, 5e-324),  # inf * 0
    ((1e200, 0.0, 0.0, 0.0), 1.0, 1.0),  # the tilt's square overflows
    ((0.0, 1e154, 1e154, 0.0), 1.0, 1.0),  # a sum of two squares overflows
    ((1e300, 0.0, 0.0, 0.0), 1e10, 1e-10),  # the product overflows
]


@pytest.mark.parametrize("potential, charge, mass", _BAD_TILTS)
def test_a_tilt_that_is_not_finite_raises(potential, charge, mass):
    constant = GaugeField(potential, charge=charge, mass=mass)
    callable_ = GaugeField(lambda x: np.array(potential), charge=charge, mass=mass)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for field in (constant, constant, callable_):
            with pytest.raises(ValueError, match="tilt .* must be finite"):
                em_frame(field, _POINTS[0])
    assert "_frame" not in vars(constant)


def test_a_callable_potential_that_returns_nan_raises():
    field = GaugeField(lambda x: np.array([0.1, math.nan, 0.0, 0.0]), charge=1.0, mass=1.0)
    with pytest.raises(ValueError, match="tilt .* must be finite"):
        em_frame(field, _POINTS[0])


def test_the_largest_finite_tilts_still_build():
    # 1e154 squares to 1e308, below the largest double
    field = GaugeField((1e154, 0.0, 0.0, 0.0), charge=1.0, mass=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = em_frame(field, _POINTS[0])
    assert np.isfinite(frame.metric).all() and np.isfinite(frame.inverse_metric).all()


# -- covariant_derivative on the stored rows ---------------------------------


def _fields():
    k = MomentumVector.from_mass_momentum((0.4, -0.9, 1.1), 0.8)
    basis = monogenic_polynomials_3d(2)
    return [plane_wave(k), separable_wavepacket(basis[0], (1.2, 1.2))]


@pytest.mark.parametrize("h", [None, 1e-3])
@pytest.mark.parametrize("shape", [(5,), (1, 5), (4, 5), (3, 2, 5)])
def test_covariant_derivative_on_the_stored_rows_is_the_multivector_sum(h, shape):
    x = np.random.default_rng(3).uniform(-1.0, 1.0, shape)
    gauge = GaugeField((0.2, -0.4, 0.1, 0.3), charge=-1.0, mass=1.2)
    varying = GaugeField(lambda y: np.array([0.2, -0.4, 0.1, 0.3]) * y[2], charge=1.0, mass=0.7)
    tensor = np.eye(5) + 0.1 * np.arange(25.0).reshape(5, 5) / 25.0
    for field in _fields():
        for frame in (em_frame(gauge, x.reshape(-1, 5)[0]), build_frame(tensor)):
            rows = np.array([v.coeffs for v in frame.reciprocal])
            want = _derivative_sum(field, x, h, rows, _ALL_AXES)
            got = covariant_derivative(field, frame, x, h)
            assert np.asarray(getattr(got, "coeffs", got)).tobytes() == want.tobytes()
        # a frame per point, as rows stacked from the Multivectors
        points = x.reshape(-1, 5)
        stacked = np.array([[v.coeffs for v in em_frame(varying, p).reciprocal] for p in points])
        want = _derivative_sum(field, x, h, stacked.reshape(x.shape[:-1] + (5, 32)), _ALL_AXES)
        got = covariant_derivative(field, lambda y: em_frame(varying, y), x, h)
        assert np.asarray(getattr(got, "coeffs", got)).tobytes() == want.tobytes()
