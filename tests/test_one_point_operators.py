"""The five one-point field operators: the value, the analytic and the
central-difference vector derivative, the Richardson Laplacian and the
covariant derivative in an electromagnetic frame.

Their bytes are pinned by a sha256 on a plane wave, Dirac column waves
and packets of degree 1-3, at three points (one with a -0.0 coordinate)
and two steps.  Around the pin sit properties that fix the rounding of
each operator from public calls: a Richardson Laplacian is its two plain
Laplacians combined, a plain Laplacian is the index-order sum of the
second differences of one-point field values, a family's rows are its
waves' rows, and an electromagnetic frame is its closed form.  Polynomial
rows and partials, and a packet's rows and partials, are pinned too.  The
Laplacian makes one field call, Richardson or not, and no packet call
makes a geometric product."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from ga41 import monogenic
from ga41.checks import run_checks
from ga41.algebra import N_BLADES, _VECTOR_MASKS
from ga41.dirac import column_wave, dirac_system, order_eigensystem
from ga41.frames import ETA, GaugeField, covariant_derivative, em_frame
from ga41.monogenic import (
    AXES,
    MomentumVector,
    harmonic_field,
    laplacian,
    monogenic_polynomials_3d,
    plane_wave,
    separable_wavepacket,
    vector_derivative,
)

# -- the fields and points -------------------------------------------------

_RNG = np.random.default_rng(19)
_MOMENTA = [
    MomentumVector.from_mass_momentum(tuple(_RNG.uniform(-2.5, 2.5, 3)), _RNG.uniform(0.1, 2.5))
    for _ in range(2)
]


def _fields():
    out = {}
    for i, k in enumerate(_MOMENTA):
        out[f"plane{i}"] = plane_wave(k)
        for index in (0, 3):
            out[f"column{i}.{index}"] = column_wave(order_eigensystem(dirac_system(k)), index)
    for degree in (1, 2, 3):
        for slot in (0, -1):
            basis = monogenic_polynomials_3d(degree)[slot]
            out[f"packet{degree}.{slot}"] = separable_wavepacket(basis, (1.3, -1.3))
    return out


_FIELDS = _fields()
#: one point, points (n, 5) and points (m, n, 5), a signed zero among them
_POINTS = {
    "one": np.array([-0.0, 0.7, -0.3, 0.0, 1.1]),
    "rows": _RNG.uniform(-1.5, 1.5, (4, 5)),
    "stack": _RNG.uniform(-1.5, 1.5, (3, 2, 5)),
}
_STEPS = (1e-3, 0.37)


def _bytes(value):
    return np.ascontiguousarray(getattr(value, "coeffs", value)).tobytes()


def _coeffs(value):
    return np.asarray(getattr(value, "coeffs", value))


# -- the pin -------------------------------------------------------------------

#: the pinned fields: the first momentum's plane wave and column waves,
#: and the first and last basis packet of each degree
_PINNED = ["plane0", "column0.0", "column0.3"] + [n for n in _FIELDS if n.startswith("packet")]
#: three fixed points, the first with a -0.0 coordinate
_PIN_POINTS = np.array(
    [[-0.0, 0.7, -0.3, 0.0, 1.1], [0.25, -1.2, 0.9, 0.4, -0.6], [1.4, 0.05, -0.8, -1.3, 0.2]]
)
#: a constant-potential gauge field for the covariant derivative
_GAUGE = GaugeField(np.array([0.3, -0.2, 0.5, 0.1]), charge=-1.0, mass=1.3)
#: sha256 of the five operators at each pinned field and point, in order:
#: the value, the analytic and the covariant derivative, then for each
#: step the central difference, the Richardson Laplacian and the covariant
#: derivative by central differences
_ONE_POINT_SHA256 = "3afa470d89b1a6a8a92a00ab38d47ff94544c04dd7d76a2e4349c2608a422b9f"


def _one_point_outputs(field, x):
    """The five operators' outputs at x, one point (5,) or points (n, 5)."""
    frame = em_frame(_GAUGE, x.reshape(-1, AXES)[0])  # a constant potential's one frame
    out = [field(x), vector_derivative(field, x), covariant_derivative(field, frame, x)]
    for h in _STEPS:
        out += [
            vector_derivative(field, x, h=h),
            laplacian(field, x, h, richardson=True),
            covariant_derivative(field, frame, x, h=h),
        ]
    return [_coeffs(v) for v in out]


def test_one_point_operators_are_pinned():
    digest = hashlib.sha256()
    for name in _PINNED:
        field = _FIELDS[name]
        batched = _one_point_outputs(field, _PIN_POINTS)
        for i, x in enumerate(_PIN_POINTS):
            outputs = _one_point_outputs(field, x)
            # each row of a batched call is its one-point call
            assert [_bytes(v) for v in outputs] == [_bytes(v[i]) for v in batched]
            for value in outputs:
                digest.update(_bytes(value))
    assert digest.hexdigest() == _ONE_POINT_SHA256


# -- the Laplacian from public calls ---------------------------------------------


@pytest.mark.parametrize("h", _STEPS)
@pytest.mark.parametrize("where", list(_POINTS))
@pytest.mark.parametrize("name", list(_FIELDS))
def test_a_richardson_laplacian_is_its_two_plain_laplacians(name, where, h):
    field, x = _FIELDS[name], _POINTS[where]
    coarse, fine = (_coeffs(laplacian(field, x, step)) for step in (h, h / 2.0))
    assert _bytes(laplacian(field, x, h, richardson=True)) == _bytes((4.0 * fine - coarse) / 3.0)


def _second_difference_sum(field, x, h):
    """-d2/dt2 + sum_i d2/dxi2 at one point from one-point field values:
    the central second differences along axes 0..4, the time one negated,
    added in index order from zero."""
    center = field(x).coeffs
    total = 0.0
    for a, unit in enumerate(np.eye(AXES)):
        step = h * unit
        second = (field(x + step).coeffs - 2.0 * center + field(x - step).coeffs) / (h * h)
        total = total + (-second if a == 0 else second)
    return total


@pytest.mark.parametrize("h", _STEPS)
@pytest.mark.parametrize("where", list(_POINTS))
@pytest.mark.parametrize("name", list(_FIELDS))
def test_a_plain_laplacian_is_the_index_order_sum_of_second_differences(name, where, h):
    field, x = _FIELDS[name], _POINTS[where]
    want = [_second_difference_sum(field, p, h) for p in x.reshape(-1, AXES)]
    got = _coeffs(laplacian(field, x, h)).reshape(-1, N_BLADES)
    assert [_bytes(row) for row in got] == [_bytes(row) for row in want]


#: the packets' energies and masses
_PACKET_KS = ((1.3, -1.3), (-0.8, 0.8), (2.1, 2.1))


@pytest.mark.parametrize("where", list(_POINTS))
@pytest.mark.parametrize("name", [n for n in _FIELDS if n.startswith("packet")])
def test_a_packet_laplacian_is_its_second_differences_at_every_energy(name, where):
    degree, slot = (int(s) for s in name[len("packet"):].split("."))
    basis = monogenic_polynomials_3d(degree)[slot]
    x = _POINTS[where]
    for k in _PACKET_KS:
        packet = separable_wavepacket(basis, k)
        for h in _STEPS:
            coarse, fine = (_coeffs(laplacian(packet, x, step)) for step in (h, h / 2.0))
            want = (4.0 * fine - coarse) / 3.0
            assert _bytes(laplacian(packet, x, h, richardson=True)) == _bytes(want)
            for i, p in enumerate(x.reshape(-1, AXES)):
                assert _bytes(coarse.reshape(-1, N_BLADES)[i]) == _bytes(
                    _second_difference_sum(packet, p, h)
                )


@pytest.mark.parametrize("axes", [monogenic._ALL_AXES, (1, 2, 3), (4, 0)])
def test_stencil_points_are_x_plus_and_minus_each_step(axes):
    # f returns its points, so the stencil's rows are the points it made;
    # x - h e_a keeps the -0.0 coordinates that x + h e_a makes +0.0
    x = np.array([-0.0, 0.7, -0.3, 0.0, -1.1])
    steps = (1e-3, 5e-4)
    center, plus, minus = monogenic._stencil(lambda xs: xs, x, steps, axes, center=True)
    assert _bytes(center[0]) == _bytes(x)
    for j, h in enumerate(steps):
        for i, a in enumerate(axes):
            step = h * np.eye(AXES)[a]
            assert (_bytes(plus[j, i]), _bytes(minus[j, i])) == (_bytes(x + step), _bytes(x - step))


# -- families, polynomials and packets --------------------------------------------


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("h", _STEPS)
def test_a_family_is_its_waves_byte_for_byte(h, richardson):
    amplitudes = np.array([k.amplitude.coeffs for k in _MOMENTA + _MOMENTA[:1]])
    grads = np.array([k.phase_gradient for k in _MOMENTA] + [-_MOMENTA[0].phase_gradient])
    family = harmonic_field(amplitudes, grads)
    x = _RNG.uniform(-1.5, 1.5, (3, 4, 5))
    x[1, 2, 3] = -0.0
    outputs = (
        family(x), family._partials(x), laplacian(family, x, h, richardson),
        vector_derivative(family, x), vector_derivative(family, x, h=h),
    )
    for i, (amplitude, grad) in enumerate(zip(amplitudes, grads)):
        wave = harmonic_field(amplitude, grad)
        want = (
            wave(x[i]), wave._partials(x[i]), laplacian(wave, x[i], h, richardson),
            vector_derivative(wave, x[i]), vector_derivative(wave, x[i], h=h),
        )
        assert [_bytes(out[i]) for out in outputs] == [_bytes(w) for w in want]


#: sha256 of the rows, then the partials, of every degree 0-3 basis
#: polynomial at _MANY_POINTS, in order; many points, where another order
#: of a monomial's factors would round apart
_POLYNOMIAL_SHA256 = {
    0: "3ab983164488ccf7dee829e417480cf316e5c35b74d63b5c220f9eb2a4984ec0",
    1: "1ff5ba37154b64fa41bef3ebaff2127b932e1d53ec18b5d67a5caec7607fbb44",
    2: "c50d70a8f7fd12dd0b8e6dbdf133221eb1b1947c006a80490b7ef01e2165249f",
    3: "a378f58d5b6cf0ed3dd8341623ee021199cc7f5efb22f4ff7f5a86b2d5a6c86f",
}
_MANY_POINTS = np.random.default_rng(3).uniform(-1.5, 1.5, (200, 5))
_MANY_POINTS[7, 1:4] = [-0.0, 0.0, -0.0]


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_polynomial_rows_and_partials_are_pinned(degree):
    digest = hashlib.sha256()
    for field in monogenic_polynomials_3d(degree):
        rows, partials = field._rows(_MANY_POINTS), field._partials(_MANY_POINTS)
        for x in _POINTS.values():  # each point's row is its one-point call
            xs = x.reshape(-1, AXES)
            for i, p in enumerate(xs):
                assert _bytes(field(p)) == _bytes(field._rows(xs)[i])
                assert _bytes(field._partials(p[None])[0]) == _bytes(field._partials(xs)[i])
        digest.update(_bytes(rows))
        digest.update(_bytes(partials))
    assert digest.hexdigest() == _POLYNOMIAL_SHA256[degree]


#: sha256 of the rows, then the partials, of every degree 1-3 basis
#: polynomial's packet for each of _PACKET_KS at _PACKET_POINTS, in order
_PACKET_SHA256 = "0623a4dde5284dc1ad564734d9a1278cafce14e1a7f0eca789b12af45ca76e02"
_PACKET_POINTS = np.random.default_rng(24).uniform(-3.0, 3.0, (6, 5))


def test_packet_bytes_are_pinned():
    digest = hashlib.sha256()
    for degree in (1, 2, 3):
        for basis in monogenic_polynomials_3d(degree):
            for k in _PACKET_KS:
                packet = separable_wavepacket(basis, k)
                rows, partials = packet._rows(_PACKET_POINTS), packet._partials(_PACKET_POINTS)
                # each row is its one-point call
                for i, x in enumerate(_PACKET_POINTS):
                    assert _bytes(packet(x)) == _bytes(rows[i])
                    assert _bytes(packet._partials(x[None])[0]) == _bytes(partials[i])
                digest.update(_bytes(rows))
                digest.update(_bytes(partials))
    assert digest.hexdigest() == _PACKET_SHA256


# -- the electromagnetic frame ---------------------------------------------------------


def test_em_frame_is_its_closed_form_byte_for_byte():
    rng = np.random.default_rng(7)
    for _ in range(200):
        potential = rng.uniform(-1.0, 1.0, 4) * rng.choice([1e-3, 1.0, 1e3])
        charge, mass = rng.choice([-1.0, 1.0, 0.7, -2.3]), rng.uniform(0.05, 3.0)
        field = GaugeField(potential, charge=charge, mass=mass)
        frame, x = em_frame(field, rng.uniform(-1.0, 1.0, 5)), rng.uniform(-1.0, 1.0, 5)
        # a callable potential's frame, built per point, is the constant one
        same = em_frame(GaugeField(lambda _: potential, charge=charge, mass=mass), x)
        for name in ("vectors", "reciprocal"):
            assert [v.coeffs.tobytes() for v in getattr(same, name)] == [
                v.coeffs.tobytes() for v in getattr(frame, name)
            ]
        assert (same.metric.tobytes(), same.inverse_metric.tobytes()) == (
            frame.metric.tobytes(), frame.inverse_metric.tobytes()
        )
        direct = np.array([v.coeffs[_VECTOR_MASKS] for v in frame.vectors]).T
        recip = np.array([v.coeffs[_VECTOR_MASKS] for v in frame.reciprocal])
        # vectors only, each in its five vector cells
        for v in frame.vectors + frame.reciprocal:
            assert np.count_nonzero(np.delete(v.coeffs, _VECTOR_MASKS)) == 0
        # g^a = e^a, but g^4 = e^4 + (charge/mass) A_mu e^mu, and g_a the
        # closed-form inverse, g_a = e_a - e4 (charge/mass) A_a
        tilt = field.charge / field.mass * potential
        want_recip, want_direct = ETA.copy(), np.eye(AXES)
        want_recip[4, :4] = tilt * np.array([-1.0, 1.0, 1.0, 1.0])
        want_direct[4, :4] = -tilt
        assert recip.tobytes() == want_recip.tobytes()
        assert direct.tobytes() == want_direct.tobytes()
        # the metrics are the frames' Gram matrices
        assert frame.metric.tobytes() == (direct.T @ ETA @ direct).tobytes()
        assert frame.inverse_metric.tobytes() == (recip @ ETA @ recip.T).tobytes()
        # the closed form inverts recip exactly, and the LU inverse meets it
        # to rounding
        assert np.array_equal(recip @ ETA @ direct, np.eye(AXES))
        gap = np.max(np.abs(ETA @ np.linalg.inv(recip) - direct))
        assert gap <= 4 * 2.0**-52 * np.max(np.abs(direct))


# -- call counts -------------------------------------------------------------


@pytest.mark.parametrize("richardson, rows", [(False, 11), (True, 21)])
@pytest.mark.parametrize("where", list(_POINTS))
@pytest.mark.parametrize("name", ["plane0", "column1.3", "packet2.0"])
def test_a_laplacian_is_one_field_call(name, where, richardson, rows):
    field, x = _FIELDS[name], _POINTS[where]
    shapes = []

    def counted(xs):
        shapes.append(xs.shape)
        return field._rows(xs)

    monogenic_field = monogenic.MultivectorField(_rows=counted, _partials=field._partials)
    assert _bytes(laplacian(monogenic_field, x, 1e-3, richardson)) == _bytes(
        laplacian(field, x, 1e-3, richardson)
    )
    # the centre, then x + h e_a and x - h e_a for each step
    assert shapes == [x.shape[:-1] + (rows, AXES)]


@pytest.mark.parametrize("where", list(_POINTS))
@pytest.mark.parametrize("name", [n for n in _FIELDS if n.startswith("packet")])
def test_packet_calls_make_no_product(name, where, monkeypatch):
    field, x = _FIELDS[name], _POINTS[where]
    xs = x[None] if x.ndim == 1 else x
    calls = []
    real = monogenic._product
    monkeypatch.setattr(monogenic, "_product", lambda *args: calls.append(1) or real(*args))
    field._rows(xs)
    field._partials(xs)
    field(x)
    monogenic.vector_derivative(field, x)
    monogenic.vector_derivative(field, x, h=1e-3)
    laplacian(field, x, 1e-3, richardson=True)
    assert calls == []


def test_the_richardson_half_step_is_checked_before_any_call():
    # half of the least subnormal is 0, which no stencil may take
    calls = []
    wave = _FIELDS["plane0"]
    counted = monogenic.MultivectorField(_rows=lambda xs: calls.append(1) or wave._rows(xs))
    with np.errstate(all="ignore"):  # h * h underflows to 0
        assert laplacian(counted, np.zeros(5), 5e-324).coeffs.shape == (N_BLADES,)
    calls.clear()
    with pytest.raises(ValueError, match="finite and positive"):
        laplacian(counted, np.zeros(5), 5e-324, richardson=True)
    assert calls == []


#: step values and whether vector_derivative, laplacian(richardson=True)
#: and run_checks(step_h=...) accept them; None asks vector_derivative for
#: the analytic derivative, and half of 5e-324 is 0
_STEP_CASES = [
    (True, (False, False, False)),
    (0, (False, False, False)),
    (-0.0, (False, False, False)),
    (5e-324, (True, False, True)),
    (math.nan, (False, False, False)),
    (math.inf, (False, False, False)),
    (-math.inf, (False, False, False)),
    (-1e-3, (False, False, False)),
    ("1e-3", (False, False, False)),
    (None, (True, False, False)),
    (Fraction(1, 1000), (True, True, True)),
    (np.float64(1e-3), (True, True, True)),
    (np.float32(1e-3), (True, True, True)),
    (1, (True, True, True)),
]


@pytest.mark.parametrize("h, accepted", _STEP_CASES, ids=[repr(h) for h, _ in _STEP_CASES])
def test_each_step_is_accepted_or_rejected_as_before(h, accepted):
    wave, x = _FIELDS["plane0"], _POINTS["one"]
    calls = (
        lambda: vector_derivative(wave, x, h=h),
        lambda: laplacian(wave, x, h, richardson=True),
        lambda: run_checks([], step_h=h),
    )
    for call, accept in zip(calls, accepted):
        if accept:
            with np.errstate(all="ignore"):  # 5e-324 squared underflows
                call()
        else:
            with pytest.raises(ValueError, match="^step h must be finite and positive$"):
                call()
