"""The Laplacian, the polynomial partials and the electromagnetic frame
against their earlier forms, kept here as references: each new form
gives the same bytes, on planes, Dirac column waves and packets of degree
1-3, at one point, at points (n, 5) and at a family's points (m, n, 5).
The Laplacian makes one field call, Richardson or not.  A packet's rows
and partials, whose bytes moved once when it became a central phase
times a term table, are pinned by a sha256, and no packet call makes a
geometric product."""

import hashlib
import math

import numpy as np
import pytest

from ga41 import Multivector, monogenic
from ga41.algebra import N_BLADES, PSEUDOSCALAR, _FULL, _VECTOR_MASKS, _product
from ga41.dirac import column_wave, dirac_system, order_eigensystem
from ga41.frames import ETA, Frame, GaugeField, em_frame
from ga41.monogenic import (
    AXES,
    MomentumVector,
    _axis_sum,
    _monomials,
    _points,
    _result,
    harmonic_field,
    laplacian,
    monogenic_polynomials_3d,
    plane_wave,
    separable_wavepacket,
)

# -- the earlier forms, kept as references ---------------------------------


def _old_stencil(f, x, h, axes=range(AXES), center=False):
    if not 0.0 < h < math.inf:
        raise ValueError("step h must be finite and positive")
    steps = h * np.eye(AXES)[list(axes)]
    n = len(steps)
    x = x[..., None, :]
    out = f(np.concatenate(([x] if center else []) + [x + steps, x - steps], axis=-2))
    return out[..., : -2 * n, :], out[..., -2 * n : -n, :], out[..., -n:, :]


def _old_laplacian(field, x, h=1e-3, richardson=False):
    if richardson:
        coarse = _old_laplacian(field, x, h)
        fine = _old_laplacian(field, x, h / 2.0)
        return (4.0 * fine - coarse) / 3.0
    x = _points(x)
    center, plus, minus = _old_stencil(field._rows, x, h, center=True)
    second = (plus - 2.0 * center + minus) / (h * h)
    second[..., 0, :] = -second[..., 0, :]
    return _result(x, _axis_sum(second))


def _old_polynomial_parts(degree, vec):
    """The rows and partials of _polynomial_field(degree, vec), three
    power tables and a stack per partials call."""
    nb = len(monogenic.EVEN_SPATIAL_MASKS)
    coeffs = np.zeros((len(vec) // nb, N_BLADES))
    for bi, bmask in enumerate(monogenic.EVEN_SPATIAL_MASKS):
        coeffs[:, bmask] = vec[bi::nb]
    keep = np.any(coeffs != 0.0, axis=1)
    expos, coeffs = np.array(_monomials(degree))[keep], coeffs[keep]

    def rows_of(factors, expos, xs):
        x = xs.reshape(-1, AXES)[:, 1:4, None]
        powers = np.cumprod(np.concatenate([np.ones_like(x)] + [x] * degree, axis=-1), axis=-1)
        mono = factors * powers[:, 0, expos[:, 0]] * powers[:, 1, expos[:, 1]]
        mono = mono * powers[:, 2, expos[:, 2]]
        return _axis_sum(mono[:, :, None] * coeffs).reshape(xs.shape[:-1] + (N_BLADES,))

    lowered = [(expos[:, a], np.maximum(expos - np.eye(3, dtype=int)[a], 0)) for a in range(3)]

    def partials(xs):
        zero = np.zeros(xs.shape[:-1] + (N_BLADES,))
        return np.stack([zero, *(rows_of(f, lo, xs) for f, lo in lowered), zero], axis=-2)

    return (lambda xs: rows_of(1.0, expos, xs)), partials


def _old_harmonic_parts(amplitude, phase_gradient):
    amp = np.array(getattr(amplitude, "coeffs", amplitude), dtype=float)
    grad = np.array(phase_gradient, dtype=float)
    amp_i = _product(_FULL, amp, PSEUDOSCALAR.coeffs)

    def lined_up(v, xs):
        return v.reshape((len(v),) + (1,) * (xs.ndim - 2) + v.shape[-1:]) if grad.ndim == 2 else v

    def wave(xs, a, b):
        p = (xs * lined_up(grad, xs)).T
        ph = (p[0] + p[1] + p[2] + p[3] + p[4]).T[..., None]
        return lined_up(a, xs) * np.cos(ph) + lined_up(b, xs) * np.sin(ph)

    def partials(xs):
        return wave(xs, amp_i, -amp)[..., None, :] * lined_up(grad, xs)[..., :, None]

    return (lambda xs: wave(xs, amp, amp_i)), partials


def _old_em_frame(field, x):
    def vectors(components):
        rows = np.zeros(components.shape[:-1] + (N_BLADES,))
        rows[..., _VECTOR_MASKS] = components
        return tuple(map(Multivector._wrap, rows))

    if field.mass == 0.0:
        raise ValueError("electromagnetic frame requires a nonzero mass")
    a = field.potential_at(x)
    ratio = field.charge / field.mass
    recip = np.eye(AXES)
    recip[0, 0] = -1.0
    recip[4, :4] = ratio * a * np.array([-1.0, 1.0, 1.0, 1.0])
    inverse_metric = recip @ ETA @ recip.T
    direct = np.eye(AXES)  # ETA recip^-1 in closed form
    direct[4, :4] = -(ratio * a)
    metric = direct.T @ ETA @ direct
    return Frame(vectors(direct.T), metric, inverse_metric, vectors(recip))


# -- the fields and points -------------------------------------------------

_RNG = np.random.default_rng(19)
_MOMENTA = [
    MomentumVector.from_mass_momentum(tuple(_RNG.uniform(-2.5, 2.5, 3)), _RNG.uniform(0.1, 2.5))
    for _ in range(2)
]


def _basis_vectors(degree, monkeypatch):
    """The coefficient vectors monogenic_polynomials_3d passes to
    _polynomial_field, with the fields it builds from them."""
    seen = []
    real = monogenic._polynomial_field
    monkeypatch.setattr(
        monogenic, "_polynomial_field", lambda d, vec: seen.append(vec) or real(d, vec)
    )
    fields = monogenic_polynomials_3d(degree)
    monkeypatch.undo()
    return list(zip(seen, fields))


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
    return np.asarray(getattr(value, "coeffs", value)).tobytes()


# -- byte for byte -----------------------------------------------------------


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("h", _STEPS)
@pytest.mark.parametrize("where", list(_POINTS))
@pytest.mark.parametrize("name", list(_FIELDS))
def test_laplacian_is_the_earlier_laplacian_byte_for_byte(name, where, h, richardson):
    field, x = _FIELDS[name], _POINTS[where]
    want = _old_laplacian(field, x, h, richardson)
    assert _bytes(laplacian(field, x, h, richardson)) == _bytes(want)


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("h", _STEPS)
def test_a_family_laplacian_is_the_earlier_one_byte_for_byte(h, richardson):
    amplitudes = np.array([k.amplitude.coeffs for k in _MOMENTA + _MOMENTA[:1]])
    grads = np.array([k.phase_gradient for k in _MOMENTA] + [-_MOMENTA[0].phase_gradient])
    family = harmonic_field(amplitudes, grads)
    x = _RNG.uniform(-1.5, 1.5, (3, 4, 5))
    want = _old_laplacian(family, x, h, richardson)
    assert _bytes(laplacian(family, x, h, richardson)) == _bytes(want)
    old_rows, old_partials = _old_harmonic_parts(amplitudes, grads)
    assert _bytes(family(x)) == _bytes(old_rows(x))
    assert _bytes(family._partials(x)) == _bytes(old_partials(x))


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_polynomial_partials_are_the_earlier_ones_byte_for_byte(degree, monkeypatch):
    # many points too, where another order of the factors would round apart
    many = np.random.default_rng(3).uniform(-1.5, 1.5, (200, 5))
    for vec, field in _basis_vectors(degree, monkeypatch):
        old_rows, old_partials = _old_polynomial_parts(degree, vec)
        for x in [*_POINTS.values(), many]:
            xs = x[None] if x.ndim == 1 else x
            assert _bytes(field._rows(xs)) == _bytes(old_rows(xs))
            assert _bytes(field._partials(xs)) == _bytes(old_partials(xs))


#: the packets' energies and masses
_PACKET_KS = ((1.3, -1.3), (-0.8, 0.8), (2.1, 2.1))
#: sha256 of the rows, then the partials, of every degree 1-3 basis
#: polynomial's packet for each of _PACKET_KS at _PACKET_POINTS, in order
_PACKET_SHA256 = "0623a4dde5284dc1ad564734d9a1278cafce14e1a7f0eca789b12af45ca76e02"
_PACKET_POINTS = np.random.default_rng(24).uniform(-3.0, 3.0, (6, 5))


@pytest.mark.parametrize("where", list(_POINTS))
@pytest.mark.parametrize("name", [n for n in _FIELDS if n.startswith("packet")])
def test_packet_laplacian_is_the_earlier_laplacian_byte_for_byte(name, where):
    degree, slot = (int(s) for s in name[len("packet"):].split("."))
    basis = monogenic_polynomials_3d(degree)[slot]
    x = _POINTS[where]
    for k in _PACKET_KS:
        packet = separable_wavepacket(basis, k)
        for h in _STEPS:
            want = _old_laplacian(packet, x, h, richardson=True)
            assert _bytes(laplacian(packet, x, h, richardson=True)) == _bytes(want)


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


def test_em_frame_is_the_closed_form_frame_byte_for_byte():
    rng = np.random.default_rng(7)
    for _ in range(200):
        potential = rng.uniform(-1.0, 1.0, 4) * rng.choice([1e-3, 1.0, 1e3])
        field = GaugeField(potential, charge=rng.choice([-1.0, 1.0]), mass=rng.uniform(0.05, 3.0))
        x = rng.uniform(-1.0, 1.0, 5)
        got, want = em_frame(field, x), _old_em_frame(field, x)
        for name in ("vectors", "reciprocal"):
            assert [v.coeffs.tobytes() for v in getattr(got, name)] == [
                v.coeffs.tobytes() for v in getattr(want, name)
            ]
        assert got.metric.tobytes() == want.metric.tobytes()
        assert got.inverse_metric.tobytes() == want.inverse_metric.tobytes()
        # the closed form inverts recip exactly, and the LU inverse meets it
        # to rounding
        direct = np.array([v.coeffs[_VECTOR_MASKS] for v in got.vectors]).T
        recip = np.array([v.coeffs[_VECTOR_MASKS] for v in got.reciprocal])
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
