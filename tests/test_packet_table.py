"""A polynomial's value and partials from one power table, and a packet's
spatial factor from one call of it.  The two-table form they replace, in
which the value and the partials each built their own power table and
gathered their own monomials, is kept here as the reference; every
comparison is byte for byte, at one point, point arrays and points that
hold inf or NaN."""

import dataclasses
import math

import numpy as np
import pytest

from ga41 import monogenic
from ga41.algebra import N_BLADES, ONE, _FULL, _product, e
from ga41.monogenic import (
    AXES,
    EVEN_SPATIAL_MASKS,
    FLAGGED_MASKS,
    MultivectorField,
    PolynomialField,
    _axis_sum,
    _harmonic,
    _monomials,
    _wave_parts,
    monogenic_polynomials_3d,
    separable_wavepacket,
)

# -- the two-table form, kept as the reference ------------------------------


def _two_table_field(degree, vec):
    """_polynomial_field as it was: rows and partials each build a power
    table and gather the monomials of their own exponent rows."""
    nb = len(EVEN_SPATIAL_MASKS)
    coeffs = np.zeros((len(vec) // nb, N_BLADES))
    for bi, bmask in enumerate(EVEN_SPATIAL_MASKS):
        coeffs[:, bmask] = vec[bi::nb]
    keep = np.any(coeffs != 0.0, axis=1)
    expos, coeffs = np.array(_monomials(degree))[keep], coeffs[keep]
    flagged = not np.any(np.delete(coeffs, FLAGGED_MASKS, axis=1))

    def powers_of(xs):
        x = xs.reshape(-1, AXES)[:, 1:4, None]
        return np.cumprod(np.concatenate([np.ones_like(x)] + [x] * degree, axis=-1), axis=-1)

    def sums_of(factors, expos, powers):
        mono = factors * powers[:, 0, expos[..., 0]] * powers[:, 1, expos[..., 1]]
        mono = mono * powers[:, 2, expos[..., 2]]
        return _axis_sum(mono[..., None] * coeffs)

    def rows(xs):
        return sums_of(1.0, expos, powers_of(xs)).reshape(xs.shape[:-1] + (N_BLADES,))

    factors = expos.T
    lowered = np.maximum(expos - np.eye(3, dtype=int)[:, None], 0)

    def partials(xs):
        out = np.zeros(xs.shape[:-1] + (AXES, N_BLADES))
        sums = sums_of(factors, lowered, powers_of(xs))
        out[..., 1:4, :] = sums.reshape(xs.shape[:-1] + (3, N_BLADES))
        return out

    return PolynomialField(_rows=rows, _partials=partials, degree=degree, flagged=flagged)


def _two_table_basis(monkeypatch, degree):
    with monkeypatch.context() as m:
        m.setattr(monogenic, "_polynomial_field", _two_table_field)
        return monogenic_polynomials_3d(degree)


def _two_table_packet_partials(spatial, k, xs):
    """separable_wavepacket's partials as they were, from the spatial
    factor's rows and partials, one call each."""
    energy, mass = k
    grad, wave, turned = _wave_parts(energy * ONE + mass * e(0, 4), (-energy, 0.0, 0.0, 0.0, mass))
    value, d = _harmonic(xs, grad, wave, turned)
    s = spatial._rows(xs)[..., None, :]
    left = np.concatenate([s, spatial._partials(xs)[..., 1:4, :], s], axis=-2)
    right = d[..., None, :] * grad[:, None]
    right[..., 1:4, :] = value[..., None, :]
    return _product(_FULL, left, right)


# -- the points ----------------------------------------------------------------


def _point_sets():
    rng = np.random.default_rng(40)
    signed = rng.uniform(-1.5, 1.5, (10, 5))
    signed[2, 1:4] = [0.0, -0.0, -0.0]
    held = rng.uniform(-1.0, 1.0, (4, 5))
    held[1, 2] = math.inf
    held[2, 3] = -math.inf
    held[3, 1] = math.nan
    return {
        "(5,)": rng.uniform(-1.0, 1.0, 5),
        "(1, 5)": rng.uniform(-1.0, 1.0, (1, 5)),
        "(10, 5)": signed,
        "(3, 7, 5)": rng.uniform(-2.0, 2.0, (3, 7, 5)),
        "inf point": np.array([0.3, math.inf, -0.2, 0.5, 0.1]),
        "non-finite rows": held,
    }


_POINT_SETS = _point_sets()
_KS = [(1.2, 1.2), (-0.7, 0.7)]


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(_POINT_SETS))
def test_polynomial_rows_and_partials_are_the_two_table_form(monkeypatch, degree, name):
    xs = _POINT_SETS[name]
    old = _two_table_basis(monkeypatch, degree)
    new = monogenic_polynomials_3d(degree)
    assert len(new) == len(old)
    with np.errstate(invalid="ignore", over="ignore"):
        for got, want in zip(new, old):
            assert got.flagged == want.flagged
            assert _bytes(got._rows(xs)) == _bytes(want._rows(xs))
            assert _bytes(got._partials(xs)) == _bytes(want._partials(xs))
            spatial = got._spatial(xs)
            assert spatial.shape == xs.shape[:-1] + (4, N_BLADES)
            assert _bytes(spatial[..., 0, :]) == _bytes(want._rows(xs))
            assert _bytes(spatial[..., 1:, :]) == _bytes(want._partials(xs)[..., 1:4, :])


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", list(_POINT_SETS))
def test_packet_partials_are_the_two_table_form(monkeypatch, degree, name):
    xs = _POINT_SETS[name]
    old = _two_table_basis(monkeypatch, degree)
    with np.errstate(invalid="ignore", over="ignore"):
        for basis, reference in zip(monogenic_polynomials_3d(degree), old):
            for k in _KS:
                want = _two_table_packet_partials(reference, k, xs)
                got = separable_wavepacket(basis, k)._partials(xs)
                assert _bytes(got) == _bytes(want)
                # a spatial factor without the one-table call takes its
                # rows and partials, one call each
                plain = MultivectorField(_rows=reference._rows, _partials=reference._partials)
                assert _bytes(separable_wavepacket(plain, k)._partials(xs)) == _bytes(want)


def test_an_inf_coordinate_spreads_nan_as_before():
    basis = monogenic_polynomials_3d(2)[0]
    xs = _POINT_SETS["inf point"][None]
    with np.errstate(invalid="ignore", over="ignore"):
        partials = separable_wavepacket(basis, (1.2, 1.2))._partials(xs)
    assert np.isnan(partials).any()


def test_packet_partials_make_one_spatial_call(monkeypatch):
    calls = []

    def counted(label, fn):
        def wrapper(xs):
            calls.append(label)
            return fn(xs)

        return wrapper

    basis = monogenic_polynomials_3d(3)[1]
    traced = dataclasses.replace(
        basis,
        _rows=counted("rows", basis._rows),
        _partials=counted("partials", basis._partials),
        _spatial=counted("spatial", basis._spatial),
    )
    packet = separable_wavepacket(traced, (0.9, 0.9))
    calls.clear()  # the commutation check samples the rows
    packet._partials(_POINT_SETS["(10, 5)"])
    assert calls == ["spatial"]
    packet._rows(_POINT_SETS["(10, 5)"])
    assert calls == ["spatial", "rows"]


def test_one_power_table_per_polynomial_call(monkeypatch):
    basis = monogenic_polynomials_3d(3)[2]
    tables = []
    real = np.cumprod

    def counted(*args, **kwargs):
        tables.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "cumprod", counted)
    xs = _POINT_SETS["(10, 5)"]
    for call in (basis._rows, basis._partials, basis._spatial):
        tables.clear()
        call(xs)
        assert len(tables) == 1
