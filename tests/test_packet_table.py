"""A polynomial's value and partials from one power table, its term
table, and a packet as a central phase times that table.

The two-table form of the polynomial, in which the value and the
partials each built their own power table and gathered their own
monomials, is kept here as the reference, byte for byte, at one point,
point arrays and points that hold inf or NaN.  A packet is held to the
geometric product of its two factors within a rounding bound derived
from its term count, for a polynomial factor and for a factor that
gives only its rows and partials; it takes one power table per call,
and rejects a point that is not finite before it
builds a power table.
"""

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
    _monomial_values,
    _monomials,
    _wave_parts,
    monogenic_polynomials_3d,
    separable_wavepacket,
    vector_derivative,
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


def _product_form(spatial, k, xs):
    """The packet's rows and partials as a geometric product of its two
    factors, S T and [S, d1 S, d2 S, d3 S, S] times [d0 T, T, T, T, d4 T]."""
    energy, mass = k
    grad, wave, turned = _wave_parts(energy * ONE + mass * e(0, 4), (-energy, 0.0, 0.0, 0.0, mass))
    value, d = _harmonic(xs, grad, wave, turned)
    s = spatial._rows(xs)[..., None, :]
    left = np.concatenate([s, spatial._partials(xs)[..., 1:4, :], s], axis=-2)
    right = d[..., None, :] * grad[:, None]
    right[..., 1:4, :] = value[..., None, :]
    return _product(_FULL, s[..., 0, :], value), _product(_FULL, left, right)


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
            # the term table sums to the same rows
            assert got.monomials.shape == (len(got.coefficients), 3)
            assert len(got.coefficients) <= 10
            terms = _monomial_values(got.monomials, degree, slice(None))(xs.reshape(-1, AXES))
            table = _axis_sum(terms[..., None] * got.coefficients)
            table = table.reshape(xs.shape[:-1] + (4, N_BLADES))
            assert _bytes(table[..., 0, :]) == _bytes(want._rows(xs))
            assert _bytes(table[..., 1:, :]) == _bytes(want._partials(xs)[..., 1:4, :])


# -- the packet against the product form ---------------------------------------

#: unit roundoff of float64
_U = 2.0**-53


def _gamma(n):
    """gamma_n = n u / (1 - n u), the bound on n roundings in a row."""
    return n * _U / (1.0 - n * _U)


def _rounding_bound(k, terms, table, xs):
    """Bound (..., 5 + 1) on |packet - product form| for the values, then
    the partials, of a spatial factor with term values ``terms`` (n, 4, J)
    at xs and term rows ``table`` (J, 32).

    Both forms start from the same term values s_j, cos and sin, and so
    differ only in the roundings after them.  The packet takes each of its
    2J terms as s_j cos times C_j A (two products per cell, as A = E +
    m e04 has two blades) or s_j sin times C_j A I (I permutes exactly),
    and sums them in a row: gamma_{2J+3} times the sum of the terms'
    magnitudes, one more rounding where the constants carry g_a.  The
    product form sums S = sum_j s_j C_j (J), rounds each cell of
    T = A cos + A I sin once (the two have disjoint blades) and sums the 32
    terms of each cell of S T: gamma_{J+33}, one more for g_a.  Every
    magnitude is at most sum_j |s_j| |C_j|_1 |A|_1 (|cos| + |sin|), with
    |cos| + |sin| <= sqrt 2, and times |g_a| along axes 0 and 4."""
    energy, mass = k
    j = len(table)
    amplitude = abs(energy) + abs(mass)
    weights = np.abs(terms) @ np.abs(table).sum(axis=1) * amplitude * math.sqrt(2.0)
    along = weights[..., [0, 0, 1, 2, 3, 0]] * np.array([1.0, abs(energy), 1.0, 1.0, 1.0, abs(mass)])
    return (_gamma(2 * j + 4) + _gamma(j + 34)) * along.reshape(xs.shape[:-1] + (6,))


def _assert_within_bound(packet, spatial, k, terms, table, xs):
    rows, partials = _product_form(spatial, k, xs)
    bound = _rounding_bound(k, terms, table, xs)
    assert np.all(np.abs(packet._rows(xs) - rows) <= bound[..., :1])
    assert np.all(np.abs(packet._partials(xs) - partials) <= bound[..., 1:, None])


#: finite points, out to |x| = 3
_PACKET_POINTS = {
    "(1, 5)": np.array([[0.4, -2.9, 1.7, 2.2, -0.6]]),
    "(40, 5)": np.random.default_rng(41).uniform(-3.0, 3.0, (40, 5)),
    "(3, 7, 5)": np.random.default_rng(42).uniform(-3.0, 3.0, (3, 7, 5)),
}


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", list(_PACKET_POINTS))
def test_packet_is_the_product_form_within_its_rounding_bound(degree, name):
    xs = _PACKET_POINTS[name]
    for basis in monogenic_polynomials_3d(degree):
        terms = _monomial_values(basis.monomials, degree, slice(None))(xs.reshape(-1, AXES))
        for k in _KS + [(2.5, -2.5)]:
            packet = separable_wavepacket(basis, k)
            _assert_within_bound(packet, basis, k, terms, basis.coefficients, xs)


def _plain_factor(with_partials=True):
    """cos x1 + x2 x3 e12 + sin x3 e23, not a polynomial: it commutes with
    e0 and e4, and its partials are analytic."""

    def rows(xs):
        out = np.zeros(xs.shape[:-1] + (N_BLADES,))
        out[..., 0] = np.cos(xs[..., 1])
        out[..., 0b00110] = xs[..., 2] * xs[..., 3]
        out[..., 0b01100] = np.sin(xs[..., 3])
        return out

    def partials(xs):
        out = np.zeros(xs.shape[:-1] + (AXES, N_BLADES))
        out[..., 1, 0] = -np.sin(xs[..., 1])
        out[..., 2, 0b00110] = xs[..., 3]
        out[..., 3, 0b00110] = xs[..., 2]
        out[..., 3, 0b01100] = np.cos(xs[..., 3])
        return out

    return MultivectorField(_rows=rows, _partials=partials if with_partials else None)


@pytest.mark.parametrize("name", list(_PACKET_POINTS))
def test_a_plain_spatial_factor_takes_the_same_kernel(name, monkeypatch):
    # its term rows are the 32 unit blades, its term values its own rows
    # and partials
    xs = _PACKET_POINTS[name]
    flat = xs.reshape(-1, AXES)
    factors = {"non-polynomial": _plain_factor()}
    for degree in (1, 3):
        basis = monogenic_polynomials_3d(degree)[-1]
        factors[f"degree {degree}"] = MultivectorField(_rows=basis._rows, _partials=basis._partials)
    # a polynomial without its term table
    basis = monogenic_polynomials_3d(2)[0]
    factors["no table"] = dataclasses.replace(basis, monomials=None, coefficients=None)
    for factor in factors.values():
        terms = np.concatenate([factor._rows(flat)[:, None], factor._partials(flat)[:, 1:4]], axis=1)
        for k in _KS:
            packet = separable_wavepacket(factor, k)
            _assert_within_bound(packet, factor, k, terms, np.eye(N_BLADES), xs)
    assert separable_wavepacket(_plain_factor(with_partials=False), _KS[0])._partials is None
    # one call of the factor's rows, and of its partials, and no product
    calls = []
    factor = factors["non-polynomial"]
    traced = MultivectorField(
        _rows=lambda xs: calls.append("rows") or factor._rows(xs),
        _partials=lambda xs: calls.append("partials") or factor._partials(xs),
    )
    packet = separable_wavepacket(traced, _KS[1])
    real = monogenic._product
    monkeypatch.setattr(monogenic, "_product", lambda *args: calls.append("product") or real(*args))
    calls.clear()  # the commutation check samples the rows
    packet._rows(xs)
    assert calls == ["rows"]
    packet._partials(xs)
    assert calls == ["rows", "rows", "partials"]


def _counted_tables(monkeypatch):
    """Patch _monomial_values so that each power table it builds is counted."""
    tables = []
    real = monogenic._monomial_values

    def counted(*args):
        values = real(*args)
        return lambda xs: tables.append(xs.shape) or values(xs)

    monkeypatch.setattr(monogenic, "_monomial_values", counted)
    return tables


def test_one_power_table_per_polynomial_or_packet_call(monkeypatch):
    tables = _counted_tables(monkeypatch)
    basis = monogenic_polynomials_3d(3)[2]
    packet = separable_wavepacket(basis, (0.9, 0.9))
    xs = _PACKET_POINTS["(3, 7, 5)"]
    for call in (basis._rows, basis._partials, packet._rows, packet._partials):
        tables.clear()
        call(xs)
        assert tables == [(21, 5)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_coordinate_that_is_not_finite_is_rejected_before_the_power_table(monkeypatch, bad):
    tables = _counted_tables(monkeypatch)
    packet = separable_wavepacket(monogenic_polynomials_3d(2)[0], (1.2, 1.2))
    x = np.array([0.3, bad, -0.2, 0.5, 0.1])
    tables.clear()  # the commutation check samples the polynomial
    calls = (packet, packet.value, lambda x: packet.derivative(x, 0), lambda x: vector_derivative(packet, x))
    for call in calls:
        with pytest.raises(ValueError, match="^points must be finite$"):
            call(x)
    assert tables == []
