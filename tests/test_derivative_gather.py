"""The flat vector derivative as a signed gather: e^a times a partial row is
a signed permutation of that row.  Each result is compared byte for byte
with the dense product it replaces, kept here as the reference, on random
partials with signed zeros, every index subset, one point, point arrays
and families, analytic and central-difference steps, and non-finite
partials, which keep the product.  The product kernel is called only for
non-finite partials and for frames other than the flat one."""

import itertools
from collections import Counter

import numpy as np
import pytest

from ga41 import monogenic
from ga41.algebra import N_BLADES, _FULL, _product
from ga41.frames import build_frame, covariant_derivative
from ga41.monogenic import (
    AXES,
    MomentumVector,
    MultivectorField,
    _RECIPROCAL_ROWS,
    _axis_sum,
    _points,
    _stencil,
    harmonic_field,
    monogenic_polynomials_3d,
    plane_wave,
    reduced_vector_derivative,
    separable_wavepacket,
    vector_derivative,
)

# -- the product form, kept as the reference ---------------------------------


def _product_sum(reciprocal, diffs):
    """The sum of reciprocal[a] times diffs[a] through the dense product."""
    return _axis_sum(_product(_FULL, reciprocal, diffs))


def _reference(field, x, h=None, indices=tuple(range(AXES))):
    """vector_derivative as the sum of reciprocal rows times partials, each
    product formed by the dense kernel."""
    x = _points(x)
    indices = list(indices)
    if not indices:
        return np.zeros(x.shape[:-1] + (N_BLADES,))
    if h is None:
        diffs = field._partials(x[..., None, :])[..., 0, :, :][..., indices, :]
    else:
        _, plus, minus = _stencil(field._rows, x, (h,), indices)
        diffs = (plus - minus)[..., 0, :, :] / (2.0 * h)
    return _product_sum(_RECIPROCAL_ROWS[indices], diffs)


def _bytes(value):
    return np.ascontiguousarray(getattr(value, "coeffs", value)).tobytes()


# -- fields -------------------------------------------------------------------


def _random_field(seed, bad=None):
    """A field whose rows and partials are smooth functions of the points,
    with about a third of its partial cells signed zeros of either sign;
    ``bad`` (a value) replaces one partial cell of every point."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(AXES, N_BLADES))
    zeros = rng.random((AXES, N_BLADES)) < 0.35
    negative = rng.random((AXES, N_BLADES)) < 0.5

    def rows(xs):
        return np.sin(xs @ weights)

    def partials(xs):
        values = np.cos(xs[..., :, None] * weights)
        values = np.where(zeros, np.where(negative, -0.0, 0.0), values)
        if bad is not None:
            values[..., 3, 6] = bad
        return values

    return MultivectorField(_rows=rows, _partials=partials)


def _fields():
    rng = np.random.default_rng(5)
    out = {"random": _random_field(1), "random signed": _random_field(2)}
    k = MomentumVector.from_mass_momentum((0.5, -1.0, 0.25), 1.5)
    out["plane"] = plane_wave(k)
    out["negative energy"] = plane_wave(MomentumVector.from_mass_momentum((0.0, 0.0, 0.0), 0.0, True))
    for degree in (1, 2, 3):
        out[f"packet {degree}"] = separable_wavepacket(monogenic_polynomials_3d(degree)[-1], (1.25, -1.25))
    amplitudes = rng.normal(size=(3, N_BLADES))
    amplitudes[rng.random((3, N_BLADES)) < 0.4] = -0.0
    out["family"] = harmonic_field(amplitudes, rng.normal(size=(3, AXES)))
    return out


FIELDS = _fields()
POINT_SHAPES = ((AXES,), (4, AXES), (3, 2, AXES))
#: every subset of the five axes, in index order, and some reordered ones
INDEX_SETS = [
    c for r in range(AXES + 1) for c in itertools.combinations(range(AXES), r)
] + [(4, 0), (2, 1), (3, 0, 4, 2, 1)]


def _points_for(name, shape, seed=0):
    rng = np.random.default_rng(seed)
    if name == "family":
        shape = (3,) + shape[1:] if len(shape) > 1 else (3, AXES)
    x = rng.uniform(-1.5, 1.5, shape)
    x[rng.random(shape) < 0.2] = -0.0
    return x


@pytest.mark.parametrize("h", [None, 1e-3, 0.37])
@pytest.mark.parametrize("shape", POINT_SHAPES)
@pytest.mark.parametrize("name", list(FIELDS))
def test_every_index_set_equals_the_product_byte_for_byte(name, shape, h):
    field, x = FIELDS[name], _points_for(name, shape)
    for indices in INDEX_SETS:
        got = vector_derivative(field, x, h=h, indices=indices)
        assert _bytes(got) == _bytes(_reference(field, x, h, indices)), indices
    got = vector_derivative(field, x, h=h)
    assert _bytes(got) == _bytes(_reference(field, x, h))


@pytest.mark.parametrize("h", [None, 1e-3])
@pytest.mark.parametrize("name", list(FIELDS))
def test_the_reduced_derivative_equals_the_product_byte_for_byte(name, h):
    field, x = FIELDS[name], _points_for(name, (3, 2, AXES))
    mass = np.array([[0.5], [0.0], [2.0]]) if name == "family" else 0.75
    turned = _product(_FULL, monogenic._MASS_AXIS, field._rows(x[..., None, :])[..., 0, :])
    want = _reference(field, x, h, (0, 1, 2, 3)) + turned * np.asarray(mass)[..., None]
    assert _bytes(reduced_vector_derivative(field, x, mass, h=h)) == _bytes(want)


def test_random_partials_with_signed_zeros_equal_the_product():
    rng = np.random.default_rng(11)
    for shape in ((AXES, N_BLADES), (6, AXES, N_BLADES), (2, 3, AXES, N_BLADES)):
        diffs = rng.normal(size=shape)
        diffs[rng.random(shape) < 0.4] = 0.0
        diffs[rng.random(shape) < 0.5] *= -1.0
        # drawn partials at the points x; the analytic sum reads no rows
        field = MultivectorField(_rows=lambda xs: None, _partials=lambda xs, d=diffs: d[..., None, :, :])
        x = np.zeros(shape[:-2] + (AXES,))
        for indices in INDEX_SETS:
            want = _reference(field, x, None, indices)
            assert _bytes(monogenic._derivative_sum(field, x, None, _RECIPROCAL_ROWS, indices)) == _bytes(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", POINT_SHAPES)
def test_non_finite_partials_keep_the_product(bad, shape):
    field, x = _random_field(3, bad), _points_for("random", shape)
    with np.errstate(invalid="ignore"):
        for indices in ((0, 1, 2, 3, 4), (3,), (4, 3), (0, 1)):
            got = vector_derivative(field, x, indices=indices)
            assert _bytes(got) == _bytes(_reference(field, x, None, indices))
        # 0 * inf and 0 * nan are NaN: the bad cell spreads over its whole row
        rows = np.frombuffer(_bytes(vector_derivative(field, x, indices=(3,))))
    assert np.count_nonzero(np.isnan(rows)) == rows.size // N_BLADES * (32 if np.isnan(bad) else 31)


def test_the_tables_come_from_one_blade_per_reciprocal_row():
    # e^a times a unit blade is one signed unit blade: the premise of the gather
    assert (np.count_nonzero(_RECIPROCAL_ROWS, axis=1) == 1).all()
    products = _product(_FULL, _RECIPROCAL_ROWS[:, None], np.eye(N_BLADES))
    assert (np.count_nonzero(products, axis=-1) == 1).all()
    cells = products[np.arange(AXES)[:, None], monogenic._FLAT_INDEX, np.arange(N_BLADES)]
    assert np.array_equal(cells, monogenic._FLAT_SIGNS)


# -- calls of the product kernel ---------------------------------------------


def _counted_products(monkeypatch):
    calls = Counter()
    real = monogenic._product

    def counted(*args):
        calls["_product"] += 1
        return real(*args)

    monkeypatch.setattr(monogenic, "_product", counted)
    return calls


@pytest.mark.parametrize("h", [None, 1e-3])
@pytest.mark.parametrize("shape", POINT_SHAPES)
def test_the_flat_derivative_takes_the_product_only_for_non_finite_partials(monkeypatch, shape, h):
    finite, x = _random_field(4), _points_for("random", shape)
    calls = _counted_products(monkeypatch)
    vector_derivative(finite, x, h=h)
    vector_derivative(finite, x, h=h, indices=(4, 0))
    assert calls == Counter()
    with np.errstate(invalid="ignore"):
        vector_derivative(_random_field(4, np.inf), x)
    assert calls == Counter(_product=1)


def test_the_covariant_derivative_keeps_the_product(monkeypatch):
    field, x = FIELDS["plane"], _points_for("plane", (4, AXES))
    flat = build_frame(np.eye(AXES))
    want = vector_derivative(field, x)
    calls = _counted_products(monkeypatch)
    got = covariant_derivative(field, flat, x)
    assert calls == Counter(_product=1)
    # the orthonormal frame's reciprocal vectors are the flat ones
    assert _bytes(got) == _bytes(want)
