"""Every index argument follows one integer rule: a Python or numpy
integer, not a bool, in range, or ValueError with the argument's own
message."""

from collections import Counter

import numpy as np
import pytest

from ga41 import (
    ONE,
    MomentumVector,
    blade_grade,
    blade_name,
    blade_product,
    e,
    e_upper,
    grade_part,
    plane_wave,
)
from ga41 import monogenic
from ga41.matrices import sigma_matrix
from ga41.monogenic import monogenic_polynomials_3d, vector_derivative

BLADE = "blade mask out of range"
BASIS = "basis index out of range"


def _basis(fields):
    """Each field's degree, flag and term table, comparable with ==."""
    return [(f.degree, f.flagged, f.monomials.tolist(), f.coefficients.tolist()) for f in fields]


#: (argument, call of one index, number of valid indices, message prefix)
INDEX_ARGUMENTS = (
    ("blade_grade", blade_grade, 32, BLADE),
    ("blade_name", blade_name, 32, BLADE),
    ("blade_product left", lambda i: blade_product(i, 5), 32, BLADE),
    ("blade_product right", lambda i: blade_product(5, i), 32, BLADE),
    ("Multivector.coeff", lambda i: ONE.coeff(i), 32, BLADE),
    ("Multivector.grade_part", lambda i: ONE.grade_part(i), 6, "grade out of range"),
    ("grade_part", lambda i: grade_part(ONE, i), 6, "grade out of range"),
    ("e", e, 5, BASIS),
    ("e second factor", lambda i: e(2, i), 5, BASIS),
    ("e_upper", e_upper, 5, BASIS),
    ("sigma_matrix", sigma_matrix, 5, BASIS),
    ("monogenic_polynomials_3d", lambda d: _basis(monogenic_polynomials_3d(d)), 4, "unsupported degree"),
)

BAD_VALUES = (True, False, 1.0, 2.0, 1.5, -1, np.float64(1.0), np.bool_(True), "1", None)


def _arguments():
    for label, call, count, message in INDEX_ARGUMENTS:
        for value in (*BAD_VALUES, count, np.int64(count)):
            yield pytest.param(call, value, message, id=f"{label}-{value!r}")


@pytest.mark.parametrize("call, value, message", list(_arguments()))
def test_a_bad_index_raises_value_error_with_its_message(call, value, message):
    with pytest.raises(ValueError, match=f"^{message}: "):
        call(value)


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("label, call, count, message", INDEX_ARGUMENTS)
def test_numpy_integer_indices_work_as_python_integers(label, call, count, message):
    for i in range(count):
        for kind in (np.int64, np.int8, np.uint8):
            assert _same(call(kind(i)), call(i)), (label, kind, i)


WAVE = plane_wave(MomentumVector.from_mass_momentum((0.5, 1.0, -1.0), 2.0))
X = np.array([0.1, 0.2, 0.3, 0.4, 0.5])


@pytest.mark.parametrize(
    "indices",
    [(-1,), (5,), (1, 1), (0, 4, 4), (1.0,), (np.float64(2.0),), (True,), (1, False), ("1",)],
)
@pytest.mark.parametrize("h", [None, 1e-3])
def test_vector_derivative_rejects_bad_index_sets(indices, h):
    with pytest.raises(ValueError, match=r"^indices must be distinct integers in 0\.\.4"):
        vector_derivative(WAVE, X, h=h, indices=indices)


@pytest.mark.parametrize("indices", [1, None, np.int64(2), 2.0])
def test_vector_derivative_rejects_an_index_set_that_is_not_iterable(indices):
    message = f"indices must be distinct integers in 0..4, got {indices!r}"
    with pytest.raises(ValueError) as info:
        vector_derivative(WAVE, X, indices=indices)
    assert str(info.value) == message
    assert info.value.__cause__ is None and info.value.__suppress_context__


@pytest.mark.parametrize("h", [None, 1e-3])
def test_vector_derivative_takes_numpy_integer_indices(h):
    for indices in ((1, 2, 3), (4, 0), (2,), ()):
        want = vector_derivative(WAVE, X, h=h, indices=indices).coeffs
        got = vector_derivative(WAVE, X, h=h, indices=tuple(np.int64(a) for a in indices))
        assert got.coeffs.tobytes() == want.tobytes()
    assert vector_derivative(WAVE, X, indices=np.arange(5)) == vector_derivative(WAVE, X)


def test_only_an_index_set_the_caller_passes_is_checked(monkeypatch):
    calls = Counter()
    real = monogenic._integer

    def counted(*args):
        calls["_integer"] += 1
        return real(*args)

    monkeypatch.setattr(monogenic, "_integer", counted)
    vector_derivative(WAVE, X)
    vector_derivative(WAVE, np.stack([X, X]), h=1e-3)
    assert calls == Counter()
    vector_derivative(WAVE, X, indices=(1, 2, 3))
    assert calls == Counter(_integer=3)
