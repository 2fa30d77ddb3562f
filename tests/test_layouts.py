"""Fixed-layout objects and the index-order sum, pinned bit for bit.

The momentum vector and wave amplitude, a Dirac eigencolumn kept in
place, and the fifteen su(4) generators are built by writing their
components into a zero row or matrix.  The eigencolumn and the
generators equal, byte for byte and so with the same signed zeros, the
arithmetic they replace, which is copied here as the reference; the
momentum vector and amplitude equal their expansions in value, and hold
each number with its own sign in a row of +0.0.
"""

import math
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ga41 import MomentumVector
from ga41.algebra import ONE, _VECTOR_MASKS, e
from ga41.dirac import _column_parts, dirac_system
from ga41.matrices import from_matrix
from ga41.monogenic import _AMPLITUDE_LAYOUT, _axis_sum
from ga41.projectors import su4_generators


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _expanded_vector(k):
    out = k.energy * e(0) + k.mass * e(4)
    for i, q in enumerate(k.momentum):
        out = out + q * e(i + 1)
    return out


def _expanded_amplitude(k):
    out = k.energy * ONE + k.mass * e(0, 4)
    for i, q in enumerate(k.momentum):
        out = out + q * e(0, i + 1)
    return out


_signed_zero = st.sampled_from([0.0, -0.0])
_component = st.one_of(_signed_zero, st.floats(-1e3, 1e3))
_mass = st.one_of(_signed_zero, st.floats(0.0, 1e3))


def _assert_placed(k):
    """u and the amplitude: the expansions' values, and the five numbers
    written into a zero row, signed zeros included."""
    numbers = [k.energy, *k.momentum, k.mass]
    for got, expanded, masks in (
        (k.vector, _expanded_vector(k), _VECTOR_MASKS),
        (k.amplitude, _expanded_amplitude(k), _AMPLITUDE_LAYOUT),
    ):
        assert np.array_equal(got.coeffs, expanded.coeffs)
        row = np.zeros(32)
        row[masks] = numbers
        assert _same_bits(got.coeffs, row)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_component, _component, _component), _mass, st.booleans())
def test_vector_and_amplitude_match_their_expansions(momentum, mass, negative):
    # negative energy at p = 0 and m = 0 is E = -0.0
    _assert_placed(MomentumVector.from_mass_momentum(momentum, mass, negative_energy=negative))


def test_vector_and_amplitude_signed_zeros():
    for k in (
        MomentumVector(-0.0, (-0.0, -0.0, -0.0), -0.0),
        MomentumVector(-math.sqrt(3.0), (-1.0, -1.0, -1.0), -0.0),
        MomentumVector(-0.0, (0.0, -0.0, -0.0), -0.0),
        MomentumVector(2.0, (0.0, -0.0, 0.0), 2.0),
    ):
        _assert_placed(k)


def test_column_parts_match_the_selector_product():
    rng = np.random.default_rng(12)
    momenta = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -2.0), (1.0, 0.0, 0.0), (0.0, -0.5, 0.0)]
    momenta += [tuple(rng.uniform(-3.0, 3.0, 3)) for _ in range(40)]
    for p in momenta:
        for mass in (0.0, 0.7, 2.0):
            for negative in (False, True):
                k = MomentumVector.from_mass_momentum(p, mass, negative_energy=negative)
                if k.energy == 0.0:
                    continue
                system = dirac_system(k)
                lam = np.real(np.diag(system.lam))
                amplitudes, _ = _column_parts(system.psi_bar, lam, np.array(k.momentum))
                for index in range(4):
                    selector = np.zeros((4, 4), dtype=complex)
                    selector[index, index] = 1.0
                    want = from_matrix(np.asarray(system.psi_bar) @ selector).coeffs
                    assert _same_bits(amplitudes[index], want)


def _sym(i, j):
    m = np.zeros((4, 4), dtype=complex)
    m[i, j] = 1.0
    m[j, i] = 1.0
    return m


def _asym(i, j):
    m = np.zeros((4, 4), dtype=complex)
    m[i, j] = -1.0j
    m[j, i] = 1.0j
    return m


def test_su4_generators_match_the_standard_listing():
    listing = (
        _sym(0, 1),
        _asym(0, 1),
        np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex),
        _sym(0, 2),
        _asym(0, 2),
        _sym(1, 2),
        _asym(1, 2),
        (np.diag([1.0, 1.0, -2.0, 0.0]) * (1.0 / math.sqrt(3.0))).astype(complex),
        _sym(0, 3),
        _asym(0, 3),
        _sym(1, 3),
        _asym(1, 3),
        _sym(2, 3),
        _asym(2, 3),
        (np.diag([1.0, 1.0, 1.0, -3.0]) * (1.0 / math.sqrt(6.0))).astype(complex),
    )
    gens = su4_generators()
    assert len(gens) == len(listing)
    for got, want in zip(gens, listing):
        assert _same_bits(got, want)
        assert not got.flags.writeable


def _layout(terms: np.ndarray, kind: str) -> np.ndarray:
    """The same values held C-contiguous, Fortran-ordered, or with axis -2 innermost."""
    if kind == "fortran":
        return np.asfortranarray(terms)
    if kind == "swapped":
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(terms, -1, -2)), -1, -2)
    return np.ascontiguousarray(terms)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=3),
    st.integers(2, 16),
    st.sampled_from([2, 3, 32]),
    st.sampled_from(["c", "fortran", "swapped"]),
    st.integers(0, 2**32 - 1),
)
def test_axis_sum_matches_the_index_order_reduce(lead, n, width, kind, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (n, width)
    # magnitudes far apart, so that a sum in another order rounds differently
    terms = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
    terms[rng.random(shape) < 0.25] = 0.0
    terms[rng.random(shape) < 0.25] = -0.0
    terms = _layout(terms, kind)
    want = reduce(np.add, np.moveaxis(terms, -2, 0), 0.0)
    assert _same_bits(_axis_sum(terms), want)


def test_axis_sum_of_negative_zeros_is_positive_zero():
    terms = np.full((3, 4, 32), -0.0)
    assert _same_bits(_axis_sum(terms), np.zeros((3, 32)))
