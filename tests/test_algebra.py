"""Core multivector arithmetic against an independent slow oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ga41 import (
    Multivector,
    ONE,
    PSEUDOSCALAR,
    blade_grade,
    blade_name,
    blade_product,
    commutator,
    e,
    e_upper,
    geometric_product,
    grade_part,
    inner,
    mv_exp,
    norm,
    outer,
    parse_multivector,
    reverse,
    rotate,
    scalar_product,
)

from ga41.algebra import _worst

N = 32
METRIC = (-1, 1, 1, 1, 1)


def slow_blade_product(a_indices, b_indices):
    """Reference product on sorted index tuples: concatenate, bubble-sort
    counting transpositions, cancel equal neighbours with their metric."""
    seq = list(a_indices) + list(b_indices)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= METRIC[seq[i]]
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def mask_to_indices(mask):
    return tuple(k for k in range(5) if mask >> k & 1)


def indices_to_mask(indices):
    out = 0
    for k in indices:
        out |= 1 << k
    return out


def slow_multiply(a: Multivector, b: Multivector) -> Multivector:
    coeffs = np.zeros(N)
    for i in range(N):
        if a.coeffs[i] == 0.0:
            continue
        for j in range(N):
            if b.coeffs[j] == 0.0:
                continue
            sign, out = slow_blade_product(mask_to_indices(i), mask_to_indices(j))
            coeffs[indices_to_mask(out)] += sign * a.coeffs[i] * b.coeffs[j]
    return Multivector(coeffs)


def _dense_tables():
    tables = {op: np.zeros((N * N, N)) for op in "*^|"}
    for i in range(N):
        for j in range(N):
            sign, out = slow_blade_product(mask_to_indices(i), mask_to_indices(j))
            k = indices_to_mask(out)
            gi, gj, gk = blade_grade(i), blade_grade(j), blade_grade(k)
            tables["*"][i * N + j, k] = sign
            if gk == gi + gj:
                tables["^"][i * N + j, k] = sign
            if gk == abs(gi - gj):
                tables["|"][i * N + j, k] = sign
    return tables


_DENSE = _dense_tables()
_OPS = {"*": lambda a, b: a * b, "^": lambda a, b: a ^ b, "|": lambda a, b: a | b}


def reference_product(a: Multivector, b: Multivector, op: str = "*") -> np.ndarray:
    """The earlier dense-table product: the flattened coefficient outer
    product times a 1024x32 table of signs."""
    return np.outer(a.coeffs, b.coeffs).ravel() @ _DENSE[op]


def random_mv(rng, scale=1.0):
    return Multivector(rng.uniform(-scale, scale, N))


small_ints = st.integers(min_value=-4, max_value=4)
int_mv = st.lists(small_ints, min_size=N, max_size=N).map(
    lambda v: Multivector(np.array(v, dtype=float))
)


def test_blade_product_matches_reference_oracle():
    for a in range(N):
        for b in range(N):
            sign, mask = blade_product(a, b)
            ref_sign, ref_indices = slow_blade_product(
                mask_to_indices(a), mask_to_indices(b)
            )
            assert (sign, mask) == (ref_sign, indices_to_mask(ref_indices)), (a, b)


def test_blade_product_range_check():
    with pytest.raises(ValueError):
        blade_product(32, 0)
    with pytest.raises(ValueError):
        blade_product(0, -1)


def test_blade_grade_and_names():
    assert blade_grade(0) == 0
    assert blade_grade(0b10110) == 3
    assert blade_name(0) == "1"
    assert blade_name(0b01011) == "e013"
    assert blade_name(0b11111) == "e01234"


def test_generator_squares():
    assert (e(0) * e(0)).coeffs[0] == -1.0
    for k in range(1, 5):
        assert (e(k) * e(k)).coeffs[0] == 1.0


def test_generator_anticommutation():
    for a in range(5):
        for b in range(5):
            if a == b:
                continue
            total = e(a) * e(b) + e(b) * e(a)
            assert total.max_abs() == 0.0


def test_geometric_product_matches_slow_multiply():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        a, b = random_mv(rng), random_mv(rng)
        assert (a * b - slow_multiply(a, b)).max_abs() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(int_mv, int_mv, st.sampled_from("*^|"))
def test_products_match_dense_reference_on_integers(a, b, op):
    assert np.array_equal(_OPS[op](a, b).coeffs, reference_product(a, b, op))


def test_products_match_dense_reference_within_rounding():
    # each output cell is a signed sum of 32 rounded products in either
    # path, so the two differ by at most 2 gamma_32 sum |a_i b_j|
    u = np.finfo(np.float64).eps / 2
    gamma = 32 * u / (1 - 32 * u)
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b = random_mv(rng), random_mv(rng)
        magnitude = np.outer(np.abs(a.coeffs), np.abs(b.coeffs)).ravel() @ np.abs(_DENSE["*"])
        for op, product in _OPS.items():
            diff = np.abs(product(a, b).coeffs - reference_product(a, b, op))
            assert np.all(diff <= 2 * gamma * magnitude), op


def test_basis_blade_products_follow_grade_rules():
    zero = np.zeros(N)
    for i in range(N):
        for j in range(N):
            sign, out = slow_blade_product(mask_to_indices(i), mask_to_indices(j))
            k = indices_to_mask(out)
            expected = zero.copy()
            expected[k] = sign
            a, b = Multivector(np.eye(N)[i]), Multivector(np.eye(N)[j])
            gi, gj, gk = blade_grade(i), blade_grade(j), blade_grade(k)
            assert np.array_equal((a * b).coeffs, expected), (i, j)
            assert np.array_equal((a ^ b).coeffs, expected if gk == gi + gj else zero), (i, j)
            assert np.array_equal((a | b).coeffs, expected if gk == abs(gi - gj) else zero), (i, j)


def test_vector_decomposition_exact():
    rng = np.random.default_rng(12)
    for _ in range(200):
        av, bv = np.zeros(N), np.zeros(N)
        av[[1, 2, 4, 8, 16]] = rng.uniform(-1, 1, 5)
        bv[[1, 2, 4, 8, 16]] = rng.uniform(-1, 1, 5)
        a, b = Multivector(av), Multivector(bv)
        assert (a * b - ((a | b) + (a ^ b))).max_abs() == 0.0
        assert (b * a - ((a | b) - (a ^ b))).max_abs() == 0.0


@settings(max_examples=40, deadline=None)
@given(int_mv, int_mv, int_mv)
def test_associativity_integer(a, b, c):
    assert ((a * b) * c - a * (b * c)).max_abs() == 0.0


@settings(max_examples=40, deadline=None)
@given(int_mv, int_mv, int_mv)
def test_distributivity_integer(a, b, c):
    assert (a * (b + c) - (a * b + a * c)).max_abs() == 0.0


@settings(max_examples=40, deadline=None)
@given(int_mv, int_mv)
def test_reverse_antihomomorphism(a, b):
    assert (reverse(a * b) - reverse(b) * reverse(a)).max_abs() == 0.0


def test_reverse_signs_by_grade():
    signs = (1, 1, -1, -1, 1, 1)
    for mask in range(N):
        coeffs = np.zeros(N)
        coeffs[mask] = 1.0
        rev = Multivector(coeffs).reverse()
        assert rev.coeffs[mask] == signs[blade_grade(mask)]


def test_grade_part_and_grades():
    a = 2.0 * ONE + 3.0 * e(1) - 1.5 * e(0, 1) + 0.5 * PSEUDOSCALAR
    assert grade_part(a, 0).scalar == 2.0
    assert grade_part(a, 1).coeff(0b00010) == 3.0
    assert a.grades() == {0, 1, 2, 5}
    with pytest.raises(ValueError):
        grade_part(a, 6)


def test_vector_decomposition_both_orders():
    rng = np.random.default_rng(5)
    for _ in range(50):
        av, bv = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        a = sum((float(av[k]) * e(k) for k in range(5)), Multivector.from_scalar(0.0))
        b = sum((float(bv[k]) * e(k) for k in range(5)), Multivector.from_scalar(0.0))
        assert (a * b - (inner(a, b) + outer(a, b))).max_abs() <= 1e-15
        assert (b * a - (inner(a, b) - outer(a, b))).max_abs() <= 1e-15


def test_inner_outer_scalar_promotion():
    a = 2.0 * e(1) + e(0)
    assert (inner(a, 3.0) - 3.0 * a).max_abs() == 0.0
    assert (inner(3.0, a) - 3.0 * a).max_abs() == 0.0
    assert (outer(a, 2.0) - 2.0 * a).max_abs() == 0.0


def test_outer_antisymmetry_on_vectors():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = sum((float(c) * e(k) for k, c in enumerate(rng.uniform(-1, 1, 5))),
                Multivector.from_scalar(0.0))
        b = sum((float(c) * e(k) for k, c in enumerate(rng.uniform(-1, 1, 5))),
                Multivector.from_scalar(0.0))
        assert (outer(a, b) + outer(b, a)).max_abs() <= 1e-15
        assert outer(a, a).max_abs() <= 1e-16


def test_pseudoscalar_central_and_negative_square():
    assert (PSEUDOSCALAR * PSEUDOSCALAR + ONE).max_abs() == 0.0
    rng = np.random.default_rng(7)
    a = random_mv(rng)
    assert (PSEUDOSCALAR * a - a * PSEUDOSCALAR).max_abs() == 0.0


def test_e_upper_signs():
    assert (e_upper(0) + e(0)).max_abs() == 0.0
    for k in range(1, 5):
        assert (e_upper(k) - e(k)).max_abs() == 0.0
    assert (e_upper(0, 4) + e(0, 4)).max_abs() == 0.0
    assert (e_upper(0, 1, 2) + e(0, 1, 2)).max_abs() == 0.0
    assert (e_upper(1, 2) - e(1, 2)).max_abs() == 0.0


def test_scalar_product_is_symmetric_scalar_part():
    rng = np.random.default_rng(8)
    a, b = random_mv(rng), random_mv(rng)
    assert scalar_product(a, b) == pytest.approx((a * b).scalar, abs=1e-13)
    assert scalar_product(a, b) == pytest.approx(scalar_product(b, a), abs=1e-13)


def test_commutator():
    a, b = e(1), e(2)
    assert (commutator(a, b) - e(1) * e(2)).max_abs() == 0.0
    assert commutator(a, a).max_abs() == 0.0


def test_norm_values_and_errors():
    assert norm(3.0 * e(1, 2)) == pytest.approx(3.0)
    assert norm(e(0) + e(4)) == 0.0
    assert norm(2.0 * ONE) == 2.0
    with pytest.raises(ValueError):
        norm(ONE + e(0, 1, 2, 3))


def test_exp_closed_forms():
    theta = 0.7
    rot = mv_exp(theta * e(1, 2))
    assert (rot - (math.cos(theta) * ONE + math.sin(theta) * e(1, 2))).max_abs() <= 1e-15
    boost = mv_exp(theta * e(0, 1))
    assert (boost - (math.cosh(theta) * ONE + math.sinh(theta) * e(0, 1))).max_abs() <= 1e-15
    nil = e(0) + e(4)
    assert (mv_exp(nil) - (ONE + nil)).max_abs() == 0.0
    assert (mv_exp(Multivector.from_scalar(0.0)) - ONE).max_abs() == 0.0


def test_exp_series_fallback():
    b = 0.4 * e(1, 2) + 0.3 * e(3, 4)  # square is not a scalar
    result = mv_exp(b)
    term, acc = ONE, ONE
    for n in range(1, 40):
        term = term * b * (1.0 / n)
        acc = acc + term
    assert (result - acc).max_abs() <= 1e-14


def test_exp_divergent_raises():
    with pytest.raises(ArithmeticError):
        mv_exp(40.0 * ONE + 40.0 * e(0))


def test_exp_overflow_is_value_error():
    # cosh(1000) is beyond double range; a rotor of the same size is fine
    with pytest.raises(ValueError, match="overflows"):
        mv_exp(1000.0 * e(0, 1))
    rotor = mv_exp(1000.0 * e(1, 2))
    assert (rotor.reverse() * rotor - ONE).max_abs() <= 1e-15


def test_rotate_plane_examples():
    theta = 0.6
    # generator e21 = -e12 turns e1 toward e2
    got = rotate(e(1), -theta * e(1, 2))
    want = math.cos(theta) * e(1) + math.sin(theta) * e(2)
    assert (got - want).max_abs() <= 1e-12
    got2 = rotate(e(2), -theta * e(1, 2))
    want2 = -math.sin(theta) * e(1) + math.cos(theta) * e(2)
    assert (got2 - want2).max_abs() <= 1e-12


def test_rotate_boost_example():
    theta = 0.8
    got = rotate(e(0), theta * e(0, 1))
    want = math.cosh(theta) * e(0) + math.sinh(theta) * e(1)
    assert (got - want).max_abs() <= 1e-12


def test_rotate_preserves_magnitude_and_validates():
    rng = np.random.default_rng(9)
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    b = Multivector.from_scalar(0.0)
    for i, j in pairs:
        b = b + float(rng.uniform(-1, 1)) * e(i, j)
    v = e(1) + 2.0 * e(2)
    assert norm(rotate(v, b)) == pytest.approx(norm(v), abs=1e-12)
    with pytest.raises(ValueError):
        rotate(v, ONE + e(1, 2))
    with pytest.raises(ValueError):
        rotate(v, e(1))


def test_rotor_unitarity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        b = Multivector.from_scalar(0.0)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                b = b + float(rng.uniform(-1.5, 1.5)) * e(i, j)
        rotor = mv_exp(-0.5 * b)
        assert (reverse(rotor) * rotor - ONE).max_abs() <= 1e-12


def test_parse_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        coeffs = np.where(rng.uniform(0, 1, N) < 0.3, rng.uniform(-5, 5, N), 0.0)
        a = Multivector(coeffs)
        assert parse_multivector(str(a)) == a


def test_parse_specific_forms():
    assert parse_multivector("1") == ONE
    assert parse_multivector("-e0") == -1.0 * e(0)
    assert parse_multivector("2*e01 - 3*e234") == 2.0 * e(0, 1) - 3.0 * e(2, 3, 4)
    assert parse_multivector("0.5 + e01234") == 0.5 * ONE + PSEUDOSCALAR
    for bad in ("e5", "2**e1", "e10", "1 +", "+ e1", "e"):
        with pytest.raises(ValueError):
            parse_multivector(bad)


def test_str_formats():
    assert str(2.0 * e(0, 1)) == "2*e01"
    assert str(Multivector.from_scalar(0.0)) == "0"
    assert str(ONE - e(3)) == "1 - e3"
    assert str(-1.0 * e(0)) == "-e0"


def test_equality_and_hash():
    a = 1.5 * e(1) + e(0, 4)
    assert a == 1.5 * e(1) + e(0, 4)
    assert a != 1.5 * e(1)
    assert hash(a) == hash(1.5 * e(1) + e(0, 4))
    assert ONE == 1.0 and 1.0 == ONE


def test_hash_agrees_with_equality_on_signed_zeros():
    positive = Multivector(np.zeros(N))
    negative = Multivector(-np.zeros(N))
    assert positive == negative
    assert hash(positive) == hash(negative)
    a = e(1) - e(1)  # may carry -0.0 cells
    assert a == positive and hash(a) == hash(positive)


def test_operator_coverage():
    a = 2.0 * e(1)
    assert ((a / 2.0) - e(1)).max_abs() == 0.0
    assert ((-a) + a).max_abs() == 0.0
    assert ((a ^ e(2)) - outer(a, e(2))).max_abs() == 0.0
    assert ((a | e(1)) - inner(a, e(1))).max_abs() == 0.0
    assert ((~a) - reverse(a)).max_abs() == 0.0
    assert (geometric_product(a, e(2)) - a * e(2)).max_abs() == 0.0


def test_worst_is_nan_without_samples():
    assert math.isnan(_worst([]))
    assert math.isnan(_worst(iter(())))


def test_worst_is_nan_with_a_nan_sample_anywhere():
    for samples in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]):
        assert math.isnan(_worst(samples))
        assert math.isnan(_worst(iter(samples)))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FINITE, min_size=1), st.data())
def test_worst_is_max_on_finite_samples_and_nan_with_one_more(samples, data):
    got = _worst(iter(samples))
    assert type(got) is float and got == max(samples)
    at = data.draw(st.integers(0, len(samples)))
    assert math.isnan(_worst(samples[:at] + [math.nan] + samples[at:]))
