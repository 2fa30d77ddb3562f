"""Core multivector arithmetic against an independent slow oracle."""

import itertools
import math
from collections import Counter

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
from ga41 import algebra
from ga41.checks import _check_rng

from ga41.algebra import (
    _FULL,
    _INNER,
    _OUTER,
    _SQUARE_SIGNS,
    _XOR,
    _exp_rows,
    _integer,
    _product,
    _scalar_products,
    _worst,
)

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


_TABLES = {"*": _FULL, "^": _OUTER, "|": _INNER}
_coeff_rows = st.sampled_from([small_ints.map(float), st.floats(-1e3, 1e3)]).flatmap(
    lambda cell: st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(cell, min_size=N, max_size=N), min_size=n, max_size=n)
    )
)


@settings(max_examples=60, deadline=None)
@given(_coeff_rows, st.data(), st.sampled_from("*^|"))
def test_batched_kernel_rows_equal_single_products(left, data, op):
    # integer and float rows alike: a row of a batch is the single product
    # bit for bit, with either side batched or both
    a = np.array(left)
    b = np.array(data.draw(st.permutations(left)))[:, ::-1]
    single = [_OPS[op](Multivector(x), Multivector(y)).coeffs.tobytes() for x, y in zip(a, b)]
    assert [row.tobytes() for row in _product(_TABLES[op], a, b)] == single
    assert [row.tobytes() for row in _product(_TABLES[op], a[0], b[:1])] == single[:1]
    assert [row.tobytes() for row in _product(_TABLES[op], a[:1], b[0])] == single[:1]


def _one_liner(table, a, b):
    """The kernel as a single expression: the terms in a second array."""
    return np.einsum("ki,...ki->...k", table, a[..., None, :] * b.take(_XOR, axis=-1))


#: (a shape, b shape) as the callers pair them, n the batch: rows with
#: rows, a constant row on either side, the reciprocal rows against a
#: point's differences, and the pair tables
_LAYOUTS = [
    lambda n: ((n, N), (n, N)),
    lambda n: ((N,), (n, N)),
    lambda n: ((n, N), (N,)),
    lambda n: ((5, N), (n, 5, N)),
    lambda n: ((5, 1, N), (1, 5, N)),
    lambda n: ((1, 5, N), (1, 1, N)),
    lambda n: ((N,), (N,)),
]


def _cells(rng, shape, special):
    """Normal cells with a -0.0 in every fourth; `special` adds a NaN, an
    inf and a -inf at random cells."""
    x = rng.normal(size=shape)
    x.reshape(-1)[::4] = -0.0
    if special and x.size:
        for value in (math.nan, math.inf, -math.inf):
            x.reshape(-1)[rng.integers(x.size)] = value
    return x


@pytest.mark.parametrize("layout", range(len(_LAYOUTS)))
@pytest.mark.parametrize("n", [0, 1, 7])
@pytest.mark.parametrize("op", "*^|")
@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("readonly", [False, True])
def test_kernel_equals_the_one_liner_byte_for_byte(layout, n, op, special, readonly):
    rng = np.random.default_rng([layout, n, int(special)])
    a_shape, b_shape = _LAYOUTS[layout](n)
    a, b = _cells(rng, a_shape, special), _cells(rng, b_shape, special)
    a.flags.writeable = b.flags.writeable = not readonly
    a_bytes, b_bytes = a.tobytes(), b.tobytes()
    with np.errstate(all="ignore"):
        got, want = _product(_TABLES[op], a, b), _one_liner(_TABLES[op], a, b)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
    assert special == bool(np.isnan(got).any()) or got.size == 0
    assert (a.tobytes(), b.tobytes()) == (a_bytes, b_bytes)


@pytest.mark.parametrize("op", "*^|")
@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("readonly", [False, True])
def test_kernel_equals_the_one_liner_on_a_row_times_itself(op, special, readonly):
    rows = _cells(np.random.default_rng(3), (6, N), special)
    rows.flags.writeable = not readonly
    saved = rows.tobytes()
    with np.errstate(all="ignore"):
        got, want = _product(_TABLES[op], rows, rows), _one_liner(_TABLES[op], rows, rows)
        assert got.tobytes() == want.tobytes()
        assert _product(_TABLES[op], rows[0], rows[0]).tobytes() == want[0].tobytes()
    assert rows.tobytes() == saved


def _strided(rng, n, special):
    """(n, 32) rows that are every second column of an (n, 64) array."""
    rows = np.zeros((n, 2 * N))[:, ::2]
    rows[...] = _cells(rng, (n, N), special)
    return rows


#: the layouts of b that the gather is given: one row with and without a
#: leading axis, rows, a stack of rows, and rows that are not contiguous
_GATHER_INPUTS = [
    lambda rng, s: _cells(rng, (N,), s),
    lambda rng, s: _cells(rng, (1, N), s),
    lambda rng, s: _cells(rng, (9, N), s),
    lambda rng, s: _cells(rng, (3, 5, N), s),
    lambda rng, s: _cells(rng, (0, N), s),
    lambda rng, s: _strided(rng, 6, s),
    lambda rng, s: _cells(rng, (N, 7), s).T,
]


@pytest.mark.parametrize("layout", range(len(_GATHER_INPUTS)))
@pytest.mark.parametrize("special", [False, True])
def test_the_gather_is_the_xor_take_byte_for_byte(layout, special):
    # two takes of whole quads copy what one take of single cells copies:
    # NaN, inf and -0.0 cells keep their bytes
    b = _GATHER_INPUTS[layout](np.random.default_rng([layout, int(special)]), special)
    got, want = algebra._gather(b), b.take(_XOR, axis=-1)
    assert (got.shape, got.dtype) == (want.shape, want.dtype) == (b.shape + (N,), np.float64)
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and not np.shares_memory(got, b)


@pytest.mark.parametrize(
    "a_type, b_type", [(np.int64, np.int64), (float, np.int64), (np.int64, float)]
)
@pytest.mark.parametrize("layout", range(len(_LAYOUTS)))
def test_kernel_takes_integer_and_mixed_rows_as_the_one_liner(a_type, b_type, layout):
    rng = np.random.default_rng(layout)
    a_shape, b_shape = _LAYOUTS[layout](4)
    a = rng.integers(-9, 10, a_shape).astype(a_type)
    b = rng.integers(-9, 10, b_shape).astype(b_type)
    for table in _TABLES.values():
        got, want = _product(table, a, b), _one_liner(table, a, b)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        # integer cells multiply exactly: the float rows give the same product
        assert np.array_equal(got, _product(table, a.astype(float), b.astype(float)))


#: (a shape, b shape) of the long products: rows with rows, a constant row
#: on either side, and stacks of rows
_LONG_LAYOUTS = [
    lambda n: ((n, N), (n, N)),
    lambda n: ((N,), (n, N)),
    lambda n: ((n, N), (N,)),
    lambda n: ((n, 2, N), (n, 2, N)),
]


@pytest.mark.parametrize("layout", range(len(_LONG_LAYOUTS)))
@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000])
@pytest.mark.parametrize("op", "*^|")
def test_a_long_product_in_blocks_is_the_one_liner_byte_for_byte(monkeypatch, layout, n, op):
    # NaN, +-inf and +-0 rows on both sides of the first block edge, in both
    # operands; at most 128 leading rows of terms per kernel call
    rng = np.random.default_rng([layout, n])
    a_shape, b_shape = _LONG_LAYOUTS[layout](n)
    a, b = _cells(rng, a_shape, False), _cells(rng, b_shape, False)
    for x, rows in ((a, range(125, 131)), (b, range(131, 125, -1))):
        if x.ndim > 1:
            for row, value in zip(rows, (math.nan, math.inf, -math.inf, 0.0, -0.0, math.nan)):
                if row < n and value == 0.0:
                    x[row] = value  # a row of 0.0 or of -0.0
                elif row < n:
                    x[row, ..., rng.integers(N)] = value
    terms = []
    real = algebra._contract

    def contract(table, left, gathered, out):
        terms.append(np.broadcast_shapes(left.shape[:-1] + (1, N), gathered.shape))
        return real(table, left, gathered, out)

    monkeypatch.setattr(algebra, "_contract", contract)
    with np.errstate(all="ignore"):
        got, want = _product(_TABLES[op], a, b), _one_liner(_TABLES[op], a, b)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
    assert [t[0] for t in terms] == [min(128, n - i) for i in range(0, n, 128)]
    # rows (n, 32): the terms of a call take at most 1 MiB
    assert len(got.shape) > 2 or all(np.prod(t) * 8 <= 2**20 for t in terms)


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


@settings(max_examples=60, deadline=None)
@given(_coeff_rows)
def test_scalar_product_rounds_as_dot_of_the_signed_row(rows):
    # one kernel for one pair and for a batch, each with np.dot's bits
    a, b = np.array(rows), np.array(rows[::-1])
    want = [float(np.dot(x * _SQUARE_SIGNS, y)).hex() for x, y in zip(a, b)]
    got = [scalar_product(Multivector(x), Multivector(y)).hex() for x, y in zip(a, b)]
    assert got == want
    assert [float(v).hex() for v in _scalar_products(a, b)] == want


@pytest.mark.parametrize("value", [True, False, 1.0, -1.0, 2, 0, "1", None, np.bool_(True)])
def test_integer_rule_rejects_bools_floats_and_values_outside(value):
    with pytest.raises(ValueError, match="^must be a sign$"):
        _integer(value, (1, -1), "must be a sign")


@pytest.mark.parametrize("value", [1, -1, np.int64(-1), np.int8(1), np.uint8(1)])
def test_integer_rule_accepts_python_and_numpy_integers(value):
    _integer(value, (1, -1), "must be a sign")


class _RecordedMessage:
    """A message template that records each time it is formatted."""

    def __init__(self):
        self.calls = []

    def format(self, *shown):
        self.calls.append(shown)
        return f"bad: {shown!r}"


def test_integer_rule_formats_its_message_only_on_failure():
    message = _RecordedMessage()
    for value in (0, 4, np.int64(3), np.int8(0), np.uint8(4), np.intp(2)):
        _integer(value, range(5), message, value, "extra")
    assert message.calls == []
    for value in (5, -1, True, np.True_, 1.0, np.float64(2.0), None, "1"):
        with pytest.raises(ValueError, match=r"^bad: "):
            _integer(value, range(5), message, value)
    assert len(message.calls) == 8


def test_e_signs_match_a_blade_product_loop_on_every_index_tuple():
    # every tuple of up to five indices in 0..4, repeats and all orders
    tuples = [t for n in range(6) for t in itertools.product(range(5), repeat=n)]
    assert len(tuples) == 3906
    for indices in tuples:
        sign, mask = 1, 0
        for k in indices:
            s, mask = blade_product(mask, 1 << k)
            sign *= s
        want = np.zeros(32)
        want[mask] = sign
        assert e(*indices).coeffs.tobytes() == want.tobytes(), indices


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


def test_near_simple_bivectors_keep_the_non_scalar_part_of_their_square():
    # the square of 2 e12 + 1e-12 e34 is a scalar within 1e-12 but not within
    # rounding; the closed form in that scalar would miss the e1234 term
    # 1e-12 sin 2 and the e34 term's cos 2, about 9e-13 each, while the
    # commuting planes factor exactly
    b = 2.0 * e(1, 2) + 1e-12 * e(3, 4)
    want = (math.cos(2.0) + math.sin(2.0) * e(1, 2)) * (1.0 + 1e-12 * e(3, 4))
    assert (mv_exp(b) - want).max_abs() <= 1e-15
    # the closed form in alpha and q holds at any norm, where the series
    # did not converge in 64 terms, and so it does where q^2 underflows
    for t, d in ((30.0, 1e-12), (30.0, 1.0), (20.0, 1e-170), (30.0, 1e-300)):
        want = (math.cos(t) + math.sin(t) * e(1, 2)) * (math.cos(d) + math.sin(d) * e(3, 4))
        assert (mv_exp(t * e(1, 2) + d * e(3, 4)) - want).max_abs() <= 1e-15
    # an exactly simple one keeps its closed form
    rotor = math.cos(30.0) + math.sin(30.0) * e(1, 2)
    assert (mv_exp(30.0 * e(1, 2)) - rotor).max_abs() <= 1e-15
    # a simple bivector u ^ v whose rounded coefficients leave a non-scalar
    # part of a few units of 2**-52 in its square takes the closed form in
    # alpha and q, which meets the closed form in its scalar
    u, v = e(1) + 0.3 * e(2) - 0.7 * e(3), 0.2 * e(1) - e(2) + 0.9 * e(4)
    simple = 0.6 * (u ^ v)
    sq = (simple * simple).coeffs
    assert 0.0 < np.max(np.abs(sq[1:])) <= 1e-16 * np.max(np.abs(sq))
    theta = math.sqrt(-sq[0])
    want = math.cos(theta) + simple * (math.sin(theta) / theta)
    assert (mv_exp(simple) - want).max_abs() <= 1e-16


def test_exp_divergent_raises():
    with pytest.raises(ArithmeticError):
        mv_exp(40.0 * ONE + 40.0 * e(0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=N, max_size=N),
    st.integers(0, N - 1),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["exp", "norm"]),
)
def test_exp_and_norm_reject_a_non_finite_coefficient(coeffs, mask, bad, method):
    # rejected up front, before a series is summed or a NaN norm returned
    coeffs[mask] = bad
    with pytest.raises(ValueError, match="non-finite"):
        getattr(Multivector(coeffs), method)()


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


# -- the exponential row kernel against the per-row loop it replaced --------


def _loop_exp(b):
    """The exponential as one Multivector at a time, term by term: the
    oracle of the rows whose square is exactly a scalar and of the series."""
    if not np.isfinite(b.coeffs).all():
        raise ValueError("exponential undefined: non-finite coefficient")
    sq = (b * b).coeffs
    s = sq[0]
    if not sq[1:].any():
        if s == 0.0:
            return b + 1.0
        if s < 0.0:
            theta = math.sqrt(-s)
            return np.cos(theta) + b * (np.sin(theta) / theta)
        theta = math.sqrt(s)
        return np.cosh(theta) + b * (np.sinh(theta) / theta)
    acc = term = ONE
    for k in range(1, 65):
        term = term * b / k
        acc = acc + term
        if term.max_abs() <= 1e-14 * acc.max_abs():
            return acc
    raise ArithmeticError("multivector exponential series did not converge in 64 terms")


SPATIAL_PLANES = [(1 << i) | (1 << j) for i in range(1, 5) for j in range(i + 1, 5)]
ALL_PLANES = [(1 << i) | (1 << j) for i in range(5) for j in range(i + 1, 5)]


def _rotor_rows(seed):
    """The exponents of the rotor_unitarity check at a seed."""
    coeffs = np.zeros((100, N))
    coeffs[:, SPATIAL_PLANES] = _check_rng(seed, "rotor_unitarity").uniform(-1.5, 1.5, (100, 6))
    return -0.5 * coeffs


def _dense_rows():
    """Rows of every grade, which take the series."""
    return np.random.default_rng(29).uniform(-0.5, 0.5, (100, N))


def _loop_rows(rows):
    return np.array([_loop_exp(Multivector(row)).coeffs for row in rows])


def _one_row_calls(rows):
    return np.array([Multivector(row).exp().coeffs for row in rows])


def _series_length(b):
    """The term at which the series of b stops, one Multivector at a time."""
    acc = term = ONE
    for k in range(1, 65):
        term = term * b / k
        acc = acc + term
        if term.max_abs() <= 1e-14 * acc.max_abs():
            return k
    raise ArithmeticError("no convergence")


def test_exp_rows_gathers_the_exponents_once_per_live_set(monkeypatch):
    rows = _dense_rows()
    lengths = [_series_length(Multivector(row)) for row in rows]
    gathered, real = [], algebra._gather

    def counted(b):
        gathered.append(len(b))
        return real(b)

    monkeypatch.setattr("ga41.algebra._gather", counted)
    got = _exp_rows(rows)
    # the square gathers all the rows, then each live set once: the 100
    # series rows and what is left after each of the shrinks, one per
    # distinct stopping term, down to none
    assert gathered[0] == 100
    live = [sum(length > k for length in lengths) for k in [0, *sorted(set(lengths))]]
    assert gathered[1:] == live
    assert live[0] == 100 and live[-1] == 0
    assert 1 < len(gathered) - 1 < max(lengths)
    assert got.tobytes() == _loop_rows(rows).tobytes()


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40), range(40, 60)])
def test_exp_rows_equal_one_row_calls_on_the_rotor_rows(seeds):
    # the rotor rows take the closed form in alpha and q (the matrix
    # oracle is in test_matrices.py); a row of the batch is its own call
    for seed in seeds:
        rows = _rotor_rows(seed)
        assert _exp_rows(rows).tobytes() == _one_row_calls(rows).tobytes(), seed


def test_closed_form_rows_form_no_series_term(monkeypatch):
    calls, real = [], algebra._contract

    def counted(table, a, gathered, terms):
        calls.append((a.shape, gathered.shape, terms is None))
        return real(table, a, gathered, terms)

    monkeypatch.setattr("ga41.algebra._contract", counted)
    rows = _rotor_rows(0)
    _exp_rows(rows)
    # the square and b q, each a product of the 100 rows; no term of a series
    assert calls == [((100, N), (100, N, N), False)] * 2
    calls.clear()
    _exp_rows(_dense_rows())
    assert len(calls) > 2


def _scalar_square_rows():
    """48 rows whose squares are exactly scalars, shuffled: rotation planes
    (s < 0), boost planes (s > 0) and null vectors (s = 0), with |theta| up
    to 30, where numpy's cosh and sinh round apart from libm's."""
    rng = np.random.default_rng(23)
    rows = np.zeros((3, 16, N))
    rows[0, :, 0b00110] = rng.uniform(-30.0, 30.0, 16)
    rows[1, :, 0b00011] = rng.uniform(-30.0, 30.0, 16)
    rows[2, :, 0b00001] = rows[2, :, 0b10000] = rng.uniform(-3.0, 3.0, 16)
    return rng.permutation(rows.reshape(-1, N))


def test_scalar_closed_form_rows_do_not_depend_on_their_position():
    # numpy's cosh and sinh take SIMD paths on arrays; a row's exponential
    # must not depend on the lane or the tail it lands in
    pool = _scalar_square_rows()
    sq = _product(_FULL, pool, pool)
    assert not sq[:, 1:].any()
    assert {-1.0, 0.0, 1.0} == set(np.sign(sq[:, 0]).tolist())
    want = _one_row_calls(pool)
    for length in (1, 7, 8, 9, 17):
        for offset in range(17):
            for start in range(0, len(pool) - length + 1, 5):
                # the rows start..start + length at positions offset onwards
                at = np.r_[(start + length + np.arange(offset)) % len(pool), start:start + length]
                assert _exp_rows(pool[at]).tobytes() == want[at].tobytes(), (length, offset, start)


def _mixed_rows():
    """Rows for every branch, shuffled: rotation and boost planes (s < 0,
    s > 0), null vectors with a -0.0 (s = 0), the ALL_PLANES bivectors
    (q^2 of either sign), bivectors a (e01 + e12) + c e34 whose q is
    nilpotent, and dense rows (series)."""
    rng = np.random.default_rng(17)
    rows = np.zeros((6, 60, N))
    rows[0, :, 0b00110] = rng.uniform(-3.0, 3.0, 60)
    rows[1, :, 0b00011] = rng.uniform(-3.0, 3.0, 60)
    rows[2, :, 0b00001] = rows[2, :, 0b10000] = rng.uniform(-3.0, 3.0, 60)
    rows[2, :, 0b00100] = -0.0
    rows[3][:, ALL_PLANES] = rng.uniform(-1.5, 1.5, (60, 10))
    rows[4, :, 0b00011] = rows[4, :, 0b00110] = rng.uniform(-1.0, 1.0, 60)
    rows[4, :, 0b11000] = rng.uniform(-1.0, 1.0, 60)
    rows[5] = rng.uniform(-0.5, 0.5, (60, N))
    return rng.permutation(rows.reshape(-1, N))


def _branches(rows):
    """Per row: the sign of s where the square is exactly the scalar s,
    else 'q>0', 'q<0' or 'q=0' for a bivector, else 'dense'."""
    sq = _product(_FULL, rows, rows)
    scalar = ~sq[:, 1:].any(axis=1)
    q = np.where(algebra._GRADE_IS[4], sq, 0.0)
    quad = _product(_FULL, q, q)[:, 0]
    bivector = (rows[:, algebra._NOT_BIVECTOR] == 0).all(axis=1)
    names = np.where(bivector, np.array(["q<0", "q=0", "q>0"])[np.sign(quad).astype(int) + 1], "dense")
    return np.where(scalar, np.sign(sq[:, 0]).astype(int).astype(str), names)


def test_exp_rows_equal_the_loop_on_every_branch():
    rows = _mixed_rows()
    branches = _branches(rows)
    assert Counter(branches.tolist()) == {
        "-1": 60, "1": 60, "0": 60, "q>0": 7, "q<0": 53, "q=0": 60, "dense": 60
    }
    got = _exp_rows(rows)
    assert got.tobytes() == _one_row_calls(rows).tobytes()
    # the scalar closed form and the series rows keep the loop's bits; the
    # closed form in alpha and q meets the matrix oracle in test_matrices.py
    kept = ~np.isin(branches, ["q>0", "q<0"])
    assert got[kept].tobytes() == _loop_rows(rows[kept]).tobytes()


@pytest.mark.parametrize(
    "bad, error, match",
    [
        (Multivector(np.where(np.arange(N) == 3, math.nan, 0.0)), ValueError, "non-finite"),
        (1000.0 * e(0, 1), ValueError, "overflows: argument squares to 1.000e\\+06"),
        (
            800.0 * e(0, 1) + e(2, 3),
            ValueError,
            "overflows: argument squares to 6.400e\\+05 plus a 4-vector of square -2.560e\\+06",
        ),
        (40.0 * ONE + 40.0 * e(0), ArithmeticError, "64 terms"),
    ],
)
def test_one_bad_row_raises_for_the_batch(bad, error, match):
    rows = np.concatenate([_mixed_rows()[:50], bad.coeffs[None], _rotor_rows(0)])
    with pytest.raises(error, match=match):
        _exp_rows(rows)
    with pytest.raises(error, match=match):
        bad.exp()


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
