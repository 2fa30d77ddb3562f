"""Matrix representation: frozen images, isomorphism, and inverse map."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ga41 import (
    Multivector,
    ONE,
    PSEUDOSCALAR,
    e,
    e_upper,
    from_matrix,
    grade_part,
    to_matrix,
)
from ga41 import algebra, matrices
from ga41.algebra import GRADES, _exp_rows, blade_product
from ga41.checks import _check_rng
from ga41.matrices import (
    ALPHA,
    BETA,
    BLADE_IMAGES,
    GENERATOR_IMAGES,
    IDENTITY,
    RECIPROCAL_IMAGES,
    _from_matrices,
    _to_matrices,
    matrix_text,
    sigma_matrix,
)
from ga41.projectors import expm

N = 32

# independent reconstruction from 2x2 Pauli blocks
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)


def blocks(a, b, c, d):
    return np.block([[a, b], [c, d]])


ALPHA_REF = tuple(blocks(Z2, s, s, Z2) for s in PAULI)
BETA_REF = blocks(I2, Z2, Z2, -I2)
T0_REF = blocks(Z2, I2, -I2, Z2)
# T^m T^0 must give alpha^m (m=1..3) and T^4 T^0 must give beta;
# (T^0)^2 = -I so the inverse of T^0 is -T^0
T_REF = (T0_REF,) + tuple(-a @ T0_REF for a in ALPHA_REF) + (-BETA_REF @ T0_REF,)


def random_mv(rng, scale=1.0):
    return Multivector(rng.uniform(-scale, scale, N))


def test_frozen_images_match_block_construction():
    for k in range(5):
        assert np.array_equal(sigma_matrix(k), T_REF[k]), k
        assert np.array_equal(RECIPROCAL_IMAGES[k], T_REF[k]), k


def test_alpha_beta_literals():
    for m in range(3):
        assert np.array_equal(ALPHA[m], ALPHA_REF[m])
    assert np.array_equal(BETA, BETA_REF)


def test_dirac_pauli_relations_exact():
    mats = ALPHA + (BETA,)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            anti = a @ b + b @ a
            want = 2.0 * IDENTITY if i == j else np.zeros((4, 4))
            assert np.array_equal(anti, want), (i, j)
    for a in mats:
        assert np.array_equal(a, a.conj().T)


def test_generator_images_clifford_relations():
    eta = (-1.0, 1.0, 1.0, 1.0, 1.0)
    for i in range(5):
        for j in range(5):
            anti = GENERATOR_IMAGES[i] @ GENERATOR_IMAGES[j]
            anti = anti + GENERATOR_IMAGES[j] @ GENERATOR_IMAGES[i]
            want = np.zeros((4, 4)) if i != j else 2.0 * eta[i] * IDENTITY
            assert np.array_equal(anti, want), (i, j)


def test_reciprocal_pairing_and_beta_link():
    assert np.array_equal(GENERATOR_IMAGES[0], -RECIPROCAL_IMAGES[0])
    for k in range(1, 5):
        assert np.array_equal(GENERATOR_IMAGES[k], RECIPROCAL_IMAGES[k])
    for m in range(1, 4):
        assert np.array_equal(RECIPROCAL_IMAGES[m] @ RECIPROCAL_IMAGES[0], ALPHA[m - 1])
    assert np.array_equal(RECIPROCAL_IMAGES[4] @ RECIPROCAL_IMAGES[0], BETA)


def test_five_image_product_is_plus_i():
    prod = IDENTITY
    for k in range(5):
        prod = prod @ RECIPROCAL_IMAGES[k]
    assert np.array_equal(prod, 1j * IDENTITY)


def test_pseudoscalar_image_is_minus_i():
    assert np.array_equal(to_matrix(PSEUDOSCALAR), -1j * IDENTITY)


def test_homomorphism_random():
    rng = np.random.default_rng(21)
    for _ in range(40):
        a, b = random_mv(rng), random_mv(rng)
        lhs = to_matrix(a * b)
        rhs = to_matrix(a) @ to_matrix(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_to_matrix_is_linear():
    rng = np.random.default_rng(22)
    a, b = random_mv(rng), random_mv(rng)
    lhs = to_matrix(2.5 * a - 0.5 * b)
    rhs = 2.5 * to_matrix(a) - 0.5 * to_matrix(b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_round_trip_multivector():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = random_mv(rng, scale=3.0)
        back = from_matrix(to_matrix(a))
        assert (back - a).max_abs() <= 1e-12


def test_round_trip_arbitrary_matrix():
    rng = np.random.default_rng(24)
    for _ in range(30):
        m = rng.uniform(-2, 2, (4, 4)) + 1j * rng.uniform(-2, 2, (4, 4))
        again = to_matrix(from_matrix(m))
        assert np.max(np.abs(again - m)) <= 1e-12


def reference_from_matrix(m):
    """The trace-pairing inverse map: the quarter trace of each grade <= 2
    blade's inverse times m gives a complex number whose real part is that
    blade's coefficient and whose imaginary part fills the dual blade."""
    coeffs = np.zeros(N)
    for mask in range(N):
        if GRADES[mask] > 2:
            continue
        square_sign, _ = blade_product(mask, mask)
        z = 0.25 * np.trace(square_sign * BLADE_IMAGES[mask] @ m)
        coeffs[mask] = z.real
        dual_sign, dual_mask = blade_product(N - 1, mask)
        coeffs[dual_mask] = -dual_sign * z.imag
    return coeffs


def test_from_matrix_matches_trace_pairing():
    # each coefficient is a quarter of a sum of four signed entries of m;
    # np.trace adds them pairwise and the matmul in BLAS order, so the two
    # agree to within the rounding of a four-term sum, 3 eps max|m|
    rng = np.random.default_rng(26)
    eps = np.finfo(float).eps
    for _ in range(2000):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = from_matrix(m).coeffs
        want = reference_from_matrix(m)
        assert np.max(np.abs(got - want)) <= 3 * eps * np.max(np.abs(m))


def test_round_trip_exact_on_integer_coefficients():
    rng = np.random.default_rng(27)
    for _ in range(200):
        a = Multivector(rng.integers(-1000, 1001, N).astype(float))
        m = to_matrix(a)
        assert np.array_equal(from_matrix(m).coeffs, a.coeffs)
        assert np.array_equal(reference_from_matrix(m), a.coeffs)
        assert np.array_equal(to_matrix(from_matrix(m)), m)


def test_blade_images_span_all_matrices():
    stacked = BLADE_IMAGES.reshape(N, 16)
    real_basis = np.concatenate([stacked.real, stacked.imag], axis=1)
    assert np.linalg.matrix_rank(real_basis) == N


def test_quarter_trace_identity():
    rng = np.random.default_rng(25)
    for _ in range(20):
        a = random_mv(rng)
        z = 0.25 * np.trace(to_matrix(a))
        assert z.real == pytest.approx(grade_part(a, 0).scalar, abs=1e-13)
        assert z.imag == pytest.approx(-grade_part(a, 5).coeff(N - 1), abs=1e-13)


def test_specific_blade_images():
    assert np.array_equal(to_matrix(ONE), IDENTITY)
    assert np.array_equal(to_matrix(e(0)), GENERATOR_IMAGES[0])
    assert np.array_equal(
        to_matrix(e(0, 4)), GENERATOR_IMAGES[0] @ GENERATOR_IMAGES[4]
    )
    assert np.array_equal(to_matrix(e_upper(3)), RECIPROCAL_IMAGES[3])


def test_input_validation():
    with pytest.raises(ValueError):
        sigma_matrix(5)
    with pytest.raises(ValueError):
        sigma_matrix(-1)
    with pytest.raises(ValueError):
        from_matrix(np.eye(3))


def test_matrix_text_layout():
    text = matrix_text(BETA)
    lines = text.split("\n")
    assert len(lines) == 4
    assert lines[0] == "1+0i  0+0i  0+0i  0+0i"
    assert lines[2] == "0+0i  0+0i  -1+0i  0+0i"
    assert matrix_text(1j * np.eye(1)) == "0+1i"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-8, 1e8]))
def test_batched_map_rows_equal_single_maps(n, seed, scale):
    # a row of either kernel equals the public single map bit for bit, also
    # for a strided batch (a column of draws, as the checks pass it); the
    # forward map equals the blade-image sum it replaced
    rng = np.random.default_rng(seed)
    draws = scale * rng.uniform(-1.0, 1.0, (n, 2, N))
    for coeffs in (draws[:, 0], np.ascontiguousarray(draws[:, 1])):
        single = [to_matrix(Multivector(c)) for c in coeffs]
        assert [m.tobytes() for m in _to_matrices(coeffs)] == [m.tobytes() for m in single]
        assert [m.tobytes() for m in single] == [
            np.tensordot(c, BLADE_IMAGES, axes=1).tobytes() for c in coeffs
        ]
    mats = scale * (rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
    single = [from_matrix(m).coeffs.tobytes() for m in mats]
    assert [row.tobytes() for row in _from_matrices(mats)] == single
    assert [row.tobytes() for row in _from_matrices(mats[::-1])] == single[::-1]


def _concatenated_map(m):
    """The inverse map with its rows flattened as [m.real | m.imag] by concatenate."""
    flat = np.concatenate([m.real, m.imag], axis=-2).reshape(m.shape[:-2] + (1, N))
    return (flat @ matrices._BLADE_ROWS.T)[..., 0, :] / 4.0


@pytest.mark.parametrize(
    "layout",
    [lambda m: m, lambda m: m.swapaxes(-1, -2), lambda m: m[::2, :, ::-1], lambda m: m[3]],
    ids=["batch", "transposed", "strided", "one"],
)
def test_the_inverse_map_flattens_its_float_view_as_the_concatenated_parts(layout):
    # the float view's (re, im) pairs copied once to [re | im]: the same
    # rows, so the same 32-term dots, on any layout; -0.0 and NaN cells too
    rng = np.random.default_rng(17)
    mats = rng.normal(size=(9, 4, 4)) + 1j * rng.normal(size=(9, 4, 4))
    cells = mats.reshape(-1)
    cells.real[::5] = -0.0
    cells.imag[::7] = math.nan
    m = layout(mats)
    assert _from_matrices(m).tobytes() == _concatenated_map(m).tobytes()


# -- matrix-side oracles for the exponential and the involutions ------------

#: reversion is the anti-automorphism M -> C M^T C^T; the grade involution
#: is antilinear on this side (it flips the pseudoscalar, whose image is -i
#: times the identity), M -> D conj(M) D^T; the five generator images fix
#: each of C and D up to scale
REVERSION_C = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
INVOLUTION_D = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex)
INVOLUTION_SIGNS = np.array([(-1.0) ** g for g in GRADES])

SPATIAL_PLANES = [(1 << i) | (1 << j) for i in range(1, 5) for j in range(i + 1, 5)]
ALL_PLANES = [(1 << i) | (1 << j) for i in range(5) for j in range(i + 1, 5)]

#: both routes sum their series to about 1e-14 relative or better; over
#: 6,000 bivectors with coefficients in [-1.5, 1.5] they differed by at most
#: 25 units of 2**-52 relative, so 128 units leaves a margin of five
EXP_BOUND = 128 * 2.0**-52


def _sum_bound(coeffs):
    # each image entry is a signed sum of the 32 coefficients (the blade
    # images have entries 0, +-1 and +-i, so each term is exact), and two
    # sums of the same 32 terms differ by at most 2 * 31 units of 2**-53
    # times the sum of their magnitudes
    return 64 * 2.0**-53 * np.abs(coeffs).sum()


def _exp_gap(b):
    want = expm(to_matrix(b))
    return np.max(np.abs(to_matrix(b.exp()) - want)) / max(1.0, np.max(np.abs(want)))


def _reversion_gap(a):
    return np.max(np.abs(to_matrix(a.reverse()) - REVERSION_C @ to_matrix(a).T @ REVERSION_C.T))


def test_the_involution_matrices_are_exact_on_the_generators():
    # by the (anti-)homomorphism this fixes both laws on every multivector
    for k in range(5):
        g = to_matrix(e(k))
        assert np.array_equal(REVERSION_C @ g.T @ REVERSION_C.T, g)
        assert np.array_equal(INVOLUTION_D @ g.conj() @ INVOLUTION_D.T, -g)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N))
def test_reversion_image_is_the_transpose_conjugated_by_c(coeffs):
    a = Multivector(coeffs)
    assert _reversion_gap(a) <= _sum_bound(a.coeffs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N))
def test_grade_involution_image_is_the_conjugate_conjugated_by_d(coeffs):
    a = Multivector(coeffs)
    involuted = to_matrix(Multivector(a.coeffs * INVOLUTION_SIGNS))
    gap = involuted - INVOLUTION_D @ to_matrix(a).conj() @ INVOLUTION_D.T
    assert np.max(np.abs(gap)) <= _sum_bound(a.coeffs)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([SPATIAL_PLANES, ALL_PLANES]),
    st.lists(st.floats(-1.5, 1.5), min_size=10, max_size=10),
)
# near-simple bivectors whose square is within 1e-12 of a scalar, but not
# within rounding: e02 + e04 + 1e-12 e34 and e14 + 2.02e-13 e23
@example(ALL_PLANES, [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-12])
@example(SPATIAL_PLANES, [0.0, 0.0, 1.0, 2.02e-13, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
def test_exp_image_is_the_matrix_exponential(planes, values):
    coeffs = np.zeros(N)
    coeffs[planes] = values[: len(planes)]
    assert _exp_gap(Multivector(coeffs)) <= EXP_BOUND


def _wedges(spread, norm, count=100):
    """count rounded simple bivectors u ^ v scaled to the coefficient norm,
    u standard normal and v = u + spread w with w standard normal: the
    smaller the spread, the nearer parallel u and v and the larger the
    non-scalar part that rounding leaves in the square."""
    out = []
    for u, w in np.random.default_rng(3).normal(size=(count, 2, 5)):
        b = sum(x * e(i) for i, x in enumerate(u)) ^ sum(
            x * e(i) for i, x in enumerate(u + spread * w)
        )
        out.append(b * (norm / np.linalg.norm(b.coeffs)))
    return out


@pytest.mark.parametrize("spread", [1.0, 1e-2, 1e-4])
@pytest.mark.parametrize("norm", [1.0, 4.7])
def test_exp_of_drawn_wedges_is_the_matrix_exponential(norm, spread):
    # the closed form where the gate admits it, the series elsewhere; a gate
    # of 1e-12 on the square misses the bound on 56 (norm 1) and 73 (norm
    # 4.7) of the 100 at spread 1e-4
    assert max(_exp_gap(b) for b in _wedges(spread, norm)) <= EXP_BOUND


#: the matrix oracle in long double, 64-bit significands where the platform
#: has them: the image of the coefficients, a sum of at most 32 exact terms,
#: and its exponential by the scaling and squaring of expm.  At coefficient
#: norm 20 the double oracle's squarings miss the exact exponential by up
#: to 700 units of 2**-52 on the drawn wedges, this one by under 1 (both
#: against a 40-digit reference)
LONG_DOUBLE = np.finfo(np.longdouble).eps < 2.0**-60
needs_long_double = pytest.mark.skipif(not LONG_DOUBLE, reason="long double is double here")


def _long_image(coeffs):
    return np.einsum("k,kij->ij", coeffs.astype(np.longdouble), BLADE_IMAGES.astype(np.clongdouble))


def _long_gap(b):
    m = _long_image(b.coeffs)
    squarings = max(0, math.ceil(math.log2(float(np.max(np.abs(m))) / 0.5)))
    scaled = m / np.longdouble(2.0) ** squarings
    want = term = np.eye(4, dtype=np.clongdouble)
    for i in range(1, 30):
        term = term @ scaled / i
        want = want + term
    for _ in range(squarings):
        want = want @ want
    gap = np.max(np.abs(_long_image(b.exp().coeffs) - want))
    return float(gap / max(1.0, float(np.max(np.abs(want)))))


@needs_long_double
@pytest.mark.parametrize("spread", [1.0, 1e-2, 1e-4])
def test_exp_of_drawn_wedges_at_norm_20(spread):
    # no wedge raises, and every wedge meets the bound: one whose square is
    # not exactly a scalar takes the closed form in alpha and q, which keeps
    # the q that rounding leaves in a simple bivector's square
    wedges = _wedges(spread, 20.0)
    assert all(np.isfinite(b.exp().coeffs).all() for b in wedges)
    assert max(_long_gap(b) for b in wedges) <= EXP_BOUND


def _five_d_bivectors(norm, count=200):
    """count bivectors in all ten planes, standard normal and scaled to the
    coefficient norm, with the sign of q^2 in b^2 = alpha + q."""
    rows = np.zeros((count, N))
    rows[:, ALL_PLANES] = np.random.default_rng(31).normal(size=(count, 10))
    rows *= norm / np.linalg.norm(rows, axis=1, keepdims=True)
    sq = algebra._product(algebra._FULL, rows, rows)
    q = np.where(algebra._GRADE_IS[4], sq, 0.0)
    return [Multivector(row) for row in rows], np.sign(algebra._product(algebra._FULL, q, q)[:, 0])


@pytest.mark.parametrize("norm", [1.0, 4.7])
def test_exp_of_5d_bivectors_of_either_q_square_is_the_matrix_exponential(norm):
    bivectors, signs = _five_d_bivectors(norm)
    assert {1.0, -1.0} <= set(signs.tolist())
    for sign in (1.0, -1.0):
        assert max(_exp_gap(b) for b, s in zip(bivectors, signs) if s == sign) <= EXP_BOUND


@needs_long_double
def test_exp_of_5d_bivectors_of_either_q_square_at_norm_20():
    # one row misses the bound, by 3 units: alpha = -303.2 and sqrt(q^2) =
    # 303.0 round at about 2**-52 times 300 each, and l+ = alpha + sqrt(q^2)
    # = -0.2 keeps that rounding of b^2 in full
    bivectors, signs = _five_d_bivectors(20.0)
    gaps = [_long_gap(b) for b in bivectors]
    for sign, misses in ((1.0, 1), (-1.0, 0)):
        assert sum(g > EXP_BOUND for g, s in zip(gaps, signs) if s == sign) == misses
    assert sum(signs == -1.0) > sum(signs == 1.0) > 0


@pytest.mark.parametrize("t", [8.0, 10.0, 12.0, 14.0, 16.0, 20.0])
def test_exp_of_two_planes_is_the_matrix_exponential_at_any_norm(t):
    # the series raised at t = 16 and 20 and missed by 2.5e-11 at t = 14
    assert _exp_gap(t * e(1, 2) + e(3, 4)) <= EXP_BOUND


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40), range(40, 60)])
def test_exp_rows_of_the_rotor_rows_are_the_matrix_exponential(seeds):
    for seed in seeds:
        coeffs = np.zeros((100, N))
        coeffs[:, SPATIAL_PLANES] = _check_rng(seed, "rotor_unitarity").uniform(-1.5, 1.5, (100, 6))
        rotors = _exp_rows(-0.5 * coeffs)
        for row, rotor in zip(-0.5 * coeffs, rotors):
            want = expm(to_matrix(Multivector(row)))
            assert np.max(np.abs(to_matrix(Multivector(rotor)) - want)) <= EXP_BOUND, seed


#: (bivector, sign of q^2, the helpers its closed form takes): both forms of
#: s1, each of H and G by its series and by cosh and sinh
BRANCH_CASES = [
    (e(1, 2) + 0.5 * e(3, 4), 1.0, ["h-series", "h-series"]),
    (4.0 * e(1, 2) + e(3, 4), 1.0, ["h-direct", "h-series"]),
    (3.0 * e(0, 1) + 2.0 * e(2, 3), -1.0, ["h-direct", "h-direct"]),
    (e(0, 1) + 0.1 * e(2, 3), -1.0, ["h-series", "h-series"]),
    # isoclinic: l+ = 0, so s1 is the difference over l+ - l-
    (0.5 * (e(1, 2) + e(3, 4)), 1.0, ["g-series", "g-series"]),
    (e(1, 2) + e(3, 4), 1.0, ["g-series", "g-direct"]),
]


@pytest.mark.parametrize("b, sign, helpers", BRANCH_CASES)
def test_the_closed_form_in_alpha_and_q_reaches_each_branch(monkeypatch, b, sign, helpers):
    taken = []

    def recorded(name, real):
        def helper(x, t):
            taken.append(f"{name}-{'series' if abs(t) < 4.0 else 'direct'}")
            return real(x, t)

        return helper

    monkeypatch.setattr(algebra, "_h", recorded("h", algebra._h))
    monkeypatch.setattr(algebra, "_g", recorded("g", algebra._g))
    q = (b * b).grade_part(4)
    assert np.sign((q * q).scalar) == sign
    assert _exp_gap(b) <= EXP_BOUND
    assert taken == helpers


def _ten_term_series(rows):
    term = acc = ONE.coeffs
    for k in range(1, 11):
        term = algebra._product(algebra._FULL, term, rows) / k
        acc = acc + term
    return acc


@pytest.mark.parametrize("planes", [SPATIAL_PLANES, ALL_PLANES])
def test_the_exp_oracle_fails_a_ten_term_series(monkeypatch, planes):
    coeffs = np.zeros(N)
    coeffs[planes] = np.linspace(-1.5, 1.5, len(planes))
    b = Multivector(coeffs)
    assert _exp_gap(b) <= EXP_BOUND
    monkeypatch.setattr(algebra, "_exp_rows", _ten_term_series)
    assert _exp_gap(b) > 1e6 * EXP_BOUND


def test_the_reversion_oracle_fails_all_ones_signs(monkeypatch):
    a = Multivector(np.random.default_rng(23).uniform(-1.0, 1.0, N))
    assert _reversion_gap(a) <= _sum_bound(a.coeffs)
    monkeypatch.setattr(algebra, "_REVERSE_SIGNS", np.ones(N))
    assert _reversion_gap(a) > 0.1
