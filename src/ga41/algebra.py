"""Arithmetic of the real geometric algebra with signature (-++++).

Basis blades are indexed by 5-bit masks: bit k set means the unit vector
with index k is a factor, and factors are always stored in ascending
index order (mask 0 is the scalar unit, mask 31 the pseudoscalar).  The
index-0 generator squares to -1, the other four square to +1, and
distinct generators anticommute.

Every value is immutable and every operation is a pure function, so the
module is safe under concurrent use.  Coefficients are double precision
reals; products of blades carry integer signs, so integer-coefficient
inputs multiply exactly.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

N_BLADES = 32

#: grade of each blade mask (popcount)
GRADES = tuple(m.bit_count() for m in range(N_BLADES))

#: masks of the five unit vectors e0..e4
_VECTOR_MASKS = [1 << k for k in range(5)]


def _integer(value, allowed, message: str, *shown) -> None:
    """Raise ValueError(message.format(*shown)) unless value is an integer,
    not a bool, in allowed; the text is formatted only on failure."""
    if type(value) is int or not isinstance(value, bool) and isinstance(value, (int, np.integer)):
        if value in allowed:
            return
    raise ValueError(message.format(*shown))


def blade_grade(mask: int) -> int:
    """Number of generator factors in the blade with the given mask."""
    _integer(mask, range(N_BLADES), "blade mask out of range: {}", mask)
    return GRADES[mask]


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two basis blades.

    Returns (sign, mask) with sign in {-1, +1} and mask = a XOR b.  The
    sign combines the parity of the reordering that sorts the factor
    sequence with the metric signs of annihilated repeated factors (only
    the index-0 generator contributes -1).
    """
    message = "blade mask out of range: ({}, {})"
    _integer(a, range(N_BLADES), message, a, b)
    _integer(b, range(N_BLADES), message, a, b)
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    sign = -1 if swaps & 1 else 1
    if a & b & 1:
        sign = -sign
    return sign, a ^ b


def blade_name(mask: int) -> str:
    """Text name of a basis blade: "1", "e0", "e13", ..., "e01234"."""
    _integer(mask, range(N_BLADES), "blade mask out of range: {}", mask)
    if mask == 0:
        return "1"
    return "e" + "".join(str(k) for k in range(5) if mask >> k & 1)


def _mask_from_name(name: str) -> int:
    if len(name) < 2 or name[0] != "e" or not name[1:].isdigit():
        raise ValueError(f"malformed blade name: {name!r}")
    mask = 0
    prev = -1
    for ch in name[1:]:
        k = int(ch)
        if k > 4 or k <= prev:
            raise ValueError(f"malformed blade name: {name!r}")
        mask |= 1 << k
        prev = k
    return mask


_SIGNS = np.array(
    [[blade_product(i, j)[0] for j in range(N_BLADES)] for i in range(N_BLADES)], dtype=float
)
_SQUARE_SIGNS = np.diagonal(_SIGNS)

# product kernel: row k of a table holds the sign of e_i e_{i^k} for
# every left blade i, so out[k] = sum_i table[k, i] a[i] b[i^k]; the
# inner and outer products zero the cells outside their grade rule
_MASKS = np.arange(N_BLADES)
_XOR = _MASKS[:, None] ^ _MASKS  # [k, i] -> i ^ k
_FULL = _SIGNS[_MASKS, _XOR]
_GRADE_OF = np.array(GRADES)
_LEFT, _RIGHT, _OUT = _GRADE_OF, _GRADE_OF[_XOR], _GRADE_OF[:, None]
_INNER = np.where(_OUT == np.abs(_LEFT - _RIGHT), _FULL, 0.0)
_OUTER = np.where(_OUT == _LEFT + _RIGHT, _FULL, 0.0)

# the gather in two takes: with k = 4 kh + kl and i = 4 ih + il, i ^ k is
# 4 (ih ^ kh) + (il ^ kl).  The first take puts the four orders kl of each
# aligned quad j of b in a row of quads kl * 8 + j, b[4 j + (il ^ kl)] at
# il; the second copies whole quads, quad kl * 8 + (ih ^ kh) to [k, ih].
# A take copies one index at a time, so the 1,024 copies of a row become
# 128 cells and 256 quads
_QUAD_ORDERS = (4 * np.arange(8)[:, None] + (np.arange(4)[:, None, None] ^ np.arange(4))).ravel()
_QUAD_ROWS = (8 * np.arange(4)[:, None] + (np.arange(8)[:, None, None] ^ np.arange(8))).ravel()


def _gather(b: np.ndarray) -> np.ndarray:
    """The right factors b[i^k] of every term, at [..., k, i]: a new array,
    equal to b.take(_XOR, axis=-1) byte for byte (both only copy)."""
    lead = b.shape[:-1]
    quads = b.take(_QUAD_ORDERS, axis=-1).reshape(lead + (32, 4))
    return quads.take(_QUAD_ROWS, axis=-2).reshape(lead + (N_BLADES, N_BLADES))


#: rows per block of a long product: its (rows, 32, 32) terms stay within 1 MiB
_BLOCK_ROWS = 128


def _product(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # rows (..., 32) pair up; each a[i] b[i^k] is rounded before the signed
    # sum and no multiply-add is fused, so a row of a batch equals the
    # single product, *, ^ and | round their shared terms alike and
    # a * b == (a | b) + (a ^ b) holds exactly for vectors.  The terms
    # are formed in the gathered b when a, of the same dtype, broadcasts
    # onto b's rows; when b is the smaller operand or the dtypes mix they
    # go to a new array.  Builtin dtypes are singletons, so `is` is the
    # test, and a miss only costs that array.  Operands that share a
    # leading axis longer than a block, or pair one row with it, go
    # through in blocks of rows, each the same kernel, so the bytes are
    # those of one call
    if (b.ndim > 1 and len(b) > _BLOCK_ROWS) or (a.ndim > 1 and len(a) > _BLOCK_ROWS):
        long = b if b.ndim > 1 else a
        if all(x.ndim == 1 or x.ndim == long.ndim and len(x) == len(long) for x in (a, b)):
            blocks = [slice(i, i + _BLOCK_ROWS) for i in range(0, len(long), _BLOCK_ROWS)]
            return np.concatenate(
                [_product(table, a if a.ndim == 1 else a[s], b if b.ndim == 1 else b[s])
                 for s in blocks]
            )
    gathered = _gather(b)
    fits = a.dtype is gathered.dtype and (
        a.ndim == 1 or a.shape[:-1] == b.shape[b.ndim - a.ndim : -1]
    )
    return _contract(table, a, gathered, gathered if fits else None)


def _contract(
    table: np.ndarray, a: np.ndarray, gathered: np.ndarray, terms: np.ndarray | None
) -> np.ndarray:
    """sum_i table[k, i] a[..., i] gathered[..., k, i], each term rounded
    alone; the terms are formed in `terms`, or in a new array if None."""
    return np.einsum("ki,...ki->...k", table, np.multiply(a[..., None, :], gathered, out=terms))


def _blade_gather(blades: np.ndarray, left: bool) -> tuple[np.ndarray, np.ndarray]:
    """Signs and indices (m, 32) of the full product with the rows (m, 32),
    each a unit blade e_j times +-1: cell k of e_j x is _FULL[k, j] x[k ^ j]
    (left) and of x e_j _FULL[k, k ^ j] x[k ^ j] (right), times that sign.
    So signs * x[..., index] is the product's one nonzero term of each
    cell; for finite x, adding 0.0 gives the product byte for byte, whose
    other terms are zeros."""
    masks = np.abs(blades).argmax(axis=1)
    index = _XOR[masks]
    signs = _FULL[_MASKS, masks[:, None] if left else index]
    return signs * blades[np.arange(len(blades)), masks][:, None], index


_NOT_BIVECTOR = _GRADE_OF != 2
_QUADS = (_GRADE_OF == 4).nonzero()[0]

#: Taylor coefficients in t = x^2 of (cosh x - sinh x / x) / x^2 and of
#: (sinh x / x - 1) / x^2, taken for |t| < 4, where the differences cancel
_H_SERIES = [(2 * n + 2) / math.factorial(2 * n + 3) for n in range(12)]
_G_SERIES = [1 / math.factorial(2 * n + 3) for n in range(12)]


def _series(coeffs: list, t: complex) -> complex:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _sinhc(x: complex) -> complex:
    return cmath.sinh(x) / x if x else 1.0


def _h(x: complex, t: complex) -> complex:
    """(cosh x - sinh x / x) / t for t = x^2."""
    return _series(_H_SERIES, t) if abs(t) < 4.0 else (cmath.cosh(x) - _sinhc(x)) / t


def _g(r: complex, t: complex) -> complex:
    """sinh r / r - 1 for t = r^2."""
    return _series(_G_SERIES, t) * t if abs(t) < 4.0 else _sinhc(r) - 1.0


def _bivector_exp_coeffs(alpha: float, quad: float) -> tuple[float, float, float, float]:
    """(c0, c1, s0, s1) with exp b = c0 + c1 q + s0 b + s1 b q, for a
    bivector b with b^2 = alpha + q, q of grade 4 and q^2 = quad != 0.

    exp b = C(b^2) + b S(b^2) for C(l) = cosh sqrt(l) and S(l) = sinh
    sqrt(l) / sqrt(l).  q commutes with b, and f(alpha + q) = (f(l+) +
    f(l-)) / 2 + q (f(l+) - f(l-)) / (l+ - l-) for l+- = alpha +- sqrt(quad):
    real for quad > 0, where (1 +- q / sqrt(quad)) / 2 are idempotents, and
    a conjugate pair for quad < 0, where q / sqrt(-quad) squares to -1.  The
    differences are divided by l+ - l-, not by a unit q, and so vanish with
    q.  In the roots r+- = sqrt(l+-), u = (r+ + r-) / 2 and w = (r+ - r-) / 2
    = sqrt(quad) / (r+ + r-), formed without cancellation:

        c0 = cosh u cosh w        c1 = sinhc u sinhc w / 2
        s0 = (sinhc r+ + sinhc r-) / 2
        s1 = (u^2 H(u) sinhc w - w^2 H(w) sinhc u) / (2 r+ r-)

    with H(x) = (cosh x - sinhc x) / x^2, while |r+ r-| = |u^2 - w^2| is at
    least (|u|^2 + |w|^2) / 2; below that one root is small beside the
    other, and s1 = (l+ G(l+) - l- G(l-)) / (l+ - l-) with G(l) = (sinhc
    sqrt(l) - 1) / l.  H and G take their series for |x^2| < 4.
    """
    root = cmath.sqrt(quad)
    lp, lm = alpha + root, alpha - root
    rp, rm = cmath.sqrt(lp), cmath.sqrt(lm)
    u, w = (rp + rm) / 2, root / (rp + rm)
    gu, gw = _sinhc(u), _sinhc(w)
    c0 = cmath.cosh(u) * cmath.cosh(w)
    s0 = (_sinhc(rp) + _sinhc(rm)) / 2
    uu, ww = u * u, w * w
    if abs(rp * rm) >= (abs(uu) + abs(ww)) / 2:
        s1 = (uu * _h(u, uu) * gw - ww * _h(w, ww) * gu) / (2 * rp * rm)
    else:
        s1 = (_g(rp, lp) - _g(rm, lm)) / (2 * root)
    return c0.real, (gu * gw).real / 2, s0.real, s1.real


def _exp_bivectors(b: np.ndarray, sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For bivector rows b (n, 32) whose squares sq = alpha + q are not
    scalars: the mask of the rows whose q is not nilpotent, and their
    exponentials by _bivector_exp_coeffs, which share one product b q.

    A q below 2**-511 has a q^2 below the normal range, which may round to
    0 though q is not nilpotent; with alpha != 0 such a row takes the
    closed form at q^2 = 0, whose dropped terms are below rounding, where
    the series would not converge at |b| = 20 (20 e12 + 1e-170 e34)."""
    q = np.where(_GRADE_IS[4], sq, 0.0)
    quad = sum(s * x * x for s, x in zip(_SQUARE_SIGNS[_QUADS], q[:, _QUADS].T))
    taken = (quad != 0.0) | (sq[:, 0] != 0.0) & (np.abs(q).max(axis=1) < 2.0**-511)
    b, q, alphas, quad = b[taken], q[taken], sq[taken, 0], quad[taken]
    coeffs = []
    for alpha, square in zip(alphas.tolist(), quad.tolist()):
        try:
            coeffs.append(_bivector_exp_coeffs(alpha, square))
        except OverflowError:
            coeffs.append((math.inf,) * 4)
    c0, c1, s0, s1 = np.array(coeffs).reshape(-1, 4).T[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        exps = c1 * q + s0 * b + s1 * _product(_FULL, b, q)
        exps[:, 0] += c0[:, 0]
    finite = np.isfinite(exps).all(axis=1)
    if not finite.all():
        j = np.argmin(finite)
        raise ValueError(
            f"exponential overflows: argument squares to {alphas[j]:.3e} "
            f"plus a 4-vector of square {quad[j]:.3e}"
        )
    return taken, exps


def _exp_scalar_squares(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exponentials of the rows (n, 32) whose squares are the scalars s (n,):
    cos t + a sin t / t for s = -t^2 < 0, cosh t + a sinh t / t for s = t^2
    > 0, and 1 + a at s = 0, each function taken on the whole array."""
    theta = np.sqrt(np.abs(s))
    negative = s < 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        cos = np.where(negative, np.cos(theta), np.cosh(theta))
        sin = np.where(negative, np.sin(theta), np.sinh(theta))
        exps = rows * np.divide(sin, theta, out=np.ones_like(s), where=theta != 0.0)[:, None]
        exps[:, 0] += cos
    finite = np.isfinite(exps).all(axis=1)
    if not finite.all():
        raise ValueError(f"exponential overflows: argument squares to {s[np.argmin(finite)]:.3e}")
    return exps


def _exp_rows(rows: np.ndarray) -> np.ndarray:
    """Exponentials of the rows (n, 32), by the rules of Multivector.exp,
    which is the one-row case.

    The rows whose square is exactly a scalar take its closed form
    together; the bivector rows whose square is not a scalar then take one
    product b q together.  The series rows are summed together, and each
    stops at its own term by the 1e-14 rule; a finished row leaves the
    batch only when some row finishes.  The live rows are gathered once
    per live set, and every term is formed in one buffer; both shrink with
    the rows.
    """
    if not np.isfinite(rows).all():
        raise ValueError("exponential undefined: non-finite coefficient")
    sq = _product(_FULL, rows, rows)
    scalar = ~sq[:, 1:].any(axis=1)
    out = np.empty_like(rows)
    if scalar.any():
        out[scalar] = _exp_scalar_squares(rows[scalar], sq[scalar, 0])
    series = ~scalar
    (bivectors,) = (series & ~rows[:, _NOT_BIVECTOR].any(axis=1)).nonzero()
    if bivectors.size:  # a nilpotent q keeps the series
        taken, exps = _exp_bivectors(rows[bivectors], sq[bivectors])
        out[bivectors[taken]] = exps
        series[bivectors[taken]] = False
    (live,) = series.nonzero()
    if not live.size:
        return out
    gathered = _gather(rows[live])
    terms = np.empty(gathered.shape)
    term = acc = ONE.coeffs
    for k in range(1, 65):
        if not live.size:
            return out
        term = _contract(_FULL, term, gathered, terms) / k
        acc = acc + term
        done = np.abs(term).max(axis=1) <= 1e-14 * np.abs(acc).max(axis=1)
        if done.any():
            out[live[done]] = acc[done]
            live, term, acc = live[~done], term[~done], acc[~done]
            gathered = _gather(rows[live])
            terms = terms[: live.size]
    if live.size:
        raise ArithmeticError("multivector exponential series did not converge in 64 terms")
    return out


_REVERSE_SIGNS = np.array([(-1.0) ** (g * (g - 1) // 2) for g in GRADES])
_GRADE_IS = [np.array([g == r for g in GRADES]) for r in range(6)]

_SCALAR_TYPES = (int, float, np.integer, np.floating)


class Multivector:
    """Immutable element of the 32-dimensional algebra.

    Operators: ``*`` geometric product, ``^`` outer product, ``|``
    generalized inner product, ``~`` reversion, ``+``/``-`` linear
    combination with other multivectors or real scalars, ``/`` division
    by a real scalar.  The bitwise operators bind looser than ``+``, so
    parenthesize mixed expressions.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.float64)
        if arr.shape != (N_BLADES,):
            raise ValueError(f"expected {N_BLADES} coefficients, got shape {arr.shape}")
        arr.flags.writeable = False
        self._c = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Multivector":
        mv = object.__new__(cls)
        arr.flags.writeable = False
        mv._c = arr
        return mv

    @classmethod
    def from_scalar(cls, x: float) -> "Multivector":
        c = np.zeros(N_BLADES)
        c[0] = x
        return cls._wrap(c)

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only view of the 32 blade coefficients (ascending mask)."""
        return self._c

    @property
    def scalar(self) -> float:
        return float(self._c[0])

    def coeff(self, mask: int) -> float:
        _integer(mask, range(N_BLADES), "blade mask out of range: {}", mask)
        return float(self._c[mask])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._c)))

    def grade_part(self, r: int) -> "Multivector":
        _integer(r, range(6), "grade out of range: {}", r)
        return Multivector._wrap(np.where(_GRADE_IS[r], self._c, 0.0))

    def grades(self) -> set[int]:
        """Set of grades with at least one nonzero coefficient."""
        return {GRADES[m] for m in np.nonzero(self._c)[0]}

    def reverse(self) -> "Multivector":
        return Multivector._wrap(self._c * _REVERSE_SIGNS)

    def norm(self) -> float:
        """sqrt of the scalar part of a*reverse(a).

        Defined only when every coefficient is finite and that product is
        a nonnegative scalar; anything else raises ValueError (tolerance
        1e-10 relative).
        """
        if not np.isfinite(self._c).all():
            raise ValueError("norm undefined: non-finite coefficient")
        sq = (self * self.reverse())._c
        total = float(np.max(np.abs(sq)))
        s = sq[0]
        rest = float(np.max(np.abs(sq[1:])))
        if rest > 1e-10 * max(total, 1e-300):
            raise ValueError("norm undefined: a*reverse(a) has a non-scalar part")
        if s < 0:
            if -s <= 1e-10 * max(total, 1e-300):
                return 0.0
            raise ValueError("norm undefined: a*reverse(a) is negative")
        return math.sqrt(s)

    def exp(self) -> "Multivector":
        """Multivector exponential.

        When the square of the argument is exactly a scalar s, closed
        forms apply: trigonometric for s < 0, hyperbolic for s > 0, and
        1 + a in the nilpotent limit s = 0.  A bivector whose square s + q
        is not a scalar takes the closed form in s and its grade-4 part q,
        whose square is a scalar, unless q is nilpotent.  Otherwise the
        power series is summed to relative tolerance 1e-14 with a 64-term
        cap, past which ArithmeticError is raised.  A closed form beyond
        double range, or a non-finite coefficient, raises ValueError.
        """
        return Multivector._wrap(_exp_rows(self._c[None])[0])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            return Multivector._wrap(self._c + other._c)
        if isinstance(other, _SCALAR_TYPES):
            c = self._c.copy()
            c[0] += other
            return Multivector._wrap(c)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            return Multivector._wrap(self._c - other._c)
        if isinstance(other, _SCALAR_TYPES):
            c = self._c.copy()
            c[0] -= other
            return Multivector._wrap(c)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            c = -self._c
            c[0] += other
            return Multivector._wrap(c)
        return NotImplemented

    def __neg__(self):
        return Multivector._wrap(-self._c)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return Multivector._wrap(_product(_FULL, self._c, other._c))
        if isinstance(other, _SCALAR_TYPES):
            return Multivector._wrap(self._c * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return Multivector._wrap(self._c * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return Multivector._wrap(self._c / float(other))
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, Multivector):
            return Multivector._wrap(_product(_OUTER, self._c, other._c))
        return NotImplemented

    def __or__(self, other):
        if isinstance(other, Multivector):
            return Multivector._wrap(_product(_INNER, self._c, other._c))
        return NotImplemented

    def __invert__(self):
        return self.reverse()

    def __eq__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            other = Multivector.from_scalar(float(other))
        if not isinstance(other, Multivector):
            return NotImplemented
        return bool(np.array_equal(self._c, other._c))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self._c + 0.0).tobytes())

    # -- text form -------------------------------------------------------

    def __str__(self):
        parts = []
        for m in range(N_BLADES):
            c = float(self._c[m])
            if c == 0.0:
                continue
            mag = abs(c)
            if m == 0:
                body = _format_coeff(mag)
            elif mag == 1.0:
                body = blade_name(m)
            else:
                body = _format_coeff(mag) + "*" + blade_name(m)
            parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sgn, body in parts[1:]:
            out += f" {sgn} {body}"
        return out

    __repr__ = __str__


def _format_coeff(x: float) -> str:
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def parse_multivector(text: str) -> Multivector:
    """Inverse of str(): parse "1.5*e01 - 2*e4 + 3" back to a multivector."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty multivector text")
    coeffs = np.zeros(N_BLADES)

    def consume_term(tok: str, sign: float):
        if "*" in tok:
            cs, bs = tok.split("*", 1)
            coeff = float(cs)
            mask = _mask_from_name(bs)
        elif tok.startswith("e") and len(tok) > 1 and tok[1:].isdigit():
            coeff = 1.0
            mask = _mask_from_name(tok)
        else:
            coeff = float(tok)
            mask = 0
        coeffs[mask] += sign * coeff

    first = tokens[0]
    sign = 1.0
    if first.startswith("-e"):
        # a leading minus on a bare blade ("-e01"); numeric tokens keep
        # their own sign via float()
        sign = -1.0
        first = first[1:]
    consume_term(first, sign)
    i = 1
    while i < len(tokens):
        op = tokens[i]
        if op not in ("+", "-") or i + 1 >= len(tokens):
            raise ValueError(f"malformed multivector text: {text!r}")
        consume_term(tokens[i + 1], 1.0 if op == "+" else -1.0)
        i += 2
    return Multivector(coeffs)


# -- module-level operations ------------------------------------------


def geometric_product(a, b) -> Multivector:
    return _promote(a) * _promote(b)


def grade_part(a: Multivector, r: int) -> Multivector:
    return a.grade_part(r)


def inner(a, b) -> Multivector:
    """Generalized inner product by grade selection |r - s|."""
    return _promote(a) | _promote(b)


def outer(a, b) -> Multivector:
    """Generalized outer product by grade selection r + s."""
    return _promote(a) ^ _promote(b)


def _scalar_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar parts of the products of rows (..., 32), each rounding as np.dot."""
    return ((a * _SQUARE_SIGNS)[..., None, :] @ b[..., :, None])[..., 0, 0]


def scalar_product(a: Multivector, b: Multivector) -> float:
    """Scalar part of the geometric product ab."""
    return float(_scalar_products(a._c, b._c))


def commutator(a: Multivector, b: Multivector) -> Multivector:
    return (a * b - b * a) / 2


def reverse(a: Multivector) -> Multivector:
    return a.reverse()


def norm(a: Multivector) -> float:
    return a.norm()


def mv_exp(a) -> Multivector:
    return _promote(a).exp()


def rotate(a: Multivector, generator: Multivector) -> Multivector:
    """Sandwich a with the rotor of the given bivector generator.

    Returns reverse(R) * a * R with R = mv_exp(-generator / 2).  A
    generator without index-0 components produces a rotation, one with
    them produces a boost; either way reverse(R) * R = 1 because the
    exponents cancel.
    """
    if generator.grade_part(2) != generator:
        raise ValueError("rotation generator must be a pure bivector")
    rotor = mv_exp(generator * -0.5)
    return rotor.reverse() * a * rotor


def e(*indices: int) -> Multivector:
    """Product of unit basis vectors by index, e.g. e(0, 1) or e(3)."""
    sign = 1
    mask = 0
    for k in indices:
        _integer(k, range(5), "basis index out of range: {}", k)
        sign *= _SIGNS[mask, 1 << k]
        mask ^= 1 << k
    c = np.zeros(N_BLADES)
    c[mask] = sign
    return Multivector._wrap(c)


def e_upper(*indices: int) -> Multivector:
    """Product of reciprocal unit vectors: index 0 flips sign, others don't."""
    flips = sum(1 for k in indices if k == 0)
    base = e(*indices)
    return -base if flips & 1 else base


def _worst(samples) -> float:
    """Largest of the residual samples, NaN if any sample is NaN or if
    there are none, so neither can pass ``residual <= tolerance``
    (Python's ``max`` drops a NaN that is not its first argument)."""
    values = np.fromiter(samples, dtype=float)
    return float(np.max(values)) if values.size else math.nan


def _placed(values: np.ndarray, masks) -> np.ndarray:
    """Rows (..., 32) with the values (..., k) at the blade masks, zero elsewhere."""
    rows = np.zeros(values.shape[:-1] + (N_BLADES,))
    rows[..., masks] = values
    return rows


def _promote(x) -> Multivector:
    if isinstance(x, Multivector):
        return x
    if isinstance(x, _SCALAR_TYPES):
        return Multivector.from_scalar(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as a multivector")


ONE = Multivector.from_scalar(1.0)
PSEUDOSCALAR = e(0, 1, 2, 3, 4)
