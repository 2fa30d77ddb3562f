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

import math

import numpy as np

N_BLADES = 32

#: grade of each blade mask (popcount)
GRADES = tuple(m.bit_count() for m in range(N_BLADES))

#: masks of the five unit vectors e0..e4
_VECTOR_MASKS = [1 << k for k in range(5)]


def blade_grade(mask: int) -> int:
    """Number of generator factors in the blade with the given mask."""
    if not 0 <= mask < N_BLADES:
        raise ValueError(f"blade mask out of range: {mask}")
    return GRADES[mask]


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two basis blades.

    Returns (sign, mask) with sign in {-1, +1} and mask = a XOR b.  The
    sign combines the parity of the reordering that sorts the factor
    sequence with the metric signs of annihilated repeated factors (only
    the index-0 generator contributes -1).
    """
    if not 0 <= a < N_BLADES or not 0 <= b < N_BLADES:
        raise ValueError(f"blade mask out of range: ({a}, {b})")
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
    if not 0 <= mask < N_BLADES:
        raise ValueError(f"blade mask out of range: {mask}")
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


def _product(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # rows (..., 32) pair up; each a[i] b[i^k] is rounded before the signed
    # sum and no multiply-add is fused, so a row of a batch equals the
    # single product, *, ^ and | round their shared terms alike and
    # a * b == (a | b) + (a ^ b) holds exactly for vectors
    return np.einsum("ki,...ki->...k", table, a[..., None, :] * b.take(_XOR, axis=-1))


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
        if not 0 <= mask < N_BLADES:
            raise ValueError(f"blade mask out of range: {mask}")
        return float(self._c[mask])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._c)))

    def grade_part(self, r: int) -> "Multivector":
        if not 0 <= r <= 5:
            raise ValueError(f"grade out of range: {r}")
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

        When the square of the argument is a scalar s (within 1e-12
        relative), closed forms apply: trigonometric for s < 0,
        hyperbolic for s > 0, and 1 + a in the nilpotent limit s = 0; a
        hyperbolic form beyond double range raises ValueError.
        Otherwise the power series is summed to relative tolerance
        1e-14 with a 64-term cap.  A non-finite coefficient raises
        ValueError.
        """
        if not np.isfinite(self._c).all():
            raise ValueError("exponential undefined: non-finite coefficient")
        sq = (self * self)._c
        s = sq[0]
        rest = float(np.max(np.abs(sq[1:])))
        if rest <= 1e-12 * float(np.max(np.abs(sq))):
            if s == 0.0:
                return ONE + self
            if s < 0.0:
                theta = math.sqrt(-s)
                return math.cos(theta) + self * (math.sin(theta) / theta)
            theta = math.sqrt(s)
            try:
                return math.cosh(theta) + self * (math.sinh(theta) / theta)
            except OverflowError:
                raise ValueError(f"exponential overflows: argument squares to {s:.3e}") from None
        acc = ONE
        term = ONE
        for k in range(1, 65):
            term = term * self / k
            acc = acc + term
            if term.max_abs() <= 1e-14 * acc.max_abs():
                return acc
        raise ArithmeticError("multivector exponential series did not converge in 64 terms")

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


def scalar_product(a: Multivector, b: Multivector) -> float:
    """Scalar part of the geometric product ab."""
    return float(np.dot(a._c * _SQUARE_SIGNS, b._c))


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
        if not 0 <= k <= 4:
            raise ValueError(f"basis index out of range: {k}")
        s, mask = blade_product(mask, 1 << k)
        sign *= s
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


def _promote(x) -> Multivector:
    if isinstance(x, Multivector):
        return x
    if isinstance(x, _SCALAR_TYPES):
        return Multivector.from_scalar(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as a multivector")


ONE = Multivector.from_scalar(1.0)
PSEUDOSCALAR = e(0, 1, 2, 3, 4)
