"""Monogenic fields: plane waves on null momenta, numeric and analytic
derivative operators, 3-dimensional polynomial solutions, and separable
wavepackets.

A field is monogenic when the vector derivative (the sum of reciprocal
basis vectors times partial derivatives over the five axes) annihilates
it.  Axis 0 is time-like, axes 1..3 are ordinary space, axis 4 carries
the harmonic mass dependence.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (
    Multivector,
    N_BLADES,
    ONE,
    PSEUDOSCALAR,
    _FULL,
    _VECTOR_MASKS,
    _blade_gather,
    _integer,
    _placed,
    _product,
    blade_product,
    e,
    e_upper,
)

AXES = 5
_ALL_AXES = tuple(range(AXES))

#: reciprocal orthonormal basis: index 0 flips sign under (-++++)
RECIPROCAL_VECTORS = tuple(e_upper(k) for k in range(AXES))
_RECIPROCAL_ROWS = np.array([v.coeffs for v in RECIPROCAL_VECTORS])
#: e^a D as a signed gather: each reciprocal row is one signed blade, so
#: cell k of the product is _FLAT_SIGNS[a, k] D[_FLAT_INDEX[a, k]]
_FLAT_SIGNS, _FLAT_INDEX = _blade_gather(_RECIPROCAL_ROWS, left=True)
_FLAT_ROWS = np.arange(AXES)[:, None]
#: x I as a signed gather by the same rule: cell k is _TURN_SIGNS[k] x[_TURN_INDEX[k]]
(_TURN_SIGNS,), (_TURN_INDEX,) = _blade_gather(PSEUDOSCALAR.coeffs[None], left=False)
_MASS_AXIS = (PSEUDOSCALAR * e_upper(4)).coeffs  # the mass term's factor on the field
#: blade masks of (E, p1, p2, p3, m) in the wave amplitude (in u: _VECTOR_MASKS)
_AMPLITUDE_LAYOUT = [0b00000, 0b00011, 0b00101, 0b01001, 0b10001]


#: signs taking (E, p1, p2, p3, m) to the phase gradient (-E, p1, p2, p3, m)
_PHASE_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])


def _squares(values: np.ndarray) -> np.ndarray:
    """values * values; ValueError for a finite value whose square overflows."""
    with np.errstate(over="ignore"):
        out = values * values
    big = np.isinf(out) & np.isfinite(values)
    if big.any():
        raise ValueError(f"{values[big][0].item()!r} is too large to square")
    return out


def _momentum_squares(p: np.ndarray) -> np.ndarray:
    """|p|^2 of momenta (n, 3), summed in index order; one that overflows is inf."""
    with np.errstate(over="ignore"):
        return p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1] + p[:, 2] * p[:, 2]


def _null_gaps(rows: np.ndarray, mass_squares=None) -> tuple[np.ndarray, np.ndarray]:
    """E^2 - |p|^2 - m^2 of momentum rows (n, 5) = (E, p1, p2, p3, m), and
    E^2; mass_squares, when given, are the masses' _squares."""
    energy_squares = _squares(rows[:, 0])
    if mass_squares is None:
        mass_squares = _squares(rows[:, 4])
    return energy_squares - _momentum_squares(rows[:, 1:4]) - mass_squares, energy_squares


def _checked_momenta(rows: np.ndarray, mass_squares=None) -> np.ndarray:
    """Momentum rows (n, 5), returned once every row is finite, has m >= 0
    and is null within 1e-12 max(1, E^2); ValueError otherwise."""
    if not np.isfinite(rows).all():
        raise ValueError("energy, momentum and mass must be finite")
    if (rows[:, 4] < 0).any():
        raise ValueError("mass must be nonnegative")
    gap, energy_squares = _null_gaps(rows, mass_squares)
    off = np.abs(gap) > 1e-12 * np.maximum(1.0, energy_squares)
    if off.any():
        raise ValueError(f"momentum is not null: E^2 - p^2 - m^2 = {gap[off][0]:.3e}")
    return rows


def _momentum_rows(momenta: np.ndarray, masses: np.ndarray):
    """The momenta MomentumVector.from_mass_momentum builds from momenta
    (n, 3) and masses (n,), as rows (n, 5) = (E, p1, p2, p3, m), with their
    wave amplitudes (n, 32) and phase gradients (n, 5); each row equals its
    one-momentum value bit for bit, and a row MomentumVector would reject
    raises its ValueError."""
    p = np.asarray(momenta, dtype=float)
    masses = np.asarray(masses, dtype=float)
    mass_squares = _squares(masses)
    energy = np.sqrt(_momentum_squares(p) + mass_squares)
    rows = _checked_momenta(np.column_stack([energy, p, masses]), mass_squares)
    return rows, _placed(rows, _AMPLITUDE_LAYOUT), rows * _PHASE_SIGNS


def _momentum_parts(momentum, *scalars) -> tuple:
    """The three components of momentum as a tuple of floats, then each
    scalar (the energy, the mass) as a float; ValueError unless there are
    three components and each part is a real number that is not a bool."""
    p = tuple(momentum) if np.iterable(momentum) else ()
    if len(p) != 3:
        raise ValueError("momentum must have three components")
    if not all(map(_real, (*p, *scalars))):
        raise ValueError("energy, momentum and mass must be real numbers, not bools or strings")
    return (tuple(map(float, p)), *map(float, scalars))


@dataclass(frozen=True)
class MomentumVector:
    """Null momentum (E, p, m): E^2 = |p|^2 + m^2 within 1e-12.

    Built directly from all four numbers, or from (p, m) via
    :meth:`from_mass_momentum`, which derives E = +sqrt(p^2 + m^2) and
    optionally flips to the negative-energy branch.
    """

    energy: float
    momentum: tuple[float, float, float]
    mass: float

    def __post_init__(self):
        p, energy, mass = _momentum_parts(self.momentum, self.energy, self.mass)
        object.__setattr__(self, "momentum", p)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "mass", mass)
        _checked_momenta(self._row[None])

    @classmethod
    def from_mass_momentum(
        cls, momentum, mass: float, negative_energy: bool = False
    ) -> "MomentumVector":
        p, mass = _momentum_parts(momentum, mass)
        # _momentum_rows checks the row, so the constructor's check is skipped;
        # the flipped branch has the same squares and passes the same check
        energy = _momentum_rows(np.array([p]), np.array([mass]))[0][0, 0].item()
        out = object.__new__(cls)
        out.__dict__.update(energy=-energy if negative_energy else energy, momentum=p, mass=mass)
        return out

    @property
    def null_gap(self) -> float:
        return float(_null_gaps(self._row[None])[0][0])

    @property
    def _row(self) -> np.ndarray:
        """(E, p1, p2, p3, m) as one momentum row."""
        return np.array([self.energy, *self.momentum, self.mass])

    @property
    def phase_gradient(self) -> np.ndarray:
        """Partial derivatives of the phase: (-E, p1, p2, p3, m)."""
        return self._row * _PHASE_SIGNS

    @property
    def vector(self) -> Multivector:
        """u = E e0 + p_k ek + m e4; squares to the null gap."""
        return Multivector._wrap(_placed(self._row, _VECTOR_MASKS))

    @property
    def amplitude(self) -> Multivector:
        """Wave amplitude E + p_k e0k + m e04, equal to u times -e0."""
        return Multivector._wrap(_placed(self._row, _AMPLITUDE_LAYOUT))


def _points(x) -> np.ndarray:
    """x as float points (..., 5); ValueError for any other last axis and
    for a coordinate that is NaN or infinite."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (AXES,):
        raise ValueError(f"points must have shape (..., 5), got shape {x.shape}")
    # count_nonzero, not .all(): half the cost at the few points of a call
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ValueError("points must be finite")
    return x


def _result(x: np.ndarray, rows: np.ndarray) -> Multivector | np.ndarray:
    """A Multivector at one point (5,), the coefficient rows at points (..., 5)."""
    return Multivector._wrap(rows) if x.ndim == 1 else rows


def _stacked(fn: Callable, xs: np.ndarray, shape: tuple = ()) -> np.ndarray:
    """fn at each point of xs (..., 5), stacked into (..., *shape)."""
    out = np.array([fn(x) for x in xs.reshape(-1, AXES)], dtype=float)
    return out.reshape(xs.shape[:-1] + shape)


@dataclass(frozen=True)
class MultivectorField:
    """A multivector-valued function: ``field(x)`` is a Multivector at one
    point (5,), through ``value``, and rows (..., 32) at points (..., 5),
    through ``_rows``.  ``_partials`` gives rows (..., 5, 32) of partial
    derivatives, ``derivative`` (point, axis) its one-point case.  Either
    of the two pairs is built from the other."""

    value: Optional[Callable[[np.ndarray], Multivector]] = None
    derivative: Optional[Callable[[np.ndarray, int], Multivector]] = None
    _rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _partials: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        given, derivative, rows, partials = self.value, self.derivative, self._rows, self._partials
        # dataclasses.replace passes a value built below back in: unwrapped,
        # it is not wrapped twice, and a replaced field checks its point once
        given = getattr(given, "_unchecked", given)
        if rows is None:
            if given is None:
                raise ValueError("a field needs a value function or rows")
            rows = lambda xs: _stacked(lambda x: given(x).coeffs, xs, (N_BLADES,))
        if partials is None and derivative is not None:
            partials = lambda xs: _stacked(
                lambda x: [derivative(x, a).coeffs for a in range(AXES)], xs, (AXES, N_BLADES))
        # the one-point value checks its point, and __call__ leaves it that check
        if given is None:
            given = lambda x: Multivector._wrap(rows(x[None])[0])
        value = lambda x: given(_points(x))
        value._unchecked = given
        if derivative is None and partials is not None:
            derivative = lambda x, a: Multivector._wrap(partials(_points(x)[None])[0, a])
        # frozen: set the fields past the dataclass __setattr__
        self.__dict__.update(value=value, derivative=derivative, _rows=rows, _partials=partials)

    def __call__(self, x) -> Multivector | np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.value(x) if x.ndim == 1 else self._rows(_points(x))


def _lined_up(v: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows v (m, k) of a family with axes put in, so that row i meets row i
    of the points xs (m, ..., 5)."""
    return v.reshape((len(v),) + (1,) * (xs.ndim - 2) + v.shape[-1:])


def _harmonic(xs: np.ndarray, grad: np.ndarray, *pairs) -> list[np.ndarray]:
    """a cos(g.x) + b sin(g.x) at the points xs (..., 5) for each pair (a, b)
    of amplitude rows, from one phase; gradients (m, 5) and rows (m, 32)
    make a family, whose wave i meets row i of the points."""
    if grad.ndim == 2:  # a family
        grad, pairs = _lined_up(grad, xs), [(_lined_up(a, xs), _lined_up(b, xs)) for a, b in pairs]
    p = (xs * grad).T
    # g.x summed in axis order, so a row rounds alike in every batch
    ph = (p[0] + p[1] + p[2] + p[3] + p[4]).T[..., None]
    cos, sin = np.cos(ph), np.sin(ph)
    return [a * cos + b * sin for a, b in pairs]


def _wave_parts(amplitude, phase_gradient) -> tuple[np.ndarray, tuple, tuple]:
    """harmonic_field's arguments, checked: the gradients g, and the pairs
    (A, A I) and (A I, -A) of amplitude rows whose waves are the field and,
    times g, its partials (A I cos - A sin, as A I cos + (-A) sin is the
    same sum)."""
    amp = np.array(getattr(amplitude, "coeffs", amplitude), dtype=float)
    grad = np.array(phase_gradient, dtype=float)
    if grad.ndim not in (1, 2) or grad.shape[-1] != AXES or amp.shape != grad.shape[:-1] + (32,):
        raise ValueError("phase gradient must have five components, one amplitude row per gradient")
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(amp))):
        raise ValueError("amplitude and phase gradient must be finite")
    # A I; the amplitude is finite, so adding 0.0 gives the product's bytes
    amp_i = _TURN_SIGNS * amp[..., _TURN_INDEX] + 0.0
    return grad, (amp, amp_i), (amp_i, -amp)


def harmonic_field(amplitude, phase_gradient) -> MultivectorField:
    """amplitude (a Multivector or its coefficients) times exp(pseudoscalar
    g.x); amplitude rows (m, 32) and gradients (m, 5) make m waves at (m, ..., 5)."""
    grad, wave, turned = _wave_parts(amplitude, phase_gradient)

    def partials(xs) -> np.ndarray:
        (rows,) = _harmonic(xs, grad, turned)
        return rows[..., None, :] * (_lined_up(grad, xs) if grad.ndim == 2 else grad)[..., :, None]

    return MultivectorField(_rows=lambda xs: _harmonic(xs, grad, wave)[0], _partials=partials)


def plane_wave(k: MomentumVector) -> MultivectorField:
    """The monogenic plane wave of a null momentum.

    Value: (E + p_k e0k + m e04) * exp(pseudoscalar * phase) with phase
    -E t + p.x + m x4.  Carries analytic partial derivatives.
    """
    return harmonic_field(k.amplitude, k.phase_gradient)


def plane_wave_variant(
    k: MomentumVector, time_sign: int = 1, mass_sign: int = 1
) -> MultivectorField:
    """Same amplitude with the time and mass phase terms optionally
    flipped; only the (+1, +1) choice is monogenic away from p = 0.  Each
    sign must be the integer +1 or -1 (ValueError otherwise)."""
    for name, sign in (("time_sign", time_sign), ("mass_sign", mass_sign)):
        _integer(sign, (1, -1), "{} must be +1 or -1, got {!r}", name, sign)
    return harmonic_field(k.amplitude, k.phase_gradient * [time_sign, 1, 1, 1, mass_sign])


def vector_derivative(
    field: MultivectorField,
    x,
    h: float | None = None,
    indices: tuple[int, ...] = _ALL_AXES,
) -> Multivector | np.ndarray:
    """Sum of reciprocal basis vectors times partial derivatives: a
    Multivector at one point (5,), rows (..., 32) at points (..., 5), each
    row equal to its one-point call bit for bit.

    h = None uses the field's analytic derivative; a finite positive real
    h uses second-order central differences (any other h, a bool included,
    raises ValueError).  ``indices`` restricts the sum to
    distinct axes in 0..4, e.g. (1, 2, 3) for the purely spatial
    operator; any other index raises ValueError.
    """
    x = _points(x)
    if indices is not _ALL_AXES:  # the default needs no check
        message = "indices must be distinct integers in 0..4, got {!r}"
        try:
            indices = tuple(indices)
        except TypeError:  # not iterable
            raise ValueError(message.format(indices)) from None
        for a in indices:
            _integer(a, range(AXES), message, indices)
        if len(set(indices)) < len(indices):
            raise ValueError(message.format(indices))
    return _result(x, _derivative_sum(field, x, h, _RECIPROCAL_ROWS, indices))


def _real(value) -> bool:
    """Whether value is a real number that is not a bool; a plain float
    skips the ABC checks."""
    return type(value) is float or not isinstance(value, bool) and isinstance(value, numbers.Real)


def _check_steps(steps) -> None:
    """ValueError unless every step is a real number, not a bool, that is
    finite and positive."""
    for h in steps:
        if not (_real(h) and 0.0 < h < math.inf):
            raise ValueError("step h must be finite and positive")


@functools.cache
def _unit_shifts(axes: tuple) -> np.ndarray:
    """The shifts e_a, then -e_a, for the axes a in ``axes``, read-only;
    h (-e_a) is -(h e_a) for h > 0, signed zeros included."""
    shifts = np.concatenate([np.eye(AXES)[list(axes)], -np.eye(AXES)[list(axes)]])
    shifts.setflags(write=False)
    return shifts


def _stencil(f: Callable, x: np.ndarray, steps, axes=_ALL_AXES, center: bool = False):
    """f at x + h e_a and at x - h e_a for each step h in ``steps`` and the
    axes a in ``axes``, from one call of f on the points stacked along
    axis -2: (centre, plus, minus), plus and minus (..., steps, axes, k)
    with row [j, i] for steps[j] and axes[i], and f at x in centre
    (..., 1, k) if set.  Every step must be finite and positive."""
    _check_steps(steps)
    # x + (-s) is x - s in IEEE arithmetic, signed zeros included
    shifts = np.asarray(steps, dtype=float)[:, None, None] * _unit_shifts(tuple(axes))
    x = x[..., None, :]
    points = x + shifts.reshape(-1, AXES)
    out = f(np.concatenate([x, points], axis=-2) if center else points)
    c = int(center)
    rest = out[..., c:, :].reshape(out.shape[:-2] + (len(steps), 2, len(axes), out.shape[-1]))
    return out[..., :c, :], rest[..., 0, :, :], rest[..., 1, :, :]


def _axis_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of the rows (..., n, k), k > 1, over axis -2 in index order from
    zero: numpy adds along a non-innermost axis one slice after another, so the
    rows are held C-contiguous.  + 0.0 gives a zero sum the sign of one from
    +0.0; numpy 2.4 starts there already, older numpy >= 1.24 is unchecked."""
    return np.add.reduce(np.ascontiguousarray(terms), axis=-2) + 0.0


def _term_sums(xs, values: Callable, constants: np.ndarray) -> np.ndarray:
    """Rows (..., k, 32) at points xs (..., 5): the term weights (n, k, J)
    that values gives at the points, one _axis_sum over the constant rows
    (J, 32) or (k, J, 32)."""
    weights = values(xs.reshape(-1, AXES))
    return _axis_sum(weights[..., None] * constants).reshape(xs.shape[:-1] + (-1, N_BLADES))


def _derivative_sum(field: MultivectorField, x, h, reciprocal, indices) -> np.ndarray:
    """Sum over the axes a in ``indices`` of reciprocal[..., a, :] (rows
    (5, 32), or one frame per point) times the partial derivative along a:
    analytic for h = None, else central differences with step h.

    The flat frame, passed as _RECIPROCAL_ROWS itself, takes each term as
    a signed gather of its partial.  That equals the product bit for bit:
    a cell of the product has one nonzero term, so they differ at most in
    the sign of a zero, which _axis_sum's + 0.0 makes positive.  Partials
    that are not all finite take the product, which spreads 0 * inf = NaN
    over the row."""
    if h is None and field._partials is None:
        raise ValueError("field has no analytic derivative; pass a step h")
    every = indices is _ALL_AXES
    axes = slice(None) if every else list(indices)
    if not every and not axes:
        if h is not None:
            _check_steps((h,))  # as the stencil of any other index set does
        return np.zeros(x.shape[:-1] + (N_BLADES,))
    if h is None:
        # x as a one-point stack along axis -2, so that one point has a leading axis too
        diffs = field._partials(x[..., None, :])[..., 0, axes, :]
    else:
        _, plus, minus = _stencil(field._rows, x, (h,), indices)
        diffs = (plus - minus)[..., 0, :, :] / (2.0 * h)
    if reciprocal is _RECIPROCAL_ROWS and np.count_nonzero(np.isfinite(diffs)) == diffs.size:
        rows = _FLAT_ROWS[: diffs.shape[-2]]
        return _axis_sum(_FLAT_SIGNS[axes] * diffs[..., rows, _FLAT_INDEX[axes]])
    return _axis_sum(_product(_FULL, reciprocal[..., axes, :], diffs))


def laplacian(
    field: MultivectorField, x, h: float = 1e-3, richardson: bool = False
) -> Multivector | np.ndarray:
    """Second-order operator -d2/dt2 + sum_i d2/dxi2 by central
    differences; richardson=True combines steps h and h/2 to cancel the
    leading truncation term, from one field call on the centre and both
    stencils.  Points as in vector_derivative."""
    x = _points(x)
    _check_steps((h,))  # before it is halved
    steps = (h, h / 2.0) if richardson else (h,)
    center, plus, minus = _stencil(field._rows, x, steps, center=True)
    hs = np.asarray(steps, dtype=float)[:, None, None]
    second = (plus - 2.0 * center[..., None, :, :] + minus) / (hs * hs)
    second[..., 0, :] = -second[..., 0, :]
    sums = _axis_sum(second)
    if richardson:
        return _result(x, (4.0 * sums[..., 1, :] - sums[..., 0, :]) / 3.0)
    return _result(x, sums[..., 0, :])


def reduced_vector_derivative(
    field: MultivectorField, x, mass: float | np.ndarray, h: float | None = None
) -> Multivector | np.ndarray:
    """Vector derivative with the fourth axis replaced by its harmonic
    eigenvalue: sum over axes 0..3 plus pseudoscalar * mass * e4 * F, at
    points as in vector_derivative; a family takes one mass per wave, (m, 1).
    A mass that is not finite raises ValueError."""
    x = _points(x)
    mass = np.asarray(mass, dtype=float)
    if not np.isfinite(mass).all():
        raise ValueError("mass must be finite")
    partial = _derivative_sum(field, x, h, _RECIPROCAL_ROWS, (0, 1, 2, 3))
    turned = _product(_FULL, _MASS_AXIS, field._rows(x[..., None, :])[..., 0, :])
    return _result(x, partial + turned * mass[..., None])


# -- 3-dimensional monogenic polynomials -------------------------------

#: blades spanning the even subalgebra of the axes 1..3 generators
EVEN_SPATIAL_MASKS = (0, 0b00110, 0b01010, 0b01100)
#: the two cells singled out by the separable-packet construction
FLAGGED_MASKS = (0, 0b00110)

_SUPPORTED_DEGREES = (0, 1, 2, 3)


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    return [
        (a, b, degree - a - b)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
    ]


def _spatial_derivative_matrix(degree: int) -> list[list[int]]:
    """Integer matrix of the axes-1..3 vector derivative on polynomials
    of the given degree with even-subalgebra values.

    Columns: (monomial, even blade); rows: (degree-1 monomial, any of
    the 32 blades), so there are no rows at degree 0.
    """
    monos = _monomials(degree)
    lower_index = {m: i for i, m in enumerate(_monomials(degree - 1))}
    ncols = len(monos) * len(EVEN_SPATIAL_MASKS)
    mat = [[0] * ncols for _ in range(len(lower_index) * N_BLADES)]
    for mi, mono in enumerate(monos):
        for bi, bmask in enumerate(EVEN_SPATIAL_MASKS):
            col = mi * len(EVEN_SPATIAL_MASKS) + bi
            for axis in (1, 2, 3):
                expo = mono[axis - 1]
                if expo == 0:
                    continue
                reduced = list(mono)
                reduced[axis - 1] -= 1
                sign, rmask = blade_product(1 << axis, bmask)
                row = lower_index[tuple(reduced)] * N_BLADES + rmask
                mat[row][col] += expo * sign
    return mat


def _eliminate(mat: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Exact Gauss-Jordan elimination of an integer matrix: the nonzero
    rows of its reduced form and their pivot columns.  A row is scaled,
    never divided, so row i stays integer and is zero in every pivot
    column but its own."""
    rows = [list(row) for row in mat]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        lead = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if lead is None:
            continue
        rows[r], rows[lead] = rows[lead], rows[r]
        top = rows[r]
        rows = [
            [top[c] * a - row[c] * b for a, b in zip(row, top)] if i != r and row[c] else row
            for i, row in enumerate(rows)
        ]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _nullspace(mat: list[list[int]], ncols: int) -> tuple[list[list[int]], int]:
    """Nullspace basis as integer vectors over one common denominator d,
    one vector per free column, which it holds at d."""
    rows, pivots = _eliminate(mat, ncols)
    d = math.lcm(*(row[c] for row, c in zip(rows, pivots)))
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[free] = d
        for row, c in zip(rows, pivots):
            v[c] = -row[free] * (d // row[c])
        basis.append(v)
    return basis, d


@dataclass(frozen=True)
class PolynomialField(MultivectorField):
    """Polynomial solution of the spatial vector derivative; flagged
    fields take values in the scalar + e12 plane only.  Its term table is
    ``monomials``, the exponents (J, 3) of x1, x2, x3 in its J nonzero
    terms, and ``coefficients``, their rows (J, 32); separable_wavepacket
    takes the table in place of the rows."""

    degree: int = 0
    flagged: bool = False
    monomials: Optional[np.ndarray] = dataclasses.field(default=None, compare=False)
    coefficients: Optional[np.ndarray] = dataclasses.field(default=None, compare=False)


def _monomial_values(expos: np.ndarray, degree: int, which, phase=None) -> Callable:
    """The values of the monomials x1^i x2^j x3^k with exponents expos
    (J, 3) of the given degree at points xs (n, 5), term rows ``which``
    (n, len(which), J): row 0 the monomial, row a = 1..3 its partial along
    axis a; given ``phase``, phases (n,) of the points, each value times
    cos, then times sin (n, len(which), 2J).  One product over one gather
    from a per-point table: ((factor x1^i) x2^j) x3^k, times the turn."""
    top = max(degree, 1)
    # d/dx_a takes the factor the exponent of x_a, which drops by one
    lowered = np.maximum(expos - np.eye(3, dtype=int)[:, None], 0)
    rows = np.concatenate([expos[None], lowered])[which]
    factors = np.concatenate([np.ones((1, len(expos)), dtype=int), expos.T])[which]
    # columns: the factors 0..top (x^0 takes the 1), x1 x2 x3 to the powers 1..top, cos, sin
    consts = np.arange(top + 1.0)
    powers = np.where(rows, top - 2 + 3 * rows + np.arange(3), 1)
    index = np.concatenate([factors[..., None], powers], axis=-1)
    if phase is not None:  # each term times cos, then each times sin
        index = np.concatenate([np.insert(index, 4, turn, axis=-1) for turn in (-2, -1)], axis=-2)
    index = np.moveaxis(index, -1, 0)  # the factors of each weight along axis 0

    def values(xs) -> np.ndarray:
        table = np.empty((len(xs), 4 * top + 3))
        table[:, : top + 1] = consts
        # powers by repeated products, which round alike on every platform
        x = table[:, top + 1 : top + 4] = xs[:, 1:4]
        for c in range(top + 4, 4 * top + 1, 3):
            np.multiply(table[:, c - 3 : c], x, out=table[:, c : c + 3])
        if phase is not None:
            np.cos(ph := phase(xs), out=table[:, -2])
            np.sin(ph, out=table[:, -1])
        return np.multiply.reduce(table[:, index], axis=1)

    return values


def _polynomial_field(degree: int, vec: np.ndarray) -> PolynomialField:
    nb = len(EVEN_SPATIAL_MASKS)
    coeffs = np.zeros((len(vec) // nb, N_BLADES))
    for bi, bmask in enumerate(EVEN_SPATIAL_MASKS):
        coeffs[:, bmask] = vec[bi::nb]
    # the nonzero terms: exponents of x1, x2, x3 and coefficient rows
    keep = np.any(coeffs != 0.0, axis=1)
    expos, coeffs = np.array(_monomials(degree))[keep], coeffs[keep]
    flagged = not np.any(np.delete(coeffs, FLAGGED_MASKS, axis=1))
    for table in (expos, coeffs):
        table.setflags(write=False)

    value_terms = _monomial_values(expos, degree, slice(0, 1))
    partial_terms = _monomial_values(expos, degree, slice(1, None))

    def rows(xs) -> np.ndarray:
        return _term_sums(xs, value_terms, coeffs)[..., 0, :]

    def partials(xs) -> np.ndarray:
        # axes 0 and 4 give zero
        out = np.zeros(xs.shape[:-1] + (AXES, N_BLADES))
        out[..., 1:4, :] = _term_sums(xs, partial_terms, coeffs)
        return out

    return PolynomialField(
        _rows=rows, _partials=partials, degree=degree, flagged=flagged,
        monomials=expos, coefficients=coeffs,
    )


def monogenic_polynomials_3d(degree: int) -> list[PolynomialField]:
    """Basis of polynomial fields of the given total degree, with values
    in the even subalgebra of axes 1..3, annihilated by the spatial
    vector derivative.

    Fields whose values stay in the scalar + e12 plane come first and
    are flagged; the rest complete the basis.
    """
    degree = _integer(degree, _SUPPORTED_DEGREES, "unsupported degree: {}", degree)
    nb = len(EVEN_SPATIAL_MASKS)
    derivative = _spatial_derivative_matrix(degree)
    ncols = nb * len(_monomials(degree))
    # restricted system over the flagged cells only, solved first so the
    # flagged fields head the basis
    flag_cols = [col for col in range(ncols) if EVEN_SPATIAL_MASKS[col % nb] in FLAGGED_MASKS]
    restricted, rd = _nullspace([[row[c] for c in flag_cols] for row in derivative], len(flag_cols))
    full, fd = _nullspace(derivative, ncols)
    cells = [dict(zip(flag_cols, v)) for v in restricted]
    vectors = [[cell.get(c, 0) for c in range(ncols)] for cell in cells]
    scales = [rd] * len(vectors) + [fd] * len(full)
    vectors += full
    # complete with the full-nullspace vectors that raise the rank: the
    # pivot columns of the matrix whose columns are the candidates
    _, chosen = _eliminate(list(zip(*vectors)), len(vectors))
    return [_polynomial_field(degree, np.array([a / scales[j] for a in vectors[j]])) for j in chosen]


def _term_table(spatial: MultivectorField, phase) -> tuple[Callable, Callable, np.ndarray]:
    """A spatial factor S = sum_j s_j(x) R_j times a wave of phase ``phase``
    as its term weights and its term rows R (J, 32): two functions of
    points xs (n, 5), one giving the weights [s_j cos, s_j sin] (n, 1, 2J),
    the other those (n, 5, 2J) of [s_j, d1 s_j, d2 s_j, d3 s_j, s_j], which
    its partials along axes 0..4 take.  A polynomial gives its monomials
    and coefficient rows; any other field, or a polynomial built without
    them, its rows and partials, with the 32 unit blades."""
    if isinstance(spatial, PolynomialField) and spatial.monomials is not None:
        expos, degree = spatial.monomials, spatial.degree
        values = _monomial_values(expos, degree, [0], phase)
        return values, _monomial_values(expos, degree, [0, 1, 2, 3, 0], phase), spatial.coefficients
    spatial_rows, spatial_partials = spatial._rows, spatial._partials

    def turned(xs, s) -> np.ndarray:
        ph = phase(xs)[:, None, None]
        return np.concatenate([np.cos(ph) * s, np.sin(ph) * s], axis=-1)

    def partial_values(xs) -> np.ndarray:
        s = spatial_rows(xs)[:, None, :]
        return turned(xs, np.concatenate([s, spatial_partials(xs)[:, 1:4, :], s], axis=1))

    return lambda xs: turned(xs, spatial_rows(xs)[:, None, :]), partial_values, np.eye(N_BLADES)


def separable_wavepacket(spatial: MultivectorField, k) -> MultivectorField:
    """Product of a spatial factor and a (t, x4) plane wave with k = (E, m),
    E^2 = m^2 for finite E and m (ValueError otherwise, also when E^2
    overflows).

    The spatial factor must commute with the index-0 and index-4
    generators (checked on a sample grid); together with spatial
    monogenicity this makes the product monogenic in all five axes
    without spreading.

    The pseudoscalar I is central, so the packet of S = sum_j s_j(x) R_j
    and the wave A exp(I phi), phi = -E t + m x4, is
    sum_j s_j (cos phi P_j + sin phi Q_j) with the constants P = R A and
    Q = R A I, which are formed once, here; a polynomial gives its
    monomials and coefficient rows as s_j and R, any other factor its
    rows and the 32 unit blades.  Rows and partials are then one
    _axis_sum each over the 2J products of [s_j cos, s_j sin] and [P, Q],
    with no geometric product per call: along axes 1..3 the terms take
    d_a s_j in place of s_j, and along axes 0 and 4 the wave's derivative
    g_a (A I cos - A sin) makes the constants g_a [Q, -P].
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (2,):
        raise ValueError(f"separable factor takes exactly (E, m), got shape {k.shape}")
    energy, mass = float(k[0]), float(k[1])
    on_shell = abs(energy * energy - mass * mass) <= 1e-12 * max(1.0, energy * energy)
    if not (math.isfinite(energy) and math.isfinite(mass) and on_shell):
        raise ValueError("separable factor requires finite E and m with E^2 = m^2")
    ticks = (-1.0, -0.3, 0.4, 1.0)
    grid = [(0.0, x1, x2, x3, 0.0) for x1 in ticks for x2 in ticks for x3 in ticks]
    values = spatial._rows(np.array(grid))
    scale = np.maximum(1.0, np.max(np.abs(values), axis=1))
    for gen in (e(0).coeffs, e(4).coeffs):
        gap = _product(_FULL, values, gen) - _product(_FULL, gen, values)
        if np.any(np.max(np.abs(gap), axis=1) > 1e-10 * scale):
            raise ValueError(
                "spatial factor must commute with the index-0 and index-4 generators"
            )
    # the spatial factor varies along axes 1..3, the wave along 0 and 4
    phase = lambda x: x[:, 0] * -energy + x[:, 4] * mass  # -E t + m x4
    value_terms, partial_terms, table = _term_table(spatial, phase)
    p = _product(_FULL, table, (energy * ONE + mass * e(0, 4)).coeffs)
    q = _product(_FULL, p, PSEUDOSCALAR.coeffs)
    wave, turned = np.concatenate([p, q]), np.concatenate([q, -p])
    # the constants (2J, 32) of each term row: the value, then the
    # partials along axes 0..4
    value_constants = wave[None]
    partial_constants = np.stack([-energy * turned, wave, wave, wave, mass * turned])

    def rows(xs) -> np.ndarray:
        return _term_sums(xs, value_terms, value_constants)[..., 0, :]

    def partials(xs) -> np.ndarray:
        return _term_sums(xs, partial_terms, partial_constants)

    return MultivectorField(_rows=rows, _partials=None if spatial._partials is None else partials)
