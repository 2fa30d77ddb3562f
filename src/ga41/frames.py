"""Reciprocal frames from linear coefficient tensors, the
electromagnetically shifted frame, covariant derivatives, and gauge
transformations of phase-rotated fields.

A frame is five vectors g_a = n[b, a] e_b with metric g_ab from the
(-++++) inner product; the reciprocal frame g^a satisfies
g^a . g_b = delta.  The electromagnetic frame tilts only the fourth
reciprocal vector by the potential, so its covariant derivative adds a
potential term to the flat vector derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .algebra import Multivector, N_BLADES, ONE, PSEUDOSCALAR, _FULL, _VECTOR_MASKS, _placed, _product
from .algebra import _fold
from .monogenic import AXES, MultivectorField, vector_derivative
from .monogenic import _ALL_AXES, _derivative_sum, _points, _result, _stacked, _stencil

ETA = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
ETA.setflags(write=False)
#: signs raising the four potential components: ETA's diagonal
_RAISE_SIGNS = np.diagonal(ETA)[:4]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class Frame:
    """Direct frame vectors, both metrics, and the reciprocal frame, with
    the rows (5, 32) of its vectors that covariant_derivative reads."""

    vectors: tuple[Multivector, ...]
    metric: np.ndarray
    inverse_metric: np.ndarray
    reciprocal: tuple[Multivector, ...]
    _reciprocal_rows: np.ndarray = _field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("metric", "inverse_metric"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        rows = np.array([v.coeffs for v in self.reciprocal])
        rows.setflags(write=False)
        object.__setattr__(self, "_reciprocal_rows", rows)


def _frames(mats: np.ndarray) -> tuple:
    """build_frame's rules and arithmetic on the tensors (n, 5, 5), each
    tensor as its one-tensor call computes it.

    Returns the condition estimates (NaN for a non-finite tensor), the
    message of the first rule each tensor breaks (None when it breaks
    none), and for the tensors that break none, in order: the rows
    (m, 5, 32) of their frame vectors, their metrics and inverse metrics
    (m, 5, 5), and the rows of their reciprocal vectors.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    cond = np.full(len(mats), math.nan)
    cond[finite] = np.linalg.cond(mats[finite])
    regular = cond <= _COND_LIMIT  # False for an infinite or NaN estimate
    mat = mats[regular]
    metric = mat.swapaxes(1, 2) @ ETA @ mat
    diagonal = np.diagonal(metric, axis1=1, axis2=2)
    signed = np.zeros(len(mats), dtype=bool)
    signed[regular] = ~((diagonal[:, 0] >= 0) | (diagonal[:, 1:] <= 0).any(axis=1))
    faults = [
        None if ok
        else "index tensor must be finite" if not f
        else f"index tensor is singular (condition estimate {c:.3e})" if not r
        else "frame breaks the (-++++) signature pattern"
        for ok, f, r, c in zip(signed, finite, regular, cond)
    ]
    kept = signed[regular]
    mat, metric = mat[kept], metric[kept]
    inverse_metric = np.linalg.inv(metric)
    recip_coeffs = inverse_metric @ mat.swapaxes(1, 2)  # row a: g^a in e-basis components
    vectors, reciprocal = (_placed(c, _VECTOR_MASKS) for c in (mat.swapaxes(1, 2), recip_coeffs))
    return cond, faults, vectors, metric, inverse_metric, reciprocal


def _point(x) -> np.ndarray:
    """x as one point (5,) of finite coordinates; ValueError otherwise."""
    try:
        point = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        point = None
    if point is None or point.shape != (AXES,) or not np.isfinite(point).all():
        raise ValueError("point must be 5 finite coordinates")
    return point


def build_frame(n, x=(0.0, 0.0, 0.0, 0.0, 0.0)) -> Frame:
    """Frame of a coefficient tensor at a point.

    ``n`` is a 5x5 array, constant, or a callable of the point that
    returns one; column a of n(x) holds the components of the frame
    vector g_a.  Raises ValueError when the point is not 5 finite
    coordinates, when the tensor is not 5x5, when it is not finite, when
    it is singular (condition estimate included) or when the induced
    metric breaks the (-++++) signature pattern on its diagonal.
    """
    point = _point(x)
    mat = np.asarray(n(point) if callable(n) else n, dtype=float)
    if mat.shape != (AXES, AXES):
        raise ValueError("index tensor must be 5x5")
    _, (fault,), vectors, metric, inverse_metric, reciprocal = _frames(mat[None])
    if fault is not None:
        raise ValueError(fault)
    vectors, reciprocal = (tuple(map(Multivector._wrap, rows[0])) for rows in (vectors, reciprocal))
    return Frame(vectors, metric[0], inverse_metric[0], reciprocal)


@dataclass(frozen=True)
class GaugeField:
    """Potential A_mu(x) (four components), charge, mass, and an
    optional phase function beta(x) with its five-component gradient.

    A constant potential, the charge and the mass must be finite; a
    callable potential is not checked.  A constant potential is stored
    read-only as the field's potential, so dataclasses.replace keeps it,
    and its electromagnetic frame is built on the first em_frame call and
    stored on the field."""

    potential: Callable[[np.ndarray], np.ndarray] | np.ndarray
    charge: float
    mass: float
    phase: Optional[Callable[[np.ndarray], float]] = None
    phase_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not callable(self.potential):
            const = np.array(self.potential, dtype=float)
            if const.shape != (4,):
                raise ValueError("constant potential must have four components")
            if not np.all(np.isfinite(const)):
                raise ValueError("constant potential must be finite")
            const.setflags(write=False)
            object.__setattr__(self, "potential", const)
        for name in ("charge", "mass"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    def potential_at(self, x) -> np.ndarray:
        if not callable(self.potential):
            return self.potential
        a = np.asarray(self.potential(np.asarray(x, dtype=float)), dtype=float)
        if a.shape != (4,):
            raise ValueError("potential must evaluate to four components")
        return a

    def phase_gradient_at(self, x, h: float = 1e-6) -> np.ndarray:
        if self.phase is None:
            raise ValueError("gauge field has no phase function")
        x = np.asarray(x, dtype=float)
        if self.phase_gradient is not None:
            g = np.asarray(self.phase_gradient(x), dtype=float)
            if g.shape != (AXES,):
                raise ValueError("phase gradient must have five components")
            return g
        _, plus, minus = _stencil(lambda xs: _stacked(self.phase, xs)[..., None], x, (h,))
        return ((plus - minus)[0] / (2.0 * h))[:, 0]

    @cached_property
    def _frame(self) -> Frame:
        """The electromagnetic frame of a constant potential, the same at
        every point; a failed build stores nothing."""
        return _em_frame(self.charge / self.mass, self.potential)


def em_frame(field: GaugeField, x) -> Frame:
    """Frame whose reciprocal vectors are the orthonormal ones except
    g^4 = e4-raised + (charge/mass) A_mu e^mu.  A constant potential's
    frame is built once per gauge field.  Raises ValueError when the
    point is not 5 finite coordinates, the mass is zero, or the tilt
    (charge/mass) A or its square is not finite."""
    point = _point(x)
    if field.mass == 0.0:
        raise ValueError("electromagnetic frame requires a nonzero mass")
    if not callable(field.potential):
        return field._frame
    return _em_frame(field.charge / field.mass, field.potential_at(point))


def _em_frame(ratio: float, a: np.ndarray) -> Frame:
    """em_frame's arithmetic for the tilt ratio * a."""
    recip = ETA.copy()  # the raised orthonormal vectors: the time axis flips
    with np.errstate(over="ignore", invalid="ignore"):
        recip[4, :4] = ratio * a * _RAISE_SIGNS
        inverse_metric = recip @ ETA @ recip.T
    # not finite when the tilt is not, or when a square of it overflows
    if not np.isfinite(inverse_metric).all():
        raise ValueError(
            f"tilt (charge/mass) A and its square must be finite, got {recip[4, :4].tolist()}"
        )
    # recip is ETA with row 4 tilted, so ETA recip^-1 = I - e4 (x) ratio a
    direct = np.eye(AXES)  # column a: g_a components
    direct[4, :4] = -(ratio * a)
    metric = direct.T @ ETA @ direct
    vectors, reciprocal = _placed(np.array([direct.T, recip]), _VECTOR_MASKS)
    wrap = Multivector._wrap
    return Frame(tuple(map(wrap, vectors)), metric, inverse_metric, tuple(map(wrap, reciprocal)))


def covariant_derivative(
    field: MultivectorField, frame, x, h: float | None = None
) -> Multivector | np.ndarray:
    """Sum of reciprocal frame vectors times partial derivatives.

    ``frame`` is a Frame or a callable point -> Frame, called per point.
    h = None uses the field's analytic derivative, a positive h central
    differences.  Points (..., 5) give rows (..., 32), as in monogenic.
    """
    x = _points(x)
    if callable(frame):
        recip = _stacked(lambda p: frame(p)._reciprocal_rows, x, (AXES, N_BLADES))
    else:
        recip = frame._reciprocal_rows
    return _result(x, _derivative_sum(field, x, h, recip, _ALL_AXES))


def _rotor_rows(betas) -> np.ndarray:
    """One row cos(beta) + pseudoscalar sin(beta) per phase beta."""
    b = np.asarray(betas, dtype=float)[..., None]
    return np.cos(b) * ONE.coeffs + np.sin(b) * PSEUDOSCALAR.coeffs


def phase_rotor(beta: float) -> Multivector:
    """cos(beta) + pseudoscalar sin(beta); central, unit norm."""
    return Multivector._wrap(_rotor_rows([beta])[0])


def gauge_transform(
    psi: MultivectorField, field: GaugeField
) -> tuple[MultivectorField, GaugeField]:
    """Right-multiply the field by the phase rotor of beta and shift the
    potential by -(1/charge) times the four-gradient of beta.

    The returned gauge field keeps the same phase function; negate it
    externally to invert.  Constant beta leaves the potential unchanged.
    """
    if field.charge == 0.0:
        raise ValueError("gauge transformation requires a nonzero charge")
    if field.phase is None:
        raise ValueError("gauge transformation requires a phase function")
    beta = field.phase
    base_rows, base_partials = psi._rows, psi._partials

    def rows(xs) -> np.ndarray:
        return _product(_FULL, base_rows(xs), _rotor_rows(_stacked(beta, xs)))

    def partials(xs) -> np.ndarray:
        # d_a (psi R) = (d_a psi + psi I d_a beta) R
        g = _stacked(field.phase_gradient_at, xs, (AXES,))
        turned = _product(_FULL, base_rows(xs), PSEUDOSCALAR.coeffs)[..., None, :] * g[..., None]
        rotors = _rotor_rows(_stacked(beta, xs))[..., None, :]
        return _product(_FULL, base_partials(xs) + turned, rotors)

    def new_potential(x) -> np.ndarray:
        g = field.phase_gradient_at(x)
        return field.potential_at(x) - g[:4] / field.charge

    rotated = MultivectorField(_rows=rows, _partials=None if base_partials is None else partials)
    return rotated, replace(field, potential=new_potential)


def gauge_covariance_residual(psi: MultivectorField, field: GaugeField, points) -> float:
    """Largest deviation of D'(psi') from (D psi) times the phase rotor
    over the points, with both covariant derivatives taken in the
    electromagnetic frames of the respective gauge fields."""
    rotated, shifted = gauge_transform(psi, field)
    x = _points(points).reshape(-1, AXES)
    lhs = covariant_derivative(rotated, lambda y: em_frame(shifted, y), x)
    rhs = covariant_derivative(psi, lambda y: em_frame(field, y), x)
    rhs = _product(_FULL, rhs, _rotor_rows(_stacked(field.phase, x)))
    return _fold([np.max(np.abs(lhs - rhs), axis=-1)])


def phase_shift_residual(psi: MultivectorField, field: GaugeField, points) -> float:
    """Residual of the flat-derivative identity for a phase-rotated
    field: the vector derivative of psi times the rotor equals the
    rotated vector derivative plus pseudoscalar times the phase
    gradient vector times the rotated field."""
    rotated, _ = gauge_transform(psi, field)
    x = _points(points).reshape(-1, AXES)
    rotors = _rotor_rows(_stacked(field.phase, x))
    # sum over a < 4 of g_a e^a, raised by ETA
    raised = _stacked(field.phase_gradient_at, x, (AXES,))[:, :4] @ ETA[:4]
    gradient = _product(_FULL, PSEUDOSCALAR.coeffs, _placed(raised, _VECTOR_MASKS))
    turned = _product(_FULL, gradient, psi(x))
    rhs = _product(_FULL, vector_derivative(psi, x), rotors) + _product(_FULL, turned, rotors)
    return _fold([np.max(np.abs(vector_derivative(rotated, x) - rhs), axis=-1)])
