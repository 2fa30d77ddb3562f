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
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .algebra import Multivector, N_BLADES, ONE, PSEUDOSCALAR, _FULL, _VECTOR_MASKS, _product, _worst
from .monogenic import AXES, MultivectorField, vector_derivative
from .monogenic import _derivative_sum, _stencil

ETA = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
ETA.setflags(write=False)

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class RefractiveIndex:
    """Coefficient tensor n, constant or point-dependent; column a of
    n(x) holds the components of the frame vector g_a."""

    tensor: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]

    def at(self, x) -> np.ndarray:
        raw = self.tensor(np.asarray(x, dtype=float)) if callable(self.tensor) else self.tensor
        mat = np.asarray(raw, dtype=float)
        if mat.shape != (AXES, AXES):
            raise ValueError("index tensor must be 5x5")
        return mat


@dataclass(frozen=True)
class Frame:
    """Direct frame vectors, both metrics, and the reciprocal frame."""

    vectors: tuple[Multivector, ...]
    metric: np.ndarray
    inverse_metric: np.ndarray
    reciprocal: tuple[Multivector, ...]

    def __post_init__(self):
        for name in ("metric", "inverse_metric"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _vectors(components) -> tuple[Multivector, ...]:
    """One vector per row of e-basis components."""
    rows = np.zeros((len(components), N_BLADES))
    rows[:, _VECTOR_MASKS] = components
    return tuple(Multivector._wrap(row) for row in rows + 0.0)  # + 0.0 turns -0.0 into 0.0


def build_frame(n, x=(0.0, 0.0, 0.0, 0.0, 0.0)) -> Frame:
    """Frame of a coefficient tensor at a point.

    Raises ValueError when the tensor is singular (condition estimate
    included) or when the induced metric breaks the (-++++) signature
    pattern on its diagonal.
    """
    mat = (n if isinstance(n, RefractiveIndex) else RefractiveIndex(n)).at(x)
    cond = float(np.linalg.cond(mat))
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise ValueError(f"index tensor is singular (condition estimate {cond:.3e})")
    metric = mat.T @ ETA @ mat
    if metric[0, 0] >= 0 or any(metric[i, i] <= 0 for i in range(1, AXES)):
        raise ValueError("frame breaks the (-++++) signature pattern")
    inverse_metric = np.linalg.inv(metric)
    recip_coeffs = inverse_metric @ mat.T  # row a: g^a in e-basis components
    return Frame(_vectors(mat.T), metric, inverse_metric, _vectors(recip_coeffs))


@dataclass(frozen=True)
class GaugeField:
    """Potential A_mu(x) (four components), charge, mass, and an
    optional phase function beta(x) with its five-component gradient.

    A constant potential, the charge and the mass must be finite; a
    callable potential is not checked."""

    potential: Callable[[np.ndarray], np.ndarray]
    charge: float
    mass: float
    phase: Optional[Callable[[np.ndarray], float]] = None
    phase_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        pot = self.potential
        if not callable(pot):
            const = np.array(pot, dtype=float)
            if const.shape != (4,):
                raise ValueError("constant potential must have four components")
            if not np.all(np.isfinite(const)):
                raise ValueError("constant potential must be finite")
            object.__setattr__(self, "potential", lambda x: const)
        for name in ("charge", "mass"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    def potential_at(self, x) -> np.ndarray:
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
        phase = self.phase
        _, plus, minus = _stencil(lambda xs: np.array([phase(p) for p in xs], dtype=float), x, h)
        return (plus - minus) / (2.0 * h)


def em_frame(field: GaugeField, x) -> Frame:
    """Frame whose reciprocal vectors are the orthonormal ones except
    g^4 = e4-raised + (charge/mass) A_mu e^mu."""
    if field.mass == 0.0:
        raise ValueError("electromagnetic frame requires a nonzero mass")
    a = field.potential_at(x)
    ratio = field.charge / field.mass
    recip = np.eye(AXES)
    recip[0, 0] = -1.0  # raised time axis flips under (-++++)
    recip[4, :4] = ratio * a * np.array([-1.0, 1.0, 1.0, 1.0])
    inverse_metric = recip @ ETA @ recip.T
    direct = ETA @ np.linalg.inv(recip)  # column a: g_a components
    metric = direct.T @ ETA @ direct
    return Frame(_vectors(direct.T), metric, inverse_metric, _vectors(recip))


def covariant_derivative(
    field: MultivectorField, frame, x, h: float | None = None
) -> Multivector:
    """Sum of reciprocal frame vectors times partial derivatives.

    ``frame`` is a Frame or a callable point -> Frame.  h = None uses
    the field's analytic derivative, a positive h central differences.
    """
    x = np.asarray(x, dtype=float)
    fr = frame(x) if callable(frame) else frame
    return _derivative_sum(field, x, h, fr.reciprocal, range(AXES))


def _rotor_rows(betas) -> np.ndarray:
    """One row cos(beta) + pseudoscalar sin(beta) per phase beta."""
    b = np.asarray(betas, dtype=float)[:, None]
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
        return _product(_FULL, base_rows(xs), _rotor_rows([beta(x) for x in xs]))

    def partials(xs) -> np.ndarray:
        # d_a (psi R) = (d_a psi + psi I d_a beta) R
        grads = np.array([field.phase_gradient_at(x) for x in xs])
        turned = _product(_FULL, base_rows(xs), PSEUDOSCALAR.coeffs)[:, None] * grads[..., None]
        rotors = _rotor_rows([beta(x) for x in xs])[:, None]
        return _product(_FULL, base_partials(xs) + turned, rotors)

    old_potential = field.potential
    charge = field.charge

    def new_potential(x) -> np.ndarray:
        g = field.phase_gradient_at(x)
        return np.asarray(old_potential(x), dtype=float) - g[:4] / charge

    rotated = MultivectorField._from_rows(rows, None if base_partials is None else partials)
    return rotated, replace(field, potential=new_potential)


def gauge_covariance_residual(psi: MultivectorField, field: GaugeField, points) -> float:
    """Largest deviation of D'(psi') from (D psi) times the phase rotor
    over the points, with both covariant derivatives taken in the
    electromagnetic frames of the respective gauge fields."""
    rotated, shifted = gauge_transform(psi, field)

    def samples():
        for x in points:
            x = np.asarray(x, dtype=float)
            lhs = covariant_derivative(rotated, lambda y: em_frame(shifted, y), x)
            rhs = covariant_derivative(psi, lambda y: em_frame(field, y), x) * phase_rotor(
                field.phase(x)
            )
            yield (lhs - rhs).max_abs()

    return _worst(samples())


def phase_shift_residual(psi: MultivectorField, field: GaugeField, points) -> float:
    """Residual of the flat-derivative identity for a phase-rotated
    field: the vector derivative of psi times the rotor equals the
    rotated vector derivative plus pseudoscalar times the phase
    gradient vector times the rotated field."""
    rotated, _ = gauge_transform(psi, field)

    def samples():
        for x in points:
            x = np.asarray(x, dtype=float)
            lhs = vector_derivative(rotated, x)
            # sum over a < 4 of g_a e^a, raised by ETA
            (grad_vec,) = _vectors([ETA[:, :4] @ field.phase_gradient_at(x)[:4]])
            rotor = phase_rotor(field.phase(x))
            rhs = (
                vector_derivative(psi, x) * rotor
                + PSEUDOSCALAR * grad_vec * psi.value(x) * rotor
            )
            yield (lhs - rhs).max_abs()

    return _worst(samples())
