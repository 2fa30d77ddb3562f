"""Momentum-space eigensystem of the spin-1/2 wave operator and the
matrix crosscheck of the geometric plane wave.

The operator A = p_m alpha^m + m beta squares to E^2 for a null
momentum, so its spectrum is {+E, +E, -E, -E}.  Columns of the ordered
eigenbasis reproduce, through the inverse matrix map, multivector waves
annihilated by the mass-term derivative operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PSEUDOSCALAR, _integer, _worst, e
from .matrices import ALPHA, BETA, IDENTITY, _half_projector, from_matrix, to_matrix
from .monogenic import MomentumVector, MultivectorField, harmonic_field

#: images of pseudoscalar * e23, * e31, * e12: the spin-axis matrices
SPIN_IMAGES = (
    to_matrix(PSEUDOSCALAR * e(2, 3)),
    to_matrix(PSEUDOSCALAR * (-1.0) * e(1, 3)),
    to_matrix(PSEUDOSCALAR * e(1, 2)),
)


@dataclass(frozen=True)
class DiracSystem:
    """Momentum k with the operator a_bar, eigencolumn matrix psi_bar,
    and eigenvalue matrix lam (a_bar @ psi_bar = psi_bar @ lam)."""

    k: MomentumVector
    a_bar: np.ndarray
    psi_bar: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("a_bar", "psi_bar", "lam"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_dirac_operator(k: MomentumVector) -> np.ndarray:
    p1, p2, p3 = k.momentum
    return p1 * ALPHA[0] + p2 * ALPHA[1] + p3 * ALPHA[2] + k.mass * BETA


def dirac_system(k: MomentumVector) -> DiracSystem:
    """Eigensystem of the momentum operator from its closed-form
    projectors, in the column order of :func:`_eigencolumns`, with
    lam = E * diag(1, 1, -1, -1).  Raises ValueError at E = 0."""
    a_bar = build_dirac_operator(k)
    lam = np.diag([k.energy, k.energy, -k.energy, -k.energy]).astype(complex)
    return DiracSystem(k, a_bar, _eigencolumns(k, a_bar), lam)


def _spin_operator(k: MomentumVector) -> np.ndarray:
    p = np.array(k.momentum)
    norm = float(np.linalg.norm(p))
    if norm == 0.0:
        return SPIN_IMAGES[2].copy()
    unit = p / norm
    return unit[0] * SPIN_IMAGES[0] + unit[1] * SPIN_IMAGES[1] + unit[2] * SPIN_IMAGES[2]


def _eigencolumns(k: MomentumVector, a_bar: np.ndarray) -> np.ndarray:
    """Unit eigencolumns ordered (+E spin +1, +E spin -1, -E spin +1,
    -E spin -1), each with its largest component made real positive.

    A^2 = E^2 and the spin operator S commutes with A, so
    (1 + eps A/E)/2 (1 + sigma S)/2 projects onto one column; its
    largest-norm column is taken.
    """
    energy = k.energy
    if energy == 0.0:
        raise ValueError("the momentum operator vanishes at E = 0")
    energy_halves, spin_halves = (
        [_half_projector(m, sign) for sign in (1, -1)] for m in (a_bar / energy, _spin_operator(k))
    )
    psi = np.empty((4, 4), dtype=complex)
    for j, proj in enumerate(a @ b for a in energy_halves for b in spin_halves):
        col = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
        lead = col[int(np.argmax(np.abs(col)))]
        col = col * (np.conj(lead) / abs(lead))
        psi[:, j] = col / np.linalg.norm(col)
    return psi


def order_eigensystem(system: DiracSystem) -> DiracSystem:
    """Validate an eigensystem built by :func:`dirac_system` and return
    it unchanged: its closed-form columns are already ordered
    (+E spin-up, +E spin-down, -E spin-up, -E spin-down), each with its
    largest component made real positive, and its eigenvalue matrix is
    exactly E * diag(1, 1, -1, -1).

    Raises ValueError unless E > 0 and ArithmeticError unless the
    spectrum is a doubled +-E pair.
    """
    energy = system.k.energy
    if energy <= 0:
        raise ValueError("ordering requires the positive-energy branch")
    vals = np.real(np.diag(system.lam))
    if np.count_nonzero(vals > 0) != 2 or np.count_nonzero(vals <= 0) != 2:
        raise ArithmeticError("spectrum is not a doubled +-E pair")
    return system


def geometric_matrix_crosscheck(k: MomentumVector, points) -> float:
    """Residual of the matrix-side plane wave against two facts: the
    amplitude image equals E + A, and the transported first-order
    operator annihilates the wave.

    The matrix map sends the pseudoscalar to -i times the identity, so
    the matrix wave carries the conjugated phase exp(i(E t - p.x)).
    Derivatives are applied analytically.
    """
    energy = k.energy
    p = np.array(k.momentum)
    amp = energy * IDENTITY + build_dirac_operator(k)
    x = np.asarray(points, dtype=float)
    if x.shape[-1:] not in ((4,), (5,)):
        raise ValueError(f"points must have shape (..., 4) or (..., 5), got shape {x.shape}")
    # all points at once; p.x is a one-row matmul per point, as np.dot
    x = x[..., :4].reshape(-1, 4)
    wave = amp * np.exp(1j * (energy * x[:, 0] - (p @ x[:, 1:4, None])[:, 0]))[:, None, None]
    # i d/dt + i alpha^m d/dx^m + m beta, with the phase derivatives
    out = 1j * (1j * energy) * wave + k.mass * BETA @ wave
    for m in range(3):
        out = out + 1j * ALPHA[m] @ ((-1j * p[m]) * wave)
    head = np.max(np.abs(to_matrix(k.amplitude) - amp))
    return _worst([head, *np.max(np.abs(out), axis=(1, 2))])


def _column_parts(system: DiracSystem, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude coefficients and phase gradient of one eigencolumn's wave."""
    _integer(index, range(4), "column index must be an integer 0..3, got {!r}", index)
    column = np.zeros((4, 4), dtype=complex)
    column[:, index] = system.psi_bar[:, index]
    lam = float(np.real(system.lam[index, index]))
    return from_matrix(column).coeffs, np.array([-lam, *system.k.momentum, 0.0])


def column_wave(system: DiracSystem, index: int) -> MultivectorField:
    """Multivector wave of one eigencolumn: the inverse matrix map of
    the column (kept in place, others zeroed) times the plane phase of
    its eigenvalue."""
    return harmonic_field(*_column_parts(system, index))
