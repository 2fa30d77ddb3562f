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

from .algebra import PSEUDOSCALAR, _fold, _integer, e
from .matrices import ALPHA, BETA, IDENTITY, _from_matrices, _half_projector, to_matrix
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


#: the images alpha^1..3 and beta, the spin-axis images, and the signs of
#: the two half projectors and of lam's diagonal
_OPERATOR_STACK = np.array([*ALPHA, BETA])
_SPIN_STACK = np.array(SPIN_IMAGES)
_HALF_SIGNS = np.array([1, -1])[:, None, None]
_LAM_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _operators(rows: np.ndarray) -> np.ndarray:
    """The operators p_m alpha^m + m beta (n, 4, 4) of momentum rows (n, 5)."""
    return (rows[:, 1:, None, None] * _OPERATOR_STACK).sum(axis=1)


def build_dirac_operator(k: MomentumVector) -> np.ndarray:
    return _operators(k._row[None])[0]


def dirac_system(k: MomentumVector) -> DiracSystem:
    """Eigensystem of the momentum operator from its closed-form
    projectors, in the column order of :func:`_eigensystems`, with
    lam = E * diag(1, 1, -1, -1).  Raises ValueError at E = 0."""
    a_bar, psi_bar, lam = _eigensystems(k._row[None])
    return DiracSystem(k, a_bar[0], psi_bar[0], lam[0])


def _eigensystems(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigensystems of momentum rows (n, 5) = (E, p1, p2, p3, m): the
    operators a_bar, the unit eigencolumns psi_bar ordered (+E spin +1,
    +E spin -1, -E spin +1, -E spin -1), each with its largest component
    made real positive, and lam = E diag(1, 1, -1, -1), each (n, 4, 4).
    Raises ValueError if E = 0 on any row.

    A^2 = E^2 and the spin operator S (along p, or e3 at p = 0) commutes
    with A, so (1 + eps A/E)/2 (1 + sigma S)/2 projects onto one column;
    its largest-norm column is taken.  Every step is elementwise, a sum
    over one axis, a stacked matmul or a norm over the last axis, so a row
    equals its one-momentum system bit for bit.
    """
    n = len(rows)
    energy = rows[:, 0]
    if (energy == 0.0).any():
        raise ValueError("the momentum operator vanishes at E = 0")
    a_bar = _operators(rows)
    p = rows[:, 1:4]
    norm = np.linalg.norm(p, axis=-1)
    rest = norm == 0.0
    unit = p / np.where(rest, 1.0, norm)[:, None]
    spin = (unit[:, :, None, None] * _SPIN_STACK).sum(axis=1)
    spin[rest] = _SPIN_STACK[2]
    # the halves of A/E and of S, (n, 2, 2, 4, 4), then their four products
    halves = np.stack([a_bar / energy[:, None, None], spin], axis=1)
    halves = _half_projector(halves[:, :, None], _HALF_SIGNS)
    proj = (halves[:, 0, :, None] @ halves[:, 1, None, :]).reshape(4 * n, 4, 4)
    # the largest column of each projector, by np.linalg.norm(proj, axis=0)
    at = np.arange(4 * n)
    cols = proj[at, :, np.argmax(np.sqrt((proj.conj() * proj).real.sum(axis=-2)), axis=-1)]
    lead = cols[at, np.argmax(np.abs(cols), axis=-1)]
    cols = cols * (np.conj(lead) / np.abs(lead))[:, None]
    psi_bar = np.empty((n, 4, 4), dtype=complex)
    psi_bar.swapaxes(-1, -2)[...] = (cols / np.linalg.norm(cols, axis=-1)[:, None]).reshape(n, 4, 4)
    lam = np.zeros((n, 16), dtype=complex)
    lam[:, ::5] = energy[:, None] * _LAM_SIGNS
    return a_bar, psi_bar, lam.reshape(n, 4, 4)


def order_eigensystem(system: DiracSystem) -> DiracSystem:
    """Validate an eigensystem built by :func:`dirac_system` and return
    it unchanged: its closed-form columns are already ordered
    (+E spin-up, +E spin-down, -E spin-up, -E spin-down), each with its
    largest component made real positive, and its eigenvalue matrix is
    exactly E * diag(1, 1, -1, -1).

    Raises ValueError unless E > 0 and ArithmeticError unless the
    spectrum is a doubled +-E pair.
    """
    _check_ordered(np.array([system.k.energy]), system.lam[None])
    return system


def _check_ordered(energy: np.ndarray, lam: np.ndarray) -> None:
    """The guards of :func:`order_eigensystem`, with its messages, on every
    row: energies (n,) and eigenvalue matrices (n, 4, 4)."""
    if (energy <= 0).any():
        raise ValueError("ordering requires the positive-energy branch")
    vals = np.real(np.diagonal(lam, axis1=-2, axis2=-1))
    # two positive and two non-positive eigenvalues; a NaN is neither
    if ((vals > 0).sum(axis=-1) != 2).any() or ((vals <= 0).sum(axis=-1) != 2).any():
        raise ArithmeticError("spectrum is not a doubled +-E pair")


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
    return _fold([head, np.max(np.abs(out), axis=(1, 2))])


def _column_parts(
    psi_bar: np.ndarray, lam: np.ndarray, momentum: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude rows (..., 4, 32) and phase gradients (..., 4, 5) of the
    waves of the four eigencolumns of psi_bar (..., 4, 4), with real
    eigenvalues lam (..., 4) and momenta (..., 3): column j kept in place
    and the others zeroed, through the inverse matrix map, and the
    gradient (-lam_j, p1, p2, p3, 0)."""
    columns = np.zeros(psi_bar.shape[:-2] + (4, 4, 4), dtype=complex)
    for j in range(4):
        columns[..., j, :, j] = psi_bar[..., :, j]
    grads = np.zeros(lam.shape + (5,))
    grads[..., 0] = -lam
    grads[..., 1:4] = momentum[..., None, :]
    return _from_matrices(columns), grads


def column_wave(system: DiracSystem, index: int) -> MultivectorField:
    """Multivector wave of one eigencolumn: the inverse matrix map of
    the column (kept in place, others zeroed) times the plane phase of
    its eigenvalue."""
    _integer(index, range(4), "column index must be an integer 0..3, got {!r}", index)
    lam = np.real(np.diag(system.lam))
    amplitudes, grads = _column_parts(system.psi_bar, lam, np.array(system.k.momentum))
    return harmonic_field(amplitudes[index], grads[index])
