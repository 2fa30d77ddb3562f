"""Isomorphism between the 32-dimensional algebra and complex 4x4 matrices.

The five generator images follow the Dirac-Pauli assignment.  The frozen
constants below tabulate the images of the raised-index (reciprocal)
unit vectors; the direct basis maps through index 0 with a sign flip,
matching the reciprocal rule of an orthonormal frame under (-++++).

The map is a real-algebra isomorphism: every blade goes to the ordered
product of its generator images, the pseudoscalar lands on -i times the
identity, and real linear combinations carry over coefficientwise.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import Multivector, N_BLADES

IDENTITY = np.eye(4, dtype=complex)

#: images of the three momentum-direction generators in the standard
#: block form (off-diagonal Pauli blocks) plus the diagonal mass matrix
ALPHA = (
    np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        dtype=complex,
    ),
    np.array(
        [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]],
        dtype=complex,
    ),
    np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
        dtype=complex,
    ),
)
BETA = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    dtype=complex,
)

#: images of the five raised-index unit vectors, frozen entry by entry
RECIPROCAL_IMAGES = (
    np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        dtype=complex,
    ),
    np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
        dtype=complex,
    ),
    np.array(
        [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, 1j], [0, 0, -1j, 0]],
        dtype=complex,
    ),
    np.array(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
        dtype=complex,
    ),
    np.array(
        [[0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        dtype=complex,
    ),
)


_HALF_SIGNS = np.array([1, -1])[:, None, None]


def _half_projectors(m: np.ndarray) -> np.ndarray:
    """(1 + m) / 2 and (1 - m) / 2 (..., 2, 4, 4) of matrices m (..., 4, 4),
    projectors when m squares to the identity."""
    return (IDENTITY + _HALF_SIGNS * m[..., None, :, :]) / 2.0


#: images of the direct (lower-index) basis vectors
GENERATOR_IMAGES = (-RECIPROCAL_IMAGES[0],) + RECIPROCAL_IMAGES[1:]


#: each blade's image: the identity times its generators' images, in index order
BLADE_IMAGES = np.array([
    functools.reduce(np.matmul, [g for k, g in enumerate(GENERATOR_IMAGES) if mask >> k & 1], IDENTITY)
    for mask in range(N_BLADES)
])
BLADE_IMAGES.flags.writeable = False

#: rows [Re image | Im image] of the 32 blades: entries 0 and +-1, rows
#: orthogonal with squared norm 4, so the inverse map is one matmul
_BLADE_ROWS = np.concatenate([BLADE_IMAGES.real, BLADE_IMAGES.imag], axis=1).reshape(N_BLADES, 32)
_IMAGE_ROWS = BLADE_IMAGES.reshape(N_BLADES, 16)
#: the cells of a matrix's float view, (re, im) pairs, in [re | im] order
_RE_IM = np.r_[0:32:2, 1:32:2]

# both kernels map each row by its own 1-row matmul, so a row of a batch
# equals the single map bit for bit; one 2-D matmul over the whole batch
# takes another BLAS path, which rounds the inverse map differently


def _to_matrices(coeffs: np.ndarray) -> np.ndarray:
    """(..., 32) coefficient rows to (..., 4, 4) images."""
    return (coeffs[..., None, :] @ _IMAGE_ROWS).reshape(coeffs.shape[:-1] + (4, 4))


def _from_matrices(m: np.ndarray) -> np.ndarray:
    """(..., 4, 4) complex matrices to (..., 32) coefficient rows."""
    flat = np.ascontiguousarray(m, dtype=complex).view(float).reshape(m.shape[:-2] + (1, 32))
    return (flat.take(_RE_IM, axis=-1) @ _BLADE_ROWS.T)[..., 0, :] / 4.0


def to_matrix(a: Multivector) -> np.ndarray:
    """Matrix image of a multivector."""
    return _to_matrices(a.coeffs)


def from_matrix(m: np.ndarray) -> Multivector:
    """Inverse map, defined on every complex 4x4 matrix: the blade
    coefficients are the real trace pairings with the blade images."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return Multivector._wrap(_from_matrices(m))


def matrix_text(m: np.ndarray) -> str:
    """Row-major "re+imi" rendering, one text line per matrix row."""
    rows = np.asarray(m, dtype=complex)
    return "\n".join("  ".join(f"{z.real:g}{z.imag:+g}i" for z in row) for row in rows)
