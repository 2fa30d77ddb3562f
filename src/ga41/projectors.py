"""Idempotent quadruples, the projections they induce on the momentum
eigensystem, and the diagonal generators of the unitary group they
span.

Two quadruples are built from commuting square roots of one: the
bivector pair (e3, e04-reversed) and the grade-3 pair (e012, e034
images with raised indices).  Each quadruple is idempotent, mutually
orthogonal, and sums to one, but the two are not simultaneously
diagonalized by the matrix map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, ONE, _worst, e, e_upper
from .matrices import BETA, IDENTITY, from_matrix, sigma_matrix, to_matrix

_INV_SQRT3 = 1.0 / math.sqrt(3.0)
_INV_SQRT6 = 1.0 / math.sqrt(6.0)


@dataclass(frozen=True)
class IdempotentSet:
    """Four multivectors f with f*f = f, f_i f_j = 0, sum f = 1."""

    name: str
    elements: tuple[Multivector, Multivector, Multivector, Multivector]

    def __post_init__(self):
        if len(self.elements) != 4:
            raise ValueError("an idempotent set holds exactly four elements")


def build_f_set() -> IdempotentSet:
    """Quadruple from the commuting pair (e3, raised e04)."""
    s3 = e_upper(3)
    s04 = e_upper(0, 4)
    quarter = 0.25 * ONE
    return IdempotentSet(
        "f-set",
        (
            quarter * (ONE - s3) * (ONE - s04),
            quarter * (ONE - s3) * (ONE + s04),
            quarter * (ONE + s3) * (ONE + s04),
            quarter * (ONE + s3) * (ONE - s04),
        ),
    )


def build_e_set() -> IdempotentSet:
    """Quadruple from the commuting grade-3 pair (raised e012, e034)."""
    t012 = e_upper(0, 1, 2)
    t034 = e_upper(0, 3, 4)
    quarter = 0.25 * ONE
    return IdempotentSet(
        "e-set",
        (
            quarter * (ONE + t012) * (ONE + t034),
            quarter * (ONE + t012) * (ONE - t034),
            quarter * (ONE - t012) * (ONE - t034),
            quarter * (ONE - t012) * (ONE + t034),
        ),
    )


def validate_idempotent_set(s: IdempotentSet, tol: float = 0.0) -> dict:
    """Residuals of idempotency, pairwise orthogonality, and
    completeness; ok means every residual is within tol."""
    els = s.elements
    idem = _worst((f * f - f).max_abs() for f in els)
    ortho = _worst(
        (els[i] * els[j]).max_abs() for i in range(4) for j in range(4) if i != j
    )
    total = els[0] + els[1] + els[2] + els[3]
    complete = (total - ONE).max_abs()
    worst = _worst((idem, ortho, complete))
    return {
        "name": s.name,
        "idempotency": idem,
        "orthogonality": ortho,
        "completeness": complete,
        "ok": bool(worst <= tol),
    }


def energy_project(psi_bar: np.ndarray, sign: int) -> np.ndarray:
    """Right-multiply the eigencolumn matrix by the image of
    (1 + sign * raised e40) / 2, keeping one energy pair."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return np.asarray(psi_bar, dtype=complex) @ ((IDENTITY + sign * BETA) / 2.0)


def helicity_project(psi_bar: np.ndarray, sign: int) -> np.ndarray:
    """Right-multiply by the image of (1 + sign * raised e3) / 2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return np.asarray(psi_bar, dtype=complex) @ ((IDENTITY + sign * sigma_matrix(3)) / 2.0)


# -- generators of the unitary group ------------------------------------


def _sym(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    m[j, i] = 1.0
    return m


def _asym(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = -1.0j
    m[j, i] = 1.0j
    return m


def su4_generators() -> tuple[np.ndarray, ...]:
    """The fifteen traceless self-adjoint 4x4 generators in the
    standard order: off-diagonal pairs interleaved with the three
    diagonal generators."""
    diag3 = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    diag8 = (np.diag([1.0, 1.0, -2.0, 0.0]) * _INV_SQRT3).astype(complex)
    diag15 = (np.diag([1.0, 1.0, 1.0, -3.0]) * _INV_SQRT6).astype(complex)
    mats = (
        _sym(4, 0, 1),
        _asym(4, 0, 1),
        diag3,
        _sym(4, 0, 2),
        _asym(4, 0, 2),
        _sym(4, 1, 2),
        _asym(4, 1, 2),
        diag8,
        _sym(4, 0, 3),
        _asym(4, 0, 3),
        _sym(4, 1, 3),
        _asym(4, 1, 3),
        _sym(4, 2, 3),
        _asym(4, 2, 3),
        diag15,
    )
    for m in mats:
        m.setflags(write=False)
    return mats


def idempotents_to_generators(
    s: IdempotentSet, tol: float = 1e-10
) -> tuple[Multivector, Multivector, Multivector]:
    """Diagonal generators from an idempotent quadruple:
    (f1 - f2, (f1 + f2 - 2 f3) / sqrt3, (f1 + f2 + f3 - 3 f4) / sqrt6).

    Verifies that the forward relations rebuild every element of the
    quadruple before returning.
    """
    report = validate_idempotent_set(s, tol)
    if not report["ok"]:
        raise ValueError(f"input is not an idempotent quadruple: {report}")
    f1, f2, f3, f4 = s.elements
    l3 = f1 - f2
    l8 = (f1 + f2 - 2.0 * f3) * _INV_SQRT3
    l15 = (f1 + f2 + f3 - 3.0 * f4) * _INV_SQRT6
    quarter = 0.25 * ONE
    rebuilt = (
        quarter + 0.5 * l3 + (0.5 * _INV_SQRT3) * l8 + (0.5 * _INV_SQRT6) * l15,
        quarter - 0.5 * l3 + (0.5 * _INV_SQRT3) * l8 + (0.5 * _INV_SQRT6) * l15,
        quarter - _INV_SQRT3 * l8 + (0.5 * _INV_SQRT6) * l15,
        quarter - (1.5 * _INV_SQRT6) * l15,
    )
    scale = max(1.0, max(f.max_abs() for f in s.elements))
    worst = _worst((a - b).max_abs() for a, b in zip(rebuilt, s.elements))
    if not worst <= max(tol, 1e-12) * scale:
        raise ArithmeticError(
            f"forward relations fail to rebuild the quadruple: {worst:.3e}"
        )
    return l3, l8, l15


def expm(m: np.ndarray, term_cap: int = 60) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring on the power series."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    norm = float(np.max(np.abs(m)))
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
    scaled = m / (2.0**squarings)
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for i in range(1, term_cap + 1):
        term = term @ scaled / i
        acc = acc + term
        if np.max(np.abs(term)) <= 1e-17 * max(1.0, float(np.max(np.abs(acc)))):
            break
    else:
        raise ArithmeticError("exponential series did not converge")
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def conjugated_unit_quadruple(unitary: np.ndarray) -> IdempotentSet:
    """Idempotent quadruple pulled back from U e_kk U^H through the
    inverse matrix map."""
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("unitary must be 4x4")
    if np.max(np.abs(u.conj().T @ u - np.eye(4))) > 1e-10:
        raise ValueError("matrix is not unitary")
    els = []
    for i in range(4):
        sel = np.zeros((4, 4), dtype=complex)
        sel[i, i] = 1.0
        els.append(from_matrix(u @ sel @ u.conj().T))
    return IdempotentSet("custom", tuple(els))


def _sequential_trace(m: np.ndarray) -> complex:
    # index-order summation; np.trace may reorder and lose the exact
    # cancellation of the sqrt-scaled diagonal entries
    total = 0.0 + 0.0j
    for v in np.diag(m):
        total += complex(v)
    return total


def _diagonalizing_permutation(images) -> np.ndarray:
    """Permutation matrix p with p^H image_k p = e_kk, from the
    position of each image's unit diagonal entry."""
    positions = []
    for img in images:
        diag = np.real(np.diag(img))
        pos = int(np.argmax(diag))
        positions.append(pos)
    if sorted(positions) != [0, 1, 2, 3]:
        raise ArithmeticError("images are not distinct diagonal units")
    perm = np.zeros((4, 4), dtype=complex)
    for k, pos in enumerate(positions):
        perm[pos, k] = 1.0
    return perm


def verify_su4_generators(thetas=(0.3, 1.0)) -> dict:
    """Report on the generator relations.

    Checks, on the fifteen standard generators: bitwise tracelessness
    and self-adjointness, exp(i * 0) = identity, and unit determinant
    of exp(i theta g).  On the bivector-pair quadruple: the matrix
    images are diagonal units up to one column permutation, and the
    forward and backward relations against the three diagonal
    generators hold exactly in that permuted frame.
    """
    gens = su4_generators()
    traceless = all(_sequential_trace(g) == 0.0 for g in gens)
    self_adjoint = all(np.array_equal(g, g.conj().T) for g in gens)
    exp_zero = all(
        np.array_equal(expm(0.0j * g), np.eye(4, dtype=complex)) for g in gens
    )
    det_residual = _worst(
        abs(np.linalg.det(expm(1j * theta * g)) - 1.0) for g in gens for theta in thetas
    )

    quadruple = build_f_set()
    images = [to_matrix(f) for f in quadruple.elements]
    perm = _diagonalizing_permutation(images)
    aligned = [perm.conj().T @ img @ perm for img in images]
    units = []
    for k in range(4):
        u = np.zeros((4, 4), dtype=complex)
        u[k, k] = 1.0
        units.append(u)
    diagonal_exact = all(np.array_equal(a, u) for a, u in zip(aligned, units))

    diag3, diag8, diag15 = gens[2], gens[7], gens[14]
    backward = (
        aligned[0] - aligned[1],
        (aligned[0] + aligned[1] - 2.0 * aligned[2]) * _INV_SQRT3,
        (aligned[0] + aligned[1] + aligned[2] - 3.0 * aligned[3]) * _INV_SQRT6,
    )
    backward_exact = all(
        np.array_equal(b, g) for b, g in zip(backward, (diag3, diag8, diag15))
    )
    quarter = 0.25 * np.eye(4, dtype=complex)
    forward = (
        quarter + 0.5 * diag3 + (0.5 * _INV_SQRT3) * diag8 + (0.5 * _INV_SQRT6) * diag15,
        quarter - 0.5 * diag3 + (0.5 * _INV_SQRT3) * diag8 + (0.5 * _INV_SQRT6) * diag15,
        quarter - _INV_SQRT3 * diag8 + (0.5 * _INV_SQRT6) * diag15,
        quarter - (1.5 * _INV_SQRT6) * diag15,
    )
    forward_residual = _worst(
        float(np.max(np.abs(f - a))) for f, a in zip(forward, aligned)
    )

    ok = (
        traceless
        and self_adjoint
        and exp_zero
        and det_residual <= 1e-12
        and diagonal_exact
        and backward_exact
        and forward_residual <= 1e-14
    )
    return {
        "traceless_exact": traceless,
        "self_adjoint_exact": self_adjoint,
        "exp_zero_is_identity": exp_zero,
        "unit_determinant_residual": det_residual,
        "f_images_are_diagonal_units": diagonal_exact,
        "backward_relations_exact": backward_exact,
        "forward_relations_residual": forward_residual,
        "ok": ok,
    }
