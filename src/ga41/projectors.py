"""Idempotent quadruples, the projections they induce on the momentum
eigensystem, and the diagonal generators of the unitary group they
span.

Two quadruples are built from the commuting square roots of one in
:data:`COMMUTING_PAIRS`: the pair (e3, e04) and the grade-3 pair
(e012, e034), all with raised indices.  Each quadruple is idempotent,
mutually orthogonal, and sums to one, but the two are not
simultaneously diagonalized by the matrix map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _FULL, Multivector, ONE, _integer, _product, _worst, e_upper
from .matrices import BETA, IDENTITY, _from_matrices, _half_projector, sigma_matrix, to_matrix

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


#: the commuting square roots of one behind the f-set and the e-set:
#: (raised e3, raised e04) and (raised e012, raised e034)
COMMUTING_PAIRS = (
    (e_upper(3), e_upper(0, 4)),
    (e_upper(0, 1, 2), e_upper(0, 3, 4)),
)


def _quadruple(name: str, pair, signs) -> IdempotentSet:
    """Elements 0.25 (1 + s_a a)(1 + s_b b) for each sign pair (s_a, s_b)."""
    a, b = pair
    quarter = 0.25 * ONE
    return IdempotentSet(
        name,
        tuple(quarter * (ONE + s_a * a) * (ONE + s_b * b) for s_a, s_b in signs),
    )


#: the two quadruples, built once: their elements are immutable
_F_SET = _quadruple("f-set", COMMUTING_PAIRS[0], ((-1, -1), (-1, 1), (1, 1), (1, -1)))
_E_SET = _quadruple("e-set", COMMUTING_PAIRS[1], ((1, 1), (1, -1), (-1, -1), (-1, 1)))


def build_f_set() -> IdempotentSet:
    """Quadruple from the commuting pair (raised e3, raised e04)."""
    return _F_SET


def build_e_set() -> IdempotentSet:
    """Quadruple from the commuting grade-3 pair (raised e012, raised e034)."""
    return _E_SET


def validate_idempotent_set(s: IdempotentSet, tol: float = 0.0) -> dict:
    """Residuals of idempotency, pairwise orthogonality, and completeness,
    all from one table f_i f_j; ok means every residual is within tol."""
    f = np.array([x.coeffs for x in s.elements])
    table, diagonal = _product(_FULL, f[:, None], f[None]), np.eye(4, dtype=bool)
    idem = float(np.max(np.abs(table[diagonal] - f)))
    ortho = float(np.max(np.abs(table[~diagonal])))
    # the rows summed in order, as f_0 + f_1 + f_2 + f_3
    complete = float(np.max(np.abs(f.sum(axis=0) - ONE.coeffs)))
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
    _integer(sign, (1, -1), "sign must be +1 or -1")
    return np.asarray(psi_bar, dtype=complex) @ _half_projector(BETA, sign)


def helicity_project(psi_bar: np.ndarray, sign: int) -> np.ndarray:
    """Right-multiply by the image of (1 + sign * raised e3) / 2."""
    _integer(sign, (1, -1), "sign must be +1 or -1")
    return np.asarray(psi_bar, dtype=complex) @ _half_projector(sigma_matrix(3), sign)


# -- generators of the unitary group ------------------------------------


def su4_generators() -> tuple[np.ndarray, ...]:
    """The fifteen traceless self-adjoint 4x4 generators in the
    standard order: for n = 1, 2, 3 the symmetric and antisymmetric
    pair of each entry (i, n), i < n, then the n-th diagonal generator,
    ones before -n on the diagonal, scaled by 1, 1/sqrt3 or 1/sqrt6."""
    gens = np.zeros((15, 4, 4), dtype=complex)
    g = 0
    for n, scale in ((1, 1.0), (2, _INV_SQRT3), (3, _INV_SQRT6)):
        for i in range(n):
            gens[g, i, n] = gens[g, n, i] = 1.0
            gens[g + 1, i, n], gens[g + 1, n, i] = -1.0j, 1.0j
            g += 2
        gens[g, range(n), range(n)] = scale
        gens[g, n, n] = -n * scale
        g += 1
    gens.setflags(write=False)
    return tuple(gens)


def _diagonal_generators(f1, f2, f3, f4):
    """Backward relations: the diagonal generators (lambda3, lambda8,
    lambda15) of a quadruple, as multivectors or as matrices."""
    return (
        f1 - f2,
        (f1 + f2 - 2.0 * f3) * _INV_SQRT3,
        (f1 + f2 + f3 - 3.0 * f4) * _INV_SQRT6,
    )


def _idempotents(quarter, l3, l8, l15):
    """Forward relations: the quadruple rebuilt from a quarter of the
    identity and the three diagonal generators."""
    return (
        quarter + 0.5 * l3 + (0.5 * _INV_SQRT3) * l8 + (0.5 * _INV_SQRT6) * l15,
        quarter - 0.5 * l3 + (0.5 * _INV_SQRT3) * l8 + (0.5 * _INV_SQRT6) * l15,
        quarter - _INV_SQRT3 * l8 + (0.5 * _INV_SQRT6) * l15,
        quarter - (1.5 * _INV_SQRT6) * l15,
    )


def idempotents_to_generators(
    s: IdempotentSet, tol: float = 1e-10
) -> tuple[Multivector, Multivector, Multivector]:
    """Diagonal generators from an idempotent quadruple:
    (f1 - f2, (f1 + f2 - 2 f3) / sqrt3, (f1 + f2 + f3 - 3 f4) / sqrt6).

    Verifies that the forward relations rebuild every element of the
    quadruple before returning.  Both relations run on the coefficient
    rows, with the operations of the multivector form in its order.
    """
    report = validate_idempotent_set(s, tol)
    if not report["ok"]:
        raise ValueError(f"input is not an idempotent quadruple: {report}")
    f = np.array([x.coeffs for x in s.elements])
    generators = _diagonal_generators(*f)
    rebuilt = np.array(_idempotents(0.25 * ONE.coeffs, *generators))
    scale = max(1.0, float(np.max(np.abs(f))))
    worst = float(np.max(np.abs(rebuilt - f)))
    if not worst <= max(tol, 1e-12) * scale:
        raise ArithmeticError(
            f"forward relations fail to rebuild the quadruple: {worst:.3e}"
        )
    return tuple(Multivector._wrap(g) for g in generators)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring on the power series,
    summed to at most 60 terms."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must be finite")
    n = m.shape[0]
    norm = float(np.max(np.abs(m)))
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
    scaled = m / (2.0**squarings)
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for i in range(1, 61):
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
    if not np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10:  # NaN fails too
        raise ValueError("matrix is not unitary")
    rows = _from_matrices(np.einsum("ik,jk->kij", u, u.conj()))  # u[:, k] u[:, k]^H
    return IdempotentSet("custom", tuple(Multivector._wrap(row) for row in rows))


def _diagonalizing_permutation(images) -> np.ndarray:
    """Permutation matrix p with p^H image_k p = e_kk, from the
    position of each image's unit diagonal entry."""
    positions = [int(np.argmax(np.real(np.diag(img)))) for img in images]
    if sorted(positions) != [0, 1, 2, 3]:
        raise ArithmeticError("images are not distinct diagonal units")
    perm = np.zeros((4, 4), dtype=complex)
    perm[positions, range(4)] = 1.0
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
    # cumsum adds the diagonal in index order; np.trace may reorder and
    # lose the exact cancellation of the sqrt-scaled diagonal entries
    traceless = all(np.cumsum(np.diag(g))[-1] == 0.0 for g in gens)
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
    diagonal_exact = all(np.array_equal(a, np.diag(u)) for a, u in zip(aligned, IDENTITY))

    diagonal = (gens[2], gens[7], gens[14])
    backward_exact = all(
        np.array_equal(b, g) for b, g in zip(_diagonal_generators(*aligned), diagonal)
    )
    forward = _idempotents(0.25 * np.eye(4, dtype=complex), *diagonal)
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
