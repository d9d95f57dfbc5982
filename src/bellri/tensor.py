"""Correlation tensors of two-qubit states and their frame transformations.

The correlation value at measurement directions ``(n1, n2)`` is the
expectation ``Tr[rho (n1.sigma) (x) (n2.sigma)]``; collecting it at the nine
pairs of local Cartesian axes gives a real 3x3 tensor T that reproduces the
correlation at *every* direction pair through the bilinear form ``n1^T T n2``.
This module computes T, transforms it under rotations of the two local
frames, and extracts its largest attainable component (the largest singular
value, the square root of the top eigenvalue of ``T^T T``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import DomainError
from .states import PAULIS, _finite_array, require_unitary, validate_density_matrix

ROTATION_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-12
# squared-entry sums for which T^T T is formed and diagonalised as it is: its
# largest entry lies in [sum/3, sum], inside the range where LAPACK's dsyevd
# applies no scaling of its own, so the top eigenvalue of a diagonal tensor's
# Gram matrix is the largest d^2 and its root is max |d|
_SQ_MIN = 2.0**-480
_SQ_MAX = 2.0**480

# Tr(M O) = vec(M) . vec(O^T) with row-major vec, so row 3i + j holding
# vec((sigma_i (x) sigma_j)^T) maps vec(M) to the nine axis-pair expectations
_PAULI_ROWS = np.array([np.kron(si, sj).T.ravel() for si in PAULIS for sj in PAULIS])


def _pauli_expectations(m: np.ndarray) -> np.ndarray:
    """The 3x3 arrays ``Tr(m sigma_i (x) sigma_j)`` of a ``(..., 4, 4)`` stack with real traces.

    A single 4x4 operand is the stack of one. Every operand goes through the
    same (9, 16) @ (16, 1) product, so a stacked entry carries the same bits
    as the entry computed alone.
    """
    z = _PAULI_ROWS @ m.reshape(-1, 16, 1)
    # the traces are real analytically; anything beyond rounding noise
    # signals an input that only barely passed its hermiticity check
    residue = float(np.max(np.abs(z.imag)))
    if residue > IMAG_RESIDUE_TOL:
        raise DomainError(
            f"imaginary residue {residue:.3e} in Pauli expectations exceeds {IMAG_RESIDUE_TOL}"
        )
    return z.real.reshape(m.shape[:-2] + (3, 3))


def as_tensor(t: Any) -> np.ndarray:
    """Return ``t`` as a real 3x3 array with finite entries."""
    return _finite_array(t, float, (3, 3), "correlation tensor")


def validate_rotation(r: Any) -> np.ndarray:
    """Return ``r`` as a proper rotation matrix or raise :class:`DomainError`."""
    a = _finite_array(r, float, (3, 3), "rotation matrix")
    ortho = float(np.max(np.abs(a.T @ a - np.eye(3))))
    if ortho > ROTATION_TOL:
        raise DomainError(f"matrix is not orthogonal: max |R^T R - I| = {ortho:.3e}")
    det = float(np.linalg.det(a))
    if abs(det - 1.0) > ROTATION_TOL:
        raise DomainError(f"matrix is not a proper rotation: det = {det!r}")
    return a


def compute_tensor(rho: Any) -> np.ndarray:
    """Correlation values at the nine pairs of local Cartesian axes."""
    return _pauli_expectations(validate_density_matrix(rho))


def rotate_tensor(t: Any, r1: Any, r2: Any) -> np.ndarray:
    """Tensor re-expressed in local frames rotated by ``r1`` and ``r2``.

    Returns ``R1 T R2^T``; this is also the tensor of the state conjugated by
    ``U1 (x) U2`` when ``r1``, ``r2`` are the rotations corresponding to the
    local unitaries (see :func:`rotation_from_unitary`).
    """
    return validate_rotation(r1) @ as_tensor(t) @ validate_rotation(r2).T


def _gram_top(t: np.ndarray) -> Any:
    """Root of the top eigenvalue of ``T^T T`` for each tensor of a ``(..., 3, 3)`` stack."""
    return np.sqrt(np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)[..., -1])


def _top_singular(t: np.ndarray, sq: Any) -> Any:
    """Largest singular value of each tensor of a ``(..., 3, 3)`` stack.

    ``sq`` holds the squared-entry sums of ``t`` as computed in floating
    point (0 or inf where they under- or overflow). The value is the root of
    the top eigenvalue of ``T^T T``. A nonzero tensor whose ``sq`` lies
    outside ``[_SQ_MIN, _SQ_MAX]`` is first scaled by the power of two that
    brings its largest entry into [1/2, 1), and its value scaled back, so
    neither the Gram matrix nor its eigenvalues leave the float range. Every
    tensor is judged on its own, so a stacked entry has the bits of the entry
    alone.
    """
    if sq.ndim == 0:  # one tensor: compare the scalar, no array reductions
        if _SQ_MIN <= sq <= _SQ_MAX:
            return _gram_top(t)
        return _top_singular(t[None], np.reshape(sq, 1))[0]
    if sq.min() >= _SQ_MIN and sq.max() <= _SQ_MAX:
        return _gram_top(t)
    bad = (sq < _SQ_MIN) | (sq > _SQ_MAX)
    sub = t[bad]
    if not sub.any():  # only zero tensors, whose T^T T = 0 is exact as it is
        return _gram_top(t)
    e = np.frexp(np.abs(sub).max(axis=(-2, -1)))[1]
    t = t.copy()
    t[bad] = np.ldexp(sub, -e[:, None, None])
    top = _gram_top(t)
    top[bad] = np.ldexp(top[bad], e)
    return top


def tensor_max_svd(t: Any) -> float:
    """Largest attainable correlation ``max n1^T T n2`` over unit vectors.

    The bilinear form over the unit ball is maximized by the top singular
    pair, so this is the largest singular value of T (the sign of any
    component can be absorbed by flipping one direction).
    """
    a = as_tensor(t)
    with np.errstate(over="ignore"):  # an overflowing sum only sends T to rescaling
        sq = (a * a).sum()
    return float(_top_singular(a, sq))


def rotation_from_unitary(u: Any) -> np.ndarray:
    """SO(3) rotation induced on measurement axes by a 2x2 unitary.

    Defined by ``U sigma_j U^dag = sum_i R_ij sigma_i``; any global phase of
    ``u`` cancels in the conjugation.
    """
    uu = require_unitary(u)
    # Tr(sigma_i U sigma_j U^dag) = Tr(M sigma_i (x) sigma_j) for the 4x4
    # M[(b, d), (a, c)] = U[b, c] conj(U[a, d])
    m = np.einsum("bc,ad->bdac", uu, uu.conj()).reshape(4, 4)
    return 0.5 * _pauli_expectations(m)


def tensor_to_json(t: Any) -> dict:
    """Encode a tensor as ``{"t": [[...], [...], [...]]}``."""
    return {"t": [[float(x) for x in row] for row in as_tensor(t)]}


def tensor_from_json(payload: Any) -> np.ndarray:
    """Inverse of :func:`tensor_to_json`."""
    try:
        rows = payload["t"]
    except (TypeError, KeyError) as exc:
        raise DomainError(f"tensor payload is missing field {exc}") from exc
    return as_tensor(rows)
