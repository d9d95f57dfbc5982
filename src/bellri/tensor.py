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

import math
from typing import Any

import numpy as np

from .errors import DomainError
from .states import PAULIS, UNITARITY_TOL, _as_array, _finite_array, eigvalsh_lo, require_unitary
from .states import _Checked, validate_density_matrix

# R is quadratic in U: U^dag U = I + E gives R^T R - I ~ Tr(E) I and det R - 1 ~ (3/2) Tr E, so up
# to 2 and 3 UNITARITY_TOL; the fourth is rounding headroom (det R - 1 reaches 3 tol + 1.6e-16)
ROTATION_TOL = 4 * UNITARITY_TOL
TENSOR_BOUND = 2.0**240  # largest |T_ij| that as_tensor accepts
# LAPACK's dsyevd (through dsterf) rescales a tridiagonal block of norm below 2^-405
# by a factor that is not a power of two; from this sum T^2 up, the block holding the
# top eigenvalue of T^T T has norm >= sum T^2 / 9 > 2^-405 and is left as it is
_SQ_MIN = 2.0**-400
# flat indices of the six off-diagonal entries of a 3x3 tensor
_OFF_DIAGONAL = np.array([1, 2, 3, 5, 6, 7])

# Tr(M O) = vec(M) . vec(O^T) with row-major vec, so row 3i + j holding
# vec((sigma_i (x) sigma_j)^T) maps vec(M) to the nine axis-pair expectations
_PAULI_ROWS = np.array([np.kron(si, sj).T.ravel() for si in PAULIS for sj in PAULIS])


def _pauli_expectations(m: np.ndarray) -> np.ndarray:
    """The 3x3 arrays ``Re Tr(m sigma_i (x) sigma_j)`` of a ``(..., 4, 4)`` stack.

    ``Re Tr(M P) = Tr(((M + M^dag)/2) P)`` for Hermitian ``P``, so this is the tensor of
    the Hermitian part: hermiticity has one bound, in ``validate_density_matrix``. A single
    4x4 operand is the stack of one, and every operand goes through the same (9, 16) @ (16, 1)
    product, so a stacked entry carries the same bits as the entry computed alone.
    """
    return (_PAULI_ROWS @ m.reshape(-1, 16, 1)).real.reshape(m.shape[:-2] + (3, 3))


def as_tensor(t: Any) -> np.ndarray:
    """Return ``t`` as a real 3x3 array with no entry above ``TENSOR_BOUND`` in magnitude.

    Anything else, NaN and inf included, is a :class:`DomainError`. The bound, 2^240,
    keeps ``sum T^2`` below 2^484.5, above which LAPACK's dsyevd rescales on its own,
    so every value computed from the tensor is finite. :func:`rotate_tensor` of an
    in-domain tensor can reach ``3 * 2^240``; such a result is rejected here.
    """
    a = _as_array(t, float, "correlation tensor")
    # sum |T_ij| in Python floats bounds every entry, cheaper than numpy's abs and max;
    # past the bound, NaN or inf, the entry test decides (False for NaN and inf as well)
    if a.shape == (3, 3) and (
        sum(map(abs, a.ravel().tolist())) <= TENSOR_BOUND or abs(a).max() <= TENSOR_BOUND
    ):
        return a
    _finite_array(a, float, (3, 3), "correlation tensor")  # names a bad shape, NaN or inf
    raise DomainError("correlation tensor has an entry above 2^240 in magnitude")


def validate_rotation(r: Any) -> np.ndarray:
    """Return ``r`` as a proper rotation matrix or raise :class:`DomainError`."""
    a = _finite_array(r, float, (3, 3), "rotation matrix")
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = a.tolist()
    # the entries of R^T R - I in Python floats, which overflow to inf with no
    # warning; diagonal first: a sum of squares is never NaN, and an off-diagonal
    # NaN (inf - inf) needs an entry whose square, on the diagonal, is inf, so max()
    # has met that inf first and keeps it
    ortho = max(
        abs(x0 * x0 + y0 * y0 + z0 * z0 - 1.0),
        abs(x1 * x1 + y1 * y1 + z1 * z1 - 1.0),
        abs(x2 * x2 + y2 * y2 + z2 * z2 - 1.0),
        abs(x0 * x1 + y0 * y1 + z0 * z1),
        abs(x0 * x2 + y0 * y2 + z0 * z2),
        abs(x1 * x2 + y1 * y2 + z1 * z2),
    )
    if ortho > ROTATION_TOL:
        raise DomainError(f"matrix is not orthogonal: max |R^T R - I| = {ortho:.3e}")
    det = x0 * (y1 * z2 - y2 * z1) - x1 * (y0 * z2 - y2 * z0) + x2 * (y0 * z1 - y1 * z0)
    if abs(det - 1.0) > ROTATION_TOL:
        raise DomainError(f"matrix is not a proper rotation: det = {det!r}")
    return a


def compute_tensor(rho: Any) -> np.ndarray:
    """Correlation values at the nine pairs of local Cartesian axes.

    A matrix that :func:`validate_density_matrix` returned is not checked again;
    any other input, a view or copy of such a matrix included, is.
    """
    # that matrix is the C-ordered complex 4x4 over its immutable _Checked bytes;
    # numpy gives each view of it the array as base, not the bytes
    if not (
        type(rho) is np.ndarray
        and type(rho.base) is _Checked
        and rho.shape == (4, 4)
        and rho.strides == (64, 16)
        and rho.dtype == complex
    ):
        rho = validate_density_matrix(rho)
    return _pauli_expectations(rho)


def rotate_tensor(t: Any, r1: Any, r2: Any) -> np.ndarray:
    """Tensor re-expressed in local frames rotated by ``r1`` and ``r2``.

    Returns ``R1 T R2^T``; this is also the tensor of the state conjugated by
    ``U1 (x) U2`` when ``r1``, ``r2`` are the rotations corresponding to the
    local unitaries (see :func:`rotation_from_unitary`).
    """
    return validate_rotation(r1) @ as_tensor(t) @ validate_rotation(r2).T


def _top_singular(t: np.ndarray, sq: Any) -> Any:
    """Largest singular value of each tensor of a ``(..., 3, 3)`` stack.

    ``sq`` holds the squared-entry sums of ``t``. The value is the root of the
    top eigenvalue of ``T^T T``. A nonzero tensor whose ``sq`` is below
    ``_SQ_MIN`` is first scaled by the power of two that brings its largest
    entry into [1/2, 1), and its value scaled back. Every tensor is judged on
    its own, so a stacked entry has the bits of the entry alone.

    A stack with no nonzero off-diagonal entry takes its largest ``|T_ii|``
    without LAPACK, which gives the same bits: its ``T^T T`` is the diagonal
    ``fl(T_ii^2)``, which dsyevd returns as it is, ``sqrt(fl(d^2)) = |d|`` for
    every normal ``d``, and the rescaling above gives ``|d|`` for tiny ones.
    """
    e = None
    if sq.ndim == 0:  # one tensor: compare the scalar, finish in Python floats
        if sq < _SQ_MIN:
            return _top_singular(t[None], np.reshape(sq, 1))[0]
        top = eigvalsh_lo(t.T @ t).item(-1)
        if top != top:  # NaN: LAPACK did not converge
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return math.sqrt(top)  # correctly rounded, as np.sqrt is
    if not np.count_nonzero(t.reshape(-1, 9)[:, _OFF_DIAGONAL]):
        # the largest |T_ii| as the elementwise maximum of the three diagonal columns,
        # which costs less than a reduction over each tensor's 3 or 9 entries
        return np.maximum(np.maximum(abs(t[..., 0, 0]), abs(t[..., 1, 1])), abs(t[..., 2, 2]))
    elif sq.min() < _SQ_MIN:
        bad = sq < _SQ_MIN
        sub = t[bad]
        if sub.any():  # zero tensors stay as they are: their T^T T = 0 is exact
            e = np.frexp(np.abs(sub).max(axis=(-2, -1)))[1]
            t = t.copy()
            t[bad] = np.ldexp(sub, -e[:, None, None])
    top = np.sqrt(eigvalsh_lo(t.swapaxes(-1, -2) @ t)[..., -1])
    if np.isnan(top).any():  # NaN: LAPACK did not converge
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if e is not None:
        top[bad] = np.ldexp(top[bad], e)
    return top


def tensor_max_svd(t: Any) -> float:
    """Largest attainable correlation ``max n1^T T n2`` over unit vectors.

    The bilinear form over the unit ball is maximized by the top singular
    pair, so this is the largest singular value of T (the sign of any
    component can be absorbed by flipping one direction).
    """
    a = as_tensor(t)
    return float(_top_singular(a, (a * a).sum()))


def rotation_from_unitary(u: Any) -> np.ndarray:
    """SO(3) rotation induced on measurement axes by a 2x2 unitary.

    Defined by ``U sigma_j U^dag = sum_i R_ij sigma_i``, so ``R_ij`` is
    ``Tr(sigma_i U sigma_j U^dag) / 2``, written out here on the entries of
    ``U = [[a, b], [c, d]]``. Each term pairs one entry with the conjugate of
    another, so any global phase of ``u`` cancels, and the traces are real
    for every 2x2 ``U``.
    """
    (a, b), (c, d) = require_unitary(u).tolist()
    ad, bc = a * d.conjugate(), b * c.conjugate()
    ac, bd = a * c.conjugate(), b * d.conjugate()
    ab, cd = a * b.conjugate(), c * d.conjugate()
    zz = 0.5 * (a * a.conjugate() - b * b.conjugate() - c * c.conjugate() + d * d.conjugate()).real
    return np.array(
        [
            [ad.real + bc.real, ad.imag - bc.imag, ac.real - bd.real],
            [-ad.imag - bc.imag, ad.real - bc.real, bd.imag - ac.imag],
            [ab.real - cd.real, ab.imag - cd.imag, zz],
        ]
    )


def tensor_to_json(t: Any) -> dict:
    """Encode a tensor as ``{"t": [[...], [...], [...]]}``."""
    return {"t": as_tensor(t).tolist()}


def tensor_from_json(payload: Any) -> np.ndarray:
    """Inverse of :func:`tensor_to_json`."""
    try:
        rows = payload["t"]
    except KeyError as exc:
        raise DomainError(f"tensor payload is missing field {exc}") from exc
    except TypeError as exc:
        raise DomainError(f"malformed tensor payload: {exc}") from exc
    return as_tensor(rows)
