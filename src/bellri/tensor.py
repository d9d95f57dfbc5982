"""Correlation tensors of two-qubit states and their frame transformations.

The correlation value at measurement directions ``(n1, n2)`` is the
expectation ``Tr[rho (n1.sigma) (x) (n2.sigma)]``; collecting it at the nine
pairs of local Cartesian axes gives a real 3x3 tensor T that reproduces the
correlation at *every* direction pair through the bilinear form ``n1^T T n2``.
This module computes T, transforms it under rotations of the two local
frames, and extracts its largest attainable component both exactly (largest
singular value) and by a brute-force grid scan kept as an independent oracle.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .errors import DomainError
from .states import PAULIS, require_finite, require_unitary, validate_density_matrix

ROTATION_TOL = 1e-12
UNIT_NORM_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-12

# Tr(M O) = vec(M) . vec(O^T) with row-major vec, so row 3i + j holding
# vec((sigma_i (x) sigma_j)^T) maps vec(M) to the nine axis-pair expectations
_PAULI_ROWS = np.array([np.kron(si, sj).T.ravel() for si in PAULIS for sj in PAULIS])


def _pauli_expectations(m: np.ndarray) -> np.ndarray:
    """The 3x3 array ``Tr(m sigma_i (x) sigma_j)`` of a 4x4 operand with real traces."""
    z = _PAULI_ROWS @ m.ravel()
    # the traces are real analytically; anything beyond rounding noise
    # signals an input that only barely passed its hermiticity check
    residue = float(np.max(np.abs(z.imag)))
    if residue > IMAG_RESIDUE_TOL:
        raise DomainError(
            f"imaginary residue {residue:.3e} in Pauli expectations exceeds {IMAG_RESIDUE_TOL}"
        )
    return z.real.reshape(3, 3)


def unit_vector(n: Any) -> np.ndarray:
    """Return ``n`` as a float 3-vector after checking unit norm."""
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {v.shape}")
    require_finite(v, "vector")
    if abs(float(v @ v) - 1.0) > UNIT_NORM_TOL:
        raise DomainError(f"vector is not unit length: |n|^2 = {float(v @ v)!r}")
    return v


def as_tensor(t: Any) -> np.ndarray:
    """Return ``t`` as a real 3x3 array."""
    a = np.asarray(t, dtype=float)
    if a.shape != (3, 3):
        raise DomainError(f"expected a 3x3 correlation tensor, got shape {a.shape}")
    return a


def validate_rotation(r: Any) -> np.ndarray:
    """Return ``r`` as a proper rotation matrix or raise :class:`DomainError`."""
    a = np.asarray(r, dtype=float)
    if a.shape != (3, 3):
        raise DomainError(f"expected a 3x3 rotation matrix, got shape {a.shape}")
    require_finite(a, "rotation matrix")
    ortho = float(np.max(np.abs(a.T @ a - np.eye(3))))
    if ortho > ROTATION_TOL:
        raise DomainError(f"matrix is not orthogonal: max |R^T R - I| = {ortho:.3e}")
    det = float(np.linalg.det(a))
    if abs(det - 1.0) > ROTATION_TOL:
        raise DomainError(f"matrix is not a proper rotation: det = {det!r}")
    return a


def to_unit_vector(theta: float, phi: float) -> np.ndarray:
    """Unit vector at polar angle ``theta`` and azimuth ``phi``.

    ``theta`` must lie in [0, pi]; ``phi`` is wrapped into [0, 2*pi).
    """
    theta = float(theta)
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"polar angle must lie in [0, pi], got {theta}")
    phi = math.fmod(float(phi), 2.0 * math.pi)
    if phi < 0.0:
        phi += 2.0 * math.pi
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def correlation_value(rho: Any, n1: Any, n2: Any) -> float:
    """Expectation of the product of outcomes at directions ``n1`` and ``n2``."""
    m = validate_density_matrix(rho)
    v1 = unit_vector(n1)
    v2 = unit_vector(n2)
    a1 = sum(v1[k] * PAULIS[k] for k in range(3))
    a2 = sum(v2[k] * PAULIS[k] for k in range(3))
    # rho and a1 (x) a2 are Hermitian, so the trace is real up to rounding
    return float(np.trace(m @ np.kron(a1, a2)).real)


def compute_tensor(rho: Any) -> np.ndarray:
    """Correlation values at the nine pairs of local Cartesian axes."""
    return _pauli_expectations(validate_density_matrix(rho))


def evaluate_via_tensor(t: Any, n1: Any, n2: Any) -> float:
    """Correlation at arbitrary directions from the axis tensor: ``n1^T T n2``."""
    return float(unit_vector(n1) @ as_tensor(t) @ unit_vector(n2))


def rotate_tensor(t: Any, r1: Any, r2: Any) -> np.ndarray:
    """Tensor re-expressed in local frames rotated by ``r1`` and ``r2``.

    Returns ``R1 T R2^T``; this is also the tensor of the state conjugated by
    ``U1 (x) U2`` when ``r1``, ``r2`` are the rotations corresponding to the
    local unitaries (see :func:`rotation_from_unitary`).
    """
    return validate_rotation(r1) @ as_tensor(t) @ validate_rotation(r2).T


def frobenius_sum(t: Any) -> float:
    """Sum of the squares of all nine tensor entries.

    Invariant under independent rotations of the two local frames, so a
    maximization of this quantity over frame choices is the identity; callers
    that conceptually maximize over frames just use the plain sum.
    """
    a = as_tensor(t)
    return float(np.sum(a * a))


def tensor_max_svd(t: Any) -> float:
    """Largest attainable correlation ``max n1^T T n2`` over unit vectors.

    The bilinear form over the unit ball is maximized by the top singular
    pair, so this is the largest singular value of T (the sign of any
    component can be absorbed by flipping one direction).
    """
    return float(np.linalg.svd(as_tensor(t), compute_uv=False)[0])


def tensor_max_grid(t: Any, n_theta: int, n_phi: int) -> float:
    """Maximum of ``n1^T T n2`` over a product grid of directions per observer.

    Both observers use the same grid: ``n_theta`` cell-centered polar angles
    uniform in theta on [0, pi] and ``n_phi`` cell-centered azimuths uniform
    on [0, 2*pi). Kept as a brute-force oracle for :func:`tensor_max_svd`.

    The scan over the first observer's grid is done in closed form: at fixed
    n2 the value is ``A cos(phi - psi)`` in the azimuth and again a single
    cosine in the polar angle, and cosine decreases with angular distance, so
    each stage is maximized exactly at the grid node nearest the analytic
    maximizer. The result is identical to enumerating all grid pairs.
    """
    a = as_tensor(t)
    n_theta = int(n_theta)
    n_phi = int(n_phi)
    if n_theta < 2:
        raise DomainError(f"n_theta must be at least 2, got {n_theta}")
    if n_phi < 4:
        raise DomainError(f"n_phi must be at least 4, got {n_phi}")

    d_theta = math.pi / n_theta
    d_phi = 2.0 * math.pi / n_phi
    theta = (np.arange(n_theta) + 0.5) * d_theta
    phi = (np.arange(n_phi) + 0.5) * d_phi

    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    n2 = np.column_stack(
        [
            np.repeat(sin_t, n_phi) * np.tile(np.cos(phi), n_theta),
            np.repeat(sin_t, n_phi) * np.tile(np.sin(phi), n_theta),
            np.repeat(cos_t, n_phi),
        ]
    )

    u = n2 @ a.T  # row j holds T n2_j
    amp = np.hypot(u[:, 0], u[:, 1])
    psi = np.arctan2(u[:, 1], u[:, 0])
    # nearest azimuth node; the unwrapped nearest multiple gives the circular distance
    k = np.rint(psi / d_phi - 0.5)
    r = amp * np.cos(np.abs(psi - (k + 0.5) * d_phi))
    # r >= 0 because the nearest-node distance is at most pi/n_phi <= pi/4,
    # so the polar-angle stage is again a cosine with apex at atan2(r, u_z) in [0, pi]
    omega = np.arctan2(r, u[:, 2])
    idx = np.clip(np.rint(omega / d_theta - 0.5), 0, n_theta - 1)
    best = np.hypot(r, u[:, 2]) * np.cos(np.abs(omega - (idx + 0.5) * d_theta))
    return float(best.max())


def random_rotation(seed: int) -> np.ndarray:
    """Seeded proper rotation from a uniform axis and a uniform angle."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def random_rotation_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent seeded rotations for the two local frames."""
    return random_rotation(seed), random_rotation(seed + 0x5EED)


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
