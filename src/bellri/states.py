"""Two-qubit density matrices: the singlet, its noisy mixtures, symmetry checks.

Conventions used throughout the package:

* product basis ordered ``(|++>, |+->, |-+>, |-->)``, first factor belonging
  to observer 1;
* ``|+>`` and ``|->`` are the +1 / -1 eigenstates of the third Pauli matrix
  (standard matrices, sigma_z diagonal).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import DomainError, ValidationError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
UNITARITY_TOL = 1e-12


def require_visibility(v: float) -> float:
    """Check that ``v`` is a valid visibility (mixing weight) in [0, 1]."""
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"visibility must lie in [0, 1], got {v}")
    return v


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """Return ``a``, or raise :class:`ValidationError` if an entry is NaN or inf."""
    # every comparison with NaN is False, so tolerance tests alone let NaN through
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has a non-finite (NaN or inf) entry")
    return a


def validate_density_matrix(rho: Any) -> np.ndarray:
    """Return ``rho`` as a complex array after checking its invariants.

    Raises :class:`ValidationError` naming the first violated invariant:
    shape, finite entries, hermiticity, unit trace, or positive
    semidefiniteness.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 density matrix, got shape {m.shape}")
    require_finite(m, "density matrix")
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > HERMITICITY_TOL:
        raise ValidationError(f"matrix is not Hermitian: max |M - M^dag| = {herm:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"matrix trace {tr:.12g} differs from 1")
    lowest = float(np.linalg.eigvalsh(m).min())
    if lowest < EIGENVALUE_FLOOR:
        raise ValidationError(
            f"matrix is not positive semidefinite: min eigenvalue = {lowest:.3e}"
        )
    return m


def make_singlet() -> np.ndarray:
    """Projector onto the two-qubit singlet ``(|+-> - |-+>)/sqrt(2)``.

    Built from the unnormalized ket so the entries are exactly +-1/2.
    """
    ket = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex)
    return np.outer(ket, ket.conj()) / 2.0


def maximally_mixed() -> np.ndarray:
    """The white-noise state I/4."""
    return np.eye(4, dtype=complex) / 4.0


def make_werner(v: float) -> np.ndarray:
    """Noisy singlet ``v * |psi><psi| + (1 - v) * I/4`` for visibility ``v``."""
    v = require_visibility(v)
    return v * make_singlet() + (1.0 - v) * maximally_mixed()


def random_unitary_2x2(seed: int) -> np.ndarray:
    """Seeded 2x2 unitary with approximately uniform coverage.

    A complex Gaussian matrix is orthonormalized by QR; rescaling the columns
    by the phases of R's diagonal removes the sign/phase ambiguity of the
    factorization, which would otherwise bias the distribution.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def require_unitary(u: Any, tol: float = UNITARITY_TOL) -> np.ndarray:
    """Return ``u`` as a complex 2x2 array after checking ``max |U^dag U - I| <= tol``."""
    uu = np.asarray(u, dtype=complex)
    if uu.shape != (2, 2):
        raise DomainError(f"expected a 2x2 unitary, got shape {uu.shape}")
    require_finite(uu, "unitary")
    unitarity = float(np.max(np.abs(uu.conj().T @ uu - np.eye(2))))
    if unitarity > tol:
        raise DomainError(f"matrix is not unitary: max |U^dag U - I| = {unitarity:.3e}")
    return uu


def check_uu_invariance(rho: Any, u: Any, tol: float) -> bool:
    """Whether ``rho`` is unchanged by conjugation with ``u (x) u``.

    Returns True iff ``max |(U(x)U)^dag rho (U(x)U) - rho| <= tol`` entrywise.
    """
    m = validate_density_matrix(rho)
    uu = require_unitary(u, max(float(tol), UNITARITY_TOL))
    big = np.kron(uu, uu)
    delta = float(np.max(np.abs(big.conj().T @ m @ big - m)))
    return delta <= tol


def matrix_to_json(m: Any) -> dict:
    """Encode a complex matrix as ``{rows, cols, entries: [[re, im], ...]}``.

    Entries are row-major, reals at full double precision.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DomainError(f"expected a 2-d matrix, got {a.ndim} dimensions")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def matrix_from_json(payload: Any) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    try:
        rows = int(payload["rows"])
        cols = int(payload["cols"])
        entries = list(payload["entries"])
    except KeyError as exc:
        raise ValidationError(f"matrix payload is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix payload: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValidationError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(entries) != rows * cols:
        raise ValidationError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
        )
    flat = np.empty(rows * cols, dtype=complex)
    for k, entry in enumerate(entries):
        try:
            re, im = entry
            flat[k] = complex(re, im)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"entry {k} must be a [re, im] pair, got {entry!r}") from exc
    return flat.reshape(rows, cols)
