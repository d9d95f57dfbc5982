"""Two-qubit density matrices: the singlet, its noisy mixtures, input checks.

Conventions used throughout the package:

* product basis ordered ``(|++>, |+->, |-+>, |-->)``, first factor belonging
  to observer 1;
* ``|+>`` and ``|->`` are the +1 / -1 eigenstates of the third Pauli matrix
  (standard matrices, sigma_z diagonal).
"""

from __future__ import annotations

import numbers
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


def _real(x: Any, name: str) -> float:
    """``x`` as a float; :class:`DomainError` naming ``name`` unless it converts."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real number, got {x!r}") from exc


def require_visibility(v: float) -> float:
    """Check that ``v`` is a valid visibility (mixing weight) in [0, 1]."""
    v = _real(v, "visibility")
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"visibility must lie in [0, 1], got {v}")
    return v


def _whole(x: Any, name: str) -> int:
    """``x`` as an int; :class:`DomainError` unless it is a finite whole number."""
    if isinstance(x, numbers.Integral):
        return int(x)
    try:
        f = float(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a whole number, got {x!r}") from exc
    if not f.is_integer():  # False for NaN and inf as well
        raise DomainError(f"{name} must be a finite whole number, got {x!r}")
    return int(f)


def _as_array(x: Any, dtype: type, what: str) -> np.ndarray:
    """``x`` as a ``dtype`` array.

    Raises :class:`ValidationError` naming ``what`` when ``x`` does not convert:
    ragged, string or, for a real ``dtype``, complex input (which numpy would
    cast with only a warning, dropping the imaginary part).
    """
    try:
        a = np.asarray(x)
        if a.dtype == dtype:  # the usual case costs one dtype test
            return a
        if a.dtype.kind == "c" and dtype is not complex:
            raise TypeError("complex entries would lose their imaginary part")
        return a.astype(dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} does not convert to {dtype.__name__}: {exc}") from exc


def _finite_array(x: Any, dtype: type, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``x`` as a ``dtype`` array of ``shape`` with finite entries.

    Raises :class:`ValidationError` naming ``what`` when ``x`` does not convert
    (see :func:`_as_array`), has another shape, or has a NaN or inf entry.
    """
    a = _as_array(x, dtype, what)
    if a.shape != shape:
        size = "x".join(map(str, shape)) + (" " if len(shape) > 1 else "-")
        raise ValidationError(f"expected a {size}{what}, got shape {a.shape}")
    # every comparison with NaN is False, so tolerance tests alone let NaN through;
    # count_nonzero is the cheapest full reduction for the small arrays checked here
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValidationError(f"{what} has a non-finite (NaN or inf) entry")
    return a


def validate_density_matrix(rho: Any) -> np.ndarray:
    """Return ``rho`` as a complex array after checking its invariants.

    Raises :class:`ValidationError` naming the first violated invariant:
    shape, finite entries, hermiticity, unit trace, or positive
    semidefiniteness.
    """
    m = _finite_array(rho, complex, (4, 4), "density matrix")
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


def require_unitary(u: Any) -> np.ndarray:
    """Return ``u`` as a complex 2x2 array after checking ``max |U^dag U - I| <= UNITARITY_TOL``."""
    uu = _finite_array(u, complex, (2, 2), "unitary")
    unitarity = float(np.max(np.abs(uu.conj().T @ uu - np.eye(2))))
    if unitarity > UNITARITY_TOL:
        raise DomainError(f"matrix is not unitary: max |U^dag U - I| = {unitarity:.3e}")
    return uu


def matrix_to_json(m: Any) -> dict:
    """Encode a complex matrix as ``{rows, cols, entries: [[re, im], ...]}``.

    Entries are row-major, reals at full double precision. Raises
    :class:`ValidationError` for input that does not convert, is not 2-d, or
    has a NaN or inf entry, which ``json.dumps`` would write as a non-JSON token.
    """
    a = _as_array(m, complex, "matrix")
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got {a.ndim} dimensions")
    _finite_array(a, complex, a.shape, "matrix")  # only the finite-entry check can fail
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def matrix_from_json(payload: Any) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; NaN and inf entries raise :class:`ValidationError`."""
    try:
        rows = _whole(payload["rows"], "rows")
        cols = _whole(payload["cols"], "cols")
        entries = list(payload["entries"])
    except KeyError as exc:
        raise ValidationError(f"matrix payload is missing field {exc}") from exc
    except (TypeError, DomainError) as exc:
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
    return _finite_array(flat.reshape(rows, cols), complex, (rows, cols), "matrix")
