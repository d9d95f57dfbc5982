"""Two-qubit density matrices: the singlet, its noisy mixtures, input checks.

Conventions used throughout the package:

* product basis ordered ``(|++>, |+->, |-+>, |-->)``, first factor belonging
  to observer 1;
* ``|+>`` and ``|->`` are the +1 / -1 eigenstates of the third Pauli matrix
  (standard matrices, sigma_z diagonal).
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Any

import numpy as np

# np.linalg.eigvalsh's LAPACK gufunc without its wrapper, whose checks, casts and errstate
# cost more than a 3x3 or 4x4 solve; the tests pin its bits against np.linalg.eigvalsh.
# LAPACK's non-convergence reads NaN here, so each caller raises LinAlgError on a NaN
from numpy.linalg._umath_linalg import eigvalsh_lo

from .errors import DomainError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
UNITARITY_TOL = 1e-12


def _in_range(x: Any, name: str, lo: Any, hi: Any) -> Any:
    """``x`` itself; :class:`DomainError` naming ``name`` unless ``lo <= x <= hi``."""
    # a bound of None is open; the negated comparisons fail NaN as well
    if lo is not None and not x >= lo:
        raise DomainError(f"{name} must be at least {lo}, got {x}")
    if hi is not None and not x <= hi:
        raise DomainError(f"{name} must be at most {hi}, got {x}")
    return x


def _real(x: Any, name: str, lo: Any = None, hi: Any = None) -> float:
    """``x`` as a float in ``[lo, hi]``; :class:`DomainError` naming ``name`` otherwise."""
    try:
        f = float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real number, got {x!r}") from exc
    return _in_range(f, name, lo, hi)


def _whole(x: Any, name: str, lo: Any = None, hi: Any = None) -> int:
    """``x`` as an int in ``[lo, hi]``; :class:`DomainError` unless it is a finite whole number there."""
    if type(x) is not int and not isinstance(x, numbers.Integral):  # an int skips the ABC test
        s = x.strip() if isinstance(x, str) else ""
        digits = (s[1:] if s[:1] in "+-" else s).isdecimal()  # one sign at most, as int() takes
        try:
            # a string of digits converts exactly, where a float rounds above 2^53
            f = int(x) if digits else float(x)
        except (TypeError, ValueError) as exc:  # on digits, int() fails only above its digit limit
            limit = f" of at most {sys.get_int_max_str_digits()} digits" if digits else ""
            raise DomainError(f"{name} must be a whole number{limit}, got {x!r}") from exc
        if isinstance(f, float) and not f.is_integer():  # False for NaN and inf as well
            raise DomainError(f"{name} must be a finite whole number, got {x!r}")
        x = f
    return _in_range(int(x), name, lo, hi)


def _tolerance(x: Any, name: str) -> float:
    """``x`` as a float with ``2^-52 <= x < inf``; :class:`DomainError` naming ``name`` otherwise."""
    tol = _real(x, name)
    # from 2^-52 up, every bracket in [0, 1] wider than tol has its midpoint strictly inside
    if not sys.float_info.epsilon <= tol < math.inf:  # False for NaN as well
        raise DomainError(f"{name} must be at least 2^-52 and finite, got {tol}")
    return tol


def _as_array(x: Any, dtype: type, what: str) -> np.ndarray:
    """``x`` as a ``dtype`` array.

    Raises :class:`DomainError` naming ``what`` when ``x`` does not convert:
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
        raise DomainError(f"{what} does not convert to {dtype.__name__}: {exc}") from exc


def _finite_array(x: Any, dtype: type, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``x`` as a ``dtype`` array of ``shape`` with finite entries.

    Raises :class:`DomainError` naming ``what`` when ``x`` does not convert
    (see :func:`_as_array`), has another shape, or has a NaN or inf entry.
    """
    a = _as_array(x, dtype, what)
    if a.shape != shape:
        size = "x".join(map(str, shape)) + (" " if len(shape) > 1 else "-")
        raise DomainError(f"expected a {size}{what}, got shape {a.shape}")
    # every comparison with NaN is False, so tolerance tests alone let NaN through;
    # count_nonzero is the cheapest full reduction for the small arrays checked here
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise DomainError(f"{what} has a non-finite (NaN or inf) entry")
    return a


class _Checked(bytes):
    """The bytes of a matrix that :func:`validate_density_matrix` accepted."""


def validate_density_matrix(rho: Any) -> np.ndarray:
    """Return a read-only complex copy of ``rho`` after checking its invariants.

    Raises :class:`DomainError` naming the first violated invariant:
    shape, finite entries, hermiticity, unit trace, or positive
    semidefiniteness; ``LinAlgError`` if LAPACK's eigensolve does not converge.

    The result is a new array, bitwise equal to ``rho`` as a complex 4x4, over
    immutable bytes, so numpy can never make it writeable and ``compute_tensor``
    takes it unchecked; its views and copies are checked again.
    """
    m = _finite_array(rho, complex, (4, 4), "density matrix")
    h = 0.5 * m  # exact, and h - h^dag cannot overflow; Python floats reach inf with no warning
    herm = 2.0 * float(abs(h - h.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise DomainError(f"matrix is not Hermitian: max |M - M^dag| = {herm:.3e}")
    tr = sum(m.diagonal().tolist())
    if abs(tr - 1.0) > TRACE_TOL:
        raise DomainError(f"matrix trace {tr:.12g} differs from 1")
    lowest = eigvalsh_lo(m).item(0)  # LAPACK returns them in ascending order
    if not lowest >= EIGENVALUE_FLOOR:  # False for NaN as well
        if math.isnan(lowest):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        raise DomainError(
            f"matrix is not positive semidefinite: min eigenvalue = {lowest:.3e}"
        )
    return np.ndarray((4, 4), complex, _Checked(m.tobytes()))


def make_singlet() -> np.ndarray:
    """Projector onto the two-qubit singlet ``(|+-> - |-+>)/sqrt(2)``.

    Built from the unnormalized ket so the entries are exactly +-1/2.
    """
    ket = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex)
    return np.outer(ket, ket.conj()) / 2.0


def maximally_mixed() -> np.ndarray:
    """The white-noise state I/4."""
    return np.eye(4, dtype=complex) / 4.0


# the two endpoints of every noisy singlet, built once and read-only
_SINGLET = make_singlet()
_MIXED = maximally_mixed()
_SINGLET.flags.writeable = _MIXED.flags.writeable = False


def _werner(v: Any) -> np.ndarray:
    """``v * |psi><psi| + (1 - v) * I/4``, unchecked, for a float ``v`` or a ``(k, 1, 1)`` stack."""
    m = v * _SINGLET
    m += (1.0 - v) * _MIXED  # the bits of the sum, in the first product's memory
    return m


def make_werner(v: float) -> np.ndarray:
    """Noisy singlet ``v * |psi><psi| + (1 - v) * I/4`` for visibility ``v``."""
    return _werner(_real(v, "visibility", 0, 1))


def require_unitary(u: Any) -> np.ndarray:
    """Return ``u`` as a complex 2x2 array after checking ``max |U^dag U - I| <= UNITARITY_TOL``."""
    uu = _finite_array(u, complex, (2, 2), "unitary")
    (a, b), (c, d) = uu.tolist()
    g = a.conjugate() * b + c.conjugate() * d  # (U^dag U)_01, the conjugate of (U^dag U)_10
    # in Python floats, which overflow to inf with no warning; diagonal first, as
    # in tensor.validate_rotation, so that an overflow reads inf, never NaN
    unitarity = max(
        abs(a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag - 1.0),
        abs(b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag - 1.0),
        math.hypot(g.real, g.imag),
    )
    if unitarity > UNITARITY_TOL:
        raise DomainError(f"matrix is not unitary: max |U^dag U - I| = {unitarity:.3e}")
    return uu


def matrix_to_json(m: Any) -> dict:
    """Encode a complex matrix as ``{rows, cols, entries: [[re, im], ...]}``.

    Entries are row-major, reals at full double precision. Raises
    :class:`DomainError` for input that does not convert, is not 2-d, is
    empty (the decoder takes at least one row and one column), or has a NaN
    or inf entry, which ``json.dumps`` would write as a non-JSON token.
    """
    a = _as_array(m, complex, "matrix")
    if a.ndim != 2:
        raise DomainError(f"expected a 2-d matrix, got {a.ndim} dimensions")
    if a.size == 0:
        raise DomainError(f"rows and cols must be at least 1, got shape {a.shape}")
    _finite_array(a, complex, a.shape, "matrix")  # only the finite-entry check can fail
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(payload: Any) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; NaN and inf entries raise :class:`DomainError`."""
    try:
        rows = _whole(payload["rows"], "rows", 1)
        cols = _whole(payload["cols"], "cols", 1)
        entries = list(payload["entries"])
    except KeyError as exc:
        raise DomainError(f"matrix payload is missing field {exc}") from exc
    # an ndarray indexed by a field name raises IndexError, or ValueError if it
    # is a record array; a DomainError is a ValueError
    except (TypeError, IndexError, ValueError) as exc:
        raise DomainError(f"malformed matrix payload: {exc}") from exc
    if len(entries) != rows * cols:
        raise DomainError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
        )
    flat = np.empty(rows * cols, dtype=complex)
    for k, entry in enumerate(entries):
        try:
            re, im = entry
            flat[k] = complex(re, im)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"entry {k} must be a [re, im] pair, got {entry!r}") from exc
    return _finite_array(flat.reshape(rows, cols), complex, (rows, cols), "matrix")
