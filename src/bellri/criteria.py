"""Bell-type criteria on correlation tensors and the critical visibility.

The rotationally invariant criterion is one criterion in two normalisations:

* :func:`evaluate_ri_criterion` reports the algebraic form
  ``sum_ij T_ij^2 <= (3/2)^2 * T_max``, the necessary condition for an
  omnidirectional local hidden variable description of the correlations;
* :func:`ri_bound_check` reports the functional form
  ``(E, E) <= (2pi)^2 * T_max``, with ``(E, E)`` the squared correlation
  function integrated over both spheres. Since ``(E, E) = (4pi/3)^2 sum T^2``
  exactly, both sides are the algebraic ones times ``(4pi/3)^2``, and the
  verdict is the algebraic one.

Both flag the noisy singlet above visibility 3/4. The complete two-setting
CHSH set (:func:`chsh_complete_set`), by contrast, is satisfied by that
family at every visibility, which is the point the criterion sharpens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .errors import DomainError
from .states import _tolerance, _whole
from .tensor import _top_singular, as_tensor, compute_tensor

CRITERION_FACTOR = 2.25  # (3/2)^2
CHSH_BOUND = 2.0
EQUALITY_SLACK = 1e-12
_DEPTH = 4  # bisection levels judged per stacked criterion call
# (E, E) per unit of sum T^2: the solid-angle integral of (n . m)^2 per sphere is 4pi/3
_EE_FACTOR = (4.0 * math.pi / 3.0) ** 2

# critical visibility of the noisy singlet under this criterion (which
# critical_visibility recomputes), and the weaker previously reported
# two-setting threshold kept for comparison. The latter is a cited constant:
# nothing here derives 2 (2/pi)^2 or recomputes it from a model
VISIBILITY_THRESHOLD = 0.75
PRIOR_TWO_SETTING_THRESHOLD = 2.0 * (2.0 / math.pi) ** 2
COMPARISON_THRESHOLDS = (VISIBILITY_THRESHOLD, PRIOR_TWO_SETTING_THRESHOLD)

_CHSH_PLANES = ((1, 2), (2, 3), (1, 3))


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the rotationally invariant criterion on one tensor."""

    lhs: float
    rhs: float
    violated: bool
    margin: float
    comparison_thresholds: tuple[float, float] = COMPARISON_THRESHOLDS


@dataclass(frozen=True)
class ChshReport:
    """The four two-setting magnitudes in one measurement plane."""

    plane: tuple[int, int]
    values: tuple[float, float, float, float]
    bound: float
    max_value: float
    satisfied: bool


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the functional form of the criterion."""

    lhs: float
    rhs: float
    satisfied: bool
    margin: float


def _criterion(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left side, right side and violation flag on a ``(..., 3, 3)`` stack of tensors."""
    lhs = (t * t).sum(axis=(-2, -1))
    rhs = CRITERION_FACTOR * _top_singular(t, lhs)
    return lhs, rhs, lhs > rhs + EQUALITY_SLACK


def evaluate_ri_criterion(t: Any) -> CriterionReport:
    """Rotationally invariant criterion: squared-entry sum vs (3/2)^2 T_max.

    Both sides are invariant under independent rotations of the local frames
    (the entry-square sum is a Frobenius norm, T_max a singular value), so
    the nominal maximization over frames on the left side is a no-op and the
    plain sums are reported.
    """
    lhs, rhs, violated = _criterion(as_tensor(t))
    return CriterionReport(
        lhs=float(lhs),
        rhs=float(rhs),
        violated=bool(violated),
        margin=float(lhs - rhs),
    )


def chsh_complete_set(t: Any, plane: tuple[int, int]) -> ChshReport:
    """The four CHSH magnitudes for the axes pair ``plane`` (1-indexed).

    ``plane`` must be one of (1, 2), (2, 3), (1, 3). Joint satisfaction of
    the complete set in every plane is necessary and sufficient for a
    two-setting local hidden variable model of those correlations.
    """
    a = as_tensor(t)
    try:
        key = tuple(_whole(p, "plane axis") for p in plane)
    except TypeError as exc:
        raise DomainError(f"plane must be a pair of axes, got {plane!r}") from exc
    if key not in _CHSH_PLANES:
        raise DomainError(f"plane must be one of {_CHSH_PLANES}, got {plane!r}")
    i, j = key[0] - 1, key[1] - 1
    aa, ab, ba, bb = a.item(i, i), a.item(i, j), a.item(j, i), a.item(j, j)
    # one sign pattern per magnitude, summed left to right; the other four
    # patterns follow by negating one measurement column
    values = (
        abs(aa - ab + ba + bb),
        abs(aa + ab - ba + bb),
        abs(aa + ab + ba - bb),
        abs(aa - ab - ba - bb),
    )
    max_value = max(values)
    return ChshReport(
        plane=key,
        values=values,
        bound=CHSH_BOUND,
        max_value=max_value,
        satisfied=bool(max_value <= CHSH_BOUND + EQUALITY_SLACK),
    )


def _midpoints(lo: float, hi: float) -> list[float]:
    """Midpoints the next ``_DEPTH`` steps can visit, in heap order (k halves into 2k+1, 2k+2)."""
    los, his, mids = [lo], [hi], []
    for k in range(2**_DEPTH - 1):
        mids.append(0.5 * (los[k] + his[k]))
        los += (los[k], mids[k])
        his += (mids[k], his[k])
    return mids


def _bisect(violated: Callable, lo: float, hi: float, tol: float, flags: list) -> float:
    """Bisect ``[lo, hi]`` to ``tol``, walking ``flags``, those of ``_midpoints(lo, hi)``."""
    k = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles; no narrower bracket exists
        if k >= len(flags):  # one stacked call flags every midpoint of the next _DEPTH steps
            flags, k = violated(_midpoints(lo, hi)), 0
        if flags[k]:
            hi, k = mid, 2 * k + 1
        else:
            lo, k = mid, 2 * k + 2
    return 0.5 * (lo + hi)


def critical_visibility(pure_state: Any, noise: Any, tol: float) -> Optional[float]:
    """Visibility where ``v*pure + (1-v)*noise`` starts violating the criterion.

    Bisects the satisfied/violated transition on [0, 1] to within ``tol`` (or
    to two adjacent doubles, when ``tol`` is finer than their spacing) and
    returns the transition visibility, or None when ``v = 1`` does not
    violate. Both assume a single crossing: the margin changes sign at most
    once on [0, 1], as for mixtures whose noise tensor vanishes (there it is
    ``a*v^2 - b*v``). A mixture that violates only inside (0, 1) breaks this
    assumption and also returns None.

    The tensor is linear in the state, so the mixture's tensor is the same
    mixture ``v*T_pure + (1-v)*T_noise`` of the endpoint tensors; each
    endpoint is validated once. Each stacked criterion call judges every midpoint
    of the next ``_DEPTH`` steps: the same points and bits as one point per step.
    """
    tol = _tolerance(tol, "tolerance")
    t_pure, t_noise = compute_tensor(pure_state), compute_tensor(noise)

    def violated(vs: list[float]) -> list[bool]:
        v = np.array(vs)[:, None, None]
        return _criterion(v * t_pure + (1.0 - v) * t_noise)[2].tolist()

    at_zero, at_one, *flags = violated([0.0, 1.0, *_midpoints(0.0, 1.0)])
    if at_zero:
        raise DomainError("criterion is already violated at zero visibility")
    if not at_one:
        return None
    return _bisect(violated, 0.0, 1.0, tol, flags)


def inner_product_ee(t: Any) -> float:
    """Squared correlation function integrated over both observers' spheres.

    ``int dOmega1 int dOmega2 (n1^T T n2)^2`` with the solid-angle measure on
    each sphere is ``(4pi/3)^2 * sum_ij T_ij^2`` exactly, so this is the
    algebraic left side in the functional normalisation; no quadrature is
    needed (``tests/reference.py`` keeps a product rule as its oracle).
    """
    a = as_tensor(t)
    return float(_EE_FACTOR * (a * a).sum(axis=(-2, -1)))


def ri_bound_check(t: Any) -> BoundReport:
    """Functional form of the criterion: ``(E, E) <= (2pi)^2 * T_max``.

    The self-consistency specialization in which the correlation function
    itself stands in for the hidden variable functional. It is the algebraic
    criterion of :func:`evaluate_ri_criterion` in another normalisation: both
    sides are scaled by ``(4pi/3)^2`` and the verdict is the algebraic one,
    with the same slack, so the two reports never disagree.
    """
    lhs, rhs, violated = _criterion(as_tensor(t))
    lhs = float(_EE_FACTOR * lhs)
    rhs = float(_EE_FACTOR * rhs)
    return BoundReport(lhs=lhs, rhs=rhs, satisfied=not violated, margin=lhs - rhs)
