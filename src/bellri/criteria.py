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

Both flag the noisy singlet above visibility 3/4: they rule out *rotationally
invariant* local hidden variable models. That 0.75 is compared with two-setting
experiments at orthogonal or coplanar axes, such as the complete CHSH set
(:func:`chsh_complete_set`), which that family satisfies at every visibility,
not with CHSH at optimal settings, which already rules it out above 1/sqrt(2).
So 0.75 is where this criterion starts to detect nonlocality, not where rotationally
invariant local models stop existing: no local model reproduces the noisy singlet
above 1/K_G(3) <= 1/sqrt(2), with K_G(3) Grothendieck's constant of order 3
(Acin, Gisin, Toner, PRA 73, 062105 (2006)).
On no two-qubit state is the criterion the stronger test: wherever it is violated,
the top singular values have s1^2 + s2^2 > 1, so CHSH at optimal settings exceeds 2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .states import _tolerance, _whole
from .tensor import _top_singular, as_tensor, compute_tensor

CRITERION_FACTOR = 2.25  # (3/2)^2 = (2pi / (4pi/3))^2, see the thresholds below
CHSH_BOUND = 2.0
EQUALITY_SLACK = 1e-12
# (E, E) per unit of sum T^2: the solid-angle integral of (n . m)^2 per sphere is 4pi/3
_EE_FACTOR = (4.0 * math.pi / 3.0) ** 2

# Both thresholds come from one local-hidden-variable bound, (E_LHV, E_QM) <= (int |n . x|
# dOmega)^2 T_max. Over both spheres (2pi; (E, E) = (4pi/3)^2 sum T^2) it is this criterion,
# whose noisy-singlet threshold 3/4 critical_visibility recomputes. Over two circles of
# coplanar settings (4; (E, E) = 2 pi^2 v^2 for the in-plane noisy singlet) it gives the weaker
# 2 (2/pi)^2 = 8/pi^2 kept for comparison, which matches the coplanar functional Bell
# inequality (Zukowski, Phys. Lett. A 177, 290 (1993)); the tests check both by quadrature
VISIBILITY_THRESHOLD = 0.75
PRIOR_TWO_SETTING_THRESHOLD = 2.0 * (2.0 / math.pi) ** 2
COMPARISON_THRESHOLDS = (VISIBILITY_THRESHOLD, PRIOR_TWO_SETTING_THRESHOLD)

_CHSH_PLANES = ((1, 2), (2, 3), (1, 3))


class CriterionReport(NamedTuple):
    """Outcome of the rotationally invariant criterion on one tensor."""

    lhs: float
    rhs: float
    violated: bool
    margin: float
    comparison_thresholds: tuple[float, float] = COMPARISON_THRESHOLDS


class ChshReport(NamedTuple):
    """The four two-setting magnitudes in one measurement plane."""

    plane: tuple[int, int]
    values: tuple[float, float, float, float]
    bound: float
    max_value: float
    satisfied: bool


class BoundReport(NamedTuple):
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

    ``plane`` must be one of (1, 2), (2, 3), (1, 3), in order: a tuple, list,
    string such as ``"13"``, range or 1-d array. Joint satisfaction of the
    complete set in every plane is necessary and sufficient for a two-setting
    local hidden variable model of those correlations.
    """
    a = as_tensor(t)
    try:
        # ordered pairs only: a set, dict or iterator picks its own order. tuple skips the ABC test
        p, q = plane if isinstance(plane, (tuple, Sequence, np.ndarray)) else ()
    except (TypeError, ValueError) as exc:
        raise DomainError(f"plane must be a pair of axes, got {plane!r}") from exc
    key = (_whole(p, "plane axis"), _whole(q, "plane axis"))
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


def _path(lo: float, hi: float, tol: float, est: float) -> list[float]:
    """Midpoints the bisection of ``[lo, hi]`` to ``tol`` visits if the crossing is at ``est``."""
    mids = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if est < mid:
            hi = mid
        else:
            lo = mid
    return mids


def _crossing(lo: float, hi: float, g_lo: float, g_hi: float, curve: float) -> float:
    """Root in ``[lo, hi]`` of the parabola with ``v^2`` coefficient ``curve`` through the margins.

    ``sum T^2`` is exactly quadratic along the segment, with ``curve = |T_pure - T_noise|^2``,
    and ``T_max`` is convex. Where ``T_max`` is linear on ``[lo, hi]`` (every state against white
    noise, the singlet against |00> or |01>) the margin is this parabola and the guess is the
    crossing to rounding; elsewhere the margin lies on or above it, so in exact arithmetic the
    margin at the guess is not negative and the guess is never short of the crossing.
    """
    if g_lo == 0.0:
        return lo
    # the parabola is g_lo + b*u + curve*u^2 in u = v - lo; g_lo < 0 <= curve keeps the divisor > 0
    b = (g_hi - g_lo) / (hi - lo) - curve * (hi - lo)
    return lo - 2.0 * g_lo / (b + math.sqrt(b * b - 4.0 * curve * g_lo))


def critical_visibility(pure_state: Any, noise: Any, tol: float) -> Optional[float]:
    """Lowest visibility where ``v*pure + (1-v)*noise`` violates the criterion, to ``tol``.

    Takes the lowest violating ``j/16`` (``j = 0..16``), bisects ``[(j-1)/16, j/16]``
    until it is at most ``tol`` wide and returns its midpoint; None when no ``j/16``
    violates. With ``tol >= 2^-52`` each midpoint lies strictly inside its bracket.
    The margin can change sign several times on [0, 1], and a violated stretch of
    the segment that contains no ``j/16`` is missed.

    The tensor is linear in the state, so the mixture's tensor is the same
    mixture ``v*T_pure + (1-v)*T_noise`` of the endpoint tensors; each
    endpoint is validated once. The first stacked criterion call judges the
    grid; each later one judges the midpoints the walk would visit down to
    ``tol`` if the crossing lay at :func:`_crossing`'s guess from the bracket's two
    ends: exact where ``T_max`` is linear there, never short of the crossing elsewhere.
    That path starts at the walk's current midpoint, so each call advances the walk
    at least one level, and the walk visits the same midpoints, with the same bits,
    as a bisection judging one point per step.
    """
    tol = _tolerance(tol, "tolerance")
    t_pure, t_noise = compute_tensor(pure_state), compute_tensor(noise)
    gaps = {}  # lhs - (rhs + EQUALITY_SLACK) per judged visibility: > 0 exactly where violated

    def judge(vs: list[float]) -> None:
        v = np.array(vs)[:, None, None]
        lhs, rhs, _ = _criterion(v * t_pure + (1.0 - v) * t_noise)
        gaps.update(zip(vs, (lhs - (rhs + EQUALITY_SLACK)).tolist()))

    judge([j / 16 for j in range(17)])
    if gaps[0.0] > 0:
        raise DomainError("criterion is already violated at zero visibility")
    j = next((j for j in range(1, 17) if gaps[j / 16] > 0), None)
    if j is None:
        return None
    curve = float(np.square(t_pure - t_noise).sum())
    lo, hi = (j - 1) / 16, j / 16
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid not in gaps:
            judge(_path(lo, hi, tol, _crossing(lo, hi, gaps[lo], gaps[hi], curve)))
        if gaps[mid] > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
