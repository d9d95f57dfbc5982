"""Bell-type criteria on correlation tensors and the critical visibility.

Two routes to the same rotationally invariant criterion are provided:

* :func:`evaluate_ri_criterion` checks the algebraic form
  ``sum_ij T_ij^2 <= (3/2)^2 * T_max``, the necessary condition for an
  omnidirectional local hidden variable description of the correlations;
* :func:`ri_bound_check` checks the functional form by spherical quadrature,
  ``(E, E) <= (2pi)^2 * T_max`` with ``(E, E)`` the squared correlation
  function integrated over both spheres.

Both flag the noisy singlet above visibility 3/4. The complete two-setting
CHSH set (:func:`chsh_complete_set`), by contrast, is satisfied by that
family at every visibility, which is the point the criterion sharpens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import DomainError
from .tensor import as_tensor, compute_tensor, frobenius_sum, tensor_max_svd

CRITERION_FACTOR = 2.25  # (3/2)^2
CHSH_BOUND = 2.0
EQUALITY_SLACK = 1e-12
BOUND_SLACK = 1e-9

# critical visibility of the noisy singlet under this criterion, and the
# weaker previously reported two-setting threshold kept for comparison
VISIBILITY_THRESHOLD = 0.75
PRIOR_TWO_SETTING_THRESHOLD = 2.0 * (2.0 / math.pi) ** 2
COMPARISON_THRESHOLDS = (VISIBILITY_THRESHOLD, PRIOR_TWO_SETTING_THRESHOLD)

_CHSH_PLANES = ((1, 2), (2, 3), (1, 3))
# sign patterns of the four magnitudes on (T_aa, T_ab, T_ba, T_bb); the other
# four patterns follow by negating one measurement column
_CHSH_SIGNS = (
    (1.0, -1.0, 1.0, 1.0),
    (1.0, 1.0, -1.0, 1.0),
    (1.0, 1.0, 1.0, -1.0),
    (1.0, -1.0, -1.0, -1.0),
)


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
class QuadratureSpec:
    """Node counts for the product quadrature on each sphere."""

    n_nodes_theta: int = 8
    n_nodes_phi: int = 16

    def __post_init__(self) -> None:
        if self.n_nodes_theta < 4:
            raise DomainError(f"n_nodes_theta must be at least 4, got {self.n_nodes_theta}")
        if self.n_nodes_phi < 8:
            raise DomainError(f"n_nodes_phi must be at least 8, got {self.n_nodes_phi}")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the quadrature form of the criterion."""

    lhs: float
    rhs: float
    satisfied: bool
    margin: float


def evaluate_ri_criterion(t: Any) -> CriterionReport:
    """Rotationally invariant criterion: squared-entry sum vs (3/2)^2 T_max.

    Both sides are invariant under independent rotations of the local frames
    (the entry-square sum is a Frobenius norm, T_max a singular value), so
    the nominal maximization over frames on the left side is a no-op and the
    plain sums are reported.
    """
    a = as_tensor(t)
    lhs = frobenius_sum(a)
    rhs = CRITERION_FACTOR * tensor_max_svd(a)
    return CriterionReport(
        lhs=lhs,
        rhs=rhs,
        violated=lhs > rhs + EQUALITY_SLACK,
        margin=lhs - rhs,
    )


def chsh_complete_set(t: Any, plane: tuple[int, int]) -> ChshReport:
    """The four CHSH magnitudes for the axes pair ``plane`` (1-indexed).

    ``plane`` must be one of (1, 2), (2, 3), (1, 3). Joint satisfaction of
    the complete set in every plane is necessary and sufficient for a
    two-setting local hidden variable model of those correlations.
    """
    a = as_tensor(t)
    key = tuple(int(p) for p in plane)
    if key not in _CHSH_PLANES:
        raise DomainError(f"plane must be one of {_CHSH_PLANES}, got {key}")
    i, j = key[0] - 1, key[1] - 1
    entries = (float(a[i, i]), float(a[i, j]), float(a[j, i]), float(a[j, j]))
    values = tuple(
        abs(sum(s * e for s, e in zip(signs, entries))) for signs in _CHSH_SIGNS
    )
    max_value = max(values)
    return ChshReport(
        plane=key,
        values=values,
        bound=CHSH_BOUND,
        max_value=max_value,
        satisfied=bool(max_value <= CHSH_BOUND + EQUALITY_SLACK),
    )


def critical_visibility(pure_state: Any, noise: Any, tol: float) -> Optional[float]:
    """Visibility where ``v*pure + (1-v)*noise`` starts violating the criterion.

    Bisects the satisfied/violated transition on [0, 1] to within ``tol`` and
    returns the transition visibility, or None when no ``v <= 1`` violates
    (so "violates only beyond physical visibility" is distinguishable from
    "violates at v = 1"). Valid whenever the margin changes sign once on the
    interval, which holds for mixtures whose noise tensor vanishes: there the
    margin is ``a*v^2 - b*v`` with a single positive crossing.

    The tensor is linear in the state, so the mixture's tensor is the same
    mixture ``v*T_pure + (1-v)*T_noise`` of the endpoint tensors; each
    endpoint is validated once and the bisection works on 3x3 tensors only.
    """
    tol = float(tol)
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    t_pure = compute_tensor(pure_state)
    t_noise = compute_tensor(noise)

    def violated_at(v: float) -> bool:
        return evaluate_ri_criterion(v * t_pure + (1.0 - v) * t_noise).violated

    if violated_at(0.0):
        raise DomainError("criterion is already violated at zero visibility")
    if not violated_at(1.0):
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if violated_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _sphere_nodes(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre in cos(theta) and the trapezoidal rule at uniform nodes
    # on the periodic azimuth. The integrand n_i n_j is degree 2 in the
    # direction vector, so these node counts make the product rule exact.
    x, w = np.polynomial.legendre.leggauss(spec.n_nodes_theta)
    phi = np.arange(spec.n_nodes_phi) * (2.0 * math.pi / spec.n_nodes_phi)
    sin_t = np.sqrt(1.0 - x * x)
    dirs = np.column_stack(
        [
            np.repeat(sin_t, spec.n_nodes_phi) * np.tile(np.cos(phi), spec.n_nodes_theta),
            np.repeat(sin_t, spec.n_nodes_phi) * np.tile(np.sin(phi), spec.n_nodes_theta),
            np.repeat(x, spec.n_nodes_phi),
        ]
    )
    weights = np.repeat(w, spec.n_nodes_phi) * (2.0 * math.pi / spec.n_nodes_phi)
    return dirs, weights


def inner_product_ee(t: Any, q: QuadratureSpec = QuadratureSpec()) -> float:
    """Squared correlation function integrated over both observers' spheres.

    Evaluates ``int dOmega1 int dOmega2 (n1^T T n2)^2`` with the solid-angle
    measure on each sphere; equals ``(4pi/3)^2 * frobenius_sum(t)``
    analytically, and the quadrature is exact for this integrand, so node
    counts beyond the minimum change nothing but rounding. The node sums run
    in a fixed order, so results are bit-stable across runs.
    """
    a = as_tensor(t)
    dirs, weights = _sphere_nodes(q)
    values = dirs @ a @ dirs.T
    return float(weights @ (values * values) @ weights)


def ri_bound_check(t: Any, q: QuadratureSpec = QuadratureSpec()) -> BoundReport:
    """Quadrature form of the criterion: ``(E, E) <= (2pi)^2 * T_max``.

    This is the self-consistency specialization in which the correlation
    function itself stands in for the hidden variable functional; it is
    algebraically equivalent to :func:`evaluate_ri_criterion` (the two sides
    scale by (4pi/3)^2) and reproduces the same visibility transition.
    """
    a = as_tensor(t)
    lhs = inner_product_ee(a, q)
    rhs = (2.0 * math.pi) ** 2 * tensor_max_svd(a)
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs + BOUND_SLACK,
        margin=lhs - rhs,
    )
