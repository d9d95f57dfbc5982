"""Explicit two-setting local hidden variable model for the noisy singlet.

The construction: the first observer's three predetermined outcomes are
independent fair coins ``a_1, a_2, a_3``; the second observer's outcome on
axis ``i`` is ``-a_i`` with probability ``(1 + v)/2`` and ``+a_i`` otherwise,
independently per axis. This reproduces the noisy-singlet correlations at
the canonical axes exactly: ``-v`` on matched axes, ``0`` on mismatched ones.
Transporting the axes with a rotation pair yields the same correlations in
any rotated frame, so the family pins down the correlation at every pair of
equal directions (-v) and every orthogonal pair (0) while satisfying the
complete two-setting CHSH set at all visibilities.

:func:`consistency_verdict` records where the family nevertheless fails:
gluing the rotated copies into one omnidirectional model is impossible
whenever the rotationally invariant criterion is violated, i.e. for
``v > 3/4``. The verdict delegates to that criterion; no combinatorial
search over the continuum of frames is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .criteria import evaluate_ri_criterion
from .errors import DomainError
from .states import make_werner, require_visibility
from .tensor import compute_tensor, unit_vector, validate_rotation

AXIS_MATCH_TOL = 1e-9

CONSISTENT = "consistent-at-this-visibility"
RI_VIOLATED = "ri-criterion-violated"


@dataclass(frozen=True, eq=False)
class LhvTwoSettingModel:
    """Two-setting model at visibility ``v`` with axes in rotated local frames."""

    v: float
    r1: np.ndarray
    r2: np.ndarray

    @property
    def flip_probability(self) -> float:
        """Probability that the second outcome opposes the first on a matched axis."""
        return (1.0 + self.v) / 2.0


@dataclass(frozen=True)
class LhvSample:
    """One draw of the six predetermined outcomes (three axes per observer)."""

    a: tuple[int, int, int]
    b: tuple[int, int, int]


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Whether the rotated two-setting copies can coexist at visibility ``v``."""

    v: float
    criterion_margin: float
    consistent: bool
    explanation_code: str


def build_model(
    v: float, r1: Any = None, r2: Any = None
) -> LhvTwoSettingModel:
    """Model at visibility ``v`` whose axes live in frames rotated by ``r1``, ``r2``.

    Frames default to the identity. The model's correlations at its own axes
    are ``-v`` on matched and ``0`` on mismatched axes regardless of frames.
    """
    v = require_visibility(v)
    rot1 = np.eye(3) if r1 is None else validate_rotation(r1)
    rot2 = np.eye(3) if r2 is None else validate_rotation(r2)
    return LhvTwoSettingModel(v=v, r1=rot1, r2=rot2)


def exact_correlations(model: LhvTwoSettingModel) -> np.ndarray:
    """The model's analytic correlations at its nine axis pairs.

    Matched axes: (+1)(1 - p) + (-1) p = 1 - 2p = -v with p the flip
    probability. Mismatched axes vanish because a_i is a zero-mean coin
    independent of (a_j, flip_j).
    """
    return np.diag([-model.v] * 3)


def _axis_index(m: np.ndarray) -> Optional[int]:
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        if float(np.linalg.norm(m - e)) <= AXIS_MATCH_TOL:
            return k
    return None


def model_correlation(model: LhvTwoSettingModel, n1: Any, n2: Any) -> Optional[float]:
    """Correlation the model pins down at a direction pair, or None.

    The model carries outcomes only at the three axes per side (the columns
    of its frame rotations); direction pairs off those axes are unconstrained
    and return None.
    """
    m1 = model.r1.T @ unit_vector(n1)
    m2 = model.r2.T @ unit_vector(n2)
    i = _axis_index(m1)
    j = _axis_index(m2)
    if i is None or j is None:
        return None
    return -model.v if i == j else 0.0


def piecewise_correlation(v: float, n1: Any, n2: Any) -> Optional[float]:
    """Correlation pinned down by the rotated two-setting family as a whole.

    ``-v`` at equal directions, ``0`` at orthogonal ones, None elsewhere:
    between those cases the family of rotated models places no constraint.
    """
    v = require_visibility(v)
    u1 = unit_vector(n1)
    u2 = unit_vector(n2)
    if float(np.linalg.norm(u1 - u2)) <= AXIS_MATCH_TOL:
        return -v
    if abs(float(u1 @ u2)) <= AXIS_MATCH_TOL:
        return 0.0
    return None


def _axis_streams(seed: int) -> list[np.random.Generator]:
    # six independent child streams: three for the first observer's coins,
    # three for the per-axis flips; the fixed derivation order keeps estimates
    # reproducible regardless of which axes a caller consumes
    children = np.random.SeedSequence(seed).spawn(6)
    return [np.random.default_rng(s) for s in children]


def sample(model: LhvTwoSettingModel, seed: int) -> LhvSample:
    """One deterministic draw of all six outcomes for ``seed``."""
    streams = _axis_streams(seed)
    a = tuple(int(2 * streams[k].integers(0, 2) - 1) for k in range(3))
    p = model.flip_probability
    b = tuple(
        -a[k] if float(streams[3 + k].random()) < p else a[k] for k in range(3)
    )
    return LhvSample(a=a, b=b)


def estimate_correlation(
    model: LhvTwoSettingModel, i: int, j: int, n: int, seed: int
) -> McEstimate:
    """Monte Carlo mean of ``a_i * b_j`` over ``n`` seeded draws (axes 1-indexed)."""
    i = int(i)
    j = int(j)
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise DomainError(f"axis indices must lie in 1..3, got ({i}, {j})")
    n = int(n)
    if n < 1000:
        raise DomainError(f"need at least 1000 samples, got {n}")
    streams = _axis_streams(seed)
    a_i = streams[i - 1].integers(0, 2, size=n) * 2 - 1
    flips = np.where(streams[3 + (j - 1)].random(n) < model.flip_probability, -1, 1)
    a_j = a_i if i == j else streams[j - 1].integers(0, 2, size=n) * 2 - 1
    products = a_i * (a_j * flips)
    return McEstimate(
        mean=float(products.mean()),
        std_error=float(products.std(ddof=1) / math.sqrt(n)),
        n_samples=n,
    )


def mc_report(model: LhvTwoSettingModel, i: int, j: int, est: McEstimate) -> dict:
    """JSON payload for one estimate: target and a 5-sigma pass flag included."""
    target = -model.v if i == j else 0.0
    if est.std_error > 0.0:
        ok = abs(est.mean - target) <= 5.0 * est.std_error
    else:
        ok = est.mean == target
    return {
        "v": model.v,
        "i": int(i),
        "j": int(j),
        "n": est.n_samples,
        "mean": est.mean,
        "std_error": est.std_error,
        "target": target,
        "pass": ok,
    }


def consistency_verdict(v: float) -> ConsistencyVerdict:
    """Can the rotated two-setting models be glued at visibility ``v``?

    Delegates to the rotationally invariant criterion on the noisy-singlet
    tensor: a violation certifies that no omnidirectional model exists, so
    the two-setting copies must contradict each other.
    """
    v = require_visibility(v)
    report = evaluate_ri_criterion(compute_tensor(make_werner(v)))
    return ConsistencyVerdict(
        v=v,
        criterion_margin=report.margin,
        consistent=not report.violated,
        explanation_code=RI_VIOLATED if report.violated else CONSISTENT,
    )


def verdict_sweep(v_min: float, v_max: float, steps: int) -> list[ConsistencyVerdict]:
    """Verdicts at ``steps`` evenly spaced visibilities in [v_min, v_max]."""
    v_min = require_visibility(v_min)
    v_max = require_visibility(v_max)
    if v_max < v_min:
        raise DomainError(f"need v_min <= v_max, got [{v_min}, {v_max}]")
    steps = int(steps)
    if steps < 1:
        raise DomainError(f"need at least one step, got {steps}")
    if steps == 1:
        grid = [v_min]
    else:
        grid = np.linspace(v_min, v_max, steps).tolist()
    return [consistency_verdict(v) for v in grid]
