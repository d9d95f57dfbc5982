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
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from .criteria import _criterion
from .errors import DomainError
from .states import make_singlet, maximally_mixed, require_visibility, validate_density_matrix
from .tensor import _pauli_expectations, validate_rotation

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


def _axis_streams(seed: int) -> list[np.random.Generator]:
    # six independent child streams: three for the first observer's coins,
    # three for the per-axis flips; the fixed derivation order keeps estimates
    # reproducible regardless of which axes a caller consumes
    children = np.random.SeedSequence(seed).spawn(6)
    return [np.random.default_rng(s) for s in children]


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


def estimate_correlation(
    model: LhvTwoSettingModel, i: int, j: int, n: int, seed: int
) -> McEstimate:
    """Monte Carlo mean of ``a_i * b_j`` over ``n`` seeded draws (axes 1-indexed)."""
    i = _whole(i, "axis index i")
    j = _whole(j, "axis index j")
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise DomainError(f"axis indices must lie in 1..3, got ({i}, {j})")
    n = _whole(n, "sample count n")
    if n < 1000:
        raise DomainError(f"need at least 1000 samples, got {n}")
    seed = _whole(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    streams = _axis_streams(seed)
    # neg marks the draws with a_i * b_j = a_i * a_j * flip_j = -1. On matched
    # axes a_i * a_i = 1, so no coin is drawn; the streams are independent,
    # so skipping one changes no other draw. int32 coins take the same values
    # from a stream as the default int64 draw (int8, uint8 and bool do not)
    neg = streams[3 + (j - 1)].random(n) < model.flip_probability
    if i != j:
        neg ^= (
            streams[i - 1].integers(0, 2, size=n, dtype=np.int32)
            != streams[j - 1].integers(0, 2, size=n, dtype=np.int32)
        )
    # the products are +-1, so their float sum n - 2k is exact and the mean is
    # that of the full product array bit for bit. The squared deviations take
    # two values; summing them with numpy's pairwise reduction over an array in
    # sample order reproduces std(ddof=1) bit for bit, which neither the closed
    # form 4k(n-k)/n nor a chunked sum does
    mean = (n - 2 * int(np.count_nonzero(neg))) / n
    up = (1.0 - mean) * (1.0 - mean)
    down = (-1.0 - mean) * (-1.0 - mean)
    ss = float(np.where(neg, down, up).sum())
    return McEstimate(
        mean=mean,
        std_error=math.sqrt(ss / (n - 1)) / math.sqrt(n),
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


def _verdicts(grid: np.ndarray) -> list[ConsistencyVerdict]:
    """Verdicts at the visibilities of ``grid`` (each in [0, 1]), evaluated as one stack."""
    singlet = validate_density_matrix(make_singlet())
    white = validate_density_matrix(maximally_mixed())
    # a mixture of two valid states is valid, so no point is revalidated. The
    # states are mixed with make_werner's elementwise arithmetic, which keeps
    # every margin bit-identical to the one-point path; mixing the endpoint
    # tensors instead moves T_zz by an ulp at some visibilities
    rhos = grid[:, None, None] * singlet + (1.0 - grid)[:, None, None] * white
    lhs, rhs, violated = _criterion(_pauli_expectations(rhos))
    return [
        ConsistencyVerdict(
            v=v,
            criterion_margin=margin,
            consistent=not bad,
            explanation_code=RI_VIOLATED if bad else CONSISTENT,
        )
        for v, margin, bad in zip(grid.tolist(), (lhs - rhs).tolist(), violated.tolist())
    ]


def consistency_verdict(v: float) -> ConsistencyVerdict:
    """Can the rotated two-setting models be glued at visibility ``v``?

    Delegates to the rotationally invariant criterion on the noisy-singlet
    tensor: a violation certifies that no omnidirectional model exists, so
    the two-setting copies must contradict each other.
    """
    return _verdicts(np.array([require_visibility(v)]))[0]


def verdict_sweep(v_min: float, v_max: float, steps: int) -> list[ConsistencyVerdict]:
    """Verdicts at ``steps`` evenly spaced visibilities in [v_min, v_max]."""
    v_min = require_visibility(v_min)
    v_max = require_visibility(v_max)
    if v_max < v_min:
        raise DomainError(f"need v_min <= v_max, got [{v_min}, {v_max}]")
    steps = _whole(steps, "step count steps")
    if steps < 1:
        raise DomainError(f"need at least one step, got {steps}")
    return _verdicts(np.linspace(v_min, v_max, steps))
