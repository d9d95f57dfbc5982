"""Independent oracles and seeded fixtures that the tests check bellri against.

None of these has a caller in the library: each recomputes a quantity by a
second route (direct traces, a direction grid, a sphere quadrature, the
model's own axes) or generates seeded inputs, so it lives beside the tests
rather than in the public API.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from bellri import (
    DomainError,
    compute_tensor,
    evaluate_ri_criterion,
    validate_density_matrix,
    verdict_sweep,
)
from bellri.criteria import EQUALITY_SLACK
from bellri.lhv import LhvTwoSettingModel, _axis_streams
from bellri.states import PAULIS, _finite_array, _real, require_unitary
from bellri.tensor import as_tensor

UNIT_NORM_TOL = 1e-12
AXIS_MATCH_TOL = 1e-9


# directions and seeded fixtures


def unit_vector(n: Any) -> np.ndarray:
    """Return ``n`` as a float 3-vector after checking unit norm."""
    v = _finite_array(n, float, (3,), "vector")
    if abs(float(v @ v) - 1.0) > UNIT_NORM_TOL:
        raise DomainError(f"vector is not unit length: |n|^2 = {float(v @ v)!r}")
    return v


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


# states


def check_uu_invariance(rho: Any, u: Any, tol: float) -> bool:
    """Whether ``rho`` is unchanged by conjugation with ``u (x) u``.

    Returns True iff ``max |(U(x)U)^dag rho (U(x)U) - rho| <= tol`` entrywise.
    """
    m = validate_density_matrix(rho)
    uu = require_unitary(u)
    big = np.kron(uu, uu)
    delta = float(np.max(np.abs(big.conj().T @ m @ big - m)))
    return delta <= tol


def partial_transpose(rho: Any) -> np.ndarray:
    """``rho`` with the second observer's indices transposed (Peres' test).

    The entry at row ``(a, b)`` and column ``(c, d)`` moves to row ``(a, d)``
    and column ``(c, b)``, in the product basis of :mod:`bellri.states`.
    """
    m = validate_density_matrix(rho)
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


# tensors


def correlation_value(rho: Any, n1: Any, n2: Any) -> float:
    """Expectation of the product of outcomes at directions ``n1`` and ``n2``."""
    m = validate_density_matrix(rho)
    v1 = unit_vector(n1)
    v2 = unit_vector(n2)
    a1 = sum(v1[k] * PAULIS[k] for k in range(3))
    a2 = sum(v2[k] * PAULIS[k] for k in range(3))
    # rho and a1 (x) a2 are Hermitian, so the trace is real up to rounding
    return float(np.trace(m @ np.kron(a1, a2)).real)


def rotation_by_traces(u: Any) -> np.ndarray:
    """``R_ij = Tr(sigma_i U sigma_j U^dag) / 2`` as literal traces of 2x2 products."""
    uu = np.asarray(u, dtype=complex)
    return np.array(
        [[0.5 * np.trace(si @ uu @ sj @ uu.conj().T).real for sj in PAULIS] for si in PAULIS]
    )


# sign patterns of the four CHSH magnitudes on (T_aa, T_ab, T_ba, T_bb)
CHSH_SIGNS = (
    (1.0, -1.0, 1.0, 1.0),
    (1.0, 1.0, -1.0, 1.0),
    (1.0, 1.0, 1.0, -1.0),
    (1.0, -1.0, -1.0, -1.0),
)


def chsh_by_signed_sums(t: Any, plane: tuple[int, int]) -> tuple[float, ...]:
    """The four CHSH magnitudes ``|sum_k s_k e_k|`` over ``CHSH_SIGNS``.

    Each sum starts at 0 and adds the signed entries left to right: the
    order of ``sum`` before Python 3.12, whose ``sum`` compensates float
    rounding, so the loop spells the order out.
    """
    a = np.asarray(t, dtype=float)
    i, j = plane[0] - 1, plane[1] - 1
    entries = (float(a[i, i]), float(a[i, j]), float(a[j, i]), float(a[j, j]))
    values = []
    for signs in CHSH_SIGNS:
        acc = 0
        for s, e in zip(signs, entries):
            acc = acc + s * e
        values.append(abs(acc))
    return tuple(values)


def evaluate_via_tensor(t: Any, n1: Any, n2: Any) -> float:
    """Correlation at arbitrary directions from the axis tensor: ``n1^T T n2``."""
    return float(unit_vector(n1) @ as_tensor(t) @ unit_vector(n2))


def frobenius_sum(t: Any) -> float:
    """Sum of the squares of all nine tensor entries.

    Invariant under independent rotations of the two local frames, so a
    maximization of this quantity over frame choices is the identity.
    """
    a = as_tensor(t)
    return float(np.sum(a * a))


def criterion_holds_exactly(t: Any) -> bool:
    """Whether ``sum T^2 <= 2.25 T_max + EQUALITY_SLACK`` holds, in exact rational arithmetic.

    Every float entry and the slack ``s`` are exact rationals. With ``S = sum T^2``, the
    inequality fails iff ``S > s`` and ``(S - s) / (9/4) > T_max``, the root of the top
    eigenvalue of ``T^T T``: iff ``(S - s)^2 I - (9/4)^2 T^T T`` is positive definite, that
    is (Sylvester) iff its three leading principal minors are positive.
    """
    a = [[Fraction(x) for x in row] for row in as_tensor(t).tolist()]
    s = Fraction(EQUALITY_SLACK)
    excess = sum(x * x for row in a for x in row) - s
    if excess <= 0:
        return True
    m = [
        [excess**2 * (i == j) - Fraction(81, 16) * sum(r[i] * r[j] for r in a) for j in range(3)]
        for i in range(3)
    ]
    minor2 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    minor3 = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return not (m[0][0] > 0 and minor2 > 0 and minor3 > 0)


def tensor_max_grid(t: Any, n_theta: int, n_phi: int) -> float:
    """Maximum of ``n1^T T n2`` over a product grid of directions per observer.

    Both observers use the same grid: ``n_theta`` cell-centered polar angles
    uniform in theta on [0, pi] and ``n_phi`` cell-centered azimuths uniform
    on [0, 2*pi). The brute-force oracle for ``tensor_max_svd``.

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


def sphere_integral(t: Any, n_theta: int, n_phi: int) -> float:
    """``(E, E)``, the squared correlation over both spheres, by a product rule.

    Gauss-Legendre in cos(theta) and the trapezoidal rule at uniform nodes
    on the periodic azimuth. The integrand n_i n_j is degree 2 in the
    direction vector, so 8 x 16 nodes already make the product rule exact.
    The quadrature oracle for ``inner_product_ee``, which uses the closed
    form ``(4pi/3)^2 * sum T^2`` instead.
    """
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    sin_t = np.sqrt(1.0 - x * x)
    dirs = np.column_stack(
        [
            np.repeat(sin_t, n_phi) * np.tile(np.cos(phi), n_theta),
            np.repeat(sin_t, n_phi) * np.tile(np.sin(phi), n_theta),
            np.repeat(x, n_phi),
        ]
    )
    weights = np.repeat(w, n_phi) * (2.0 * math.pi / n_phi)
    values = dirs @ as_tensor(t) @ dirs.T
    return float(weights @ (values * values) @ weights)


# the critical visibility


def bisect_one_point(pure: Any, noise: Any, tol: float) -> Optional[float]:
    """``critical_visibility`` as a bisection that judges one mixture per step.

    The oracle for the library's stacked walk: the lowest violating point
    ``j/16`` of the same 17-point grid, then the same bracket, midpoints and
    stop by width alone, each mixture judged alone by ``evaluate_ri_criterion``.
    The two must agree exactly.
    """
    tol = _real(tol, "tolerance")
    if not 2.0**-52 <= tol < math.inf:
        raise DomainError(f"tolerance must be at least 2^-52 and finite, got {tol}")
    t_pure = compute_tensor(pure)
    t_noise = compute_tensor(noise)

    def violated_at(v: float) -> bool:
        return evaluate_ri_criterion(v * t_pure + (1.0 - v) * t_noise).violated

    if violated_at(0.0):
        raise DomainError("criterion is already violated at zero visibility")
    hi = next((j / 16 for j in range(1, 17) if violated_at(j / 16)), None)
    if hi is None:
        return None
    lo = hi - 1 / 16
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if violated_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# Closed-form critical visibilities. On each segment below the tensor is diagonal and
# its largest entry in magnitude is linear in v near the crossing, so the margin
# g(v) = sum T^2 - 2.25 T_max is a quadratic a v^2 + b v + c there, rising through zero
# at its upper root with slope sqrt(b^2 - 4ac). The float criterion adds EQUALITY_SLACK
# to the right side, which moves its crossing up by about EQUALITY_SLACK / slope.


def rising_root(a: float, b: float, c: float) -> tuple[float, float]:
    """Upper root of ``a v^2 + b v + c`` (``a > 0``) and the quadratic's slope there."""
    d = math.sqrt(b * b - 4.0 * a * c)
    return (d - b) / (2.0 * a), d


# noise -> (root, slope) for the singlet, whose tensor is -I
SINGLET_THRESHOLDS = {
    "white": (0.75, 2.25),  # T = -v I: 3v^2 - 2.25v
    # T = diag(-v, -v, 1 - 2v), T_max = v above 1/3: 6v^2 - 6.25v + 1
    "ket00": ((25.0 + math.sqrt(241.0)) / 48.0, math.sqrt(241.0) / 4.0),
    "ket01": (math.sqrt(5.0 / 8.0), 4.0 * math.sqrt(5.0 / 8.0)),  # T = diag(-v, -v, -1): 2v^2 - 1.25
}


def schmidt_state(conc: float) -> np.ndarray:
    """``cos t|00> + sin t|11>`` with concurrence ``conc = sin 2t``; its tensor is diag(C, -C, 1)."""
    t = 0.5 * math.asin(conc)
    psi = np.array([math.cos(t), 0.0, 0.0, math.sin(t)])
    return np.outer(psi, psi)


def schmidt_threshold(conc: float) -> Optional[tuple[float, float]]:
    """Root and slope for :func:`schmidt_state` against white noise, or None when it never violates.

    T = v diag(C, -C, 1) gives (1 + 2C^2) v^2 - 2.25 v, so the root is 9 / (4 (1 + 2C^2))
    with slope 2.25. It lies in (0, 1) only for C^2 > 5/8: the criterion never flags a pure
    state with C^2 <= 5/8.
    """
    if conc * conc <= 5.0 / 8.0:
        return None
    return 9.0 / (4.0 * (1.0 + 2.0 * conc * conc)), 2.25


def bell_diagonal(c: Any) -> np.ndarray:
    """``(I + sum_k c_k sigma_k (x) sigma_k) / 4``, the Bell-diagonal state with tensor diag(c)."""
    return (np.eye(4) + sum(ck * np.kron(s, s) for ck, s in zip(c, PAULIS))) / 4.0


# Werner's local model of the noisy singlet at visibility 1/2


def werner_model_correlation(a: Any, b: Any, nodes: int) -> float:
    """Correlation of Werner's local hidden variable model at directions ``a`` and ``b``.

    Werner, PRA 40, 4277 (1989): ``lambda`` is uniform on the sphere, Alice outputs
    ``-sgn(a . lambda)`` and Bob +1 with probability ``(1 + b . lambda)/2``, so Bob's mean
    outcome is ``b . lambda``. Their mean product is integrated over each hemisphere about
    ``a`` by Gauss-Legendre in ``cos(theta)`` and ``nodes`` equally spaced azimuths. On a
    hemisphere the integrand is linear in ``cos(theta)`` and of degree one in the azimuth,
    so for ``nodes >= 2`` the rule is exact and gives ``-(a . b)/2``.
    """
    a, b = unit_vector(a), unit_vector(b)
    e1 = np.cross(a, np.eye(3)[int(np.argmin(np.abs(a)))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    mu, w = np.polynomial.legendre.leggauss(nodes)
    mu, w = 0.5 * (mu + 1.0), 0.5 * w  # cos(theta) on [0, 1], the polar cap about a
    phi = np.arange(nodes) * (2.0 * math.pi / nodes)
    ring = np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2)
    total = 0.0
    for side in (1.0, -1.0):  # the hemisphere where a . lambda has this sign
        lam = (side * mu)[:, None, None] * a + np.sqrt(1.0 - mu * mu)[:, None, None] * ring
        alice, bob_mean = -np.sign(lam @ a), lam @ b
        total += float(w @ (alice * bob_mean).sum(axis=1)) * (2.0 * math.pi / nodes)
    return total / (4.0 * math.pi)


# the two-setting model


@dataclass(frozen=True)
class LhvSample:
    """One draw of the six predetermined outcomes (three axes per observer)."""

    a: tuple[int, int, int]
    b: tuple[int, int, int]


def sample(model: LhvTwoSettingModel, seed: int) -> LhvSample:
    """One deterministic draw of all six outcomes for ``seed``."""
    streams = _axis_streams(seed)
    a = tuple(int(2 * streams[k].integers(0, 2) - 1) for k in range(3))
    p = model.flip_probability
    b = tuple(
        -a[k] if float(streams[3 + k].random()) < p else a[k] for k in range(3)
    )
    return LhvSample(a=a, b=b)


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
    v = _real(v, "visibility", 0, 1)
    u1 = unit_vector(n1)
    u2 = unit_vector(n2)
    if float(np.linalg.norm(u1 - u2)) <= AXIS_MATCH_TOL:
        return -v
    if abs(float(u1 @ u2)) <= AXIS_MATCH_TOL:
        return 0.0
    return None


# the CLI


def sweep_stdout(v_min: float, v_max: float, steps: int, fmt: str) -> str:
    """``bellri sweep`` output rendered from the verdict records.

    JSON is ``json.dumps`` of the records' ``_asdict`` form, the renderer the
    CLI used before it wrote the sweep straight from the margin arrays. CSV is
    the standard library's ``csv.writer`` over their fields, flags as
    ``true``/``false``: a second implementation of the CLI's CSV writer.
    """
    verdicts = verdict_sweep(v_min, v_max, steps)
    if fmt == "json":
        return json.dumps([v._asdict() for v in verdicts], indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["v", "margin", "consistent"])
    writer.writerows(
        [v.v, v.criterion_margin, "true" if v.consistent else "false"] for v in verdicts
    )
    return out.getvalue()
