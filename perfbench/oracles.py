"""Independent reference computations for the benchmark's output checks.

Nothing here imports bellri: each quantity is recomputed from its definition
or from a closed form, so a check never compares the program with itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# PAULI_PAIRS[i, j] = sigma_i (x) sigma_j
PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", PAULI, PAULI).reshape(3, 3, 4, 4)

TSIRELSON = 2.0 * math.sqrt(2.0)
CRITERION_FACTOR = 2.25
EE_FACTOR = (4.0 * math.pi / 3.0) ** 2
BOUND_FACTOR = (2.0 * math.pi) ** 2

# critical visibilities of singlet + noise mixtures under the criterion
THRESHOLD_WHITE = 0.75
THRESHOLD_00 = (25.0 + math.sqrt(241.0)) / 48.0
THRESHOLD_01 = math.sqrt(5.0 / 8.0)
PRIOR_TWO_SETTING = 2.0 * (2.0 / math.pi) ** 2


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(a: float, b: float, tol: float, what: str) -> None:
    require(abs(float(a) - float(b)) <= tol, f"{what}: {a!r} vs {b!r} (tol {tol})")


def ket(*amps) -> np.ndarray:
    v = np.array(amps, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


# built from the unnormalised ket so the entries are exactly +-1/2
SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]).astype(complex) / 2.0
WHITE = np.eye(4, dtype=complex) / 4.0


def werner(v: float) -> np.ndarray:
    return v * SINGLET + (1.0 - v) * WHITE


def random_mixed_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank mixed state from a complex Ginibre matrix."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))
    return q if np.linalg.det(q) > 0 else -q


def tensor_of(rho: np.ndarray) -> np.ndarray:
    """T_ij = Re Tr(rho sigma_i (x) sigma_j), summed over the Pauli basis."""
    return np.einsum("ijab,ba->ij", PAULI_PAIRS, rho).real


def max_singular(t: np.ndarray) -> float:
    return math.sqrt(max(float(np.linalg.eigvalsh(t.T @ t).max()), 0.0))


def chsh_magnitudes(t: np.ndarray, plane: tuple[int, int]) -> list[float]:
    """The four CHSH magnitudes |sum s_k e_k| in ``plane``, ascending.

    Sign patterns with an odd number of minuses come in +-pairs of equal
    magnitude, so the eight sorted magnitudes hold each value twice.
    """
    i, j = plane[0] - 1, plane[1] - 1
    e = (t[i, i], t[i, j], t[j, i], t[j, j])
    vals = sorted(
        abs(sum(s * x for s, x in zip(signs, e)))
        for signs in itertools.product((1.0, -1.0), repeat=4)
        if signs.count(-1.0) % 2 == 1
    )
    return vals[::2]


def check_tensor(got, rho: np.ndarray, what: str) -> np.ndarray:
    ref = tensor_of(rho)
    got = np.asarray(got, dtype=float)
    require(got.shape == (3, 3), f"{what}: tensor shape {got.shape}")
    require(float(np.abs(got - ref).max()) <= 1e-12, f"{what}: tensor differs from Pauli einsum")
    return ref


def check_criterion(lhs, rhs, violated, margin, t_ref: np.ndarray, what: str) -> None:
    s2 = float(np.sum(t_ref * t_ref))
    smax = max_singular(t_ref)
    close(lhs, s2, 1e-12 * max(1.0, s2), f"{what}: lhs vs sum T^2")
    close(rhs, CRITERION_FACTOR * smax, 1e-9, f"{what}: rhs vs 2.25 sqrt(max eig T^T T)")
    close(margin, s2 - CRITERION_FACTOR * smax, 1e-9, f"{what}: margin")
    if abs(s2 - CRITERION_FACTOR * smax) > 1e-9:
        require(bool(violated) == (s2 > CRITERION_FACTOR * smax), f"{what}: verdict")


def check_chsh(values, t_ref: np.ndarray, plane: tuple[int, int], what: str) -> None:
    require(all(float(x) <= TSIRELSON + 1e-12 for x in values), f"{what}: CHSH above 2 sqrt 2")
    got = sorted(abs(float(x)) for x in values)
    ref = chsh_magnitudes(t_ref, plane)
    require(len(got) == 4 and all(abs(a - b) <= 1e-11 for a, b in zip(got, ref)),
            f"{what}: CHSH magnitudes {got} vs {ref}")


def check_mc(mean: float, std_error: float, n: int, target: float, what: str) -> None:
    expected_se = math.sqrt((1.0 - mean * mean) / (n - 1))
    close(std_error, expected_se, 1e-9 * expected_se, f"{what}: std_error")
    require(abs(mean - target) <= 5.0 * std_error, f"{what}: mean {mean} not within 5 sigma of {target}")


def check_sweep(rows: list[tuple[float, float, bool]], steps: int, what: str) -> None:
    """Werner sweep over [0, 1]: margins follow 3v^2 - 2.25v, one flip just above 0.75."""
    require(len(rows) == steps, f"{what}: {len(rows)} points, expected {steps}")
    v = np.array([r[0] for r in rows])
    margin = np.array([r[1] for r in rows])
    consistent = np.array([bool(r[2]) for r in rows])
    grid = np.arange(steps) / (steps - 1)
    require(float(np.abs(v - grid).max()) <= 1e-15, f"{what}: grid")
    require(float(np.abs(margin - (3.0 * v * v - CRITERION_FACTOR * v)).max()) <= 1e-12, f"{what}: margins")
    flip = int(np.argmin(consistent))
    require(not consistent[flip] and consistent[:flip].all() and not consistent[flip:].any(),
            f"{what}: verdict does not flip exactly once")
    require(abs(v[flip - 1] - 0.75) <= 1e-12, f"{what}: flip after v={v[flip - 1]!r}, not 0.75")
