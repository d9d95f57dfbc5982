"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

import bellri.tensor


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random 4x4 density matrix via M M^dag normalized to unit trace."""
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_tensor(rng: np.random.Generator) -> np.ndarray:
    """Random 3x3 tensor with entries uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, (3, 3))


def count_eigvalsh(monkeypatch):
    """Record the operand shape of every eigensolve that the T_max kernel makes.

    Patches the ``eigvalsh_lo`` binding that ``bellri.tensor._top_singular`` calls.
    ``validate_density_matrix`` calls the binding of ``bellri.states``, so its 4x4
    solves are not recorded.
    """
    shapes = []
    original = bellri.tensor.eigvalsh_lo

    def counting(m):
        shapes.append(m.shape)
        return original(m)

    monkeypatch.setattr(bellri.tensor, "eigvalsh_lo", counting)
    return shapes
