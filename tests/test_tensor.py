import math

import numpy as np
import pytest
from conftest import random_density_matrix, random_tensor, random_unit_vector
from reference import (
    correlation_value,
    evaluate_via_tensor,
    frobenius_sum,
    random_rotation,
    random_rotation_pair,
    random_unitary_2x2,
    tensor_max_grid,
    to_unit_vector,
    unit_vector,
)

from bellri import (
    DomainError,
    compute_tensor,
    make_singlet,
    make_werner,
    maximally_mixed,
    rotate_tensor,
    rotation_from_unitary,
    tensor_from_json,
    tensor_max_svd,
    tensor_to_json,
)
from bellri.tensor import _pauli_expectations

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def tensor_by_direct_traces(rho):
    """Independent oracle: entrywise trace evaluation over the nine Pauli pairs."""
    return np.array(
        [[np.trace(rho @ np.kron(a, b)).real for b in SIGMA] for a in SIGMA]
    )


def grid_max_by_enumeration(t, n_theta, n_phi):
    """Independent oracle: literal enumeration of all grid direction pairs."""
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phi = (np.arange(n_phi) + 0.5) * 2.0 * math.pi / n_phi
    pts = np.array(
        [
            [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
            for th in theta
            for ph in phi
        ]
    )
    return float((pts @ t @ pts.T).max())


class TestToUnitVector:
    def test_pole(self):
        assert np.allclose(to_unit_vector(0.0, 1.23), [0, 0, 1], atol=1e-15)

    def test_equator_x(self):
        assert np.allclose(to_unit_vector(math.pi / 2, 0.0), [1, 0, 0], atol=1e-15)

    def test_equator_y(self):
        assert np.allclose(to_unit_vector(math.pi / 2, math.pi / 2), [0, 1, 0], atol=1e-15)

    def test_phi_wraps(self):
        a = to_unit_vector(1.0, 0.5)
        b = to_unit_vector(1.0, 0.5 + 2.0 * math.pi)
        assert np.allclose(a, b, atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = to_unit_vector(rng.uniform(0, math.pi), rng.uniform(-10, 10))
            assert abs(v @ v - 1.0) <= 1e-12

    def test_rejects_bad_theta(self):
        with pytest.raises(DomainError):
            to_unit_vector(-0.1, 0.0)


class TestCorrelationValue:
    @pytest.mark.parametrize("v", [0.2, 0.75, 1.0])
    def test_matched_directions_give_minus_v(self, v):
        rng = np.random.default_rng(7)
        rho = make_werner(v)
        for _ in range(10):
            n = random_unit_vector(rng)
            assert abs(correlation_value(rho, n, n) + v) <= 1e-12

    def test_orthogonal_directions_give_zero(self):
        rng = np.random.default_rng(8)
        rho = make_werner(0.9)
        for _ in range(10):
            n1 = random_unit_vector(rng)
            helper = random_unit_vector(rng)
            n2 = np.cross(n1, helper)
            n2 /= np.linalg.norm(n2)
            assert abs(correlation_value(rho, n1, n2)) <= 1e-12

    def test_white_noise_uncorrelated(self):
        rng = np.random.default_rng(9)
        rho = maximally_mixed()
        for _ in range(5):
            n1, n2 = random_unit_vector(rng), random_unit_vector(rng)
            assert abs(correlation_value(rho, n1, n2)) <= 1e-12

    def test_bounded_by_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            rho = random_density_matrix(rng)
            val = correlation_value(rho, random_unit_vector(rng), random_unit_vector(rng))
            assert abs(val) <= 1.0 + 1e-12

    def test_rejects_non_unit_vector(self):
        with pytest.raises(DomainError, match="unit"):
            correlation_value(make_werner(0.5), [1.0, 1.0, 0.0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_vector(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            unit_vector([bad, 0.0, 0.0])


class TestComputeTensor:
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.8, 1.0])
    def test_werner_is_minus_v_diagonal(self, v):
        t = compute_tensor(make_werner(v))
        assert np.max(np.abs(t - np.diag([-v, -v, -v]))) <= 1e-12

    def test_white_noise_is_zero(self):
        assert np.max(np.abs(compute_tensor(maximally_mixed()))) <= 1e-14

    def test_product_state_against_trace_oracle(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |++><++|
        oracle = tensor_by_direct_traces(rho)
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert np.max(np.abs(oracle - expected)) <= 1e-14
        assert np.max(np.abs(compute_tensor(rho) - oracle)) <= 1e-12

    def test_random_states_against_trace_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = random_density_matrix(rng)
            assert np.max(np.abs(compute_tensor(rho) - tensor_by_direct_traces(rho))) <= 1e-13

    def test_bit_identical_to_trace_oracle_on_pinned_families(self):
        # the row map adds the same four nonzero products in the same order
        # as the trace of rho (sigma_i (x) sigma_j), so these families keep
        # every bit of the printed tensors
        kets = [np.eye(4)[k] for k in range(4)] + [
            np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0),
            np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0),
        ]
        states = [make_werner(v) for v in np.linspace(0.0, 1.0, 101)]
        states += [make_singlet(), maximally_mixed()]
        states += [np.outer(k, k).astype(complex) for k in kets]
        for rho in states:
            t = compute_tensor(rho)
            oracle = tensor_by_direct_traces(rho)
            assert np.array_equal(t, oracle)
            assert np.array_equal(np.signbit(t), np.signbit(oracle))

    def test_stacked_map_matches_per_state_tensors(self):
        rng = np.random.default_rng(13)
        rhos = np.array([random_density_matrix(rng) for _ in range(300)])
        stacked = _pauli_expectations(rhos)
        assert stacked.shape == (300, 3, 3)
        for rho, t in zip(rhos, stacked):
            assert np.array_equal(t, compute_tensor(rho))

    def test_stacked_residue_check_covers_every_state(self):
        bad = make_werner(0.5)
        for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
            bad[i, j] += 0.49e-12j
        stack = np.array([make_werner(v) for v in (0.1, 0.2, 0.3)] + [bad])
        with pytest.raises(DomainError, match="imaginary residue"):
            _pauli_expectations(stack)

    def test_rejects_imaginary_residue(self):
        # within the 1e-12 hermiticity tolerance, but Tr(rho sigma_x (x) sigma_y)
        # picks up an imaginary part of about 2e-12
        rho = make_werner(0.5)
        for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
            rho[i, j] += 0.49e-12j
        with pytest.raises(DomainError, match="imaginary residue"):
            compute_tensor(rho)

    def test_entries_within_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            t = compute_tensor(random_density_matrix(rng))
            assert np.max(np.abs(t)) <= 1.0 + 1e-12


class TestEvaluateViaTensor:
    def test_isotropic_diagonal(self):
        rng = np.random.default_rng(13)
        t = np.diag([-0.6, -0.6, -0.6])
        for _ in range(5):
            n = random_unit_vector(rng)
            assert abs(evaluate_via_tensor(t, n, n) + 0.6) <= 1e-12

    def test_zero_tensor(self):
        rng = np.random.default_rng(14)
        z = np.zeros((3, 3))
        assert evaluate_via_tensor(z, random_unit_vector(rng), random_unit_vector(rng)) == 0.0

    def test_consistent_with_correlation_value(self):
        # the bilinear form must reproduce the trace formula at every direction pair
        rng = np.random.default_rng(15)
        for _ in range(4):
            rho = random_density_matrix(rng)
            t = compute_tensor(rho)
            for _ in range(200):
                n1, n2 = random_unit_vector(rng), random_unit_vector(rng)
                direct = correlation_value(rho, n1, n2)
                via = evaluate_via_tensor(t, n1, n2)
                assert abs(direct - via) <= 1e-12


class TestRotateTensor:
    def test_identity_pair_is_noop(self):
        rng = np.random.default_rng(16)
        t = random_tensor(rng)
        assert np.max(np.abs(rotate_tensor(t, np.eye(3), np.eye(3)) - t)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_isotropic_tensor_fixed_by_equal_rotations(self, seed):
        t = np.diag([-0.7, -0.7, -0.7])
        r = random_rotation(seed)
        assert np.max(np.abs(rotate_tensor(t, r, r) - t)) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_frobenius_sum_invariant(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tensor(rng)
        r1, r2 = random_rotation_pair(seed)
        assert abs(frobenius_sum(rotate_tensor(t, r1, r2)) - frobenius_sum(t)) <= 1e-10

    def test_rejects_nan_rotation(self):
        with pytest.raises(DomainError, match="non-finite"):
            rotate_tensor(np.eye(3), np.full((3, 3), np.nan), np.eye(3))

    def test_rejects_non_rotation(self):
        with pytest.raises(DomainError, match="orthogonal"):
            rotate_tensor(np.eye(3), np.eye(3) * 2.0, np.eye(3))
        with pytest.raises(DomainError, match="proper"):
            rotate_tensor(np.eye(3), np.diag([1.0, 1.0, -1.0]), np.eye(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_unitary_conjugation(self, seed):
        # conjugating the state by U1 (x) U2 must rotate the tensor by the
        # corresponding SO(3) pair: R1 T R2^T
        rng = np.random.default_rng(100 + seed)
        rho = random_density_matrix(rng)
        u1 = random_unitary_2x2(seed)
        u2 = random_unitary_2x2(seed + 999)
        big = np.kron(u1, u2)
        conjugated = big @ rho @ big.conj().T
        expected = compute_tensor(conjugated)
        got = rotate_tensor(compute_tensor(rho), rotation_from_unitary(u1), rotation_from_unitary(u2))
        assert np.max(np.abs(expected - got)) <= 1e-10


class TestFrobeniusSum:
    @pytest.mark.parametrize("v", [0.0, 0.5, 0.9, 1.0])
    def test_werner_is_three_v_squared(self, v):
        assert abs(frobenius_sum(compute_tensor(make_werner(v))) - 3.0 * v * v) <= 1e-12

    def test_frozen_value_at_090(self):
        assert abs(frobenius_sum(compute_tensor(make_werner(0.9))) - 2.43) <= 1e-12

    def test_zero_tensor(self):
        assert frobenius_sum(np.zeros((3, 3))) == 0.0

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(17)
        t = random_tensor(rng)
        assert abs(frobenius_sum(t) - sum(x * x for x in t.ravel())) <= 1e-14


class TestTensorMax:
    def test_isotropic_diagonal(self):
        assert abs(tensor_max_svd(np.diag([-0.7, -0.7, -0.7])) - 0.7) <= 1e-12

    def test_zero_tensor(self):
        assert tensor_max_svd(np.zeros((3, 3))) == 0.0

    def test_physical_states_bounded_by_one(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            assert tensor_max_svd(compute_tensor(random_density_matrix(rng))) <= 1.0 + 1e-10

    def test_grid_matches_enumeration_exactly(self):
        # the closed-form nearest-node scan must equal the literal grid max
        for seed in range(8):
            t = random_tensor(np.random.default_rng(seed))
            for shape in [(2, 4), (7, 9), (10, 12), (13, 31)]:
                assert abs(tensor_max_grid(t, *shape) - grid_max_by_enumeration(t, *shape)) <= 1e-12

    def test_grid_within_svd_bound(self):
        for seed in range(10):
            t = random_tensor(np.random.default_rng(seed))
            assert tensor_max_grid(t, 40, 80) <= tensor_max_svd(t) + 1e-12

    def test_grid_isotropic_tensor(self):
        assert abs(tensor_max_grid(np.diag([-0.8, -0.8, -0.8]), 100, 200) - 0.8) <= 1e-3

    def test_grid_zero_tensor(self):
        assert tensor_max_grid(np.zeros((3, 3)), 10, 20) == 0.0

    def test_grid_converges_to_svd(self):
        t = random_tensor(np.random.default_rng(19))
        top = tensor_max_svd(t)
        gaps = [top - tensor_max_grid(t, n, 2 * n) for n in (25, 50, 100, 200)]
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[-1] <= 2e-3
        assert gaps[-1] <= gaps[0] + 1e-12

    def test_grid_vs_svd_sampled(self):
        for seed in range(10):
            t = random_tensor(np.random.default_rng(seed))
            assert abs(tensor_max_svd(t) - tensor_max_grid(t, 200, 400)) <= 2e-3

    def test_grid_rejects_small_grids(self):
        with pytest.raises(DomainError):
            tensor_max_grid(np.eye(3), 1, 10)
        with pytest.raises(DomainError):
            tensor_max_grid(np.eye(3), 10, 3)


class TestRotations:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_rotation_is_proper(self, seed):
        r = random_rotation(seed)
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_random_rotation_deterministic(self):
        assert np.array_equal(random_rotation(4), random_rotation(4))

    def test_rotation_from_identity_unitary(self):
        assert np.max(np.abs(rotation_from_unitary(np.eye(2)) - np.eye(3))) <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_from_unitary_against_trace_oracle(self, seed):
        u = random_unitary_2x2(seed)
        oracle = np.array(
            [[0.5 * np.trace(a @ u @ b @ u.conj().T).real for b in SIGMA] for a in SIGMA]
        )
        assert np.max(np.abs(rotation_from_unitary(u) - oracle)) <= 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_from_unitary_is_proper(self, seed):
        r = rotation_from_unitary(random_unitary_2x2(seed))
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


class TestSerialization:
    def test_json_round_trip(self):
        t = random_tensor(np.random.default_rng(20))
        assert np.array_equal(tensor_from_json(tensor_to_json(t)), t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_rejects_non_finite_entry(self, bad):
        rows = [[0.0] * 3 for _ in range(3)]
        rows[2][0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            tensor_from_json({"t": rows})

    def test_json_rejects_all_nan_tensor(self):
        with pytest.raises(DomainError, match="non-finite"):
            tensor_from_json({"t": [[math.nan] * 3] * 3})

    def test_json_shape(self):
        payload = tensor_to_json(compute_tensor(make_singlet()))
        assert list(payload) == ["t"]
        assert len(payload["t"]) == 3 and all(len(row) == 3 for row in payload["t"])
