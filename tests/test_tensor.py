import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import count_eigvalsh, random_density_matrix, random_tensor, random_unit_vector
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (
    correlation_value,
    evaluate_via_tensor,
    frobenius_sum,
    random_rotation,
    random_rotation_pair,
    random_unitary_2x2,
    rotation_by_traces,
    tensor_max_grid,
    to_unit_vector,
    unit_vector,
)

import bellri.tensor
from bellri import (
    DomainError,
    build_model,
    chsh_complete_set,
    compute_tensor,
    critical_visibility,
    evaluate_ri_criterion,
    inner_product_ee,
    make_singlet,
    make_werner,
    maximally_mixed,
    ri_bound_check,
    rotate_tensor,
    rotation_from_unitary,
    tensor_from_json,
    tensor_max_svd,
    tensor_to_json,
    validate_density_matrix,
)
from bellri.criteria import _criterion
from bellri.states import HERMITICITY_TOL, UNITARITY_TOL, require_unitary
from bellri.tensor import (
    _OFF_DIAGONAL,
    ROTATION_TOL,
    _SQ_MIN,
    TENSOR_BOUND,
    _pauli_expectations,
    _top_singular,
    as_tensor,
    eigvalsh_lo,
    validate_rotation,
)

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


# tensor entries lie in [-1, 1]; states with anti-Hermitian defects in (0.5, 1] x
# HERMITICITY_TOL have read at most half an ulp of 1 from the Hermitian part's oracle
HERMITIAN_PART_ATOL = 2 * np.spacing(1.0)  # two ulps of 1


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

    def test_stacked_barely_hermitian_state_has_its_own_bits(self):
        bad = make_werner(0.5)
        for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
            bad[i, j] += 0.49e-12j
        stack = np.array([make_werner(v) for v in (0.1, 0.2, 0.3)] + [bad])
        assert np.array_equal(_pauli_expectations(stack)[-1], compute_tensor(bad))

    @pytest.mark.parametrize("residue", [0.49e-12j, -0.49e-12j], ids=["positive", "negative"])
    def test_tensor_of_the_hermitian_part(self, residue):
        # within the 1e-12 hermiticity tolerance, with an imaginary part of about
        # 2e-12, of either sign, in Tr(rho sigma_x (x) sigma_y) of the Werner state
        # and in Tr(rho sigma_x (x) sigma_x) of the other, which the tensor drops
        rho = make_werner(0.5)
        for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
            rho[i, j] += residue
        for m in (rho, maximally_mixed() + residue * np.kron(SIGMA[0], SIGMA[0])):
            assert validate_density_matrix(m) is m
            hermitian_part = tensor_by_direct_traces((m + m.conj().T) / 2)
            assert np.abs(compute_tensor(m) - hermitian_part).max() <= HERMITIAN_PART_ATOL

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
        # R^T R - I is negative on the diagonal here
        with pytest.raises(DomainError, match="not orthogonal"):
            validate_rotation(0.999 * np.eye(3))
        with pytest.raises(DomainError, match=re.escape("not a proper rotation: det = -1.0")):
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


def squared_sums(t):
    """Squared-entry sums as the criterion computes them."""
    return (t * t).sum(axis=(-2, -1))


def svd_top(t):
    """Independent oracle: numpy's singular values."""
    return np.linalg.svd(t, compute_uv=False)[..., 0]


def gram_top(t):
    """One tensor's T_max by the eigvalsh route, with the kernel's power-of-two rescaling."""
    e = 0
    if squared_sums(t) < _SQ_MIN and t.any():
        e = np.frexp(np.abs(t).max())[1]
        t = np.ldexp(t, -e)
    return np.ldexp(np.sqrt(np.linalg.eigvalsh(t.T @ t)[-1]), e)


def diagonal_stack(rng):
    """Signed diagonal tensors, 1e-320 to 2^240, among them zero tensors and -0.0 off-diagonals."""
    n = 3000
    d = rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** rng.uniform(-320.0, 72.3, (n, 1))
    d = np.clip(d, -TENSOR_BOUND, TENSOR_BOUND)
    d[::50] = 0.0
    d[::70, 1] = -0.0
    d[1::90] = TENSOR_BOUND * np.array([1.0, -1.0, 0.5])
    ts = d[:, :, None] * np.eye(3)
    ts[::3, 0, 2] = -0.0
    ts[::5, 2, 1] = -0.0
    return ts


def mixed_stack(rng):
    """160 tensors, interleaving zero, subnormal, tiny, ordinary and large in-domain entries."""
    scales = [0.0, 1e-310, 1e-200, 1e-150, 1.0, 1e50, 2.0**200, 2.0**236] * 20
    return rng.standard_normal((len(scales), 3, 3)) * np.array(scales)[:, None, None]


class TestTopSingular:
    """The top eigenvalue of T^T T behind tensor_max_svd and the criterion."""

    @pytest.mark.parametrize("exponent", range(-300, 301, 50))
    def test_matches_svd_across_magnitudes(self, exponent):
        rng = np.random.default_rng(1000 + exponent)
        for _ in range(50):
            t = rng.standard_normal((3, 3)) * 10.0**exponent
            if exponent > 72:  # above the tensor bound, 2^240 ~ 1.8e72
                with pytest.raises(DomainError, match=r"2\^240"):
                    tensor_max_svd(t)
                continue
            ref = float(svd_top(t))
            assert abs(tensor_max_svd(t) - ref) <= 1e-15 * ref

    def test_zero_tensor_alone_and_stacked(self):
        zeros = np.zeros((4, 3, 3))
        assert tensor_max_svd(zeros[0]) == 0.0
        assert _top_singular(zeros, squared_sums(zeros)).tolist() == [0.0] * 4

    def test_mixed_stack_matches_svd(self):
        ts = mixed_stack(np.random.default_rng(31))
        top = _top_singular(ts, squared_sums(ts))
        ref = svd_top(ts)
        assert np.all(np.abs(top - ref) <= 1e-15 * ref)

    def test_stacked_entries_have_the_bits_of_entries_alone(self):
        ts = mixed_stack(np.random.default_rng(32))
        top = _top_singular(ts, squared_sums(ts))
        alone = [_top_singular(t, squared_sums(t)) for t in ts]
        assert top.tolist() == alone == [tensor_max_svd(t) for t in ts]
        # a stack of strided views, like the real parts of the Pauli map
        views = (ts + 1j).real
        assert _top_singular(views, squared_sums(views)).tolist() == alone

    def test_diagonal_tensors_give_their_largest_entry_exactly(self):
        # Werner, singlet/white and singlet/|00> tensors are diagonal, and the
        # pinned outputs rest on this across the whole tensor domain
        rng = np.random.default_rng(33)
        d = rng.uniform(-1.0, 1.0, (2000, 3)) * 10.0 ** rng.uniform(-320.0, 72.0, (2000, 1))
        ts = d[:, :, None] * np.eye(3)
        want = np.abs(d).max(axis=1)
        assert np.array_equal(_top_singular(ts, squared_sums(ts)), want)
        assert [tensor_max_svd(t) for t in ts[:200]] == want[:200].tolist()

    def test_diagonal_stack_has_the_bits_of_the_eigvalsh_route(self):
        # an all-diagonal stack skips the Gram matrix; each entry still carries
        # the bits the eigvalsh route gives that tensor alone, sign of zero included
        ts = diagonal_stack(np.random.default_rng(35))
        top = _top_singular(ts, squared_sums(ts))
        want = np.array([gram_top(t) for t in ts])
        assert np.array_equal(top, want)
        assert np.array_equal(np.signbit(top), np.signbit(want))
        assert top.tolist() == [tensor_max_svd(t) for t in ts]

    def test_diagonal_stack_has_the_bits_of_its_largest_diagonal_entry(self):
        # the branch takes the elementwise maximum of the three diagonal columns:
        # the bits of each tensor's own reduction, for zero tensors, -0.0 entries on
        # and off the diagonal, and subnormal and 2^240 entries too
        ts = diagonal_stack(np.random.default_rng(37))
        signed_zeros = ts[:40].copy()
        signed_zeros.reshape(-1, 9)[:, _OFF_DIAGONAL] = -0.0
        for stack in (ts, signed_zeros, np.zeros((5, 3, 3)), -np.zeros((5, 3, 3))):
            top = _top_singular(stack, squared_sums(stack))
            want = abs(np.diagonal(stack, axis1=-2, axis2=-1)).max(axis=-1)
            assert np.array_equal(top, want)
            assert np.array_equal(np.signbit(top), np.signbit(want))

    @pytest.mark.parametrize("where", [(0, 1), (2, 0)])
    def test_one_tiny_off_diagonal_entry_takes_the_eigvalsh_route(self, monkeypatch, where):
        ts = diagonal_stack(np.random.default_rng(36))[:200]
        ts[117][where] = 1e-300
        calls = count_eigvalsh(monkeypatch)
        top = _top_singular(ts, squared_sums(ts))
        assert calls == [(200, 3, 3)]
        ref = svd_top(ts)
        assert np.all(np.abs(top - ref) <= 1e-15 * ref)

    def test_power_of_two_scaling_is_exact(self):
        # T_max(2^k T) = 2^k T_max(T) wherever the scaled entries stay normal;
        # LAPACK's own rescaling of tiny Gram matrices broke this near k = -220
        rng = np.random.default_rng(34)
        for _ in range(10):
            t = rng.uniform(-1.0, 1.0, (3, 3))
            top = tensor_max_svd(t)
            for k in range(-1000, 241):
                s = np.ldexp(t, k)
                if np.abs(s).min() >= np.finfo(float).tiny:
                    assert tensor_max_svd(s) == np.ldexp(top, k), k

    @pytest.mark.parametrize("scale", [1e-200])
    def test_identity_out_of_the_plain_range(self, scale):
        # unscaled, 1e-200 * I had T_max = 0.0
        assert tensor_max_svd(scale * np.eye(3)) == scale


def gram_stacks(rng):
    """Seeded 200-matrix Gram stacks ``T^T T`` of each kind the T_max kernel solves."""
    n = 200
    t = rng.uniform(-1.0, 1.0, (n, 3, 3))
    rank_one = rng.standard_normal((n, 3, 1)) * rng.standard_normal((n, 1, 3))
    tiny = t * 1e-150  # sum T^2 ~ 1e-300, below _SQ_MIN ~ 3.9e-121
    assert np.all(squared_sums(tiny) < _SQ_MIN)
    e = np.frexp(np.abs(tiny).max(axis=(-2, -1)))[1]
    signs = rng.choice([-1.0, 1.0], (n, 3, 3))
    tensors = {
        "random": t,
        "rank-one": rank_one,
        "rank-two": rank_one + rng.standard_normal((n, 3, 1)) * rng.standard_normal((n, 1, 3)),
        "zero": np.zeros((n, 3, 3)),
        "diagonal": rng.uniform(-1.0, 1.0, (n, 3))[:, :, None] * np.eye(3),
        "rescaled": np.ldexp(tiny, -e[:, None, None]),  # as the kernel scales them
        "near-bound": TENSOR_BOUND * rng.uniform(0.99, 1.0, (n, 3, 3)) * signs,
    }
    return {kind: a.swapaxes(-1, -2) @ a for kind, a in tensors.items()}


class TestEigvalshBinding:
    """The kernel's direct gufunc binding gives the bits of np.linalg.eigvalsh."""

    @pytest.mark.parametrize(
        "kind", ["random", "rank-one", "rank-two", "zero", "diagonal", "rescaled", "near-bound"]
    )
    def test_gram_stacks_have_the_bits_of_numpy_linalg(self, kind):
        g = gram_stacks(np.random.default_rng(37))[kind]
        want = np.linalg.eigvalsh(g)
        for got in (eigvalsh_lo(g), np.array([eigvalsh_lo(m) for m in g])):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_the_kernel_and_the_state_check_share_one_binding(self):
        assert bellri.tensor.eigvalsh_lo is bellri.states.eigvalsh_lo is eigvalsh_lo


def fail_to_converge(monkeypatch, row):
    """Make the kernel's eigensolve report LAPACK non-convergence (NaN) on one matrix."""
    original = bellri.tensor.eigvalsh_lo

    def failing(m):
        w = original(m)
        w.reshape(-1, 3)[row] = np.nan
        return w

    monkeypatch.setattr(bellri.tensor, "eigvalsh_lo", failing)


class TestNonConvergence:
    """The gufunc's NaN on non-convergence is a LinAlgError, never a report or a verdict."""

    @pytest.mark.parametrize("scale", [1.0, 1e-150], ids=["plain", "rescaled"])
    def test_one_tensor(self, monkeypatch, scale):
        t = random_tensor(np.random.default_rng(38)) * scale
        fail_to_converge(monkeypatch, 0)
        for call in (tensor_max_svd, evaluate_ri_criterion, ri_bound_check):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                call(t)

    @pytest.mark.parametrize("row", [0, 117, -1])
    def test_stack(self, monkeypatch, row):
        ts = mixed_stack(np.random.default_rng(39))
        fail_to_converge(monkeypatch, row)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _top_singular(ts, squared_sums(ts))

    def test_critical_visibility(self, monkeypatch):
        # a locally rotated singlet has a non-diagonal tensor, so its bisection calls LAPACK
        u = np.kron(random_unitary_2x2(40), np.eye(2))
        rotated = u @ make_singlet() @ u.conj().T
        fail_to_converge(monkeypatch, 0)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            critical_visibility(rotated, maximally_mixed(), 1e-6)


def finite_floats(x):
    """True when every float in a result (report, array, list, dict) is finite."""
    if dataclasses.is_dataclass(x):
        x = dataclasses.astuple(x)
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple, np.ndarray)):
        return all(finite_floats(y) for y in x)
    return not isinstance(x, float) or math.isfinite(x)


# the public functions that take a tensor, each as a function of the tensor alone
TENSOR_FUNCTIONS = [
    tensor_max_svd,
    evaluate_ri_criterion,
    ri_bound_check,
    inner_product_ee,
    lambda t: chsh_complete_set(t, (1, 2)),
    lambda t: rotate_tensor(t, random_rotation(35), random_rotation(36)),
    tensor_to_json,
]
FUNCTION_IDS = ["max_svd", "criterion", "bound", "ee", "chsh", "rotate", "json"]
# zero, subnormal and normal entries up to 1e308, spread evenly over the exponents too
ENTRY = st.one_of(
    st.floats(-1e308, 1e308, allow_nan=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
)


class TestTensorDomain:
    """Tensors with |T_ij| <= 2^240 give finite results; larger ones a DomainError."""

    @pytest.mark.parametrize("f", TENSOR_FUNCTIONS, ids=FUNCTION_IDS)
    def test_huge_tensor_is_a_domain_error(self, f):
        with pytest.raises(DomainError, match=r"above 2\^240"):
            f(1e200 * np.eye(3))

    @pytest.mark.parametrize("f", TENSOR_FUNCTIONS, ids=FUNCTION_IDS)
    def test_the_bound_itself_is_in_the_domain(self, f):
        t = TENSOR_BOUND * np.ones((3, 3))
        assert sum(t.ravel().tolist()) > TENSOR_BOUND  # each entry is bounded, not their sum
        assert finite_floats(f(t))
        t[1, 2] = np.nextafter(TENSOR_BOUND, np.inf)
        with pytest.raises(DomainError, match=r"above 2\^240"):
            f(t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 1), (2, 2)], ids=["T12", "T33"])
    def test_non_finite_entry_after_a_finite_one_is_rejected(self, bad, where):
        # a Python max() skips a NaN that is not the first entry
        t = np.ones((3, 3))
        t[where] = bad
        with pytest.raises(DomainError, match="non-finite"):
            as_tensor(t)

    def test_one_entry_past_the_bound_is_rejected(self):
        over = np.nextafter(2.0**240, np.inf)
        # the last pair cancels in a sum that drops the magnitudes
        for d in ([over, 0.0, 0.0], [-over, 0.0, 0.0], [over, -over, 0.0]):
            with pytest.raises(DomainError, match=r"above 2\^240"):
                as_tensor(np.diag(d))

    def test_all_ones_at_the_bound_give_exact_reports(self):
        assert TENSOR_BOUND == 2.0**240
        t = 2.0**240 * np.ones((3, 3))
        assert tensor_max_svd(t) == 3 * 2.0**240
        rep = evaluate_ri_criterion(t)
        assert (rep.lhs, rep.rhs, rep.violated) == (9 * 2.0**480, 2.25 * 3 * 2.0**240, True)

    def test_rotated_tensor_can_leave_the_domain(self):
        # 2^240 * ones = 3 * 2^240 u u^T with u = (1, 1, 1)/sqrt(3); a frame that
        # sends u to the first axis gives an entry of about 3 * 2^240
        u = np.ones(3) / math.sqrt(3.0)
        v = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        r = np.array([u, v, np.cross(u, v)])
        rotated = rotate_tensor(TENSOR_BOUND * np.ones((3, 3)), r, r)
        assert abs(rotated[0, 0] / (3 * TENSOR_BOUND) - 1.0) < 1e-15
        with pytest.raises(DomainError, match=r"above 2\^240"):
            evaluate_ri_criterion(rotated)

    @pytest.mark.parametrize("f", TENSOR_FUNCTIONS, ids=FUNCTION_IDS)
    @settings(max_examples=150, deadline=None)
    @given(entries=st.lists(ENTRY, min_size=9, max_size=9))
    @example(entries=[1e200, 0.0, 0.0, 0.0, 1e200, 0.0, 0.0, 0.0, 1e200])
    @example(entries=[1e308] * 9)
    @example(entries=[5e-324] * 9)
    def test_finite_answer_or_domain_error(self, f, entries):
        # no warning either: the suite turns every warning into an error
        t = np.array(entries).reshape(3, 3)
        try:
            result = f(t)
        except DomainError:
            assert np.abs(t).max() > TENSOR_BOUND
        else:
            assert np.abs(t).max() <= TENSOR_BOUND and finite_floats(result)


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

    @pytest.mark.parametrize("seed", range(40))
    def test_rotation_from_unitary_against_trace_oracle(self, seed):
        # a Haar unitary times a random global phase, which the closed form cancels
        phase = np.random.default_rng([seed, 7]).uniform(0.0, 2.0 * math.pi)
        u = random_unitary_2x2(seed) * np.exp(1j * phase)
        r = rotation_from_unitary(u)
        assert np.max(np.abs(r - rotation_by_traces(u))) <= 1e-15
        assert validate_rotation(r) is r

    @pytest.mark.parametrize("seed", range(20))
    def test_rotation_from_unitary_near_the_unitarity_tolerance(self, seed):
        # U (I + H) with a small Hermitian H has U^dag U - I close to 2H; scale
        # H so that the defect lies just inside UNITARITY_TOL. H = I, a pure scale,
        # gives the largest rotation defects: 2x the tolerance in R^T R - I, 3x in det R - 1
        rng = np.random.default_rng([seed, 8])
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for h in (g + g.conj().T, np.eye(2)):
            w = random_unitary_2x2(seed) @ (np.eye(2) + 0.45 * UNITARITY_TOL * h / np.abs(h).max())
            defect = np.abs(w.conj().T @ w - np.eye(2)).max()
            assert 0.5 * UNITARITY_TOL < defect <= UNITARITY_TOL
            r = rotation_from_unitary(w)
            assert np.max(np.abs(r - rotation_by_traces(w))) <= 1e-15
            assert validate_rotation(r) is r

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_from_unitary_is_proper(self, seed):
        r = rotation_from_unitary(random_unitary_2x2(seed))
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


class TestValidateRotation:
    @pytest.mark.parametrize("seed", range(20))
    def test_determinant_matches_lapack(self, seed):
        # negating a row of a Haar rotation keeps it orthogonal and flips the sign
        # of its determinant, which the rejection reports as the triple product
        r = rotation_from_unitary(random_unitary_2x2(seed)) * [[1.0], [1.0], [-1.0]]
        with pytest.raises(DomainError, match="not a proper rotation") as info:
            validate_rotation(r)
        det = float(str(info.value).rsplit("= ", 1)[1])
        assert abs(det - np.linalg.det(r)) <= 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_reported_orthogonality_defect_is_numpys(self, seed):
        r = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3))
        defect = np.abs(r.T @ r - np.eye(3)).max()
        with pytest.raises(DomainError, match=re.escape(f"max |R^T R - I| = {defect:.3e}")):
            validate_rotation(r)

    @pytest.mark.parametrize(
        "r",
        [np.full((3, 3), 1e200), [[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]]],
        ids=["all-huge", "inf-minus-inf"],
    )
    def test_huge_entries_are_one_error_and_no_warning(self, r):
        # one DomainError and no numpy overflow warning (an error under this
        # suite's filterwarnings); the second matrix's inf - inf must not read NaN
        with pytest.raises(DomainError, match=re.escape("not orthogonal: max |R^T R - I| = inf")):
            validate_rotation(r)


def largest_accepted_scale(v, sign):
    """Largest ``d``, to the last bit, with ``(1 + sign * d) V`` accepted by ``require_unitary``."""
    lo, hi = 0.0, 10.0 * UNITARITY_TOL
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        try:
            require_unitary(v * (1.0 + sign * mid))
            lo = mid
        except DomainError:
            hi = mid


class TestChecksCompose:
    """What one check accepts, the next one accepts: hermiticity before the tensor, unitarity
    before the rotation checks."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), f=st.floats(0.5, 1.0, exclude_min=True))
    def test_accepted_state_has_a_tensor(self, seed, f):
        # an anti-Hermitian defect with a zero diagonal (the trace stays real) of
        # size f x HERMITICITY_TOL on a random state
        rng = np.random.default_rng([seed, 10])
        k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = 0.5 * (k - k.conj().T)
        np.fill_diagonal(a, 0.0)
        rho = random_density_matrix(rng) + f * HERMITICITY_TOL * a / np.abs(2.0 * a).max()
        defect = np.abs(rho - rho.conj().T).max()
        assume(0.5 * HERMITICITY_TOL < defect <= HERMITICITY_TOL)
        validate_density_matrix(rho)
        hermitian_part = tensor_by_direct_traces((rho + rho.conj().T) / 2)
        assert np.abs(compute_tensor(rho) - hermitian_part).max() <= HERMITIAN_PART_ATOL

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        f=st.floats(0.5, 1.0, exclude_min=True),
        scale=st.booleans(),
    )
    @example(seed=4, f=1.0, scale=True)
    def test_accepted_unitary_gives_an_accepted_rotation(self, seed, f, scale):
        # U (I + H) has U^dag U - I close to 2H; H = I, a pure scale, gives the
        # largest rotation defects
        rng = np.random.default_rng([seed, 11])
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = np.eye(2) if scale else g + g.conj().T
        w = random_unitary_2x2(seed) @ (np.eye(2) + 0.5 * f * UNITARITY_TOL * h / np.abs(h).max())
        defect = np.abs(w.conj().T @ w - np.eye(2)).max()
        assume(0.5 * UNITARITY_TOL < defect)
        try:
            require_unitary(w)
        except DomainError:
            assume(False)
        r = rotation_from_unitary(w)
        assert np.array_equal(rotate_tensor(np.eye(3), r, r), r @ r.T)
        m = build_model(0.5, r, r)
        assert np.array_equal(m.r1, r) and np.array_equal(m.r2, r)

    def test_largest_accepted_scale_gives_an_accepted_rotation(self):
        # (1 +- d) V at the largest d that require_unitary accepts, for 300 Haar V:
        # det R - 1 reaches 3 UNITARITY_TOL plus rounding, R^T R - I 2 UNITARITY_TOL
        worst = 0.0
        for seed in range(300):
            v = random_unitary_2x2(seed)
            for sign in (1.0, -1.0):
                r = rotation_from_unitary(v * (1.0 + sign * largest_accepted_scale(v, sign)))
                rotate_tensor(np.eye(3), r, r)
                worst = max(worst, abs(np.linalg.det(r) - 1.0))
        assert 3.0 * UNITARITY_TOL < worst < ROTATION_TOL


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

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({}, "tensor payload is missing field 't'$"),
            (None, "malformed tensor payload: 'NoneType' object is not subscriptable$"),
            ([], "malformed tensor payload: list indices must be integers"),
        ],
        ids=["empty", "none", "list"],
    )
    def test_json_rejects_payload_without_t(self, payload, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            tensor_from_json(payload)

    def test_json_rejects_all_nan_tensor(self):
        with pytest.raises(DomainError, match="non-finite"):
            tensor_from_json({"t": [[math.nan] * 3] * 3})

    def test_json_shape(self):
        payload = tensor_to_json(compute_tensor(make_singlet()))
        assert list(payload) == ["t"]
        assert len(payload["t"]) == 3 and all(len(row) == 3 for row in payload["t"])
