import math

import numpy as np
import pytest
from conftest import count_eigvalsh, random_density_matrix, random_tensor
from hypothesis import given
from hypothesis import strategies as st
from reference import (
    bell_diagonal,
    bisect_one_point,
    chsh_by_signed_sums,
    frobenius_sum,
    random_rotation_pair,
    sphere_integral,
)

import bellri.criteria
from bellri import (
    COMPARISON_THRESHOLDS,
    DomainError,
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
    tensor_max_svd,
    verdict_sweep,
)
from bellri.criteria import _DEPTH, _criterion


def werner_tensor(v):
    return compute_tensor(make_werner(v))


def count_criterion_stacks(monkeypatch, limit=None):
    """Record the stack size of every ``criteria._criterion`` call; raise past ``limit`` calls."""
    stacks = []
    original = bellri.criteria._criterion

    def counting(t):
        stacks.append(t.shape[0] if t.ndim == 3 else 1)
        if limit is not None and len(stacks) > limit:
            raise RuntimeError("bisection does not terminate")
        return original(t)

    monkeypatch.setattr(bellri.criteria, "_criterion", counting)
    return stacks


class TestRiCriterion:
    def test_violated_above_threshold(self):
        # arithmetic oracle at v = 0.8: lhs = 3 * 0.64, rhs = 2.25 * 0.8
        rep = evaluate_ri_criterion(werner_tensor(0.8))
        assert abs(rep.lhs - 1.92) <= 1e-12
        assert abs(rep.rhs - 1.8) <= 1e-12
        assert rep.violated
        assert rep.margin > 0

    def test_satisfied_below_threshold(self):
        rep = evaluate_ri_criterion(werner_tensor(0.5))
        assert abs(rep.lhs - 0.75) <= 1e-12
        assert abs(rep.rhs - 1.125) <= 1e-12
        assert not rep.violated
        assert abs(rep.margin + 0.375) <= 1e-12

    def test_zero_tensor(self):
        rep = evaluate_ri_criterion(np.zeros((3, 3)))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and not rep.violated

    def test_boundary_not_strict(self):
        assert not evaluate_ri_criterion(werner_tensor(0.75)).violated

    def test_comparison_thresholds_are_the_computed_constants(self):
        rep = evaluate_ri_criterion(werner_tensor(0.3))
        assert rep.comparison_thresholds == (0.75, 2.0 * (2.0 / math.pi) ** 2)
        assert rep.comparison_thresholds == COMPARISON_THRESHOLDS
        assert abs(rep.comparison_thresholds[1] - 0.8105694691387022) <= 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_verdict_invariant_under_rotations(self, seed):
        t = random_tensor(np.random.default_rng(seed))
        r1, r2 = random_rotation_pair(seed)
        assert evaluate_ri_criterion(rotate_tensor(t, r1, r2)).violated == (
            evaluate_ri_criterion(t).violated
        )

    def test_stacked_criterion_matches_one_tensor_case(self):
        rng = np.random.default_rng(7)
        stack = np.array([random_tensor(rng) for _ in range(200)])
        lhs, rhs, violated = bellri.criteria._criterion(stack)
        for k, t in enumerate(stack):
            rep = evaluate_ri_criterion(t)
            assert (rep.lhs, rep.rhs, rep.violated) == (lhs[k], rhs[k], violated[k])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tensor(self, bad):
        t = np.zeros((3, 3))
        t[1, 2] = bad
        with pytest.raises(DomainError, match="non-finite"):
            evaluate_ri_criterion(t)

    def test_rejects_all_nan_tensor(self):
        with pytest.raises(DomainError, match="non-finite"):
            evaluate_ri_criterion(np.full((3, 3), np.nan))

    def test_margin_single_sign_change_for_werner(self):
        # margin(v) = 3v^2 - 2.25v dips negative before crossing once at 3/4;
        # the single crossing is what validates bisection
        margins = [evaluate_ri_criterion(werner_tensor(v)).margin for v in np.linspace(0.01, 1, 100)]
        signs = [m > 1e-12 for m in margins]
        assert signs.count(True) == sum(1 for s in signs if s)
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1
        # and it is strictly increasing on the branch where the crossing happens
        upper = [evaluate_ri_criterion(werner_tensor(v)).margin for v in np.linspace(0.4, 1, 30)]
        assert all(b > a for a, b in zip(upper, upper[1:]))


class TestChsh:
    @pytest.mark.parametrize("v", [0.0, 0.4, 0.9, 1.0])
    @pytest.mark.parametrize("plane", [(1, 2), (2, 3), (1, 3)])
    def test_werner_pattern(self, v, plane):
        rep = chsh_complete_set(werner_tensor(v), plane)
        expected = (2.0 * v, 2.0 * v, 0.0, 0.0)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(rep.values, expected))
        assert rep.satisfied
        assert rep.bound == 2.0

    def test_max_value_at_full_visibility(self):
        rep = chsh_complete_set(werner_tensor(1.0), (2, 3))
        assert abs(rep.max_value - 2.0) <= 1e-12
        assert rep.satisfied

    def test_zero_tensor(self):
        rep = chsh_complete_set(np.zeros((3, 3)), (1, 2))
        assert rep.values == (0.0, 0.0, 0.0, 0.0)

    def test_frozen_values_at_090_plane_13(self):
        rep = chsh_complete_set(werner_tensor(0.9), (1, 3))
        assert abs(rep.values[0] - 1.8) <= 1e-12
        assert abs(rep.values[1] - 1.8) <= 1e-12
        assert abs(rep.values[2]) <= 1e-12
        assert abs(rep.values[3]) <= 1e-12

    def test_violating_tensor_flagged(self):
        # a 45-degree in-plane tensor attains 2*sqrt(2) in the first magnitude
        c = math.sqrt(0.5)
        t_opt = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
        rep = chsh_complete_set(t_opt, (1, 2))
        assert abs(rep.values[0] - 2.0 * math.sqrt(2.0)) <= 1e-12
        assert not rep.satisfied

    def test_rejects_bad_plane(self):
        with pytest.raises(DomainError, match="plane"):
            chsh_complete_set(np.zeros((3, 3)), (2, 1))

    @pytest.mark.parametrize(
        "plane",
        [(1.5, 2), (1, math.nan), ("x", 2), (None, 2), 12],
        ids=["fractional", "nan", "string", "none", "not-a-pair"],
    )
    def test_rejects_malformed_plane(self, plane):
        # a fractional axis such as 1.5 is rejected, not truncated
        with pytest.raises(DomainError, match="plane"):
            chsh_complete_set(np.zeros((3, 3)), plane)

    def test_accepts_whole_plane_axes_of_any_type(self):
        t = werner_tensor(0.9)
        expected = chsh_complete_set(t, (1, 3))
        for plane in [(1.0, 3.0), (np.int64(1), np.float64(3)), ("1", "3")]:
            assert chsh_complete_set(t, plane) == expected


PLANES = [(1, 2), (2, 3), (1, 3)]


class TestChshWrittenOutSums:
    """The written-out magnitudes carry the bits of the signed sums over the sign patterns.

    Each ``+-1.0 * e`` is exact and the sums run left to right, so every value
    is compared with ``==``.
    """

    @staticmethod
    def tensors():
        rng = np.random.default_rng(41)
        signs = rng.choice([-1.0, 1.0], (40, 3, 3))
        return (
            [random_tensor(rng) for _ in range(40)]
            + list(signs * 0.0)  # signed zeros
            + list(signs * rng.uniform(0.0, 2.0**-1022, (40, 3, 3)))  # subnormals
            + list(signs * 2.0**240)
            + list(signs * rng.uniform(0.0, 2.0**240, (40, 3, 3)))
            # cancellation across scales: entries of 1, 2^-60 and 2^240
            + list(signs * rng.choice([1.0, 2.0**-60, 2.0**240], (40, 3, 3)))
        )

    @pytest.mark.parametrize("plane", PLANES)
    def test_same_bits_as_the_signed_sums(self, plane):
        for t in self.tensors():
            rep = chsh_complete_set(t, plane)
            expected = chsh_by_signed_sums(t, plane)
            assert rep.values == expected
            assert rep.max_value == max(expected)

    @given(
        st.lists(st.floats(-(2.0**240), 2.0**240), min_size=9, max_size=9),
        st.sampled_from(PLANES),
    )
    def test_same_bits_on_any_in_domain_tensor(self, entries, plane):
        t = np.array(entries).reshape(3, 3)
        assert chsh_complete_set(t, plane).values == chsh_by_signed_sums(t, plane)


class TestCriticalVisibility:
    def test_werner_threshold(self):
        v = critical_visibility(make_singlet(), maximally_mixed(), 1e-9)
        assert v is not None
        assert abs(v - 0.75) <= 1e-9

    def test_no_violation_sentinel(self):
        assert critical_visibility(maximally_mixed(), maximally_mixed(), 1e-9) is None

    def test_coarse_tolerance_and_step_count(self, monkeypatch):
        stacks = count_criterion_stacks(monkeypatch)
        v = critical_visibility(make_singlet(), maximally_mixed(), 1e-3)
        assert abs(v - 0.75) <= 1e-3
        # ceil(log2(1/tol)) = 10 bisection levels, _DEPTH per stacked call; the
        # first call also holds the two endpoint probes
        assert len(stacks) <= 2 + math.ceil(10 / _DEPTH)
        assert stacks[0] == 2 + 2**_DEPTH - 1
        assert all(n == 2**_DEPTH - 1 for n in stacks[1:])

    def test_validates_each_endpoint_once(self, monkeypatch):
        calls = {"n": 0}
        original = bellri.tensor.validate_density_matrix

        def counting(rho):
            calls["n"] += 1
            return original(rho)

        monkeypatch.setattr(bellri.tensor, "validate_density_matrix", counting)
        critical_visibility(make_singlet(), maximally_mixed(), 1e-9)
        assert calls["n"] == 2

    def test_tolerance_below_double_spacing_terminates(self, monkeypatch):
        # near 0.75 adjacent doubles are 2^-53 apart, so a 1e-300 bracket is
        # unreachable; the bisection must stop at two adjacent doubles
        stacks = count_criterion_stacks(monkeypatch, limit=2 + math.ceil(64 / _DEPTH))
        t_pure = compute_tensor(make_singlet())
        t_noise = compute_tensor(maximally_mixed())

        def violated_at(v):
            return evaluate_ri_criterion(v * t_pure + (1.0 - v) * t_noise).violated

        v = critical_visibility(make_singlet(), maximally_mixed(), 1e-300)
        assert stacks
        assert abs(v - 0.75) <= 1e-12
        # the result is one end of the final bracket of adjacent doubles
        assert violated_at(np.nextafter(v, 2.0))
        assert not violated_at(np.nextafter(v, -1.0))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError, match="tolerance"):
            critical_visibility(make_singlet(), maximally_mixed(), 0.0)

    def test_rejects_infinite_tolerance(self):
        # an infinite bracket width would return the first midpoint, 0.5
        with pytest.raises(DomainError, match="finite"):
            critical_visibility(make_singlet(), maximally_mixed(), math.inf)

    @pytest.mark.parametrize("tol", ["x", None, 1j])
    def test_rejects_non_real_tolerance(self, tol):
        with pytest.raises(DomainError, match="tolerance must be a real number"):
            critical_visibility(make_singlet(), maximally_mixed(), tol)

    def test_rejects_violation_at_zero(self):
        # a state violating at v=0 breaks the bracketing precondition
        rng_free = make_singlet()
        with pytest.raises(DomainError, match="zero visibility"):
            critical_visibility(maximally_mixed(), rng_free, 1e-6)


def random_pure(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_mixed(rng):
    w = rng.uniform()
    return w * random_pure(rng) + (1.0 - w) * random_density_matrix(rng)


class TestDiagonalStacksSkipLapack:
    """The singlet's mixtures with white noise, |00> and |01> have diagonal tensors."""

    def test_sweep_makes_no_eigvalsh_call(self, monkeypatch):
        calls = count_eigvalsh(monkeypatch)
        assert len(verdict_sweep(0.0, 1.0, 1005)) == 1005
        assert calls == []

    @pytest.mark.parametrize("noise", [0, 1, 2], ids=["white", "ket00", "ket01"])
    def test_singlet_thresholds_make_no_eigvalsh_call(self, monkeypatch, noise):
        kets = [np.outer(e, e) for e in np.eye(4)[:2]]
        calls = count_eigvalsh(monkeypatch)
        assert critical_visibility(make_singlet(), [maximally_mixed(), *kets][noise], 1e-12)
        assert calls == []

    def test_a_non_diagonal_state_goes_through_eigvalsh(self, monkeypatch):
        pure = random_pure(np.random.default_rng(2026))
        calls = count_eigvalsh(monkeypatch)
        critical_visibility(pure, maximally_mixed(), 1e-12)
        assert len(calls) > 0


# ROADMAP item F: both endpoints satisfy the criterion, and the segment between
# them violates it only on about (0.3155, 0.3828)
F_PURE = bell_diagonal((0.587, 0.587, -1.0))
F_NOISE = bell_diagonal((1.0, 0.762, -0.762))


def endpoint_pairs():
    """Seeded (pure, noise) pairs whose bisections end in a float, None or a DomainError."""
    rng = np.random.default_rng(2007)
    pairs = [(random_pure(rng), random_mixed(rng)) for _ in range(40)]
    pairs += [(make_singlet(), random_mixed(rng)) for _ in range(20)]
    pairs += [(random_mixed(rng), random_mixed(rng)) for _ in range(20)]
    kets = [np.outer(e, e) for e in np.eye(4)[:2]]
    pairs += [(make_singlet(), noise) for noise in [maximally_mixed(), *kets]]
    return pairs + [(F_PURE, F_NOISE)]


def outcome(bisect, pure, noise, tol):
    try:
        return bisect(pure, noise, tol)
    except DomainError as exc:
        return str(exc)


class TestBisectionMatchesTheOnePointOracle:
    PAIRS = endpoint_pairs()

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 1e-3, 0.3, 1e-300, 5e-324])
    def test_same_float_or_same_error(self, monkeypatch, tol):
        wants = [outcome(bisect_one_point, pure, noise, tol) for pure, noise in self.PAIRS]
        # a bisection on [0, 1] halves its bracket at most 1075 times (the
        # doubles down to 2^-1074), so more stacked calls mean it does not end
        stacks = count_criterion_stacks(monkeypatch, limit=2 + math.ceil(1075 / _DEPTH))
        kinds = set()
        for (pure, noise), want in zip(self.PAIRS, wants):
            stacks.clear()
            got = outcome(critical_visibility, pure, noise, tol)
            assert type(got) is type(want) and got == want
            kinds.add(type(got))
        # the pairs reach every exit: a threshold, no violation, violated at zero
        assert kinds == {float, type(None), str}

    @pytest.mark.parametrize("tol", [1e-9, 1e-300])
    def test_violation_only_inside_the_segment_is_missed_by_both(self, tol):
        assert evaluate_ri_criterion(
            0.35 * compute_tensor(F_PURE) + 0.65 * compute_tensor(F_NOISE)
        ).violated
        assert critical_visibility(F_PURE, F_NOISE, tol) is None
        assert bisect_one_point(F_PURE, F_NOISE, tol) is None


class TestStackedCriterion:
    def test_a_stack_has_the_bits_of_one_tensor_at_a_time(self):
        # the bisection judges a stack of mixtures and walks its flags as if
        # each had been judged alone, which holds only if the bits agree
        rng = np.random.default_rng(31)
        v = np.linspace(0.74, 0.76, 201)[:, None, None]
        singlet, white = compute_tensor(make_singlet()), compute_tensor(maximally_mixed())
        stack = np.concatenate([
            rng.uniform(-1.0, 1.0, (2000, 3, 3)),
            v * singlet + (1.0 - v) * white,
        ])
        alone = [np.array(side) for side in zip(*(_criterion(t) for t in stack))]
        assert any(alone[2]) and not all(alone[2])
        for size in (len(stack), 2 + 2**_DEPTH - 1, 2**_DEPTH - 1):
            for start in range(0, len(stack), size):
                part = slice(start, start + size)
                for got, want in zip(_criterion(stack[part]), alone):
                    assert got.tobytes() == want[part].tobytes()


class TestInnerProductEe:
    def test_full_visibility_value(self):
        got = inner_product_ee(werner_tensor(1.0))
        expected = (4.0 * math.pi / 3.0) ** 2 * 3.0  # 52.6379...
        assert abs(got - expected) <= 1e-8 * expected
        assert abs(expected - 52.63789013914324) <= 1e-10

    def test_zero_tensor(self):
        assert inner_product_ee(np.zeros((3, 3))) == 0.0

    def test_exactness_plateau(self):
        t = random_tensor(np.random.default_rng(21))
        a = inner_product_ee(t)
        b = sphere_integral(t, 16, 32)
        assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_frobenius_identity(self, seed):
        t = random_tensor(np.random.default_rng(seed))
        got = inner_product_ee(t)
        expected = (4.0 * math.pi / 3.0) ** 2 * frobenius_sum(t)
        assert abs(got - expected) <= 1e-8 * abs(expected)

    def test_closed_form_matches_the_quadrature_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            t = random_tensor(rng)
            expected = sphere_integral(t, 8, 16)
            got = inner_product_ee(t)
            assert abs(got - expected) <= 1e-14 * abs(expected)
            rep = ri_bound_check(t)
            assert rep.lhs == got
            rhs = (2.0 * math.pi) ** 2 * tensor_max_svd(t)
            assert abs(rep.rhs - rhs) <= 1e-15 * rhs


class TestRiBoundCheck:
    def test_violated_above_threshold(self):
        rep = ri_bound_check(werner_tensor(0.8))
        # arithmetic oracle: (16 pi^2 / 9) * 3 * 0.64 vs (2 pi)^2 * 0.8
        lhs_expected = (4.0 * math.pi / 3.0) ** 2 * 1.92
        rhs_expected = (2.0 * math.pi) ** 2 * 0.8
        assert abs(rep.lhs - lhs_expected) <= 1e-6
        assert abs(rep.rhs - rhs_expected) <= 1e-6
        assert not rep.satisfied
        assert rep.margin > 0

    def test_satisfied_below_threshold(self):
        rep = ri_bound_check(werner_tensor(0.5))
        assert rep.satisfied

    def test_zero_tensor(self):
        rep = ri_bound_check(np.zeros((3, 3)))
        assert rep.satisfied and rep.margin == 0.0

    def test_equivalent_to_algebraic_criterion(self):
        # both encode the same bound; verdicts must agree away from the slack band
        for seed in range(20):
            t = random_tensor(np.random.default_rng(seed))
            alg = evaluate_ri_criterion(t)
            quad = ri_bound_check(t)
            if abs(alg.margin) > 1e-6:
                assert alg.violated == (not quad.satisfied)

    def test_verdict_agrees_with_algebraic_at_the_threshold(self):
        # margins of order 1e-11 around v = 3/4, inside any looser slack
        for v in 0.75 + np.linspace(-1e-10, 1e-10, 4001):
            t = werner_tensor(v)
            assert ri_bound_check(t).satisfied == (not evaluate_ri_criterion(t).violated), v

    def test_converts_the_tensor_once(self, monkeypatch):
        calls = {"n": 0}
        original = bellri.tensor.as_tensor

        def counting(t):
            calls["n"] += 1
            return original(t)

        for module in (bellri.tensor, bellri.criteria):
            monkeypatch.setattr(module, "as_tensor", counting)
        ri_bound_check(werner_tensor(0.8).tolist())
        assert calls["n"] == 1
