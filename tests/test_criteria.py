import math

import numpy as np
import pytest
from conftest import random_tensor

import bellri.criteria
from bellri import (
    COMPARISON_THRESHOLDS,
    DomainError,
    QuadratureSpec,
    chsh_complete_set,
    compute_tensor,
    critical_visibility,
    evaluate_ri_criterion,
    frobenius_sum,
    inner_product_ee,
    make_singlet,
    make_werner,
    maximally_mixed,
    random_rotation_pair,
    ri_bound_check,
    rotate_tensor,
)


def werner_tensor(v):
    return compute_tensor(make_werner(v))


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


class TestCriticalVisibility:
    def test_werner_threshold(self):
        v = critical_visibility(make_singlet(), maximally_mixed(), 1e-9)
        assert v is not None
        assert abs(v - 0.75) <= 1e-9

    def test_no_violation_sentinel(self):
        assert critical_visibility(maximally_mixed(), maximally_mixed(), 1e-9) is None

    def test_coarse_tolerance_and_step_count(self, monkeypatch):
        calls = {"n": 0}
        original = bellri.criteria.evaluate_ri_criterion

        def counting(t):
            calls["n"] += 1
            return original(t)

        monkeypatch.setattr(bellri.criteria, "evaluate_ri_criterion", counting)
        v = critical_visibility(make_singlet(), maximally_mixed(), 1e-3)
        assert abs(v - 0.75) <= 1e-3
        # two bracket probes plus ceil(log2(1/tol)) = 10 bisection steps
        assert calls["n"] <= 12 + 2

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
        calls = {"n": 0}
        original = bellri.criteria.evaluate_ri_criterion

        def counting(t):
            calls["n"] += 1
            if calls["n"] > 200:
                raise RuntimeError("bisection does not terminate")
            return original(t)

        monkeypatch.setattr(bellri.criteria, "evaluate_ri_criterion", counting)
        t_pure = compute_tensor(make_singlet())
        t_noise = compute_tensor(maximally_mixed())

        def violated_at(v):
            return original(v * t_pure + (1.0 - v) * t_noise).violated

        v = critical_visibility(make_singlet(), maximally_mixed(), 1e-300)
        assert calls["n"] <= 2 + 64
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

    def test_rejects_violation_at_zero(self):
        # a state violating at v=0 breaks the bracketing precondition
        rng_free = make_singlet()
        with pytest.raises(DomainError, match="zero visibility"):
            critical_visibility(maximally_mixed(), rng_free, 1e-6)


class TestInnerProductEe:
    def test_full_visibility_value(self):
        got = inner_product_ee(werner_tensor(1.0), QuadratureSpec(8, 16))
        expected = (4.0 * math.pi / 3.0) ** 2 * 3.0  # 52.6379...
        assert abs(got - expected) <= 1e-8 * expected
        assert abs(expected - 52.63789013914324) <= 1e-10

    def test_zero_tensor(self):
        assert inner_product_ee(np.zeros((3, 3)), QuadratureSpec(8, 16)) == 0.0

    def test_exactness_plateau(self):
        t = random_tensor(np.random.default_rng(21))
        a = inner_product_ee(t, QuadratureSpec(8, 16))
        b = inner_product_ee(t, QuadratureSpec(16, 32))
        assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_frobenius_identity(self, seed):
        t = random_tensor(np.random.default_rng(seed))
        got = inner_product_ee(t, QuadratureSpec(8, 16))
        expected = (4.0 * math.pi / 3.0) ** 2 * frobenius_sum(t)
        assert abs(got - expected) <= 1e-8 * abs(expected)

    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(3, 16)
        with pytest.raises(DomainError):
            QuadratureSpec(8, 7)


class TestRiBoundCheck:
    def test_violated_above_threshold(self):
        rep = ri_bound_check(werner_tensor(0.8), QuadratureSpec(8, 16))
        # arithmetic oracle: (16 pi^2 / 9) * 3 * 0.64 vs (2 pi)^2 * 0.8
        lhs_expected = (4.0 * math.pi / 3.0) ** 2 * 1.92
        rhs_expected = (2.0 * math.pi) ** 2 * 0.8
        assert abs(rep.lhs - lhs_expected) <= 1e-6
        assert abs(rep.rhs - rhs_expected) <= 1e-6
        assert not rep.satisfied
        assert rep.margin > 0

    def test_satisfied_below_threshold(self):
        rep = ri_bound_check(werner_tensor(0.5), QuadratureSpec(8, 16))
        assert rep.satisfied

    def test_zero_tensor(self):
        rep = ri_bound_check(np.zeros((3, 3)), QuadratureSpec(8, 16))
        assert rep.satisfied and rep.margin == 0.0

    def test_equivalent_to_algebraic_criterion(self):
        # both encode the same bound; verdicts must agree away from the slack band
        q = QuadratureSpec(8, 16)
        for seed in range(20):
            t = random_tensor(np.random.default_rng(seed))
            alg = evaluate_ri_criterion(t)
            quad = ri_bound_check(t, q)
            if abs(alg.margin) > 1e-6:
                assert alg.violated == (not quad.satisfied)
