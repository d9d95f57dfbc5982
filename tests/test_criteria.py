import json
import math

import numpy as np
import pytest
from conftest import count_eigvalsh, random_density_matrix, random_tensor, random_unit_vector
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st
from reference import (
    SINGLET_THRESHOLDS,
    bell_diagonal,
    bisect_one_point,
    chsh_by_signed_sums,
    correlation_value,
    criterion_holds_exactly,
    frobenius_sum,
    random_rotation_pair,
    rising_root,
    schmidt_state,
    schmidt_threshold,
    sphere_integral,
    werner_model_correlation,
)

import bellri.criteria
from bellri import (
    CriterionReport,
    DomainError,
    chsh_complete_set,
    compute_tensor,
    critical_visibility,
    evaluate_ri_criterion,
    inner_product_ee,
    make_singlet,
    make_werner,
    matrix_to_json,
    maximally_mixed,
    ri_bound_check,
    rotate_tensor,
    tensor_max_svd,
    verdict_sweep,
)
from bellri.cli import main
from bellri.criteria import (
    COMPARISON_THRESHOLDS,
    CRITERION_FACTOR,
    EQUALITY_SLACK,
    PRIOR_TWO_SETTING_THRESHOLD,
    VISIBILITY_THRESHOLD,
    _criterion,
    _crossing,
)


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
        lhs, rhs, holds = bellri.criteria._criterion(stack)
        for k, t in enumerate(stack):
            rep = evaluate_ri_criterion(t)
            assert (rep.lhs, rep.rhs, rep.violated) == (lhs[k], rhs[k], not holds[k])

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


def exact_disagreements(stack, near):
    """Indices where a float verdict differs from the exact one and ``|lhs - (rhs + s)| > near``.

    The float verdicts are the stacked flag, the algebraic report's and the functional one's;
    a negative ``near`` checks every tensor.
    """
    lhs, rhs, holds = _criterion(stack)
    far = np.abs(lhs - (rhs + EQUALITY_SLACK)) > near
    return [
        k for k, t in enumerate(stack) if far[k]
        and (bool(holds[k]), not evaluate_ri_criterion(t).violated, ri_bound_check(t).satisfied)
        != (criterion_holds_exactly(t),) * 3
    ]


class TestExactVerdict:
    def test_random_tensors_away_from_the_boundary(self):
        stack = np.random.default_rng(34).uniform(-1.0, 1.0, (300, 3, 3))
        assert exact_disagreements(stack, 1e-9) == []

    def test_werner_tensors_at_the_boundary(self):
        # margin 3v^2 - 2.25v rises through the slack at v = 0.75 + 1e-12 / 2.25 with slope 2.25,
        # so the 1e-14 grid steps move it by ~2e-14, far above its ~1e-16 rounding
        v = np.linspace(0.75 - 2e-12, 0.75 + 2e-12, 401)
        stack = -v[:, None, None] * np.eye(3)
        assert exact_disagreements(stack, -1.0) == []
        assert 0 < _criterion(stack)[2].sum() < len(stack)


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

    def test_optimal_settings_violate_where_the_criterion_holds(self):
        # x and z against (x +- z)/sqrt(2) reach Horodecki's maximum 2 sqrt(s1^2 + s2^2)
        # (Phys. Lett. A 200, 340 (1995)), 2 sqrt(2) V: above 2 from V = 1/sqrt(2), below 3/4 too
        rho = make_werner(0.72)
        x, z = np.eye(3)[0], np.eye(3)[2]
        b, b2 = (x + z) / math.sqrt(2.0), (x - z) / math.sqrt(2.0)
        e = [correlation_value(rho, n1, n2) for n1, n2 in ((x, b), (x, b2), (z, b), (z, b2))]
        chsh = abs(e[0] + e[1] + e[2] - e[3])
        s = np.linalg.svd(compute_tensor(rho), compute_uv=False)
        assert abs(chsh - 2.0 * math.hypot(s[0], s[1])) <= 1e-9
        assert abs(chsh - 2.0365) <= 5e-5 and chsh > 2.0
        assert not evaluate_ri_criterion(compute_tensor(rho)).violated

    @seed(2007)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_a_criterion_violation_implies_a_chsh_violation(self, rng_seed, from_state):
        # S = sum s_i^2 > 2.25 s1 needs s1 > 3/4 (S <= 3 s1^2); were s1^2 + s2^2 <= 1, then
        # S <= 2 - s1^2, below 2.25 s1 for s1 above ~0.682. So CHSH at optimal settings,
        # 2 sqrt(s1^2 + s2^2) (Horodecki), exceeds 2 wherever the criterion is violated
        rng = np.random.default_rng(rng_seed)
        t = compute_tensor(random_mixed(rng)) if from_state else random_tensor(rng)
        if evaluate_ri_criterion(t).violated:
            s = np.linalg.svd(t, compute_uv=False)
            assert s[0] ** 2 + s[1] ** 2 > 1.0

    def test_bell_diagonal_tetrahedron_fractions(self):
        # Bell-diagonal states (reference.bell_diagonal) have tensor diag(c) with c in the
        # tetrahedron 1 - c1 - c2 - c3 >= 0, 1 + c1 + c2 + c3 - 2 c_i >= 0. The centres of a 1/50
        # lattice on [-1, 1]^3 are c = m / 100 with odd m, so no centre lies on a face or on an
        # entanglement or CHSH boundary, which are decided exactly on the integers m
        m = np.stack(np.meshgrid(*[np.arange(-99, 100, 2)] * 3, indexing="ij"), -1).reshape(-1, 3)
        total = m.sum(axis=1)
        m = m[(total < 100) & (total[:, None] - 2 * m > -100).all(axis=1)]
        assert len(m) == 333_400
        entangled = np.abs(m).sum(axis=1) > 100
        squares = np.sort(m * m, axis=1)
        chsh = squares[:, 1] + squares[:, 2] > 100**2
        t = np.zeros((len(m), 3, 3))
        t[:, range(3), range(3)] = m / 100
        criterion = ~_criterion(t)[2]
        # the separable octahedron holds exactly half the tetrahedron's volume
        assert abs(entangled.mean() - 0.5) <= 0.002
        assert abs(entangled.mean() - 0.5003) <= 0.002
        assert abs(chsh.mean() - 0.0872) <= 0.002
        assert abs(criterion.mean() - 0.0117) <= 0.002
        assert not (criterion & ~chsh).any()

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
        planes = [(1.0, 3.0), (np.int64(1), np.float64(3)), (np.int64(1), 3.0), ("1", "3"), "13",
                  [1, 3], range(1, 4, 2), np.array([1, 3])]
        for plane in planes:
            assert chsh_complete_set(t, plane) == expected
        assert chsh_complete_set(t, (True, 2)) == chsh_complete_set(t, (1, 2))

    def test_complex_axes_are_rejected_though_the_pair_equals_a_plane(self):
        # (1+0j, 2) hashes and compares equal to (1, 2): a lookup keyed on the
        # plane itself would accept it
        assert (1 + 0j, 2) == (1, 2) and hash((1 + 0j, 2)) == hash((1, 2))
        with pytest.raises(DomainError, match="plane axis must be a whole number"):
            chsh_complete_set(np.zeros((3, 3)), (1 + 0j, 2))

    @pytest.mark.parametrize(
        "plane",
        [(1, 2, 3), "123", "1", {2, 1}, {1: 0, 3: 0}, frozenset({2, 3}), iter((1, 2))],
    )
    def test_a_plane_that_is_not_a_pair_says_so(self, plane):
        # a set, a dict or an iterator has no order the caller chose, so it is no pair
        with pytest.raises(DomainError, match="plane must be a pair of axes"):
            chsh_complete_set(np.zeros((3, 3)), plane)


class TestReportRecords:
    """The three reports are named tuples: immutable, field by field, iterable."""

    REPORTS = {
        "criterion": (
            evaluate_ri_criterion,
            ["lhs", "rhs", "violated", "margin", "comparison_thresholds"],
        ),
        "chsh": (
            lambda t: chsh_complete_set(t, (1, 3)),
            ["plane", "values", "bound", "max_value", "satisfied"],
        ),
        "bound": (ri_bound_check, ["lhs", "rhs", "satisfied", "margin"]),
    }

    @pytest.mark.parametrize("name", REPORTS)
    def test_asdict_keys_in_field_order(self, name):
        make, keys = self.REPORTS[name]
        rep = make(werner_tensor(0.9))
        assert list(rep._asdict()) == keys
        assert tuple(rep) == tuple(rep._asdict().values())

    @pytest.mark.parametrize("name", REPORTS)
    def test_fields_cannot_be_assigned(self, name):
        make, keys = self.REPORTS[name]
        rep = make(werner_tensor(0.9))
        with pytest.raises(AttributeError):
            setattr(rep, keys[0], 0.0)

    def test_criterion_report_keeps_its_default_thresholds(self):
        assert evaluate_ri_criterion(werner_tensor(0.9)).comparison_thresholds == (
            COMPARISON_THRESHOLDS
        )
        assert CriterionReport(1.0, 2.0, False, -1.0).comparison_thresholds == (
            COMPARISON_THRESHOLDS
        )


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
        # the midpoints of the one-point walk, in the order it visits them
        t_singlet = compute_tensor(make_singlet())
        lo, hi, walk = 0.0, 1.0, []
        while hi - lo > 1e-3:
            walk.append(0.5 * (lo + hi))
            if evaluate_ri_criterion(walk[-1] * t_singlet).violated:
                hi = walk[-1]
            else:
                lo = walk[-1]
        stacks = []
        original = bellri.criteria._criterion

        def recording(t):
            stacks.append((-t[:, 0, 0]).tolist())  # v * T_singlet + (1 - v) * 0 = -v * I
            return original(t)

        monkeypatch.setattr(bellri.criteria, "_criterion", recording)
        v = critical_visibility(make_singlet(), maximally_mixed(), 1e-3)
        assert abs(v - 0.75) <= 1e-3
        assert stacks[0] == [j / 16 for j in range(17)]
        # each later stack starts at the first midpoint of the walk not yet judged
        for k, stack in enumerate(stacks[1:], 1):
            judged = set().union(*stacks[:k])
            assert stack[0] == next(m for m in walk if m not in judged)
        assert len(stacks) <= 2

    def test_validates_each_endpoint_once(self, monkeypatch):
        calls = {"n": 0}
        original = bellri.tensor.validate_density_matrix

        def counting(rho):
            calls["n"] += 1
            return original(rho)

        monkeypatch.setattr(bellri.tensor, "validate_density_matrix", counting)
        critical_visibility(make_singlet(), maximally_mixed(), 1e-9)
        assert calls["n"] == 2

    def test_coarse_tolerance_returns_the_grid_bracket_midpoint(self, monkeypatch):
        # 3/4 is satisfied and 13/16 violated, so the walk starts and stops at [12/16, 13/16]
        stacks = count_criterion_stacks(monkeypatch)
        assert critical_visibility(make_singlet(), maximally_mixed(), 0.3) == 0.78125
        assert stacks == [17]

    @pytest.mark.parametrize("pair", ["singlet-white", "F"])
    def test_finest_tolerance_straddles_the_crossing(self, monkeypatch, pair):
        pure, noise = {"singlet-white": (make_singlet(), maximally_mixed()), "F": (F_PURE, F_NOISE)}[pair]
        stacks = count_criterion_stacks(monkeypatch, limit=16)
        t_pure, t_noise = compute_tensor(pure), compute_tensor(noise)

        def violated_at(v):
            return evaluate_ri_criterion(v * t_pure + (1.0 - v) * t_noise).violated

        tol = 2.0**-52
        v = critical_visibility(pure, noise, tol)
        # the walk halves a 1/16 bracket down to width 2^-52, so v is the midpoint of a
        # bracket [v - tol/2, v + tol/2] whose ends read satisfied and violated
        assert not violated_at(v - tol / 2)
        assert violated_at(v + tol / 2)
        # 48 halvings from 1/16 reach 2^-52, and a stack holds at most one walk's midpoints
        assert stacks[0] == 17 and max(stacks) <= 48

    @pytest.mark.parametrize("tol", [2.0**-53, 1e-300, 5e-324, 0.0, -1.0, math.inf, math.nan])
    def test_rejects_tolerance_below_machine_epsilon_or_not_finite(self, tol):
        with pytest.raises(DomainError, match=r"^tolerance must be at least 2\^-52 and finite, got "):
            critical_visibility(make_singlet(), maximally_mixed(), tol)

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


# both endpoints satisfy the criterion, and the segment between them violates it
# only on about (0.3160, 0.3829), where j/16 = 0.375 lies
F_C_PURE, F_C_NOISE = np.array((0.587, 0.587, -1.0)), np.array((1.0, 0.762, -0.762))
F_PURE, F_NOISE = bell_diagonal(F_C_PURE), bell_diagonal(F_C_NOISE)


def endpoint_pairs():
    """Seeded (pure, noise) pairs whose bisections end in a float, None or a DomainError."""
    rng = np.random.default_rng(2007)
    pairs = [(random_pure(rng), random_mixed(rng)) for _ in range(40)]
    pairs += [(make_singlet(), random_mixed(rng)) for _ in range(20)]
    pairs += [(random_mixed(rng), random_mixed(rng)) for _ in range(20)]
    kets = [np.outer(e, e) for e in np.eye(4)[:2]]
    pairs += [(make_singlet(), noise) for noise in [maximally_mixed(), *kets]]
    return pairs + [(F_PURE, F_NOISE)]


# the corners of the Bell-diagonal states' tetrahedron of tensor diagonals
TETRAHEDRON = np.array([(-1.0, -1.0, -1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)])


def drawn_endpoints():
    """Random pure states, random mixed states and Bell-diagonal points of the tetrahedron."""
    rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)
    weights = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.0)
    return st.one_of(
        rngs.map(random_pure),
        rngs.map(random_mixed),
        weights.map(lambda w: bell_diagonal(np.array(w) @ TETRAHEDRON / sum(w))),
    )


def outcome(bisect, pure, noise, tol):
    try:
        return bisect(pure, noise, tol)
    except DomainError as exc:
        return str(exc)


class TestBisectionMatchesTheOnePointOracle:
    PAIRS = endpoint_pairs()

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 1e-3, 0.3, 2.0**-52])
    def test_same_float_or_same_error(self, monkeypatch, tol):
        wants = [outcome(bisect_one_point, pure, noise, tol) for pure, noise in self.PAIRS]
        # each stacked call advances the walk at least one level and these pairs
        # take at most 5 calls, so 16 means a guess has gone badly wrong
        stacks = count_criterion_stacks(monkeypatch, limit=16)
        kinds = set()
        for (pure, noise), want in zip(self.PAIRS, wants):
            stacks.clear()
            got = outcome(critical_visibility, pure, noise, tol)
            assert type(got) is type(want) and got == want
            kinds.add(type(got))
        # the pairs reach every exit: a threshold, no violation, violated at zero
        assert kinds == {float, type(None), str}

    @seed(2007)
    @settings(max_examples=150, deadline=None)
    @given(drawn_endpoints(), drawn_endpoints(), st.floats(-52.0, -1.0))
    def test_same_outcome_on_drawn_endpoints(self, pure, noise, log2_tol):
        tol = 2.0**log2_tol  # log-uniform on [2^-52, 0.5]
        want = outcome(bisect_one_point, pure, noise, tol)
        with pytest.MonkeyPatch.context() as monkeypatch:
            count_criterion_stacks(monkeypatch, limit=16)
            got = outcome(critical_visibility, pure, noise, tol)
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("tol", [1e-9, 2.0**-52])
    def test_the_lowest_crossing_is_found(self, tmp_path, capsys, tol):
        c, d = F_C_NOISE, F_C_PURE - F_C_NOISE
        # the tensor is diag(c + v d); up to 0.3829 its top entry is c_1 + v d_1 > 0, so the
        # margin is |c + v d|^2 - 2.25 (c_1 + v d_1), a quadratic in v
        root, slope = rising_root(d @ d, 2.0 * c @ d - 2.25 * d[0], c @ c - 2.25 * c[0])
        got = critical_visibility(F_PURE, F_NOISE, tol)
        assert_near_root(got, root, slope, tol)
        assert bisect_one_point(F_PURE, F_NOISE, tol) == got
        specs = []
        for name, rho in [("pure", F_PURE), ("noise", F_NOISE)]:
            (tmp_path / f"{name}.json").write_text(json.dumps(matrix_to_json(rho)))
            specs += [f"--{name}", f"file:{tmp_path / name}.json"]
        code = main(["threshold", *specs, "--tol", repr(tol)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["critical_visibility"] == got


def margins(t_pure, t_noise, vs):
    """``lhs - (rhs + EQUALITY_SLACK)`` at each visibility: > 0 exactly where violated."""
    v = np.array(vs)[:, None, None]
    lhs, rhs, _ = _criterion(v * t_pure + (1.0 - v) * t_noise)
    return (lhs - (rhs + EQUALITY_SLACK)).tolist()


class TestCrossingGuess:
    def test_a_zero_margin_at_lo_is_the_guess(self):
        # b = 1e-30 / 2^-40 - 36 * 2^-40 < 0, so b + sqrt(b^2 - 4 curve g_lo) is exactly 0
        lo = 0.5
        est = _crossing(lo, lo + 2.0**-40, 0.0, 1e-30, 36.0)
        assert type(est) is float and est == lo

    @seed(2007)
    # about one drawn pair in seven violates on the grid, so most draws are filtered out
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(drawn_endpoints(), drawn_endpoints())
    def test_the_guess_lies_in_its_grid_bracket_at_a_margin_not_below_zero(self, pure, noise):
        t_pure, t_noise = compute_tensor(pure), compute_tensor(noise)
        grid = margins(t_pure, t_noise, [j / 16 for j in range(17)])
        if grid[0] > 0:  # walk the segment from its other end, which has the same grid
            t_pure, t_noise, grid = t_noise, t_pure, grid[::-1]
        j = next((j for j in range(1, 17) if grid[j] > 0), None)
        assume(grid[0] <= 0 and j is not None)
        lo, hi = (j - 1) / 16, j / 16
        # sum T^2 along the segment has the v^2 coefficient |T_pure - T_noise|^2, and the
        # convex T_max keeps the margin on or above the parabola through the bracket's ends
        est = _crossing(lo, hi, grid[j - 1], grid[j], frobenius_sum(t_pure - t_noise))
        assert lo <= est <= hi
        # in exact arithmetic the margin there is >= 0; rounding of sums near 3 moves it by ulps
        assert margins(t_pure, t_noise, [est])[0] >= -1e-14

    def test_states_against_white_noise_take_two_stacked_calls(self, monkeypatch):
        # T_max = v s1 is linear, so the margin is the guess's parabola and its root the crossing
        rng = np.random.default_rng(32)
        stacks = count_criterion_stacks(monkeypatch)
        violating = 0
        for draw in [random_pure, random_mixed] * 200:
            stacks.clear()
            if critical_visibility(draw(rng), maximally_mixed(), 1e-12) is not None:
                violating += 1
                assert len(stacks) <= 2
        assert violating >= 40


def assert_near_root(v, root, slope, tol):
    # the float criterion starts to violate EQUALITY_SLACK / slope above the exact root
    assert abs(v - (root + EQUALITY_SLACK / slope)) <= tol + 1e-15


KETS = {"white": maximally_mixed(), "ket00": np.diag([1.0, 0, 0, 0]), "ket01": np.diag([0, 1.0, 0, 0])}


class TestClosedFormThresholds:
    @pytest.mark.parametrize("noise", SINGLET_THRESHOLDS)
    def test_singlet_against_three_noises(self, monkeypatch, noise):
        stacks = count_criterion_stacks(monkeypatch)
        v = critical_visibility(make_singlet(), KETS[noise], 1e-12)
        assert_near_root(v, *SINGLET_THRESHOLDS[noise], 1e-12)
        # the margin is quadratic in v, so _crossing's parabola lands on the crossing at once
        assert len(stacks) <= 2

    @pytest.mark.parametrize(
        "noise, printed", [("white", 0.7500000004656613), ("ket00", 0.8442536392249167)]
    )
    def test_pinned_cli_outputs_lie_within_their_tolerance(self, noise, printed):
        # the two threshold values that tests/test_cli_pinned.py pins, both at tol 1e-9
        assert_near_root(printed, *SINGLET_THRESHOLDS[noise], 1e-9)

    @pytest.mark.parametrize("conc", [1.0, 0.95, 0.9, 0.85, 0.8, math.sqrt(5 / 8) + 1e-3])
    def test_pure_states_against_white_noise(self, conc):
        v = critical_visibility(schmidt_state(conc), maximally_mixed(), 1e-12)
        assert_near_root(v, *schmidt_threshold(conc), 1e-12)

    @pytest.mark.parametrize("conc", [math.sqrt(5 / 8) - 1e-3, 0.5])
    def test_pure_states_with_c_squared_at_most_five_eighths_never_violate(self, conc):
        assert schmidt_threshold(conc) is None
        assert critical_visibility(schmidt_state(conc), maximally_mixed(), 1e-12) is None


class TestWernerLocalModel:
    """Werner's model reproduces the noisy singlet at visibility 1/2 for every pair of directions."""

    def test_correlation_is_minus_half_the_cosine(self):
        rng = np.random.default_rng(1989)
        for _ in range(5):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            assert abs(werner_model_correlation(a, b, 4) + 0.5 * float(a @ b)) <= 1e-12

    def test_its_tensor_is_the_half_visibility_singlet_and_satisfies_the_criterion(self):
        axes = np.eye(3)
        t = np.array([[werner_model_correlation(x, y, 4) for y in axes] for x in axes])
        assert np.abs(t - werner_tensor(0.5)).max() <= 1e-12  # -I/2
        # a rotationally invariant local model exists, so its tensor must satisfy the criterion
        report = evaluate_ri_criterion(t)
        assert not report.violated and abs(report.margin + 0.375) <= 1e-12  # 3/4 - 2.25/2


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
        for size in (len(stack), 17, *range(1, 65)):
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


def sphere_rule(x, n):
    """Nodes and weights of a product rule over the unit sphere with its pole at ``x``.

    Gauss-Legendre in ``n . x`` on each hemisphere, so the kink of ``|n . x|`` or
    ``sign(n . x)`` at the equator is a node boundary, and the trapezoidal rule in the
    azimuth about ``x``.
    """
    x = x / np.linalg.norm(x)
    e1 = np.cross(x, np.eye(3)[np.argmin(np.abs(x))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(x, e1)
    g, w = np.polynomial.legendre.leggauss(n)
    u = np.concatenate([(g - 1.0) / 2.0, (g + 1.0) / 2.0])
    phi = np.arange(2 * n) * (math.pi / n)
    ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    dirs = u[:, None, None] * x + np.sqrt(1.0 - u * u)[:, None, None] * ring
    weights = np.repeat(np.concatenate([w, w]) / 2.0, 2 * n) * (math.pi / n)
    return dirs.reshape(-1, 3), weights


def sphere_abs_projection(x, n):
    """``int |n . x| dOmega`` over the unit sphere, by ``sphere_rule`` with its pole at ``x``."""
    dirs, weights = sphere_rule(x, n)
    return float(weights @ np.abs(dirs @ (x / np.linalg.norm(x))))


def sign_witness_pairing(t, x, y):
    """``int int sign(n . x) sign(m . y) n . T m dOmega_n dOmega_m``, by ``sphere_rule``."""
    n_dirs, n_w = sphere_rule(x, 16)
    m_dirs, m_w = sphere_rule(y, 16)
    a = n_w * np.sign(n_dirs @ x)
    b = m_w * np.sign(m_dirs @ y)
    return float(a @ (n_dirs @ t @ m_dirs.T) @ b)


def circle_abs_projection(a, n):
    """``int |n . x| dphi`` over the unit circle, with ``x`` at angle ``a``.

    Gauss-Legendre on each of the two arcs between the kinks at ``a +- pi/2``.
    """
    g, w = np.polynomial.legendre.leggauss(n)
    x = np.array([math.cos(a), math.sin(a)])
    total = 0.0
    for start in (a - math.pi / 2.0, a + math.pi / 2.0):
        phi = start + (g + 1.0) * (math.pi / 2.0)
        dirs = np.column_stack([np.cos(phi), np.sin(phi)])
        total += (math.pi / 2.0) * float(w @ np.abs(dirs @ x))
    return total


def circle_integral(t, n):
    """``(E, E)`` over two circles of settings in the 1-2 plane, by the trapezoidal rule.

    The integrand is a trigonometric polynomial of degree 2 in each angle, so ``n >= 5``
    nodes make the rule exact.
    """
    phi = np.arange(n) * (2.0 * math.pi / n)
    dirs = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(n)])
    values = dirs @ t @ dirs.T
    return float((values * values).sum()) * (2.0 * math.pi / n) ** 2


def close(got, want):
    return abs(got - want) <= 1e-9 * abs(want)


class TestThresholdsFromOneLhvBound:
    """Both thresholds follow from ``(E_LHV, E_QM) <= (int |n . x| dOmega)^2 * T_max``.

    With ``|A|, |B| <= 1``, the hidden-variable correlation paired with ``E_QM`` is at most
    ``|int A n dOmega| |int B m dOmega| T_max``, and ``|int A n dOmega| <= max_x int |n . x|
    dOmega``. A state with such a model meets the bound with ``E_LHV = E_QM``.
    """

    def test_sphere_gives_the_criterion_factor_and_three_quarters(self):
        rng = np.random.default_rng(26)
        s = sphere_abs_projection(rng.standard_normal(3), 16)
        assert close(s, 2.0 * math.pi)
        t = random_tensor(rng)
        per_unit = sphere_integral(t, 8, 16) / frobenius_sum(t)  # (E, E) per unit of sum T^2
        assert close(per_unit, (4.0 * math.pi / 3.0) ** 2)
        # (E, E) <= s^2 T_max reads sum T^2 <= (s^2 / per_unit) T_max
        factor = s * s / per_unit
        assert close(factor, CRITERION_FACTOR) and CRITERION_FACTOR == 9.0 / 4.0
        # on the noisy singlet sum T^2 = v^2 sum T(1)^2 and T_max = v T_max(1)
        one = werner_tensor(1.0)
        threshold = factor * tensor_max_svd(one) / frobenius_sum(one)
        assert close(threshold, VISIBILITY_THRESHOLD) and VISIBILITY_THRESHOLD == 0.75
        assert close(threshold, critical_visibility(make_singlet(), maximally_mixed(), 1e-12))

    @pytest.mark.parametrize("which", ["random", "werner"])
    def test_sign_witness_at_the_top_singular_pair_attains_the_bound(self, which):
        # A(n) = sign(n . u1) and B(m) = sign(m . v1) at the top singular pair of T
        # pair with E_QM(n, m) = n . T m to (int |n . x| dOmega)^2 T_max: the bound is
        # attained, so no smaller factor holds for every tensor
        rng = np.random.default_rng(28)
        t = random_tensor(rng) if which == "random" else werner_tensor(0.8)
        u, _, vt = np.linalg.svd(t)
        s = sphere_abs_projection(u[:, 0], 16)
        assert close(sign_witness_pairing(t, u[:, 0], vt[0]), s * s * tensor_max_svd(t))
        # a sign witness about two random axes pairs to less
        x, y = random_unit_vector(rng), random_unit_vector(rng)
        assert abs(sign_witness_pairing(t, x, y)) < s * s * tensor_max_svd(t)

    def test_circle_gives_the_prior_two_setting_threshold(self):
        rng = np.random.default_rng(27)
        c = circle_abs_projection(rng.uniform(0.0, 2.0 * math.pi), 16)
        assert close(c, 4.0)
        v = 0.6
        t = werner_tensor(v)
        ee = circle_integral(t, 16)
        assert close(ee, 2.0 * math.pi**2 * v * v)
        # the largest correlation over coplanar settings: T_max of the in-plane block
        plane = t.copy()
        plane[2], plane[:, 2] = 0.0, 0.0
        t_max = tensor_max_svd(plane)
        assert close(t_max, v)
        # at visibility w, (E, E) = ee w^2 / v^2 meets c^2 T_max = c^2 t_max w / v at
        threshold = c * c * t_max * v / ee
        assert close(threshold, PRIOR_TWO_SETTING_THRESHOLD)
        assert close(PRIOR_TWO_SETTING_THRESHOLD, 8.0 / math.pi**2)
