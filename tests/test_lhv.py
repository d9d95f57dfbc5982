import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    exact_correlations,
    model_correlation,
    piecewise_correlation,
    random_rotation,
    sample,
)

import bellri
from bellri import (
    DomainError,
    build_model,
    chsh_complete_set,
    compute_tensor,
    consistency_verdict,
    estimate_correlation,
    evaluate_ri_criterion,
    make_werner,
    mc_report,
    verdict_sweep,
)
from bellri.lhv import CONSISTENT, RI_VIOLATED, _axis_streams

AXES = np.eye(3)
AXIS_PAIRS = list(itertools.product((1, 2, 3), repeat=2))


def reference_estimate(model, i, j, n, seed):
    """(mean, std_error) from the full arrays of +-1 outcomes and their products."""
    streams = _axis_streams(seed)
    a_i = streams[i - 1].integers(0, 2, size=n) * 2 - 1
    flips = np.where(streams[3 + (j - 1)].random(n) < model.flip_probability, -1, 1)
    a_j = a_i if i == j else streams[j - 1].integers(0, 2, size=n) * 2 - 1
    products = a_i * (a_j * flips)
    return float(products.mean()), float(products.std(ddof=1) / math.sqrt(n))


class TestBuildModel:
    def test_flip_probability(self):
        assert build_model(0.6).flip_probability == 0.8

    def test_uncorrelated_at_zero(self):
        model = build_model(0.0)
        assert model.flip_probability == 0.5
        assert np.max(np.abs(exact_correlations(model))) == 0.0

    def test_deterministic_at_one(self):
        model = build_model(1.0)
        assert model.flip_probability == 1.0
        assert np.array_equal(exact_correlations(model), -np.eye(3))

    def test_rejects_bad_visibility(self):
        with pytest.raises(DomainError):
            build_model(1.5)

    def test_rejects_bad_frame(self):
        with pytest.raises(DomainError):
            build_model(0.5, np.eye(3) * 2.0)

    def test_exact_correlations_match_probability_algebra(self):
        # independent oracle in exact arithmetic: matched-axis correlation is
        # (+1)(1-p) + (-1)p with p = (1+v)/2, which telescopes to -v
        for v in [0.0, 0.3, 0.6, 0.75, 1.0]:
            p = (1 + Fraction(v)) / 2
            matched = (1 - p) - p
            assert matched == -Fraction(v)
            got = exact_correlations(build_model(v))
            assert np.array_equal(got, np.diag([float(-Fraction(v))] * 3))


class TestSample:
    def test_entries_are_signs(self):
        s = sample(build_model(0.5), 3)
        assert all(x in (-1, 1) for x in s.a + s.b)

    def test_full_visibility_anticorrelates(self):
        for seed in range(20):
            s = sample(build_model(1.0), seed)
            assert s.b == tuple(-x for x in s.a)

    def test_deterministic(self):
        model = build_model(0.4)
        assert sample(model, 11) == sample(model, 11)

    def test_seeds_vary(self):
        model = build_model(0.4)
        draws = {sample(model, seed) for seed in range(40)}
        assert len(draws) > 1


class TestEstimateCorrelation:
    def test_matched_axis(self):
        model = build_model(0.75)
        est = estimate_correlation(model, 1, 1, 10**6, seed=0)
        oracle_se = math.sqrt((1.0 - 0.75**2) / 10**6)  # binomial variance oracle
        assert abs(oracle_se - 6.614e-4) <= 1e-6
        assert abs(est.std_error - oracle_se) <= 0.05 * oracle_se
        assert abs(est.mean + 0.75) <= 5.0 * est.std_error

    def test_mismatched_axis(self):
        model = build_model(0.75)
        est = estimate_correlation(model, 1, 2, 10**6, seed=0)
        oracle_se = math.sqrt(1.0 / 10**6)  # products are fair +-1 coins
        assert abs(est.std_error - oracle_se) <= 0.05 * oracle_se
        assert abs(est.mean) <= 5.0 * est.std_error

    def test_deterministic_mean_at_full_visibility(self):
        est = estimate_correlation(build_model(1.0), 2, 2, 2000, seed=5)
        assert est.mean == -1.0
        assert est.std_error == 0.0

    def test_reproducible(self):
        model = build_model(0.3)
        a = estimate_correlation(model, 2, 3, 5000, seed=9)
        b = estimate_correlation(model, 2, 3, 5000, seed=9)
        assert a == b

    def test_rejects_small_n(self):
        with pytest.raises(DomainError, match="1000"):
            estimate_correlation(build_model(0.5), 1, 1, 999, seed=0)

    @pytest.mark.parametrize("seed", [-1, -5, 2.5, float("nan")])
    def test_rejects_negative_or_fractional_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be"):
            estimate_correlation(build_model(0.5), 1, 1, 2000, seed=seed)

    def test_rejects_bad_axis(self):
        with pytest.raises(DomainError, match="axis"):
            estimate_correlation(build_model(0.5), 0, 1, 2000, seed=0)

    @pytest.mark.parametrize("arg", ["i", "j", "n"])
    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
    def test_rejects_non_integral_count(self, arg, bad):
        args = {"i": 1, "j": 2, "n": 2000}
        args[arg] = 1000 + bad if arg == "n" else bad
        with pytest.raises(DomainError, match=f"{arg} must be a"):
            estimate_correlation(build_model(0.5), seed=0, **args)

    def test_accepts_integral_counts_of_any_type(self):
        model = build_model(0.5)
        want = estimate_correlation(model, 2, 3, 2000, seed=4)
        assert estimate_correlation(model, 2.0, np.int64(3), 2000.0, seed=4) == want
        assert estimate_correlation(model, np.int32(2), 3.0, np.int64(2000), seed=4) == want

    @settings(max_examples=60, deadline=None)
    @given(
        v=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        pair=st.sampled_from(AXIS_PAIRS),
        n=st.integers(1000, 200000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_full_array_reference(self, v, pair, n, seed):
        model = build_model(v)
        est = estimate_correlation(model, *pair, n, seed)
        assert (est.mean, est.std_error) == reference_estimate(model, *pair, n, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("pair", AXIS_PAIRS)
    def test_bit_identical_to_reference_at_a_million(self, pair, seed):
        model = build_model(0.75)
        est = estimate_correlation(model, *pair, 10**6, seed)
        assert (est.mean, est.std_error) == reference_estimate(model, *pair, 10**6, seed)

    @pytest.mark.parametrize("pair", [(1, 1), (2, 3)])
    def test_peak_memory_per_sample(self, pair):
        # one boolean sign array plus one float64 array of squared deviations,
        # about 10 bytes per sample; int64 outcome arrays would take 8 each
        n = 200000
        model = build_model(0.75)
        tracemalloc.start()
        try:
            estimate_correlation(model, *pair, n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n

    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_error_scales_as_root_n(self, n):
        # 1/sqrt(n) convergence within a factor of 5 across 20 seeds
        model = build_model(0.75)
        matched_se = math.sqrt((1.0 - 0.75**2) / n)
        mismatched_se = math.sqrt(1.0 / n)
        matched_hits = sum(
            abs(estimate_correlation(model, 1, 1, n, seed).mean + 0.75) <= 5.0 * matched_se
            for seed in range(20)
        )
        mismatched_hits = sum(
            abs(estimate_correlation(model, 1, 2, n, seed).mean) <= 5.0 * mismatched_se
            for seed in range(20)
        )
        assert matched_hits >= 19
        assert mismatched_hits >= 19


class TestMcReport:
    def test_payload_fields(self):
        model = build_model(0.75)
        est = estimate_correlation(model, 1, 2, 2000, seed=1)
        payload = mc_report(model, 1, 2, est)
        assert set(payload) == {"v", "i", "j", "n", "mean", "std_error", "target", "pass"}
        assert payload["target"] == 0.0
        assert payload["n"] == 2000

    def test_zero_error_requires_exact_match(self):
        model = build_model(1.0)
        est = estimate_correlation(model, 3, 3, 2000, seed=1)
        payload = mc_report(model, 3, 3, est)
        assert payload["std_error"] == 0.0 and payload["pass"] is True


class TestModelCorrelation:
    @pytest.mark.parametrize("seed", range(5))
    def test_frame_transport(self, seed):
        # a model rotated by (R, R) pins down -v along each rotated axis pair
        r = random_rotation(seed)
        model = build_model(0.8, r, r)
        for k in range(3):
            assert model_correlation(model, r @ AXES[k], r @ AXES[k]) == -0.8
        assert model_correlation(model, r @ AXES[0], r @ AXES[1]) == 0.0

    def test_off_axis_pairs_are_unconstrained(self):
        model = build_model(0.8)
        diag = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        assert model_correlation(model, diag, diag) is None

    def test_identity_frame_axes(self):
        model = build_model(0.25)
        assert model_correlation(model, AXES[2], AXES[2]) == -0.25
        assert model_correlation(model, AXES[0], AXES[2]) == 0.0


class TestPiecewiseCorrelation:
    def test_equal_directions(self):
        n = np.array([0.0, 0.6, 0.8])
        assert piecewise_correlation(0.8, n, n) == -0.8

    def test_orthogonal_directions(self):
        assert piecewise_correlation(0.8, AXES[0], AXES[1]) == 0.0

    def test_oblique_directions_undefined(self):
        n2 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        assert piecewise_correlation(0.8, AXES[0], n2) is None

    def test_matches_quantum_correlations_where_defined(self):
        rng = np.random.default_rng(6)
        for v in [0.2, 0.9]:
            rho = make_werner(v)
            t = compute_tensor(rho)
            for _ in range(5):
                raw = rng.standard_normal(3)
                n = raw / np.linalg.norm(raw)
                assert abs(piecewise_correlation(v, n, n) - float(n @ t @ n)) <= 1e-12


class TestChshCompliance:
    @pytest.mark.parametrize("v", np.linspace(0.0, 1.0, 11).tolist())
    @pytest.mark.parametrize("plane", [(1, 2), (2, 3), (1, 3)])
    def test_model_correlations_never_violate(self, v, plane):
        rep = chsh_complete_set(exact_correlations(build_model(v)), plane)
        assert rep.satisfied


class TestConsistencyVerdict:
    def test_just_above_threshold(self):
        ver = consistency_verdict(0.76)
        assert not ver.consistent
        assert ver.explanation_code == RI_VIOLATED

    def test_just_below_threshold(self):
        ver = consistency_verdict(0.74)
        assert ver.consistent
        assert ver.explanation_code == CONSISTENT

    def test_zero_visibility(self):
        ver = consistency_verdict(0.0)
        assert ver.consistent and ver.criterion_margin == 0.0

    def test_strictly_negative_margin_inside_interval(self):
        assert consistency_verdict(0.5).criterion_margin < 0.0

    def test_equivalent_to_criterion_across_sweep(self):
        for v in np.linspace(0.0, 1.0, 101):
            ver = consistency_verdict(v)
            rep = evaluate_ri_criterion(compute_tensor(make_werner(v)))
            assert ver.consistent == (not rep.violated)
            assert ver.criterion_margin == rep.margin


def assert_matches_per_point(verdicts):
    for ver in verdicts:
        one = consistency_verdict(ver.v)
        rep = evaluate_ri_criterion(compute_tensor(make_werner(ver.v)))
        assert ver == one
        assert ver.criterion_margin == rep.margin
        assert np.signbit(ver.criterion_margin) == np.signbit(rep.margin)
        assert ver.consistent == (not rep.violated)


class TestVerdictSweep:
    @pytest.mark.parametrize("steps", [101, 1001, 1005, 1009, 10001])
    def test_batch_bit_identical_to_per_point(self, steps):
        verdicts = verdict_sweep(0.0, 1.0, steps)
        assert [v.v for v in verdicts] == np.linspace(0.0, 1.0, steps).tolist()
        assert_matches_per_point(verdicts)

    @settings(max_examples=40, deadline=None)
    @given(
        ends=st.tuples(
            st.floats(0.0, 1.0, allow_subnormal=False),
            st.floats(0.0, 1.0, allow_subnormal=False),
        ).map(sorted),
        steps=st.integers(1, 300),
    )
    def test_batch_bit_identical_on_random_ranges(self, ends, steps):
        verdicts = verdict_sweep(ends[0], ends[1], steps)
        assert len(verdicts) == steps and verdicts[0].v == ends[0]
        assert_matches_per_point(verdicts)

    def test_validates_each_endpoint_once(self, monkeypatch):
        calls = {"n": 0}
        original = bellri.states.validate_density_matrix

        def counting(rho):
            calls["n"] += 1
            return original(rho)

        for module in (bellri, bellri.states, bellri.tensor, bellri.lhv):
            monkeypatch.setattr(module, "validate_density_matrix", counting)
        assert len(verdict_sweep(0.0, 1.0, 10001)) == 10001
        assert calls["n"] == 2

    def test_all_consistent_below_half(self):
        assert all(v.consistent for v in verdict_sweep(0.0, 0.5, 26))

    def test_rejects_inverted_range(self):
        with pytest.raises(DomainError):
            verdict_sweep(0.8, 0.2, 5)

    def test_rejects_zero_steps(self):
        with pytest.raises(DomainError):
            verdict_sweep(0.0, 1.0, 0)

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
    def test_rejects_non_integral_steps(self, bad):
        with pytest.raises(DomainError, match="steps must be a"):
            verdict_sweep(0.0, 1.0, bad)

    def test_accepts_integral_steps_of_any_type(self):
        want = verdict_sweep(0.0, 1.0, 3)
        assert verdict_sweep(0.0, 1.0, 3.0) == want
        assert verdict_sweep(0.0, 1.0, np.int64(3)) == want

    def test_single_step(self):
        out = verdict_sweep(0.3, 0.9, 1)
        assert len(out) == 1 and out[0].v == 0.3
