import itertools
import math
import os
import sys
import threading
import time
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
    random_unitary_2x2,
    sample,
)

import bellri
from bellri import (
    ConsistencyVerdict,
    DomainError,
    McEstimate,
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
from bellri.cli import main
from bellri.criteria import _criterion
from bellri.lhv import (
    _BYTE_BITS,
    _CHUNK,
    _LEAF,
    CONSISTENT,
    MAX_SAMPLES,
    MAX_STEPS,
    RI_VIOLATED,
    LhvTwoSettingModel,
    _axis_streams,
    _pairwise,
    sweep_margins,
)
from bellri.states import make_singlet, maximally_mixed
from bellri.tensor import _pauli_expectations, rotate_tensor, rotation_from_unitary

AXES = np.eye(3)
# the two ways to make a model, which must run the same checks
MAKE_MODEL = {
    "build_model": build_model,
    "constructor": lambda v, r1=None, r2=None: LhvTwoSettingModel(v=v, r1=r1, r2=r2),
}
AXIS_PAIRS = list(itertools.product((1, 2, 3), repeat=2))
BIG = 10**39  # a 40-digit count


def rejection_peak(match, fn, *args, **kwargs):
    """tracemalloc peak in bytes while ``fn(*args, **kwargs)`` raises a DomainError matching ``match``."""
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=match):
            fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("make", MAKE_MODEL.values(), ids=MAKE_MODEL.keys())
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, 1.5, -0.1])
    def test_either_path_rejects_visibility_outside_the_unit_interval(self, make, v):
        with pytest.raises(DomainError, match="visibility must be at"):
            make(v)

    @pytest.mark.parametrize("make", MAKE_MODEL.values(), ids=MAKE_MODEL.keys())
    @pytest.mark.parametrize("frame", ["r1", "r2"])
    @pytest.mark.parametrize(
        "bad",
        [np.eye(3) * 2.0, np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan)],
        ids=["scaled", "reflection", "nan"],
    )
    def test_either_path_rejects_a_frame_that_is_not_a_rotation(self, make, frame, bad):
        with pytest.raises(DomainError):
            make(0.5, **{frame: bad})

    @pytest.mark.parametrize("make", MAKE_MODEL.values(), ids=MAKE_MODEL.keys())
    def test_frames_are_read_only_copies(self, make):
        r = random_rotation(4)
        model = make(0.5, r)
        r[0, 0] = 7.0
        assert np.array_equal(model.r1, random_rotation(4))
        for frame in (model.r1, model.r2):
            with pytest.raises(ValueError, match="read-only"):
                frame[0, 0] = 7.0

    def test_both_paths_make_the_same_model(self):
        r = random_rotation(3)
        a = build_model(np.float32(0.5), r)
        b = LhvTwoSettingModel(v=np.float32(0.5), r1=r, r2=None)
        for m in (a, b):
            assert type(m.v) is float and m.v == 0.5
            assert np.array_equal(m.r1, r) and np.array_equal(m.r2, np.eye(3))

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

    @pytest.mark.parametrize("pair", [(1, 4), (7, 7), (1.5, 1.5), ("x", 1), (1, -2)])
    def test_rejects_out_of_range_or_malformed_axis(self, pair):
        with pytest.raises(DomainError, match="axis index"):
            estimate_correlation(build_model(0.5), *pair, 2000, seed=0)

    @pytest.mark.parametrize("arg", ["i", "j", "n"])
    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
    def test_rejects_non_integral_count(self, arg, bad):
        args = {"i": 1, "j": 2, "n": 2000}
        args[arg] = 1000 + bad if arg == "n" else bad
        with pytest.raises(DomainError, match=f"{arg} must be a"):
            estimate_correlation(build_model(0.5), seed=0, **args)

    @pytest.mark.parametrize("n", [MAX_SAMPLES + 1, BIG], ids=["cap+1", "40-digit"])
    @pytest.mark.parametrize("pair", [(1, 1), (2, 3)])
    def test_rejects_count_above_the_cap_before_allocating(self, n, pair):
        match = f"n must be at most {MAX_SAMPLES}, got {n}$"
        peak = rejection_peak(match, estimate_correlation, build_model(0.5), *pair, n, seed=0)
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [MAX_SAMPLES + 1, BIG], ids=["cap+1", "40-digit"])
    def test_cli_rejects_count_above_the_cap(self, capsys, n):
        code = main(["lhv", "--v", "0.5", "--i", "1", "--j", "1", "--n", str(n)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: sample count n must be at most {MAX_SAMPLES}, got {n}\n"

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

    @pytest.mark.parametrize("pair", [(1, 1), (2, 3), (3, 1)])
    @pytest.mark.parametrize(
        "n",
        [_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 7, 3 * _LEAF + 5, 10**6 + 7]
        # two threads' chunks: whole, then a last one of 1, 8 or _LEAF - 1 samples
        + [2 * _LEAF, 2 * _LEAF + 1, 2 * _LEAF + 8, 4 * _LEAF - 1],
    )
    def test_bit_identical_to_reference_at_leaf_boundaries(self, n, pair):
        model = build_model(0.3)
        est = estimate_correlation(model, *pair, n, seed=11)
        assert (est.mean, est.std_error) == reference_estimate(model, *pair, n, 11)

    @pytest.mark.parametrize("n", [129, 1000, _LEAF + 1, 3 * _LEAF + 5, 10**6 + 7])
    def test_leaf_sums_replay_numpys_pairwise_sum(self, n):
        # the estimator's assumption about np.add.reduce: summing the leaves
        # on their own and adding the sums in the tree's order gives the
        # whole array's sum bit for bit
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
        assert _pairwise(0, n, lambda a, b: float(x[a:b].sum())) == float(x.sum())

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("m", [1, 2, 999, 1000, _LEAF + 1])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_raw_word_parity_is_the_coin_parity(self, dtype, m, seed):
        # the estimator's assumption about integers(0, 2): each coin is the top
        # bit of one 32-bit half of the 64-bit stream, low half first
        s1, s2 = _axis_streams(seed)[:2]
        want = s1.integers(0, 2, size=m, dtype=dtype) != s2.integers(0, 2, size=m, dtype=dtype)
        r1, r2 = _axis_streams(seed)[:2]
        words = r1.bit_generator.random_raw((m + 1) // 2) ^ r2.bit_generator.random_raw((m + 1) // 2)
        assert np.array_equal(words.view(np.uint32)[:m] >= 1 << 31, want)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
    def test_axis_streams_are_the_spawned_children(self, seed):
        # each stream built alone is child k of SeedSequence(seed).spawn(6),
        # the derivation the seeded estimates were pinned with
        children = np.random.SeedSequence(seed).spawn(6)
        streams = _axis_streams(seed)
        assert len(streams) == 6
        for k, stream in enumerate(streams):
            want = np.random.default_rng(children[k]).bit_generator.random_raw(8)
            assert np.array_equal(stream.bit_generator.random_raw(8), want)
        for k in (5, 0, 3):
            (alone,) = _axis_streams(seed, (k,))
            want = np.random.default_rng(children[k]).bit_generator.random_raw(8)
            assert np.array_equal(alone.bit_generator.random_raw(8), want)

    @pytest.mark.parametrize("k", [0, 1, 8, _LEAF, 500000])
    def test_advance_continues_the_uniform_draws(self, k):
        # the estimator's assumption about PCG64.advance: a stream advanced by
        # k gives draws k.. of one that was not, through random(out=...)
        whole = np.random.default_rng(k).random(k + 1000)
        rng = np.random.default_rng(k)
        rng.bit_generator.advance(k)
        assert np.array_equal(rng.random(out=np.empty(1000)), whole[k:])

    @pytest.mark.parametrize("k", [0, 1, 4, _LEAF // 2, 250000])
    def test_advance_continues_the_raw_words(self, k):
        # and through random_raw, whose words k.. a coin stream advanced by k gives
        whole = np.random.default_rng(k).bit_generator.random_raw(k + 1000)
        bits = np.random.default_rng(k).bit_generator
        bits.advance(k)
        assert np.array_equal(bits.random_raw(1000), whole[k:])

    @pytest.mark.parametrize("mean", [0.0, -0.75, 0.3, 1.0])
    def test_byte_rows_are_the_unpacked_lookup(self, mean):
        # the second pass's assumption about its table: row s of
        # lut.take(_BYTE_BITS) is the lookup of byte s's unpacked bits
        lut = np.array([(1.0 - mean) * (1.0 - mean), (-1.0 - mean) * (-1.0 - mean)])
        rows = lut.take(_BYTE_BITS)
        assert rows.shape == (256, 8)
        for s in range(256):
            bits = np.unpackbits(np.array([s], dtype=np.uint8))
            assert np.array_equal(rows[s], lut.take(bits))
        assert np.array_equal(np.packbits(_BYTE_BITS, axis=1).ravel(), np.arange(256))

    @pytest.mark.parametrize("pair", [(1, 1), (2, 3)])
    @pytest.mark.parametrize("n", [1001, 1007, _LEAF + 1])
    def test_last_partial_byte_sums_only_its_samples(self, n, pair):
        # the last leaf ends inside a byte, whose padding bits look up
        # (1 - mean)^2, nonzero here: a sum over the whole byte's row would
        # change std_error
        model = build_model(0.3)
        est = estimate_correlation(model, *pair, n, seed=5)
        assert (est.mean, est.std_error) == reference_estimate(model, *pair, n, 5)

    @pytest.mark.parametrize("pair, bound_mib", [((1, 1), 1.0), ((2, 3), 1.2)])
    def test_working_set_beside_the_packed_signs(self, pair, bound_mib):
        # tracemalloc peak minus the n/8 bytes of packed signs at n = 2*10^6:
        # ~0.58 MiB on matched and ~1.07 MiB on mismatched axes, where the
        # raw coin words dominate; the two threads' buffers for chunks of 2^15
        # samples together take what one thread's for leaves of 2^16 did (~0.64
        # and ~1.05 MiB on one thread). The byte-row lookup writes into the leaf
        # buffer; unpacking each leaf to one byte per sample and gathering
        # through an intp copy of those bytes peaked at ~1.11 MiB on matched
        # axes, which fails the 1 MiB bound. The second coin stream's words
        # are XORed into the first's in place; a third word array for their
        # XOR peaked at ~1.28 MiB on mismatched axes, which fails 1.2 MiB
        n = 2 * 10**6
        model = build_model(0.75)
        estimate_correlation(model, *pair, 1000, seed=3)
        tracemalloc.start()
        try:
            estimate_correlation(model, *pair, n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - n / 8 < bound_mib * 2**20

    @pytest.mark.parametrize("pair", [(1, 1), (2, 3)])
    def test_peak_memory_per_sample_falls_with_n(self, pair):
        # the signs are kept bit-packed, n/8 bytes, beside a working set of a
        # few buffers of one leaf each; a float64 or int64 per sample would
        # take 8 bytes
        model = build_model(0.75)
        per_sample = []
        for n in (200000, 2000000):
            tracemalloc.start()
            try:
                estimate_correlation(model, *pair, n, seed=3)
                per_sample.append(tracemalloc.get_traced_memory()[1] / n)
            finally:
                tracemalloc.stop()
        assert per_sample[1] <= 0.5 * per_sample[0]
        assert per_sample[1] <= 2.0

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


def _os_threads() -> int:
    # every thread of this process: threading.active_count() counts only the
    # threads that the threading module started, and the helper is started
    # with _thread
    if os.path.isdir("/proc/self/task"):
        return len(os.listdir("/proc/self/task"))
    return threading.active_count()


def _threads_settle_to(count: int) -> bool:
    # the helper hands the caller its result just before its thread exits
    deadline = time.monotonic() + 2.0
    while _os_threads() != count:
        if time.monotonic() > deadline:
            return False
        time.sleep(1e-3)
    return True


class TestThreads:
    """``estimate_correlation`` runs a helper thread inside the call and nowhere else."""

    # n = 1000 is one chunk: the helper may find none left to take
    @pytest.mark.parametrize("n", [1000, 10**6])
    def test_no_thread_outlives_a_call(self, n):
        before, os_before = threading.active_count(), _os_threads()
        estimate_correlation(build_model(0.75), 2, 3, n, seed=1)
        assert threading.active_count() == before
        assert _threads_settle_to(os_before)

    @pytest.mark.parametrize(
        "fails",
        [lambda calls, caller: len(calls) == 2, lambda calls, caller: calls[-1] != caller],
        ids=["second-call", "helper-call"],
    )
    def test_a_failure_reaches_the_caller_and_no_thread_outlives_it(self, monkeypatch, fails):
        # get_ident, not current_thread, which would register the helper with
        # the threading module for the rest of the process
        calls = []
        caller = threading.get_ident()
        original = bellri.lhv._axis_streams

        def failing(*args):
            calls.append(threading.get_ident())
            if fails(calls, caller):
                raise RuntimeError("no streams")
            return original(*args)

        monkeypatch.setattr(bellri.lhv, "_axis_streams", failing)
        before, os_before = threading.active_count(), _os_threads()
        with pytest.raises(RuntimeError, match="no streams"):
            estimate_correlation(build_model(0.75), 2, 3, 10**6, seed=1)
        assert threading.active_count() == before
        assert _threads_settle_to(os_before)
        assert len(calls) == 2 and caller in calls

    def test_two_callers_at_once_get_the_serial_bits(self):
        # two callers and their helpers are four threads on the GIL, switched
        # every 10 us: each writes only the chunks it takes, into its own call's signs
        model = build_model(0.6)
        jobs = [(1, 1, 10**6, 3), (2, 3, 10**6 + 7, 4)]
        want = [estimate_correlation(model, *job) for job in jobs]
        got = [None, None]

        def run(k):
            got[k] = estimate_correlation(model, *jobs[k])

        callers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == want


class TestMcReport:
    def test_payload_fields(self):
        model = build_model(0.75)
        est = estimate_correlation(model, 1, 2, 2000, seed=1)
        payload = mc_report(model, 1, 2, est)
        assert set(payload) == {"v", "i", "j", "n", "mean", "std_error", "target", "pass"}
        assert payload["target"] == 0.0
        assert payload["n"] == 2000

    @pytest.mark.parametrize("pair", [(0, 1), (1, 4), (7, 7), (1.5, 1.5), ("x", 1), (1, -2)])
    def test_rejects_bad_axis(self, pair):
        model = build_model(0.75)
        est = estimate_correlation(model, 1, 1, 2000, seed=1)
        with pytest.raises(DomainError, match="axis index"):
            mc_report(model, *pair, est)

    def test_accepts_whole_axes_of_any_type(self):
        model = build_model(0.75)
        est = estimate_correlation(model, 1, 1, 2000, seed=1)
        assert mc_report(model, 1.0, np.int64(1), est) == mc_report(model, 1, 1, est)

    def test_zero_error_requires_exact_match(self):
        model = build_model(1.0)
        est = estimate_correlation(model, 3, 3, 2000, seed=1)
        payload = mc_report(model, 3, 3, est)
        assert payload["std_error"] == 0.0 and payload["pass"] is True

    def test_estimate_is_the_named_tuple_with_typed_fields(self):
        est = estimate_correlation(build_model(0.75), 1, 1, np.int64(2000), seed=1)
        assert type(est) is McEstimate
        assert list(est._asdict()) == ["mean", "std_error", "n_samples"]
        assert [type(x) for x in est] == [float, float, int]
        with pytest.raises(AttributeError):
            est.mean = 0.0

    @pytest.mark.parametrize("sigmas", [-10.0, 10.0], ids=["below", "above"])
    def test_mean_ten_sigma_off_target_fails(self, sigmas):
        est = McEstimate(mean=-0.5 + sigmas * 0.01, std_error=0.01, n_samples=1000)
        assert mc_report(build_model(0.5), 2, 2, est)["pass"] is False


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

    @pytest.mark.parametrize("v", [1.5, -0.5, math.nan, "x"])
    def test_a_bad_visibility_is_named_as_make_werner_and_build_model_name_it(self, v):
        # consistency_verdict takes one visibility, not the sweep's v_min and v_max
        for f in (make_werner, build_model):
            with pytest.raises(DomainError) as want:
                f(v)
            with pytest.raises(DomainError) as got:
                consistency_verdict(v)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith("visibility must be ")

    @pytest.mark.parametrize("v", [0.5, 0.6, 0.9, 1.0])
    @pytest.mark.parametrize(
        "u1, u2",
        [(np.eye(2), np.eye(2)), (random_unitary_2x2(41), random_unitary_2x2(42))],
        ids=["identity", "rotated"],
    )
    def test_the_models_own_correlations_get_the_verdict(self, v, u1, u2):
        # the model's nine seeded estimates in its frames R1, R2, carried to the lab by
        # rotate_tensor, make a sampled tensor T + dT of the state (U1 (x) U2) W(v)
        # (U1 (x) U2)^dag. T's singular values are equal, so T_max has no gradient
        # there; Weyl's inequality gives |dT_max| <= ||dT||_F, so the margin moves by
        # at most (2 ||T||_F + ||dT||_F + 2.25) ||dT||_F, with ||dT||_F at 5 standard
        # errors per entry, a bound the rotations keep as they keep the Frobenius norm
        r1, r2 = rotation_from_unitary(u1), rotation_from_unitary(u2)
        model = build_model(v, r1, r2)
        est = [[estimate_correlation(model, i, j, 10**5, seed=3 * i + j) for j in (1, 2, 3)]
               for i in (1, 2, 3)]
        t_sampled = rotate_tensor([[e.mean for e in row] for row in est], r1, r2)
        u = np.kron(u1, u2)
        t_exact = compute_tensor(u @ make_werner(v) @ u.conj().T)
        d = 5.0 * math.sqrt(sum(e.std_error**2 for row in est for e in row))
        assert np.linalg.norm(t_sampled - t_exact) <= d
        sampled = evaluate_ri_criterion(t_sampled)
        verdict = consistency_verdict(v)
        bound = (2.0 * math.sqrt(3.0) * v + d + 2.25) * d  # ||T||_F = sqrt(3) v
        assert abs(verdict.criterion_margin) > bound
        assert abs(sampled.margin - verdict.criterion_margin) <= bound
        assert sampled.violated == (not verdict.consistent)
        if v == 1.0:  # every matched-axis product is -1
            assert [est[k][k].std_error for k in range(3)] == [0.0, 0.0, 0.0]

    def test_equivalent_to_criterion_across_sweep(self):
        for v in np.linspace(0.0, 1.0, 101):
            ver = consistency_verdict(v)
            rep = evaluate_ri_criterion(compute_tensor(make_werner(v)))
            assert ver.consistent == (not rep.violated)
            assert ver.criterion_margin == rep.margin


class TestVerdictRecord:
    def test_fields_cannot_be_assigned(self):
        ver = consistency_verdict(0.5)
        with pytest.raises(AttributeError):
            ver.consistent = False

    def test_asdict_keys_in_field_order(self):
        keys = list(consistency_verdict(0.9)._asdict())
        assert keys == ["v", "criterion_margin", "consistent", "explanation_code"]

    def test_sweep_equals_the_one_point_verdicts(self):
        assert verdict_sweep(0, 1, 3) == [consistency_verdict(v) for v in (0, 0.5, 1)]


def assert_matches_per_point(verdicts):
    for ver in verdicts:
        one = consistency_verdict(ver.v)
        rep = evaluate_ri_criterion(compute_tensor(make_werner(ver.v)))
        assert ver == one
        assert ver.criterion_margin == rep.margin
        assert np.signbit(ver.criterion_margin) == np.signbit(rep.margin)
        assert ver.consistent == (not rep.violated)


def assert_bits_of_one_stacked_call(ends, steps):
    grid = np.linspace(*ends, steps)[:, None, None]
    rhos = grid * make_singlet() + (1.0 - grid) * maximally_mixed()
    lhs, rhs, violated = _criterion(_pauli_expectations(rhos))
    vs, margins, flags = sweep_margins(*ends, steps)
    assert vs == grid.ravel().tolist()
    assert margins == (lhs - rhs).tolist()
    assert np.signbit(margins).tolist() == np.signbit(lhs - rhs).tolist()
    assert flags == violated.tolist()


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

    @pytest.mark.parametrize(
        "steps",
        [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1],
        ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"],
    )
    @pytest.mark.parametrize("ends", [(0.0, 1.0), (0.7, 0.8), (0.3, 0.3)])
    def test_chunks_keep_the_bits_of_one_stacked_call(self, ends, steps):
        assert_bits_of_one_stacked_call(ends, steps)

    @pytest.mark.parametrize("chunk", [1, 3, 256, 512, 1024])
    @pytest.mark.parametrize("ends, steps", [((0.0, 1.0), 1005), ((0.7, 0.8), 2049)])
    def test_any_chunk_size_keeps_the_bits_of_one_stacked_call(self, monkeypatch, chunk, ends, steps):
        monkeypatch.setattr(bellri.lhv, "_CHUNK", chunk)
        assert_bits_of_one_stacked_call(ends, steps)

    def test_records_are_the_named_tuple_with_typed_fields(self):
        # the records are built by tuple.__new__, which checks neither type nor length
        fields = ["v", "criterion_margin", "consistent", "explanation_code"]
        for record in verdict_sweep(0, 1, 1005):
            assert type(record) is ConsistencyVerdict
            assert type(record.v) is float and type(record.criterion_margin) is float
            assert type(record.consistent) is bool
            assert record.explanation_code is (CONSISTENT if record.consistent else RI_VIOLATED)
            assert list(record._asdict()) == fields

    @pytest.mark.parametrize("steps", [10001, 40001])
    def test_peak_memory_is_the_lists_plus_one_chunk(self, steps):
        # the grid and the three lists take ~70 B per point, and one chunk of
        # 256 points peaks at ~0.26 MB (its states, the second product and
        # numpy's casting buffers, 64 KiB each) at any size; the whole grid
        # stacked at once took ~540 B per point
        tracemalloc.start()
        try:
            sweep_margins(0.0, 1.0, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * steps + (3 << 17)

    def test_validates_neither_endpoint(self, monkeypatch):
        # the sweep mixes its states with states._werner, valid by construction, and validates none
        calls = {"n": 0}
        original = bellri.states.validate_density_matrix

        def counting(rho):
            calls["n"] += 1
            return original(rho)

        for module in (bellri, bellri.states, bellri.tensor):
            monkeypatch.setattr(module, "validate_density_matrix", counting)
        assert len(verdict_sweep(0.0, 1.0, 10001)) == 10001
        assert calls["n"] == 0

    def test_all_consistent_below_half(self):
        assert all(v.consistent for v in verdict_sweep(0.0, 0.5, 26))

    def test_rejects_inverted_range(self):
        with pytest.raises(DomainError):
            verdict_sweep(0.8, 0.2, 5)

    def test_rejects_zero_steps(self):
        with pytest.raises(DomainError):
            verdict_sweep(0.0, 1.0, 0)

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, BIG], ids=["cap+1", "40-digit"])
    def test_rejects_step_count_above_the_cap_before_allocating(self, steps):
        match = f"steps must be at most {MAX_STEPS}, got {steps}$"
        assert rejection_peak(match, verdict_sweep, 0.0, 1.0, steps) < 1 << 20

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
