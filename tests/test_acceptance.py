"""End-to-end acceptance checks.

Each test enforces one acceptance criterion at its stated tolerance and time
budget and prints a single pass/fail line (visible with ``pytest -s`` or on
failure). Run the whole gate with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import random_tensor
from reference import (
    check_uu_invariance,
    frobenius_sum,
    random_rotation_pair,
    random_unitary_2x2,
    tensor_max_grid,
)

from bellri import (
    build_model,
    chsh_complete_set,
    compute_tensor,
    critical_visibility,
    estimate_correlation,
    evaluate_ri_criterion,
    inner_product_ee,
    make_singlet,
    make_werner,
    maximally_mixed,
    ri_bound_check,
    rotate_tensor,
    tensor_max_svd,
)
from bellri.cli import main


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {num}: {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget_s
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"acceptance {num}: {label}: {verdict} ({elapsed:.2f}s of {budget_s:.0f}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"


def test_01_werner_tensor_is_minus_v_diagonal():
    with criterion(1, "werner tensor equals diag(-V) to 1e-12", 1.0):
        for v in (0.0, 0.25, 0.5, 0.75, 1.0):
            t = compute_tensor(make_werner(v))
            assert np.max(np.abs(t - np.diag([-v, -v, -v]))) <= 1e-12


def test_02_critical_visibility_is_three_quarters():
    with criterion(2, "critical visibility 0.75 +- 1e-9 with comparison constant", 1.0):
        v = critical_visibility(make_singlet(), maximally_mixed(), 1e-9)
        assert v is not None and abs(v - 0.75) <= 1e-9
        report = evaluate_ri_criterion(compute_tensor(make_werner(0.5)))
        assert report.comparison_thresholds[0] == 0.75
        assert report.comparison_thresholds[1] == 2.0 * (2.0 / math.pi) ** 2
        assert abs(report.comparison_thresholds[1] - 0.8105694691387022) <= 1e-15


def test_03_grid_oracle_agrees_with_svd():
    with criterion(3, "tensor max: grid oracle within 2e-3 of the singular value", 30.0):
        for seed in range(50):
            t = random_tensor(np.random.default_rng(seed))
            assert abs(tensor_max_svd(t) - tensor_max_grid(t, 200, 400)) <= 2e-3
        for v in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(tensor_max_svd(compute_tensor(make_werner(v))) - v) <= 1e-12


def test_04_quadrature_identity():
    with criterion(4, "(E,E) equals (4pi/3)^2 times the squared-entry sum", 10.0):
        scale = (4.0 * math.pi / 3.0) ** 2
        for seed in range(20):
            t = random_tensor(np.random.default_rng(seed))
            expected = scale * frobenius_sum(t)
            assert abs(inner_product_ee(t) - expected) <= 1e-8 * abs(expected)


def test_05_criterion_and_bound_verdicts_agree():
    with criterion(5, "algebraic and quadrature criteria give identical verdicts", 10.0):
        for v in np.arange(0.0, 1.0001, 0.05):
            t = compute_tensor(make_werner(float(v)))
            assert evaluate_ri_criterion(t).violated == (not ri_bound_check(t).satisfied)


def test_06_chsh_compliance_across_sweep():
    with criterion(6, "two-setting magnitudes are {2V, 2V, 0, 0} and never exceed 2", 1.0):
        for v in np.linspace(0.0, 1.0, 11):
            t = compute_tensor(make_werner(float(v)))
            for plane in ((1, 2), (2, 3), (1, 3)):
                rep = chsh_complete_set(t, plane)
                expected = (2.0 * v, 2.0 * v, 0.0, 0.0)
                assert all(abs(a - b) <= 1e-12 for a, b in zip(rep.values, expected))
                assert rep.max_value <= 2.0 + 1e-12
                assert rep.satisfied


def test_07_monte_carlo_reproduces_model_targets():
    with criterion(7, "Monte Carlo means hit -0.75 / 0 within 5 sigma in >= 19/20 seeds", 60.0):
        model = build_model(0.75)
        n = 10**6
        matched = mismatched = 0
        for seed in range(1, 21):
            est = estimate_correlation(model, 1, 1, n, seed)
            matched += abs(est.mean + 0.75) <= 5.0 * est.std_error
            est = estimate_correlation(model, 1, 2, n, seed)
            mismatched += abs(est.mean) <= 5.0 * est.std_error
        assert matched >= 19
        assert mismatched >= 19


def test_08_invariance_suite():
    with criterion(8, "criterion invariant under rotations; state invariant under U(x)U", 30.0):
        bases = [compute_tensor(make_werner(0.8)), compute_tensor(make_werner(0.3))]
        bases += [random_tensor(np.random.default_rng(s)) for s in range(3)]
        for t in bases:
            base_sum = frobenius_sum(t)
            base_verdict = evaluate_ri_criterion(t).violated
            for seed in range(100):
                rotated = rotate_tensor(t, *random_rotation_pair(seed))
                assert abs(frobenius_sum(rotated) - base_sum) <= 1e-10
                assert evaluate_ri_criterion(rotated).violated == base_verdict
        for v in (0.0, 0.7, 1.0):
            rho = make_werner(v)
            for seed in range(100):
                assert check_uu_invariance(rho, random_unitary_2x2(seed), 1e-10)


def test_09_sweep_has_single_transition(capsys):
    with criterion(9, "consistency sweep flips exactly once, between 0.75 and 0.76", 5.0):
        code = main(["sweep", "--v-min", "0", "--v-max", "1", "--steps", "101", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 101
        flags = [row.rsplit(",", 1)[1] == "true" for row in rows]
        flips = [i for i in range(100) if flags[i] != flags[i + 1]]
        assert flips == [75]
        assert float(rows[75].split(",")[0]) == pytest.approx(0.75, abs=1e-12)
        assert float(rows[76].split(",")[0]) == pytest.approx(0.76, abs=1e-12)
