import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from sncusum import validation
from sncusum.blocks import make_block_config, partial_sum
from sncusum.simulation import mean_value
from sncusum.validation import (
    OracleReport,
    brute_force_partial_sum,
    check_fclt_variance,
    check_mean_formula,
    check_partial_sum_oracle,
    expected_partial_sum,
    run_all_checks,
)


def test_brute_force_reproduces_hand_cases():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    cfg = make_block_config(4, 2)
    assert brute_force_partial_sum(x, cfg, 1, 1) == pytest.approx(2.5)
    assert brute_force_partial_sum(x, cfg, 0.5, 1) == pytest.approx(1.0)
    assert brute_force_partial_sum(x, cfg, 0.5, 0.5) == pytest.approx(0.25)


def test_brute_force_zero_series():
    cfg = make_block_config(30, 5)
    assert brute_force_partial_sum(np.zeros(30), cfg, 0.7, 0.9) == 0.0


def test_optimized_equals_brute_force_on_random_cases():
    report = check_partial_sum_oracle(seed=1)
    assert report.passed
    assert report.deviation < 1e-12


def test_expected_partial_sum_zero_mean():
    cfg = make_block_config(200)
    for t in (0.0, 0.3, 0.77, 1.0):
        for s in (0.0, 0.5, 1.0):
            assert expected_partial_sum(0, cfg, t, s) == 0.0


def test_expected_partial_sum_linear_ramp_full_blocks():
    # n = block_length * n_blocks; compare with the exact noiseless process
    cfg = make_block_config(256, 16)
    assert cfg.n == cfg.block_length * cfg.n_blocks
    x = np.arange(1, 257) / 256.0
    approx = expected_partial_sum(lambda v: v, cfg, 1.0, 1.0)
    exact = partial_sum(x, cfg, 1.0, 1.0)
    assert abs(approx - exact) <= 5 * cfg.block_length / cfg.n


def test_mean_integral_closed_forms_match_quadrature():
    for mean_id in (2, 3, 5, 6):
        for lo, hi in [(0.0, 1.0), (0.2, 0.9), (0.6, 0.3)]:
            direct = validation._mean_integral(mean_id, lo, hi)
            sign = 1.0 if hi >= lo else -1.0
            a, b = min(lo, hi), max(lo, hi)
            pieces = sorted({a, b, 0.25, 0.5, 0.75})
            via_quad = sign * sum(
                quad(lambda v: float(mean_value(mean_id, v)), u, w)[0]
                for u, w in zip(pieces, pieces[1:])
                if u >= a and w <= b
            )
            assert direct == pytest.approx(via_quad, abs=1e-9), (mean_id, lo, hi)


def test_mean_formula_deviation_shrinks_with_n():
    dev_small = check_mean_formula(lambda v: v, 200, label="ramp").deviation
    dev_large = check_mean_formula(lambda v: v, 800, label="ramp").deviation
    assert dev_large < 0.75 * dev_small


def test_mean_formula_within_tolerance():
    for mean in (0, 3):
        report = check_mean_formula(mean, 200)
        assert report.passed, report


def test_fclt_variance_targets():
    # integral of sigma^2: 1, 13/12, 9/8
    for sigma_id, target in [(0, 1.0), (1, 13.0 / 12.0), (2, 9.0 / 8.0)]:
        report = check_fclt_variance(sigma_id, seed=8)
        assert report.params["target"] == pytest.approx(target)
        assert report.passed, report


def test_centered_process_cross_covariance():
    # limit covariance at ((t1,s1),(t2,s2)) is min(t1,t2) * integral of
    # sigma^2 over [0, min(s1,s2)]; here sigma = 1, target 0.5 * 0.5
    n, reps = 2000, 4000
    cfg = make_block_config(n)
    a = np.empty(reps)
    b = np.empty(reps)
    for rep in range(reps):
        x = np.random.default_rng([90, rep]).standard_normal(n)
        a[rep] = math.sqrt(n) * partial_sum(x, cfg, 0.5, 1.0)
        b[rep] = math.sqrt(n) * partial_sum(x, cfg, 1.0, 0.5)
    cov = float(np.mean(a * b) - a.mean() * b.mean())
    assert cov == pytest.approx(0.25, abs=0.05)


def test_oracle_report_fields_and_json():
    report = OracleReport(name="demo", deviation=0.5, tolerance=0.4, params={"n": 3})
    assert not report.passed
    round_trip = json.loads(json.dumps(report.to_dict()))
    assert round_trip == {
        "name": "demo",
        "deviation": 0.5,
        "tolerance": 0.4,
        "params": {"n": 3},
        "passed": False,
    }
    assert OracleReport(name="d", deviation=0.4, tolerance=0.4).passed


def test_run_all_checks_default_passes():
    reports = run_all_checks()
    assert reports and all(r.passed for r in reports)

