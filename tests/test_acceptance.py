"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The Monte-Carlo criteria use frozen seeds, so every run is
deterministic; tolerances are the contract values, not calibrated slack.
"""

import math

import numpy as np
import pytest

from sncusum import cli, nulldist, stats, validation
from sncusum.simulation import Scenario, run_scenario

REPORTED = []


def report(tag: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORTED.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def null_full_a():
    return nulldist.simulate_null(nulldist.FULL_RATIO, 1000, 100_000, seed=101)


@pytest.fixture(scope="module")
def null_full_b():
    return nulldist.simulate_null(nulldist.FULL_RATIO, 1000, 100_000, seed=202)


@pytest.fixture(scope="module")
def null_simple_a():
    return nulldist.simulate_null(nulldist.SIMPLE_RATIO, 1000, 100_000, seed=303)


def test_c1_level_under_null(null_full_a):
    sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                  n=500, replications=5000, alpha=0.05, seed=42)
    res = run_scenario(sc, tests=("sn_full_v1", "sn_full_v2"),
                       nulls={nulldist.FULL_RATIO: null_full_a})
    v1, v2 = res.rates["sn_full_v1"], res.rates["sn_full_v2"]
    ok = 0.005 <= v1 <= 0.07 and 0.01 <= v2 <= 0.08
    report("C1 level-under-null", ok,
           f"v1={v1:.4f} in [0.005,0.07], v2={v2:.4f} in [0.01,0.08]")


def test_c2_level_heteroskedastic_ar(null_full_a):
    sc = Scenario(mean_id=0, sigma_id=2, c_sigma=1.0, error_model="ar",
                  n=500, replications=2000, alpha=0.05, seed=43)
    res = run_scenario(sc, tests=("sn_full_v2",), nulls={nulldist.FULL_RATIO: null_full_a})
    rate = res.rates["sn_full_v2"]
    report("C2 level-ar-sigma2", rate <= 0.12, f"v2={rate:.4f} <= 0.12")


def test_c3_power_step_change(null_full_a, null_simple_a):
    sc = Scenario(mean_id=3, sigma_id=0, c_sigma=0.25, error_model="iid",
                  n=500, replications=1000, alpha=0.05, seed=44)
    res = run_scenario(sc, tests=("sn_simple", "sn_full_v2"),
                       nulls={nulldist.FULL_RATIO: null_full_a,
                              nulldist.SIMPLE_RATIO: null_simple_a})
    simple, v2 = res.rates["sn_simple"], res.rates["sn_full_v2"]
    ok = simple >= 0.95 and v2 >= 0.80
    report("C3 power-step", ok, f"simple={simple:.4f} >= 0.95, v2={v2:.4f} >= 0.80")


def test_c4_power_monotone_in_n(null_full_a):
    rates = []
    for n in (100, 200, 500):
        sc = Scenario(mean_id=5, sigma_id=0, c_sigma=1.0, error_model="iid",
                      n=n, replications=500, alpha=0.05, seed=45)
        res = run_scenario(sc, tests=("sn_full_v2",),
                           nulls={nulldist.FULL_RATIO: null_full_a})
        rates.append(res.rates["sn_full_v2"])
    reps = 500
    ok = True
    for lo, hi in zip(rates, rates[1:]):
        se = math.sqrt(lo * (1 - lo) / reps) + math.sqrt(hi * (1 - hi) / reps)
        ok = ok and hi >= lo - 2 * se
    report("C4 power-monotone", ok,
           "rates(n=100,200,500)=" + ",".join(f"{r:.3f}" for r in rates))


def test_c5_oracle_equivalence():
    rep = validation.check_partial_sum_oracle(cases=1000, max_n=200, seed=46)
    report("C5 oracle-equivalence", rep.passed,
           f"max deviation {rep.deviation:.3g} <= 1e-12 over 1000 cases")


def test_c6_mean_formula_residual():
    devs = {}
    for n in (200, 2000):
        rep = validation.check_mean_formula(lambda v: v, n, label="ramp")
        devs[n] = (rep.deviation, rep.tolerance, rep.passed)
    ok = devs[200][2] and devs[2000][2] and devs[2000][0] < devs[200][0]
    report("C6 mean-formula", ok,
           f"dev(200)={devs[200][0]:.4f}<= {devs[200][1]:.4f}, "
           f"dev(2000)={devs[2000][0]:.4f}<= {devs[2000][1]:.4f}, decreasing")


def test_c7_fclt_variance():
    results = {}
    for sigma_id in (0, 2):
        rep = validation.check_fclt_variance(sigma_id, n=2000, replications=5000, seed=47)
        results[sigma_id] = rep
    ok = results[0].passed and results[2].passed
    report("C7 fclt-variance", ok,
           f"sigma0 rel dev={results[0].deviation:.4f}, "
           f"sigma2 rel dev={results[2].deviation:.4f} (tol 0.1, targets 1 and 1.125)")


def test_c8_kolmogorov_and_lrv_level():
    q = stats.lrv_critical_value(0.05)
    reps, n = 2000, 500
    rejected = 0
    for rep_idx in range(reps):
        x = np.random.default_rng([48, rep_idx]).standard_normal(n)
        rejected += stats.cusum_lrv_test(x, 0.05).reject
    rate = rejected / reps
    ok = 1.3575 <= q <= 1.3585 and 0.03 <= rate <= 0.10
    report("C8 kolmogorov-lrv", ok,
           f"q95={q:.5f} in [1.3575,1.3585], lrv level={rate:.4f} in [0.03,0.10]")


def test_c9_worker_determinism(tmp_path):
    outputs = {}
    for workers in (1, 4):
        null_dir = tmp_path / f"null{workers}"
        code = cli.main(["nulldist", "--steps", "120", "--reps", "1000", "--seed", "7",
                         "--workers", str(workers), "--out", str(null_dir)])
        assert code == 0
        sim_dir = tmp_path / f"sim{workers}"
        code = cli.main(["simulate", "--grid", "mu=0;eps=iid;n=100", "--reps", "200",
                         "--seed", "8", "--workers", str(workers),
                         "--tests", "r_lrv,sn_full_v2", "--null-cache", str(null_dir),
                         "--out", str(sim_dir)])
        assert code == 0
        outputs[workers] = (
            (null_dir / "simple-ratio.snq").read_bytes(),
            (null_dir / "full-ratio.snq").read_bytes(),
            (sim_dir / "cells.csv").read_bytes(),
        )
    ok = outputs[1] == outputs[4]
    report("C9 worker-determinism", ok,
           "nulldist and simulate outputs byte-identical for --workers 1 and 4")


def test_c10_null_quantile_stability(null_full_a, null_full_b):
    qa = nulldist.quantile(null_full_a, 0.95)
    qb = nulldist.quantile(null_full_b, 0.95)
    rel = abs(qa - qb) / qa
    report("C10 quantile-stability", rel < 0.01,
           f"q95 seed101={qa:.5f}, seed202={qb:.5f}, rel diff {rel:.4%} < 1%")


def test_zz_summary():
    print()
    for line in REPORTED:
        print(line)
