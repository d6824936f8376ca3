import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncusum import nulldist, stats
from sncusum.blocks import PartialSumGrid, _time_rank, knot_of, make_block_config
from sncusum.errors import ConfigurationError, DegenerateStatisticError

import oracles

X4 = np.array([1.0, 2.0, 3.0, 4.0])
CFG4 = make_block_config(4, 2)


def contrast_rows(x, cfg, t0, t1):
    """Process rows at knots k0, k1 and last, and the contrast ratio."""
    grid = PartialSumGrid.compute(x, cfg)
    k0, k1, last = knot_of(cfg, t0), knot_of(cfg, t1), cfg.n_knots
    return grid.row(k0), grid.row(k1), grid.row(last), (k1 - k0) / (last - k0)


def numerator(x, cfg, t0):
    return stats.numerator_values(PartialSumGrid.compute(x, cfg).row(knot_of(cfg, t0)))


def contrast(x, cfg, t0, t1):
    return stats.contrast_values(*contrast_rows(x, cfg, t0, t1))


def denominator(x, cfg, t0, t1):
    return stats._bridge_area(contrast(x, cfg, t0, t1), cfg.n)


# --- simple statistic -------------------------------------------------------

def test_simple_statistic_hand_case():
    # numerator sup 2.5 at s=1; denominator sup 1.0 at the first knot
    assert stats.simple_statistic(X4, CFG4) == pytest.approx(2.5)


def test_simple_statistic_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(8, 60))
        b = int(rng.integers(2, max(3, n // 3)))
        cfg = make_block_config(n, b)
        if cfg.n_knots < 2:
            continue
        x = rng.standard_normal(n)
        assert stats.simple_statistic(x, cfg) == pytest.approx(
            oracles.simple_statistic(x, cfg), abs=1e-12
        )


def test_simple_statistic_needs_two_knots():
    cfg = make_block_config(8, 1)  # n_blocks = 8, single coarse step
    with pytest.raises(ConfigurationError):
        stats.simple_statistic(np.arange(1.0, 9.0), cfg)


def test_simple_statistic_degenerate_on_zero_series():
    with pytest.raises(DegenerateStatisticError):
        stats.simple_statistic(np.zeros(20), make_block_config(20, 4))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=0.01, max_value=100), sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2**31))
def test_simple_statistic_scale_invariant(c, sign, seed):
    x = np.random.default_rng(seed).standard_normal(48)
    cfg = make_block_config(48, 6)
    base = stats.simple_statistic(x, cfg)
    assert stats.simple_statistic(sign * c * x, cfg) == pytest.approx(base, rel=1e-9)


# --- numerator process ------------------------------------------------------

def test_numerator_process_hand_pins():
    # n=4, b=2, t0=1/2: derived once from the literal double-loop oracle
    got = numerator(X4, CFG4, 0.5)
    np.testing.assert_allclose(got, [0.0, 0.0, 0.0625, -0.25, 0.0], atol=1e-14)
    np.testing.assert_allclose(got, oracles.numerator_process(X4, CFG4, 0.5), atol=1e-14)


def test_numerator_process_zero_series():
    assert not numerator(np.zeros(30), make_block_config(30, 5), 0.4).any()


def test_numerator_process_centered_under_zero_mean():
    # mean of V(1/2) over many replications of centered noise stays within
    # Monte-Carlo noise of zero (the map is linear in the observations)
    n = 100
    cfg = make_block_config(n)
    reps = 10_000
    vals = np.empty(reps)
    for rep in range(reps):
        x = np.random.default_rng([5, rep]).standard_normal(n)
        vals[rep] = numerator(x, cfg, 1 / 3)[n // 2]
    assert abs(vals.mean()) < 3 * vals.std() / math.sqrt(reps)


# --- contrast and denominator process ---------------------------------------

def test_contrast_zero_series():
    assert not contrast(np.zeros(60), make_block_config(60, 6), 1 / 3, 2 / 3).any()


def test_contrast_constant_cancels_exactly_at_full_blocks():
    # n = block_length * n_blocks: the knot counts cancel at s=1
    cfg = make_block_config(64, 8)
    assert cfg.n == cfg.block_length * cfg.n_blocks
    values = contrast(np.full(64, 3.7), cfg, 1 / 3, 2 / 3)
    assert abs(values[-1]) < 1e-12


def test_contrast_linear_in_series():
    rng = np.random.default_rng(9)
    cfg = make_block_config(60, 6)
    x, y = rng.standard_normal(60), rng.standard_normal(60)
    lhs = contrast(x + y, cfg, 1 / 3, 1 / 2)
    rhs = contrast(x, cfg, 1 / 3, 1 / 2) + contrast(y, cfg, 1 / 3, 1 / 2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_denominator_matches_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(20, 51))
        cfg = make_block_config(n, 4)
        if cfg.n_knots <= 3:
            continue
        x = rng.standard_normal(n)
        got = denominator(x, cfg, 1 / 3, 2 / 3)
        want = oracles.denominator_process(x, cfg, 1 / 3, 2 / 3)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_denominator_zero_series():
    assert not denominator(np.zeros(60), make_block_config(60, 6), 1 / 3, 1 / 2).any()


# --- full statistic ---------------------------------------------------------

def test_full_statistic_pinned_regression_value():
    # frozen once from the literal double-loop oracle
    x = np.random.default_rng(42).standard_normal(200)
    cfg = make_block_config(200)
    assert stats.full_statistic(x, cfg, 1 / 3, 1 / 2) == pytest.approx(
        1.4520420366669888, abs=1e-9
    )


def test_full_statistic_pinned_bits():
    # exact bits of the first release, whose dense lattice summed the same
    # terms in the same order as the row kernel
    x = np.random.default_rng(2000).standard_normal(2000)
    cfg = make_block_config(2000)
    assert stats.full_statistic(x, cfg, 1 / 3, 1 / 2).hex() == "0x1.4ff190395a9eep+1"
    assert stats.full_statistic(x, cfg, 1 / 3, 2 / 3).hex() == "0x1.58c1a0f91348fp+1"


def test_simple_statistic_pinned_bits():
    # exact bits: how the numerator's partial sums are formed must not change them
    x = np.random.default_rng(2000).standard_normal(2000)
    cfg = make_block_config(2000)
    assert stats.simple_statistic(x, cfg).hex() == "0x1.b233e121da454p-1"


@pytest.mark.parametrize("power", [1020, -1030, -1060])
def test_sn_statistics_exact_at_any_finite_scale(power):
    # the same bits as the series scaled back by the inverse power of two; at
    # 2**1020 the sums overflow and at 2**-1060 the data are subnormal
    x = np.ldexp(np.random.default_rng(2000).standard_normal(500), power)
    back = np.ldexp(x, -power)
    cfg = make_block_config(500)
    for t0, t1 in ((1 / 3, 1 / 2), (1 / 3, 2 / 3)):
        statistic = stats.full_statistic(x, cfg, t0, t1)
        assert statistic.hex() == stats.full_statistic(back, cfg, t0, t1).hex()
    assert stats.simple_statistic(x, cfg).hex() == stats.simple_statistic(back, cfg).hex()


def test_full_statistic_memory_is_linear():
    # a few length-n rows; a (n_knots+1) x n lattice at n=1e5 needs ~175 MB
    x = np.random.default_rng(1).standard_normal(100_000)
    cfg = make_block_config(100_000)
    tracemalloc.start()
    try:
        stats.full_statistic(x, cfg, 1 / 3, 1 / 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def stack_rows():
    """Plain rows, rows scaled by 2**1000 and 2**-1000, and an all-zero row of
    length 250, which is not a multiple of the block length 7."""
    rng = np.random.default_rng(30)
    plain = rng.standard_normal((3, 250)) + np.array([[0.0], [0.4], [-1.0]])
    return np.vstack([plain, np.ldexp(plain[:2], 1000), np.ldexp(plain[1:], -1000),
                      np.zeros((1, 250))])


@pytest.mark.filterwarnings("error")
def test_stacked_statistics_equal_the_single_series_calls():
    x = stack_rows()
    cfg = make_block_config(250)
    assert cfg.n % cfg.block_length
    grid = stats.unit_scaled(PartialSumGrid(cfg, x))
    for rule in stats.RULES.values():
        numerator, denominator = rule.ratio(grid)
        for row, top, bottom in zip(x[:-1], numerator, denominator):
            single = rule.statistic(PartialSumGrid.compute(row, cfg))
            assert (top / bottom).hex() == single.hex(), rule.test_id
        assert numerator[-1] == denominator[-1] == 0.0
    statistic, sigma2, sigma = stats.cusum_lrv(x)
    q = nulldist.kolmogorov_quantile(0.95)
    for row, value, scale in zip(x[:-1], statistic, sigma):
        single = stats.cusum_lrv_test(row, 0.05)
        assert value.hex() == single.statistic.hex()
        assert (scale * q).hex() == single.threshold.hex()
    assert sigma2[-1] == 0.0


def test_full_statistic_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(40, 90))
        cfg = make_block_config(n, 5)
        x = rng.standard_normal(n)
        assert stats.full_statistic(x, cfg, 1 / 3, 1 / 2) == pytest.approx(
            oracles.full_statistic(x, cfg, 1 / 3, 1 / 2), abs=1e-10
        )


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=0.01, max_value=100), sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2**31))
def test_full_statistic_scale_invariant(c, sign, seed):
    x = np.random.default_rng(seed).standard_normal(120)
    cfg = make_block_config(120)
    base = stats.full_statistic(x, cfg, 1 / 3, 1 / 2)
    assert stats.full_statistic(sign * c * x, cfg, 1 / 3, 1 / 2) == pytest.approx(
        base, rel=1e-9
    )


def test_full_statistic_location_shift_is_discretization_sized():
    # adding a constant moves the statistic by O(block_length / sqrt(n));
    # the shift does not vanish exactly, not even when n = b * n_blocks
    for n in (500, 2000, 8000):
        cfg = make_block_config(n)
        bound = cfg.block_length / math.sqrt(n)
        deltas = []
        for seed in range(8):
            x = np.random.default_rng(seed).standard_normal(n)
            deltas.append(
                abs(
                    stats.full_statistic(x + 1.0, cfg, 1 / 3, 1 / 2)
                    - stats.full_statistic(x, cfg, 1 / 3, 1 / 2)
                )
            )
        assert max(deltas) <= 5 * bound
        assert np.median(deltas) <= 1.5 * bound


def test_full_statistic_degenerate_and_knot_errors():
    with pytest.raises(DegenerateStatisticError):
        stats.full_statistic(np.zeros(120), make_block_config(120), 1 / 3, 1 / 2)
    # knot collision: t0 and t1 land on the same coarse step
    with pytest.raises(ConfigurationError):
        stats.full_statistic(np.random.default_rng(0).standard_normal(40),
                             make_block_config(40, 3), 1 / 3, 0.4)


def test_full_statistic_consistency_grows_with_n():
    # step alternative: the statistic's median grows along n
    medians = []
    for n in (200, 500, 1000):
        cfg = make_block_config(n)
        grid = np.arange(1, n + 1) / n
        mu = (grid > 0.5).astype(float)
        vals = [
            stats.full_statistic(
                mu + np.random.default_rng([77, rep]).standard_normal(n), cfg, 1 / 3, 1 / 2
            )
            for rep in range(200)
        ]
        medians.append(np.median(vals))
    assert medians[0] < medians[1] < medians[2]


# --- decisions ---------------------------------------------------------------

def test_params_threshold_factors():
    assert stats.RULES["sn_full_v1"].factor == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert stats.RULES["sn_full_v2"].factor == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
    assert stats.RULES["sn_simple"].factor == 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        stats.TestParams(alpha=0.0)
    with pytest.raises(ValueError):
        stats.TestParams(t0=0.5, t1=0.4)


def test_params_tag_must_carry_its_table_split_points(null_full_small):
    x = np.random.default_rng(12).standard_normal(200)
    cfg = make_block_config(200)
    with pytest.raises(ValueError, match=r"sn_full_v2.*\(0\.3333333333333333, 0\.5\).*"
                                         r"\(0\.25, 0\.5\)"):
        stats.decide_full(x, cfg, stats.TestParams(t0=0.25, t1=0.5), null_full_small)
    with pytest.raises(ValueError, match="sn_full_v1"):
        stats.TestParams(tag="v1")
    out = stats.decide_full(x, cfg, stats.TestParams(t0=0.25, t1=0.5, tag="q"), null_full_small)
    assert out.method == "sn_full_q"
    assert out.statistic == stats.full_statistic(x, cfg, 0.25, 0.5)
    assert stats.TestParams() == stats.TestParams.v2()


def test_decide_refuses_the_geometry_test_refuses(null_simple_small, null_full_small):
    # 6 blocks of 3 are too many for 20 points, in the library as in the CLI
    x = np.random.default_rng(12).standard_normal(20)
    cfg = make_block_config(20)
    with pytest.raises(ConfigurationError, match=r"n=20 < 4 \* n_blocks=24"):
        stats.decide_simple(x, cfg, 0.05, null_simple_small)
    with pytest.raises(ConfigurationError, match=r"n=20 < 4 \* n_blocks=24"):
        stats.decide_full(x, cfg, stats.TestParams.v1(), null_full_small)


def test_decide_simple(null_simple_small):
    x = np.random.default_rng(12).standard_normal(200)
    cfg = make_block_config(200)
    out = stats.decide_simple(x, cfg, 0.05, null_simple_small)
    assert out.method == "sn_simple"
    assert out.reject == (out.statistic > out.threshold)
    assert out.threshold == out.quantile == pytest.approx(
        nulldist.quantile(null_simple_small, 0.95)
    )
    assert 0.0 < out.p_value <= 1.0


def test_decide_simple_wrong_kind(null_full_small):
    x = np.random.default_rng(12).standard_normal(200)
    with pytest.raises(ConfigurationError):
        stats.decide_simple(x, make_block_config(200), 0.05, null_full_small)


def test_decide_full_threshold_and_consistency(null_full_small):
    rng = np.random.default_rng(13)
    n_sample = null_full_small.replications
    slack = 2.0 / (n_sample + 1)
    for _ in range(20):
        x = rng.standard_normal(250)
        cfg = make_block_config(250)
        params = stats.TestParams.v2(0.05)
        out = stats.decide_full(x, cfg, params, null_full_small)
        assert out.method == "sn_full_v2"
        assert out.threshold == pytest.approx(out.quantile * math.sqrt(8.0 / 3.0))
        assert out.reject == (out.statistic > out.threshold)
        # p-value and threshold agree up to the Monte-Carlo rank boundary
        if out.p_value <= params.alpha:
            assert out.reject
        if out.reject:
            assert out.p_value <= params.alpha + slack


def test_decide_monotone_in_alpha(null_full_small):
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = rng.standard_normal(250)
        cfg = make_block_config(250)
        rejects = [
            stats.decide_full(x, cfg, stats.TestParams.v2(a), null_full_small).reject
            for a in (0.01, 0.05, 0.10, 0.20)
        ]
        # once rejected at some level, rejected at every larger level
        assert rejects == sorted(rejects)


def test_decide_full_zero_statistic(null_full_small):
    # zero out the observations feeding the numerator knot rows
    n = 60
    cfg = make_block_config(n, 6)  # n_blocks=10, knots=6, k0=2
    x = np.random.default_rng(15).standard_normal(n) + 3.0
    k0 = 2
    x[_time_rank(cfg) <= k0 * cfg.n_blocks] = 0.0
    out = stats.decide_full(x, cfg, stats.TestParams.v2(0.05), null_full_small)
    assert out.statistic == 0.0
    assert not out.reject
    assert out.p_value == 1.0


# --- long-run variance baseline ----------------------------------------------

def test_lrv_estimate_constant_series_is_zero():
    assert stats.lrv_estimate(np.full(100, 2.5)) == 0.0


def test_lrv_estimate_iid_unit_variance():
    z = np.random.default_rng(16).standard_normal(100_000)
    assert stats.lrv_estimate(z) == pytest.approx(1.0, abs=0.1)


def test_lrv_estimate_ar_long_run_variance():
    from sncusum.simulation import gen_errors

    x = gen_errors("ar", 100_000, 17)
    # innovation variance 3/4 over (1 - 1/2)^2
    assert stats.lrv_estimate(x) == pytest.approx(3.0, abs=0.3)


def test_lrv_estimate_bandwidth_validation():
    with pytest.raises(ValueError):
        stats.lrv_estimate(np.arange(10.0), bandwidth=6)
    with pytest.raises(ValueError):
        stats.lrv_estimate(np.arange(10.0), bandwidth=0)


def test_lrv_estimate_matches_direct_sum():
    # literal loop over the defining window differences
    x = np.random.default_rng(18).standard_normal(200)
    n, m = 200, 5
    acc = 0.0
    for i in range(n - 2 * m + 1):
        lead = sum(x[i + j] for j in range(m))
        lag = sum(x[i + j] for j in range(m, 2 * m))
        acc += (lead - lag) ** 2 / (2 * m)
    assert stats.lrv_estimate(x, bandwidth=m) == pytest.approx(acc / (n - 2 * m + 1))


def test_cusum_lrv_constant_degenerate():
    with pytest.raises(DegenerateStatisticError):
        stats.cusum_lrv_test(np.full(50, 1.3))


def test_cusum_lrv_location_invariant():
    x = np.random.default_rng(19).standard_normal(400)
    a = stats.cusum_lrv_test(x, 0.05)
    b = stats.cusum_lrv_test(x + 100.0, 0.05)
    assert a.statistic == pytest.approx(b.statistic, abs=1e-8)
    assert a.threshold == pytest.approx(b.threshold, abs=1e-8)


def test_cusum_lrv_outcome_fields():
    x = np.random.default_rng(20).standard_normal(400)
    out = stats.cusum_lrv_test(x, 0.05)
    assert out.method == "r_lrv"
    assert out.quantile == pytest.approx(nulldist.kolmogorov_quantile(0.95))
    assert out.reject == (out.statistic > out.threshold)
    assert 0.0 <= out.p_value <= 1.0


def test_cusum_lrv_rejects_step_change():
    n = 500
    grid = np.arange(1, n + 1) / n
    x = 2.0 * (grid > 0.5) + 0.2 * np.random.default_rng(21).standard_normal(n)
    assert stats.cusum_lrv_test(x, 0.05).reject
