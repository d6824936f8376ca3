import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstwobign

from sncusum import nulldist, stats
from sncusum.blocks import _exponent, _sup, knot_of, make_block_config
from sncusum.errors import ConfigurationError, DegenerateStatisticError

import oracles

X4 = np.array([1.0, 2.0, 3.0, 4.0])
CFG4 = make_block_config(4, 2)


def knot_row(x, cfg, k):
    """The process at coarse knot ``k`` over all n+1 columns of the s-grid,
    by the masked reference."""
    return oracles.masked_row(x, cfg, k * cfg.n_blocks)


def contrast_rows(x, cfg, t0, t1):
    """Process rows at knots k0, k1 and last, and the contrast ratio."""
    k0, k1, last = knot_of(cfg, t0), knot_of(cfg, t1), cfg.n_knots
    rows = (knot_row(x, cfg, k) for k in (k0, k1, last))
    return *rows, (k1 - k0) / (last - k0)


def whole_area(values, n):
    """Bridge area over all n+1 columns of ``values``, each value over n: one
    prefix sum less the values times their weights (j + 1)/2."""
    area = np.cumsum(values, axis=-1)
    area -= values * (np.arange(values.shape[-1]) / 2.0 + 0.5)
    area /= n
    return area


def numerator_values(early, n):
    """Numerator process of the full rule from the row at knot k0: its
    bridge area, each value times sqrt(n)."""
    return whole_area(early, n) * math.sqrt(n)


def numerator(x, cfg, t0):
    return numerator_values(knot_row(x, cfg, knot_of(cfg, t0)), cfg.n)


def contrast(x, cfg, t0, t1):
    return stats.contrast_values(*contrast_rows(x, cfg, t0, t1), cfg.n)


def denominator(x, cfg, t0, t1):
    return whole_area(contrast(x, cfg, t0, t1), cfg.n)


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
    # the scaled copy of the series (8n bytes) plus one block of columns per
    # temporary, ~1.5 MiB at any n; a (n_knots+1) x n lattice at n=1e5 needs ~175 MB
    for n in (100_000, 200_000):
        x = np.random.default_rng(1).standard_normal(n)
        cfg = make_block_config(n)
        tracemalloc.start()
        try:
            stats.full_statistic(x, cfg, 1 / 3, 1 / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 2 * 2**20, n


def test_simple_statistic_keeps_no_memory_per_geometry():
    # nothing outlives a call, whatever the block length; the series is
    # scaled chunk by chunk as it is read, so the peak is the chunk, its
    # prefix sum and the K + 1 knot sums per series (0.50 MiB at 2e5 and 8e5:
    # as_series checks finiteness through the max and the min, with no
    # n-byte mask)
    for n in (200_000, 800_000):
        x = np.random.default_rng(2).standard_normal(n)
        stats.simple_statistic(x, make_block_config(n))
        tracemalloc.start()
        try:
            for b in range(20, 120, 10):
                stats.simple_statistic(x, make_block_config(n, b))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**16, n
        assert peak < 2 * 2**20, n


def test_full_statistic_works_in_a_chunk_sized_workspace():
    # each chunk of the series is scaled as it is read, so the peak is the
    # workspace of five chunk-wide buffers and the bridge weights, whatever n
    for n in (200_000, 800_000):
        x = np.random.default_rng(1).standard_normal(n)
        cfg = make_block_config(n)
        stats.full_statistic(x, cfg, 1 / 3, 1 / 2)
        tracemalloc.start()
        try:
            stats.full_statistic(x, cfg, 1 / 3, 1 / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, n


def test_cusum_lrv_test_holds_two_series_sized_buffers():
    # the prefix sums and one more n-sized buffer, plus chunk-sized pieces
    n = 200_000
    x = np.random.default_rng(3).standard_normal(n)
    stats.cusum_lrv_test(x, 0.05)
    tracemalloc.start()
    try:
        stats.cusum_lrv_test(x, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n + 2**20


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block_bytes", [None, 8 * 40])
def test_kernels_read_raw_and_unit_scaled_stacks_alike(monkeypatch, block_bytes):
    # rows scaled by 2**1000, 2**-1060 (subnormal) and 1, with +0.0 and -0.0
    # planted: the kernels scale each row as they read it, so the raw stack,
    # its unit-scaled stack (exponent 0) and each row alone give the same
    # bytes, in one chunk and in chunks of one block (the stack) or three
    if block_bytes is not None:
        monkeypatch.setattr(nulldist, "_BLOCK_BYTES", block_bytes)
    n = 600
    plain = np.random.default_rng(20).standard_normal((3, n)) + np.array([[0.0], [0.3], [-0.7]])
    x = np.vstack([np.ldexp(plain[0], 1000), np.ldexp(plain[1], -1060), plain[2]])
    x[:, ::7] = 0.0
    x[:, 3::11] = -0.0
    cfg = make_block_config(n)
    kernels = [lambda values, rule=rule: stats._ratios(values, cfg, [rule.knots(cfg)])[0]
               for rule in stats.RULES.values()]
    for kernel in (*kernels, lambda values: stats.cusum_lrv(values)[:2]):
        raw, scaled = kernel(x), kernel(np.ldexp(x, -_exponent(x)))
        rows = [kernel(row) for row in x]
        for i, values in enumerate(raw):
            assert values.tobytes() == scaled[i].tobytes()
            assert values.tobytes() == np.array([row[i] for row in rows]).tobytes()


def full_length_ratio(u, cfg, t0, t1):
    """The full ratio from whole rows: the masked reference rows,
    contrast_values and ``whole_area`` over all n+1 columns at once, every
    value divided and every numerator value scaled."""
    k0, k1, last = stats._knot_indices(cfg, t0, t1)
    early, mid, late = (knot_row(u, cfg, k) for k in (k0, k1, last))
    contrast = stats.contrast_values(early, mid, late, (k1 - k0) / (last - k0), cfg.n)
    return _sup(numerator_values(early, cfg.n)), _sup(whole_area(contrast, cfg.n))


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def boundary_series(rows, n):
    """One series (rows = 1), or a stack of seven: plain rows, rows scaled by
    2**1000 and 2**-1000, a zero row and a row with -0.0 at every fifth column."""
    rng = np.random.default_rng([rows, n])
    plain = rng.standard_normal((3, n)) + np.array([[0.0], [0.4], [-1.0]])
    if rows == 1:
        return plain[1]
    signed_zeros = np.where(np.arange(n) % 5, plain[2], -0.0)
    return np.vstack([plain, np.ldexp(plain[:1], 1000), np.ldexp(plain[1:2], -1000),
                      np.zeros((1, n)), signed_zeros])


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 17)])
def test_blocked_full_ratio_equals_full_length_rows(rows, blocks, extra):
    # n at a block width (_BLOCK_BYTES of the whole stack) and one column off
    # it, and n over four blocks, the last a remainder
    n = blocks * (nulldist._BLOCK_BYTES // (8 * rows)) + extra
    x = boundary_series(rows, n)
    u, cfg = np.ldexp(x, -_exponent(x)), make_block_config(n)
    for rule in (stats.RULES["sn_full_v1"], stats.RULES["sn_full_v2"]):
        blocked = stats._ratios(u, cfg, [rule.knots(cfg)])[0]
        whole = full_length_ratio(u, cfg, *rule.splits)
        assert hexes(blocked[0]) == hexes(whole[0]), rule.test_id
        assert hexes(blocked[1]) == hexes(whole[1]), rule.test_id
        if rows > 1:
            assert blocked[0][5] == blocked[1][5] == 0.0


def simple_whole_ratio(u, cfg):
    """The simple ratio from the whole series: one plain prefix sum and the
    binned knot margins."""
    last = cfg.n_knots
    margins = oracles.knot_margins(u, cfg)
    scaled = np.arange(last) / (last - 1)
    return (_sup(np.cumsum(u, axis=-1)) / cfg.n,
            _sup(margins[..., 1:] - scaled * margins[..., last, None]))


@pytest.mark.parametrize("block_bytes", [8, 8 * 40, 8 * 333])
@pytest.mark.parametrize("n, block_length", [(61, 7), (100, 30), (257, 16), (1000, 30), (1000, 4)])
def test_blocks_of_columns_hold_whole_blocks(monkeypatch, block_bytes, n, block_length):
    # a budget below one block of the series, and budgets that are not a
    # multiple of it; geometries with remainder positions, and with more
    # knots than the block length (100, 30)
    monkeypatch.setattr(nulldist, "_BLOCK_BYTES", block_bytes)
    x = boundary_series(7, n)
    u, cfg = np.ldexp(x, -_exponent(x)), make_block_config(n, block_length)
    for rule in stats.RULES.values():
        blocked = stats._ratios(u, cfg, [rule.knots(cfg)])[0]
        if rule.splits is None:
            whole = simple_whole_ratio(u, cfg)
        else:
            whole = full_length_ratio(u, cfg, *rule.splits)
        assert hexes(blocked[0]) == hexes(whole[0]), rule.test_id
        assert hexes(blocked[1]) == hexes(whole[1]), rule.test_id


@pytest.mark.parametrize("block_bytes", [8, 8 * 40, 8 * 333, None])
@pytest.mark.parametrize("n, block_length", [
    (16, 4),  # v1 and v2 both on knots (1, 2, 4): one contrast and one carry for both
    (64, 8),  # no remainder: the last knot's cutoff is n, the simple rule's
    (61, 7), (100, 30), (1000, 4), (2003, None),
])
def test_joint_ratios_equal_the_per_rule_calls(monkeypatch, block_bytes, n, block_length):
    # one walk for every rule shares the knot rows, the numerator and the
    # contrasts among the rules, and must not advance a shared carry twice
    if block_bytes is not None:
        monkeypatch.setattr(nulldist, "_BLOCK_BYTES", block_bytes)
    x = boundary_series(7, n)
    cfg = make_block_config(n, block_length)
    tests = [rule.knots(cfg) for rule in stats.RULES.values()]
    for data in (x, x[0]):
        joint = stats._ratios(data, cfg, tests)
        assert len(joint) == len(tests)
        for knots, (numerator, denominator) in zip(tests, joint):
            single = stats._ratios(data, cfg, [knots])[0]
            assert numerator.tobytes() == single[0].tobytes(), (knots, n)
            assert denominator.tobytes() == single[1].tobytes(), (knots, n)


def test_full_rules_bits_when_remainder_ranks_enter_the_top_rows():
    # pinned from the masked rows: n = 100 in 3 blocks of 30 has 33 knots, so
    # the rows of the knots above 30 take the remainder ranks 91..99
    x = np.random.default_rng(100).standard_normal(100)
    x[50:] += 0.5
    cfg = make_block_config(100, 30)
    assert (cfg.n_blocks, cfg.n_knots) == (3, 33)
    for (t0, t1), pinned in [((1 / 3, 2 / 3), "0x1.55595627a4ca9p+0"),
                             ((1 / 3, 1 / 2), "0x1.6c060de1bc943p+1")]:
        statistic = stats.full_statistic(x, cfg, t0, t1)
        assert statistic.hex() == pinned
        assert statistic == pytest.approx(oracles.full_statistic(x, cfg, t0, t1), rel=1e-12)


def test_full_statistic_bits_at_n_200000():
    # pinned from full-length rows and bridge areas, before the blocked pass
    x = np.random.default_rng(2026).standard_normal(200_000)
    x[100_000:] += 0.01
    cfg = make_block_config(200_000)
    assert stats.full_statistic(x, cfg, 1 / 3, 1 / 2).hex() == "0x1.ea29bbc289600p+0"
    assert stats.full_statistic(x, cfg, 1 / 3, 2 / 3).hex() == "0x1.1f9681529de11p+0"


def test_cusum_lrv_test_bits_at_n_200000():
    # pinned from the integer ramp 1..n over n, before the float one
    x = np.random.default_rng(2026).standard_normal(200_000)
    x[100_000:] += 0.01
    outcome = stats.cusum_lrv_test(x, 0.05)
    assert outcome.statistic.hex() == "0x1.90cab42acd1a1p+0"
    assert outcome.threshold.hex() == "0x1.56cd79c44785dp+0"


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
    u = np.ldexp(x, -_exponent(x))
    # first, so that the rules below would see any row it overwrote
    statistic, sigma2, _ = stats.cusum_lrv(u)
    q = nulldist.kolmogorov_quantile(0.95)
    for row, value, variance, e in zip(x[:-1], statistic, sigma2, _exponent(x)[:, 0]):
        single = stats.cusum_lrv_test(row, 0.05)
        assert np.ldexp(value, e).hex() == single.statistic.hex()
        assert np.ldexp(np.sqrt(variance) * q, e).hex() == single.threshold.hex()
    assert sigma2[-1] == 0.0
    for rule in stats.RULES.values():
        numerator, denominator = stats._ratios(u, cfg, [rule.knots(cfg)])[0]
        for row, top, bottom in zip(x[:-1], numerator, denominator):
            single = stats._statistic(row, cfg, rule.knots(cfg))
            assert (top / bottom).hex() == single.hex(), rule.test_id
        assert numerator[-1] == denominator[-1] == 0.0


def test_statistic_refuses_a_series_of_another_length():
    cfg = make_block_config(100)
    with pytest.raises(ValueError, match="series length 99 does not match n=100"):
        stats.full_statistic(np.random.default_rng(12).standard_normal(99), cfg, 1 / 3, 1 / 2)


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

def test_params_threshold_factors(null_simple_small, null_full_small):
    cfg = make_block_config(200)

    def factor(test_id, null):
        return stats.RULES[test_id].calibration(cfg, null, 0.05).factor

    assert factor("sn_full_v1", null_full_small) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert factor("sn_full_v2", null_full_small) == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
    assert factor("sn_simple", null_simple_small) == 1.0


def test_params_validation(null_simple_small, null_full_small):
    x = np.random.default_rng(12).standard_normal(200)
    cfg = make_block_config(200)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match="alpha="):
            stats.decide_simple(x, cfg, alpha, null_simple_small)
        with pytest.raises(ValueError, match="alpha="):
            stats.decide_full(x, cfg, stats.TestParams.v2(alpha), null_full_small)
    with pytest.raises(ConfigurationError):
        stats.full_statistic(x, cfg, 0.5, 0.4)


def test_params_bind_a_level_to_a_table_rule(null_full_small):
    x = np.random.default_rng(12).standard_normal(200)
    cfg = make_block_config(200)
    for params, test_id in ((stats.TestParams.v1(), "sn_full_v1"),
                            (stats.TestParams.v2(), "sn_full_v2")):
        assert params.rule is stats.RULES[test_id]
        assert stats.decide_full(x, cfg, params, null_full_small).method == params.rule.test_id


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


def test_decide_checks_the_null_kind_then_the_level_then_the_geometry(null_simple_small,
                                                                      null_full_small):
    # 20 points in 6 blocks of 3 are too few, and a level of 1e-9 is below the
    # resolution of 4000 draws
    x = np.random.default_rng(12).standard_normal(20)
    cfg = make_block_config(20)
    rule = stats.RULES["sn_full_v2"]
    with pytest.raises(ConfigurationError, match="^need a full-ratio sample, got simple-ratio$"):
        rule.decide(x, cfg, 1e-9, null_simple_small)
    with pytest.raises(ConfigurationError, match="below the resolution"):
        rule.decide(x, cfg, 1e-9, null_full_small)
    with pytest.raises(ConfigurationError, match="series too short"):
        rule.decide(x, cfg, 0.05, null_full_small)


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
    x[oracles.time_rank(cfg) <= k0 * cfg.n_blocks] = 0.0
    out = stats.decide_full(x, cfg, stats.TestParams.v2(0.05), null_full_small)
    assert out.statistic == 0.0
    assert not out.reject
    assert out.p_value == 1.0


def positions(spec):
    """The step positions of a spec such as "1-11,13,85-99"."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


# The noise-free steps each rule cannot detect at the default geometry, at the
# thresholds of the session nulls; position i is a change after observation i.
BLIND = {
    100: {"sn_simple": "96,98,99", "sn_full_v1": "1-11,13,18,81,83,85-99",
          "sn_full_v2": "1-8,10,12,81,82,85-99"},
    2000: {"sn_simple": "1989-1999", "sn_full_v1": "1-19,26-30,1942,1943,1949,1955-1999",
           "sn_full_v2": "1-18,25-27,1956-1999"},
}


@pytest.mark.parametrize("n, edge", [(100, 96), (2000, 1977)])
def test_noise_free_edge_steps_the_rules_cannot_detect(null_simple_small, null_full_small,
                                                       n, edge):
    # one unit step per position; the ratio is invariant to the step's size,
    # so no size of change at a blind position is detected (0/0 counts as blind)
    cfg = make_block_config(n)
    x = (np.arange(1, n + 1) > np.arange(1, n)[:, None]).astype(float)
    nulls = {null.kind: null for null in (null_simple_small, null_full_small)}
    for name, rule in stats.RULES.items():
        calibration = rule.calibration(cfg, nulls[rule.kind], 0.05)
        numerator, denominator = stats._ratios(x, cfg, [calibration.knots])[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            blind = np.flatnonzero(~(numerator / denominator > calibration.threshold)) + 1
        assert blind.tolist() == positions(BLIND[n][name]), name
        if calibration.knots is not None:
            # the k0 row holds no late offset of a block, whatever the threshold
            assert (np.flatnonzero(numerator == 0.0) + 1).tolist() == list(range(edge, n)), name
    assert all(stats.cusum_lrv_test(row).reject for row in x)


# --- long-run variance baseline ----------------------------------------------

def test_lrv_estimate_constant_series_is_zero():
    assert stats.lrv_estimate(np.full(100, 2.5)) == 0.0


def test_lrv_estimate_iid_unit_variance():
    z = np.random.default_rng(16).standard_normal(100_000)
    assert stats.lrv_estimate(z) == pytest.approx(1.0, abs=0.1)
    # squared window sums of data near 2**508 overflow unless pre-scaled
    assert stats.lrv_estimate(z * 2.0**508) == math.ldexp(stats.lrv_estimate(z), 1016)


def test_lrv_estimate_ar_long_run_variance():
    from sncusum.simulation import gen_errors

    x = gen_errors("ar", 100_000, 17)
    # innovation variance 3/4 over (1 - 1/2)^2
    assert stats.lrv_estimate(x) == pytest.approx(3.0, abs=0.3)


def test_lrv_estimate_refuses_an_estimate_beyond_the_float_range():
    # the scaled estimate is finite, but 4**e of data near 2**600 is not
    x = np.ldexp(np.random.default_rng(0).standard_normal(500), 600)
    with pytest.raises(ConfigurationError, match="long-run variance estimate exceeds"):
        stats.lrv_estimate(x)


def test_lrv_estimate_matches_direct_sum():
    # literal loop over the defining window differences, at the bandwidth
    # floor(200**(1/3)) = 5
    x = np.random.default_rng(18).standard_normal(200)
    n, m = 200, 5
    acc = 0.0
    for i in range(n - 2 * m + 1):
        lead = sum(x[i + j] for j in range(m))
        lag = sum(x[i + j] for j in range(m, 2 * m))
        acc += (lead - lag) ** 2 / (2 * m)
    assert stats.lrv_estimate(x) == pytest.approx(acc / (n - 2 * m + 1))


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


def test_cusum_lrv_p_value_resolves_the_tail():
    # a unit shift at n = 500 puts the statistic far beyond x = 3.72, where
    # 1 - kolmogorov_cdf is 0.0
    x = np.random.default_rng(21).standard_normal(500)
    x[250:] += 1.0
    out = stats.cusum_lrv_test(x, 0.05)
    sigma = out.threshold / out.quantile
    assert out.statistic / sigma > 3.72
    assert out.p_value == pytest.approx(kstwobign.sf(out.statistic / sigma), rel=1e-9)
