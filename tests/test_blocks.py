import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncusum import blocks, nulldist
from sncusum.blocks import (
    BlockConfig,
    knot_of,
    make_block_config,
    partial_sum,
    permute_index,
)

import oracles

X4 = np.array([1.0, 2.0, 3.0, 4.0])
CFG4 = make_block_config(4, 2)


def knot_row(x, cfg, k):
    """The process at coarse knot ``k`` over all n+1 columns of the s-grid,
    by the masked reference."""
    return oracles.masked_row(x, cfg, k * cfg.n_blocks)


def knot_margins(x, cfg):
    """The process at s = 1 for every knot, by the walk's knot-sum step over
    one chunk of the whole series, and one prefix sum over the knots."""
    sums = np.zeros(x.shape[:-1] + (cfg.n_knots + 1,))
    blocks._knot_sums(x, cfg, 1, sums)
    return np.cumsum(sums, axis=-1) / cfg.n


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_default_block_rule():
    cfg = make_block_config(100)
    assert (cfg.block_length, cfg.n_blocks) == (5, 20)
    cfg = make_block_config(1000)
    assert (cfg.block_length, cfg.n_blocks) == (13, 76)


def test_block_override_passthrough():
    cfg = make_block_config(12, 2)
    assert (cfg.block_length, cfg.n_blocks) == (2, 6)


def test_block_rule_clamped_below():
    # n**(3/8) < 2 for small n; the default must still give two knots
    assert make_block_config(4).block_length == 2
    assert make_block_config(15).block_length == 2
    for n in range(16, 600):
        assert make_block_config(n).block_length >= 2


def test_block_config_errors():
    with pytest.raises(ValueError):
        make_block_config(3)
    with pytest.raises(ValueError):
        make_block_config(10, 11)
    with pytest.raises(ValueError):
        make_block_config(10, 0)
    for n in (-5, 0):  # the default-length rule must not take a power of a negative n
        with pytest.raises(ValueError, match=f"need n >= 4, got {n}"):
            make_block_config(n)


def test_block_config_derives_block_count():
    cfg = BlockConfig(n=10, block_length=3)
    assert cfg.n_blocks == 3 and cfg.n_knots == 3
    assert cfg == make_block_config(10, 3)
    with pytest.raises(ValueError, match=r"block_length 0 not in \[1, 10\]"):
        BlockConfig(n=10, block_length=0)
    with pytest.raises(ValueError, match="need n >= 4, got 3"):
        BlockConfig(n=3, block_length=2)


def test_permutation_interleaves_blocks():
    cfg = make_block_config(12, 2)  # 6 blocks of length 2
    assert [permute_index(k, cfg) for k in range(1, 7)] == [1, 3, 5, 7, 9, 11]
    assert [permute_index(k, cfg) for k in range(7, 13)] == [2, 4, 6, 8, 10, 12]


def test_permutation_remainder_fixed_points():
    cfg = make_block_config(5, 2)  # 2 blocks of 2 plus one leftover index
    assert permute_index(5, cfg) == 5


def test_permute_index_range_check():
    with pytest.raises(ValueError):
        permute_index(0, CFG4)
    with pytest.raises(ValueError):
        permute_index(5, CFG4)


def test_permutation_bijection_exhaustive():
    # the time rank, the reference of the row and margin kernels, is a
    # permutation for every (n, block_length) up to n = 500
    for n in range(4, 501):
        for b in range(1, n + 1):
            rank = oracles.time_rank(make_block_config(n, b))
            counts = np.bincount(rank - 1, minlength=n)
            assert len(counts) == n and counts.min() == 1 and counts.max() == 1, (n, b)


def test_permutation_matches_scalar_formula():
    # oracles.time_rank inverts permute_index for every (n, block_length) up to n = 60
    for n in range(4, 61):
        for b in range(1, n + 1):
            cfg = make_block_config(n, b)
            rank = oracles.time_rank(cfg)
            ranks = [rank[permute_index(k, cfg) - 1] for k in range(1, n + 1)]
            assert ranks == list(range(1, n + 1)), (n, b)


def test_partial_sum_hand_cases():
    assert partial_sum(X4, CFG4, 1, 1) == pytest.approx(2.5)
    assert partial_sum(X4, CFG4, 0.5, 1) == pytest.approx(1.0)
    assert partial_sum(X4, CFG4, 0.5, 0.5) == pytest.approx(0.25)


def test_partial_sum_rejects_bad_fractions():
    with pytest.raises(ValueError):
        partial_sum(X4, CFG4, -0.1, 0.5)
    with pytest.raises(ValueError):
        partial_sum(X4, CFG4, 0.5, 1.4)


def test_partial_sum_zero_boundaries():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20)
    cfg = make_block_config(20, 4)
    for u in (0.0, 0.3, 1.0):
        assert partial_sum(x, cfg, 0.0, u) == 0.0
        assert partial_sum(x, cfg, u, 0.0) == 0.0


def test_signed_zeros_keep_their_bits():
    # pinned before the carried prefix sum: a sum continued from +0.0 would
    # turn the leading -0.0 values into +0.0
    x = [-0.0, -0.0, 1, 2, 3, 4, 5, 6]
    cfg = make_block_config(8, 2)
    assert partial_sum(x, cfg, 1.0, 1 / 8).hex() == "-0x0.0p+0"
    row = knot_row(blocks.as_series(x), cfg, cfg.n_knots)[:3]
    assert [v.hex() for v in row] == ["0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0"]


def signed_zero_stack(n):
    """Four series of length n: plain, half -0.0, all -0.0, and -0.0 and +0.0
    at every third position each."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((4, n))
    x[1, rng.random(n) < 0.5] = -0.0
    x[2] = -0.0
    x[3, ::3], x[3, 1::3] = -0.0, 0.0
    return x


def whole_row(x, cfg, m):
    """``blocks._row`` over all n+1 grid columns, in one chunk; column 0 (s = 0) is zero."""
    row = np.zeros(x.shape[:-1] + (cfg.n + 1,))
    blocks._row(x, cfg, m, 1, np.full(x.shape[:-1] + (1,), -0.0), row[..., 1:], np.empty(x.shape))
    return row


@pytest.mark.parametrize("n", [4, 9, 14, 31, 50, 61, 100])
def test_rows_equal_the_masked_reference(n):
    # the bits of every cutoff m of every block length: knot rows (m a
    # multiple of n_blocks), rows between knots, and rows that take
    # remainder positions; for the stack and for one series of it
    x = signed_zero_stack(n)
    for b in range(1, n + 1):
        cfg = make_block_config(n, b)
        for m in range(n + 1):
            want = oracles.masked_row(x, cfg, m)
            assert whole_row(x, cfg, m).tobytes() == want.tobytes(), (b, m)
            assert whole_row(x[1], cfg, m).tobytes() == want[1].tobytes(), (b, m)


def test_held_signed_zero_crosses_block_boundaries():
    # pinned from the masked rows: -0.0 opens every block, so each block's
    # first value follows a held +0.0 and must read +0.0, not -0.0
    x = [-0.0, -0.0, 1, 2, -0.0, -0.0, 3, 4, -0.0, 5, 6, 7, -0.0, -0.0]
    cfg = make_block_config(14, 4)  # 3 blocks of 4, two remainder positions
    zero = "0x0.0p+0"
    rows = [whole_row(blocks.as_series(x), cfg, k * cfg.n_blocks) for k in (1, 2, 3)]
    assert hexes(rows[0]) == [zero, "-" + zero] + [zero] * 13
    assert hexes(rows[1]) == [zero, "-" + zero, "-" + zero] + [zero] * 7 + ["0x1.6db6db6db6db7p-2"] * 5
    assert hexes(rows[2]) == (
        [zero, "-" + zero, "-" + zero] + ["0x1.2492492492492p-4"] * 4
        + ["0x1.2492492492492p-2"] * 3 + ["0x1.4924924924925p-1"] + ["0x1.1249249249249p+0"] * 4
    )


def test_partial_sum_bits_at_cutoffs_between_knots():
    # pinned from the masked rows; m = 17 = 2 * 7 + 3 takes 3 elements of
    # the first three blocks and 2 of the others, m = 45 all of the first
    # three blocks, m = 50 the remainder position
    x = np.random.default_rng(18).standard_normal(50)
    x[::6] = -0.0
    cfg = make_block_config(50, 7)
    assert partial_sum(x, cfg, 17 / 50, 30 / 50).hex() == "0x1.0b1acb9257b61p-3"
    assert partial_sum(x, cfg, 45 / 50, 44 / 50).hex() == "0x1.9730f06321c71p-3"
    assert partial_sum(x, cfg, 1.0, 1.0).hex() == "0x1.4631cf541c07cp-3"
    assert partial_sum(x, cfg, 3 / 50, 40 / 50).hex() == "0x1.106b46b6407eap-5"
    values = " ".join(partial_sum(x, cfg, m / 50, j / 50).hex()
                      for m in range(51) for j in range(51))
    digest = hashlib.sha256(values.encode()).hexdigest()
    assert digest == "1fb1f657b0a4518ac8c09dcda702e7335ee80519eaca5ddd94b59c261e850524"


def test_ordinary_process_is_prefix_mean():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(37)
    cfg = make_block_config(37)
    for j in range(38):
        expected = x[:j].sum() / 37
        assert partial_sum(x, cfg, 1.0, j / 37) == pytest.approx(expected, abs=1e-14)


def test_single_index_increment_bound():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(30)
    cfg = make_block_config(30, 5)
    cap = np.abs(x).max() / 30
    for m in range(30):
        step = abs(
            partial_sum(x, cfg, (m + 1) / 30, 0.7) - partial_sum(x, cfg, m / 30, 0.7)
        )
        assert step <= cap + 1e-15


def test_coarsened_hand_cases():
    # 2 blocks of 2, knots at t = 0, 1/2, 1
    assert not knot_row(X4, CFG4, 0).any()
    # t=0.6 snaps down to knot 1 (t=1/2): the first element of each block
    np.testing.assert_allclose(knot_row(X4, CFG4, knot_of(CFG4, 0.6)), [0.0, 0.25, 0.25, 1.0, 1.0])
    assert knot_row(X4, CFG4, 2)[2] == partial_sum(X4, CFG4, 1.0, 0.5)


def test_coarsened_piecewise_constant_in_t():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(60)
    cfg = make_block_config(60, 6)  # n_blocks=10, knots every 1/6
    width = cfg.n_blocks / cfg.n
    for k in range(cfg.n_knots):
        left = k * width
        for frac in (0.0, 0.37, 0.93):
            assert knot_of(cfg, left + frac * width * 0.999) == k
        assert knot_row(x, cfg, k)[48] == partial_sum(x, cfg, left, 0.8)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 120),
    data=st.data(),
)
def test_partial_sum_matches_brute_force(n, data):
    b = data.draw(st.integers(1, n))
    t = data.draw(st.floats(0, 1))
    s = data.draw(st.floats(0, 1))
    seed = data.draw(st.integers(0, 2**31))
    cfg = make_block_config(n, b)
    x = np.random.default_rng(seed).standard_normal(n)
    assert partial_sum(x, cfg, t, s) == pytest.approx(
        oracles.partial_sum(x, cfg, t, s), abs=1e-12
    )


def test_grid_rows_match_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(4, 80))
        b = int(rng.integers(1, n + 1))
        cfg = make_block_config(n, b)
        x = rng.standard_normal(n)
        for k in range(cfg.n_knots + 1):
            t = k * cfg.n_blocks / n
            for j in (0, n // 3, n):
                assert knot_row(x, cfg, k)[j] == pytest.approx(
                    oracles.partial_sum(x, cfg, t, j / n), abs=1e-12
                )


def test_grid_margins_and_coarse_value():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(50)
    cfg = make_block_config(50, 7)  # 7 blocks of 7 plus one leftover index
    margins = knot_margins(x, cfg)
    assert margins.shape == (cfg.n_knots + 1,)
    for k in range(cfg.n_knots + 1):
        t = k * cfg.n_blocks / cfg.n
        assert margins[k] == pytest.approx(oracles.partial_sum(x, cfg, t, 1.0), abs=1e-14)
    assert knot_row(x, cfg, knot_of(cfg, 0.55))[20] == pytest.approx(
        oracles.coarse_partial_sum(x, cfg, 0.55, 0.4), abs=1e-14
    )


def test_knot_margins_equal_the_binned_reference():
    # every block length from 2 to n/4, so remainders of 0 to b - 1 positions
    # and n_knots > b whenever the remainder holds a whole n_blocks of them
    seen_extra_knots = 0
    for n in (*range(8, 80), 100, 157, 500, 2003):
        x = signed_zero_stack(n)
        for b in range(2, n // 4 + 1):
            cfg = make_block_config(n, b)
            seen_extra_knots += cfg.n_knots > b
            for data in (x, x[1]):
                margins = knot_margins(data, cfg)
                assert margins.shape == data.shape[:-1] + (cfg.n_knots + 1,)
                assert margins.tobytes() == oracles.knot_margins(data, cfg).tobytes(), (n, b)
    assert seen_extra_knots > 600


@pytest.mark.parametrize("n, b", [(500, 10), (100, 30), (2003, 17)])
def test_knot_margins_of_a_stack_equal_its_rows(n, b):
    cfg = make_block_config(n, b)
    x = np.random.default_rng(22).standard_normal((nulldist.block_rows(8 * n), n))
    x[::2, ::3], x[1::2, 1::3] = -0.0, 0.0
    margins = knot_margins(x, cfg)
    assert margins.tobytes() == oracles.knot_margins(x, cfg).tobytes()
    for row in (0, len(x) // 2, len(x) - 1):
        assert margins[row].tobytes() == knot_margins(x[row], cfg).tobytes()


def test_scale_equivariance_power_of_two_is_exact():
    rng = np.random.default_rng(6)
    # the mean 1 drives sums past 16, beyond the float range at 2**1020
    x = rng.standard_normal(40) + 1.0
    cfg = make_block_config(40, 4)
    for t, s in [(0.3, 0.9), (0.75, 0.4), (1.0, 1.0)]:
        for c in (4.0, 2.0**1020):
            assert partial_sum(c * x, cfg, t, s) == c * partial_sum(x, cfg, t, s)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-50, 50), seed=st.integers(0, 2**31))
def test_scale_equivariance(c, seed):
    x = np.random.default_rng(seed).standard_normal(24)
    cfg = make_block_config(24, 3)
    scaled = partial_sum(c * x, cfg, 0.6, 0.8)
    assert scaled == pytest.approx(c * partial_sum(x, cfg, 0.6, 0.8), abs=1e-12)


def test_as_series_validation():
    with pytest.raises(ValueError):
        blocks.as_series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        blocks.as_series([1.0, 2.0, np.nan, 4.0])
    with pytest.raises(ValueError):
        blocks.as_series(np.zeros((4, 2)))
