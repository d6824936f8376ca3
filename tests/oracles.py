"""Literal reference implementations used to derive and pin expected values.

Everything here is written as plain index-by-index loops over the defining
sums, independent of the package's prefix-sum kernels, or, for the null
draws, one replication at a time, independent of the stacked kernel.
"""

import math

import numpy as np

from sncusum.blocks import _time_rank, permute_index
from sncusum.nulldist import SIMPLE_RATIO


def grid_floor(x: float) -> int:
    return int(math.floor(x + 1e-9))


def partial_sum(x, cfg, t, s):
    m, j = grid_floor(t * cfg.n), grid_floor(s * cfg.n)
    total = 0.0
    for i in range(1, cfg.n + 1):
        p = permute_index(i, cfg)
        if i <= m and p <= j:
            total += x[p - 1]
    return total / cfg.n


def masked_row(x, cfg, m):
    """The process at time cutoff ``m`` over all n+1 columns of the s-grid,
    along the last axis of ``x``, by its masked definition: every observation
    of time rank above m replaced by +0.0, one prefix sum from -0.0 (whose
    addition keeps every bit, so a plain cumsum), divided by n; column 0 is
    +0.0.  This is the bit-level reference of the row kernel."""
    sums = np.cumsum(np.where(_time_rank(cfg) <= m, x, 0.0), axis=-1)
    return np.concatenate([np.zeros(x.shape[:-1] + (1,)), sums / cfg.n], axis=-1)


def coarse_partial_sum(x, cfg, t, s):
    k = grid_floor(t * cfg.n) // cfg.n_blocks
    return partial_sum(x, cfg, k * cfg.n_blocks / cfg.n, s)


def coarse_row(x, cfg, t):
    return np.array([coarse_partial_sum(x, cfg, t, j / cfg.n) for j in range(cfg.n + 1)])


def bridge_integral(values, n):
    out = [0.0]
    for j in range(1, n + 1):
        out.append(sum(values[i] - (i / j) * values[j] for i in range(1, j + 1)) / n)
    return np.array(out)


def numerator_process(x, cfg, t0):
    return math.sqrt(cfg.n) * bridge_integral(coarse_row(x, cfg, t0), cfg.n)


def contrast_process(x, cfg, t0, t1):
    k0 = grid_floor(t0 * cfg.n) // cfg.n_blocks
    k1 = grid_floor(t1 * cfg.n) // cfg.n_blocks
    last = cfg.n // cfg.n_blocks
    early = coarse_row(x, cfg, t0)
    mid = coarse_row(x, cfg, t1)
    late = coarse_row(x, cfg, 1.0)
    ratio = (k1 - k0) / (last - k0)
    return math.sqrt(cfg.n) * (mid - early - ratio * (late - early))


def denominator_process(x, cfg, t0, t1):
    return bridge_integral(contrast_process(x, cfg, t0, t1), cfg.n)


def full_statistic(x, cfg, t0, t1):
    numerator = np.abs(numerator_process(x, cfg, t0)).max()
    denominator = np.abs(denominator_process(x, cfg, t0, t1)).max()
    return numerator / denominator


def simple_statistic(x, cfg):
    n, last = cfg.n, cfg.n_knots
    numerator = max(abs(partial_sum(x, cfg, 1.0, j / n)) for j in range(n + 1))
    final = coarse_partial_sum(x, cfg, 1.0, 1.0)
    denominator = max(
        abs(
            coarse_partial_sum(x, cfg, k * cfg.n_blocks / n, 1.0)
            - (k - 1) / (last - 1) * final
        )
        for k in range(1, last + 1)
    )
    return numerator / denominator


def ratio_draw(kind, rng, grid_steps):
    """One pivotal-ratio draw from one replication's stream, as the package
    drew it one replication at a time."""
    z = rng.standard_normal((2, grid_steps))
    paths = np.cumsum(z, axis=1)
    paths /= math.sqrt(grid_steps)
    numerator = np.abs(paths[0]).max()
    if kind == SIMPLE_RATIO:
        grid = np.arange(1, grid_steps + 1) / grid_steps
        denominator = np.abs(paths[1] - grid * paths[1, -1]).max()
    else:
        denominator = np.abs(paths[1]).max()
    return numerator / denominator


def simulate_chunk(kind, grid_steps, seed, start, stop):
    out = np.empty(stop - start)
    for rep in range(start, stop):
        out[rep - start] = ratio_draw(kind, np.random.default_rng([seed, rep]), grid_steps)
    return out
