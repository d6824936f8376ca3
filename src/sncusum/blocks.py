"""Block-permuted bivariate partial-sum process.

The sample of length ``n`` is split into ``n_blocks`` consecutive blocks of
``block_length`` observations (plus a short remainder).  A fixed reordering
interleaves the blocks round-robin, so that the first argument ``t`` of the
bivariate process controls how many elements of every block enter the sum,
while the second argument ``s`` controls the usual sample proportion.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

# Grid-snapping guard: floor(t*n) must not lose exact grid points such as
# t = 29/100 to one-ulp float noise.
_GRID_EPS = 1e-9


def _floor_index(x: float) -> int:
    return int(math.floor(x + _GRID_EPS))


@dataclass(frozen=True)
class BlockConfig:
    """Sample size, block length and the induced block count."""

    n: int
    block_length: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"need n >= 4, got {self.n}")
        if not 1 <= self.block_length <= self.n:
            raise ValueError(f"block_length {self.block_length} not in [1, {self.n}]")

    @property
    def n_blocks(self) -> int:
        """Number of full blocks: n // block_length."""
        return self.n // self.block_length

    @property
    def n_knots(self) -> int:
        """Number of coarse time steps: the process is evaluated at
        t = k * n_blocks / n for k = 0..n_knots."""
        return self.n // self.n_blocks


def make_block_config(n: int, block_length: int | None = None) -> BlockConfig:
    """Build a block configuration, defaulting to block length floor(n**(3/8)).

    The default is clamped below at 2, which keeps at least two coarse time
    knots for every n >= 4.  An explicit ``block_length`` overrides the rule.
    """
    if block_length is None:
        # max(n, 0): a negative n must reach the n >= 4 check, not a complex power
        block_length = max(2, int(max(n, 0) ** 0.375 + _GRID_EPS))
    return BlockConfig(n=n, block_length=block_length)


def permute_index(k: int, cfg: BlockConfig) -> int:
    """Map the 1-based time index ``k`` to its 1-based sample position.

    The first ``n_blocks`` indices go to the first element of each block, the
    next ``n_blocks`` to the second elements, and so on; indices beyond
    ``n_blocks * block_length`` are fixed points.
    """
    if not 1 <= k <= cfg.n:
        raise ValueError(f"index {k} not in [1, {cfg.n}]")
    b, ell = cfg.block_length, cfg.n_blocks
    if k > ell * b:
        return k
    return ((k - 1) % ell) * b + (k + ell - 1) // ell


@lru_cache(maxsize=128)
def _time_rank(cfg: BlockConfig) -> np.ndarray:
    """1-based time rank of each 0-based sample position (the inverse of
    ``permute_index``); cached and read-only.

    Position p inside the blocks is element p % b of block p // b, which the
    round-robin visits at time (p % b) * n_blocks + p // b + 1; positions
    beyond the blocks are fixed points.
    """
    b, ell = cfg.block_length, cfg.n_blocks
    p = np.arange(cfg.n)
    rank = np.where(p < ell * b, (p % b) * ell + p // b + 1, p + 1)
    rank.setflags(write=False)
    return rank


def as_series(values, cfg: BlockConfig | None = None) -> np.ndarray:
    """Validate and convert a series to a 1-d float array (n >= 4, all finite).

    With ``cfg`` given, the length must match ``cfg.n``.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-dimensional, got shape {x.shape}")
    if x.size < 4:
        raise ValueError(f"series too short: n={x.size} < 4")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    if cfg is not None and x.size != cfg.n:
        raise ValueError(f"series length {x.size} does not match n={cfg.n}")
    return x


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} not in [0, 1]")


def _row(x: np.ndarray, cfg: BlockConfig, m: int) -> np.ndarray:
    """Process over the s-grid from the observations of time rank <= ``m``,
    along the last axis of ``x`` (one series or a stack of them).

    Returns an array ``row`` whose last axis has length n+1, with
    ``row[..., j]`` the process value at s = j/n.
    """
    row = np.empty(x.shape[:-1] + (cfg.n + 1,))
    row[..., 0] = 0.0
    np.cumsum(np.where(_time_rank(cfg) <= m, x, 0.0), axis=-1, out=row[..., 1:])
    row /= cfg.n
    return row


def partial_sum(x, cfg: BlockConfig, t: float, s: float) -> float:
    """Bivariate partial sum: average of the observations whose time rank is
    at most floor(t*n) and whose sample position is at most floor(s*n)."""
    x = as_series(x, cfg)
    _check_unit("t", t)
    _check_unit("s", s)
    return float(_row(x, cfg, _floor_index(t * cfg.n))[_floor_index(s * cfg.n)])


def knot_of(cfg: BlockConfig, t: float) -> int:
    """Coarse time step containing ``t``: floor(t * n / n_blocks)."""
    _check_unit("t", t)
    return _floor_index(t * cfg.n) // cfg.n_blocks


class PartialSumGrid:
    """A validated series with its block geometry, read one knot row at a time.

    ``x`` is one series, or a stack of series along its leading axes whose
    rows are each read as that series alone; every method works along the
    last axis.  ``row(k)`` is the process at t = k*n_blocks/n over the s-grid
    {j/n}.  Each row costs one O(n) cumulative sum; no lattice of all knots
    is built.
    """

    def __init__(self, cfg: BlockConfig, x: np.ndarray):
        self.cfg = cfg
        self.x = x

    @classmethod
    def compute(cls, x, cfg: BlockConfig) -> "PartialSumGrid":
        return cls(cfg, as_series(x, cfg))

    def row(self, k: int) -> np.ndarray:
        """Process at coarse knot ``k`` over the s-grid, length n+1."""
        return _row(self.x, self.cfg, k * self.cfg.n_blocks)

    def knot_margins(self) -> np.ndarray:
        """Coarsened process at s=1 for every knot (the time marginal)."""
        cfg = self.cfg
        # the first knot whose row includes each position; the last position
        # of time rank n falls in bin ceil(n / n_blocks)
        step = (_time_rank(cfg) + cfg.n_blocks - 1) // cfg.n_blocks
        bins = -(-cfg.n // cfg.n_blocks) + 1
        rows = self.x.reshape(-1, cfg.n)
        # one bincount over all rows: row r owns bins r*bins .. r*bins + bins-1
        index = step + bins * np.arange(len(rows))[:, None]
        sums = np.bincount(index.ravel(), weights=rows.ravel())
        sums = sums.reshape(self.x.shape[:-1] + (bins,))
        return np.cumsum(sums, axis=-1)[..., : cfg.n_knots + 1] / cfg.n
