"""Block-permuted bivariate partial-sum process.

The sample of length ``n`` is split into ``n_blocks`` consecutive blocks of
``block_length`` observations (plus a short remainder).  A fixed reordering
interleaves the blocks round-robin, so that the first argument ``t`` of the
bivariate process controls how many elements of every block enter the sum,
while the second argument ``s`` controls the usual sample proportion.
"""

from dataclasses import dataclass
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


def as_series(values, cfg: BlockConfig | None = None) -> np.ndarray:
    """Validate and convert a series to a 1-d float array (n >= 4, all finite).

    With ``cfg`` given, the length must match ``cfg.n``.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-dimensional, got shape {x.shape}")
    if x.size < 4:
        raise ValueError(f"series too short: n={x.size} < 4")
    # a NaN or inf reaches the max or the min, with no n-byte mask
    if not (math.isfinite(np.maximum.reduce(x)) and math.isfinite(np.minimum.reduce(x))):
        raise ValueError("series contains non-finite values")
    if cfg is not None and x.size != cfg.n:
        raise ValueError(f"series length {x.size} does not match n={cfg.n}")
    return x


def _sup(values: np.ndarray) -> np.ndarray:
    """max |values| along the last axis, by ufunc reduces (no method wrappers)."""
    return np.maximum(np.maximum.reduce(values, axis=-1), -np.minimum.reduce(values, axis=-1))


def _exponent(x: np.ndarray) -> np.ndarray:
    """e, the binary exponent of max|x| along the last axis (0 for a zero
    row), kept as a last axis of length one: x times 2**-e lies in (-1, 1)."""
    return np.frexp(_sup(x))[1][..., None]


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each series along the last axis of ``x`` times 2**-e, and e."""
    e = _exponent(x)
    return np.ldexp(x, -e), e[..., 0]


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} not in [0, 1]")


def _carried_cumsum(values: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """Prefix sum of ``values`` along the last axis, in place, continued from
    the running sum ``carry`` (shape ``values.shape[:-1] + (1,)``), which is
    left holding the new one: blocks summed in turn give the bits of one whole
    prefix sum.  A fresh carry is -0.0, whose addition keeps every bit."""
    values[..., :1] += carry
    np.add.accumulate(values, axis=-1, out=values)
    carry[...] = values[..., -1:]
    return values


def _held_prefix(xs: np.ndarray, out: np.ndarray, width: int, count: int, n: int,
                 carry: np.ndarray, scratch: np.ndarray) -> None:
    """Fill ``out`` with the row over blocks of ``width`` positions of ``xs``
    that hold their first ``count``: their carried prefix sum over n, held over
    the other offsets; ``scratch``, as wide as ``xs``, takes the held prefixes.
    The masked row adds +0.0 (turning -0.0 to +0.0) at each excluded offset,
    so this adds it to the held values, the carry and later blocks."""
    count = min(max(count, 0), width)
    if count == width:  # nothing excluded: the plain prefix sum
        np.copyto(out, xs)
        _carried_cumsum(out, carry)
        out /= n
        return
    shape = xs.shape[:-1] + (-1, width)
    rows, held = out.reshape(shape), carry[..., None] / n
    if count:
        flat = scratch[..., : xs.shape[-1] // width * count]
        head = flat.reshape(shape[:-1] + (count,))
        np.copyto(head, xs.reshape(shape)[..., :count])
        head[..., 1:, 0] += 0.0
        _carried_cumsum(flat, carry)
        np.divide(head, n, out=rows[..., :count])
        held = rows[..., count - 1 : count]
    np.add(held, 0.0, out=rows[..., count:])
    carry += 0.0


def _row(x: np.ndarray, cfg: BlockConfig, m: int, lo: int, carry: np.ndarray,
         out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Process at s = j/n into ``out``, along the last axis of the chunk ``x``
    of the series at positions lo - 1, lo, ... (lo - 1 a block boundary; the
    chunk ends at one, or at n), continuing from ``carry``; ``scratch`` is as
    wide as the chunk.  It sums the observations of time rank <= m =
    q * n_blocks + r: the first q + 1 of the first r blocks, q of the others,
    remainder positions p < m."""
    b, ell = cfg.block_length, cfg.n_blocks
    q, r = divmod(m, ell)
    start, stop = lo - 1, lo - 1 + x.shape[-1]
    tail = min(stop, ell * b)
    split = min(max(r * b, start), tail)
    for a, z, width, count in ((start, split, b, q + 1), (split, tail, b, q),
                               (tail, stop, cfg.n - ell * b, m - ell * b)):
        if a < z:
            part = slice(a - start, z - start)
            _held_prefix(x[..., part], out[..., part], width, count, cfg.n, carry,
                         scratch[..., part])
    return out


def _whole_row(x: np.ndarray, cfg: BlockConfig, m: int) -> np.ndarray:
    """``_row`` over all n+1 grid columns; column 0 (s = 0) is zero."""
    row = np.zeros(x.shape[:-1] + (cfg.n + 1,))
    _row(x, cfg, m, 1, np.full(x.shape[:-1] + (1,), -0.0), row[..., 1:], np.empty(x.shape))
    return row


def partial_sum(x, cfg: BlockConfig, t: float, s: float) -> float:
    """Bivariate partial sum: the observations of time rank <= floor(t*n) and
    sample position <= floor(s*n), summed over n; exact at any finite scale,
    as the row is taken of ``_unit_scaled`` data and scaled back by 2**e."""
    x = as_series(x, cfg)
    _check_unit("t", t)
    _check_unit("s", s)
    u, e = _unit_scaled(x)
    row = _whole_row(u, cfg, _floor_index(t * cfg.n))
    return float(np.ldexp(row[_floor_index(s * cfg.n)], int(e)))


def knot_of(cfg: BlockConfig, t: float) -> int:
    """Coarse time step containing ``t``: floor(t * n / n_blocks)."""
    _check_unit("t", t)
    return _floor_index(t * cfg.n) // cfg.n_blocks


def _knot_sums(xs: np.ndarray, cfg: BlockConfig, lo: int, sums: np.ndarray) -> None:
    """Add the chunk ``xs`` (as in ``_row``) to ``sums``, whose prefix sum over
    knots 0..n_knots is the process at s = 1 times n: knot k <= b sums offset
    k - 1 of every block, each later knot the next n_blocks remainder
    positions, in position order.  Past the first chunk, the first block takes
    the running sums in place (``xs`` changes) and the blocks continue them."""
    b, ell, last = cfg.block_length, cfg.n_blocks, cfg.n_knots
    lead, start = xs.shape[:-1], lo - 1
    head = xs[..., : min(xs.shape[-1], ell * b - start)]
    if start:
        head[..., :b] += sums[..., 1 : b + 1]
    # numpy adds whole blocks in turn for b >= 2 (b = 1, one knot, is refused)
    np.add.reduce(head.reshape(lead + (-1, b)), axis=-2, out=sums[..., 1 : b + 1])
    if last > b and start + xs.shape[-1] == cfg.n:  # the chunk holds the remainder
        rest = xs[..., ell * b - start : last * ell - start].reshape(lead + (last - b, ell))
        sums[..., b + 1 :] = np.cumsum(rest, axis=-1)[..., -1]


class PartialSumGrid:
    """A series validated by ``as_series`` against its block geometry: the
    input of the public ``*_statistic_from_grid`` functions.  The statistic
    kernels read the plain array ``x`` and ``cfg``."""

    def __init__(self, cfg: BlockConfig, x: np.ndarray):
        self.cfg = cfg
        self.x = x

    @classmethod
    def compute(cls, x, cfg: BlockConfig) -> "PartialSumGrid":
        return cls(cfg, as_series(x, cfg))
