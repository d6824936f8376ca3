"""Monte-Carlo null distributions of the pivotal limiting ratios.

Both decision rules compare against the supremum ratio of functionals of two
independent Brownian motions on [0, 1]:

* ``simple-ratio``: sup|motion| / sup|bridge of the second motion|
* ``full-ratio``:   sup|motion| / sup|second motion|

Paths are simulated as scaled Gaussian random walks on a grid of
``grid_steps`` points.  Every replication draws from its own RNG stream keyed
by (seed, replication index), so results are bit-identical for any worker
count or scheduling order.
"""

from dataclasses import dataclass, field
from functools import lru_cache
import math
import os

import numpy as np

from sncusum.errors import CacheFormatError, CacheProvenanceError, ConfigurationError

SIMPLE_RATIO = "simple-ratio"
FULL_RATIO = "full-ratio"
_KINDS = (SIMPLE_RATIO, FULL_RATIO)

# Memory budget of one stacked block of Monte-Carlo replications, sized so
# that a block and the temporaries of its statistics stay in a core's L2 cache.
_BLOCK_BYTES = 2**18

_CACHE_MAGIC = "snq"
_CACHE_VERSION = "v1"


@dataclass
class NullSample:
    """Sorted Monte-Carlo draws of a pivotal ratio together with provenance."""

    kind: str
    draws: np.ndarray = field(repr=False)
    grid_steps: int
    seed: int

    @property
    def replications(self) -> int:
        """Number of draws."""
        return len(self.draws)


def _check_seed(seed: int) -> None:
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def kind_seeds(base: int) -> dict[str, int]:
    """Seed of each ratio kind: ``base`` for the simple ratio, ``base + 1`` for
    the full ratio.  Raises ValueError unless both fit in 64 unsigned bits."""
    seeds = {kind: base + offset for offset, kind in enumerate(_KINDS)}
    for seed in seeds.values():
        _check_seed(seed)
    return seeds


def plan_chunks(total: int, workers: int, min_chunk: int) -> list[int]:
    """Split ``total`` replications into about four chunks per worker; returns
    the chunk bounds."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunk = max(min_chunk, -(-total // (workers * 4)))
    return list(range(0, total, chunk)) + [total]


def map_chunks(fn, tasks, workers: int) -> list:
    """``[fn(*task) for task in tasks]`` (a list) through one process pool of
    min(workers, CPU count, number of tasks) processes, or in this process
    when that is 1.  Results keep the order of ``tasks``."""
    size = min(workers, os.cpu_count() or 1, len(tasks))
    if size <= 1:
        return [fn(*task) for task in tasks]
    # Imported here: `sn-cusum test` never builds a pool.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def block_rows(row_bytes: int) -> int:
    """Replications per stacked block: as many rows of ``row_bytes`` bytes as
    fit a block of _BLOCK_BYTES, and at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _simulate_chunk(kind: str, grid_steps: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Draws ``start`` .. ``stop`` - 1, a stacked block of replications at a time.

    Each replication fills its own rows from its own (seed, replication) stream,
    so the block height cannot change a draw.  The sups of the plain walks are
    taken before the division by sqrt(m): the division is monotone, so the
    result is the same.
    """
    out = np.empty(stop - start)
    root = math.sqrt(grid_steps)
    chord = np.arange(1, grid_steps + 1) / grid_steps
    block = np.empty((min(block_rows(16 * grid_steps), stop - start), 2, grid_steps))
    for lo in range(start, stop, len(block)):
        paths = block[: stop - lo]
        for rep, rows in zip(range(lo, stop), paths):
            np.random.default_rng([seed, rep]).standard_normal((2, grid_steps), out=rows)
        np.cumsum(paths, axis=-1, out=paths)
        motion, second = paths[:, 0], paths[:, 1]
        numerator = np.maximum(motion.max(axis=-1), -motion.min(axis=-1)) / root
        if kind == SIMPLE_RATIO:
            second = second / root  # the bridge is not monotone in the walk: divide first
            denominator = np.abs(second - chord * second[:, -1:]).max(axis=-1)
        else:
            denominator = np.maximum(second.max(axis=-1), -second.min(axis=-1)) / root
        out[lo - start : lo - start + len(paths)] = numerator / denominator
    return out


def simulate_null(
    kind: str,
    grid_steps: int = 1000,
    replications: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> NullSample:
    """Simulate the null distribution of a pivotal ratio.

    Deterministic given (kind, grid_steps, replications, seed); the worker
    count only affects wall-clock time.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if grid_steps < 100:
        raise ValueError(f"grid_steps must be >= 100, got {grid_steps}")
    if replications < 1000:
        raise ValueError(f"replications must be >= 1000, got {replications}")
    _check_seed(seed)

    bounds = plan_chunks(replications, workers, min_chunk=1000)
    tasks = [(kind, grid_steps, seed, start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
    draws = np.concatenate(map_chunks(_simulate_chunk, tasks, workers))
    draws.sort()
    return NullSample(kind=kind, draws=draws, grid_steps=grid_steps, seed=int(seed))


def quantile(sample: NullSample, level: float) -> float:
    """Empirical quantile: the order statistic at rank ceil(level * N)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    # A product a few ulps off an integer is float error, not a fraction of a
    # rank: (1 - 0.059) * 1000 is 941.0000000000001, and its ceiling is 942.
    product = level * sample.replications
    rank = round(product)
    if abs(product - rank) > 16 * math.ulp(product):
        rank = math.ceil(product)
    return float(sample.draws[rank - 1])


def critical_value(sample: NullSample, alpha: float) -> float:
    """The (1 - alpha) quantile a test at level ``alpha`` rejects above.

    Refuses a level below the p-value resolution 1/(N+1) of the sample, where
    even the largest draw would not give a test of size alpha.
    """
    if alpha * (sample.replications + 1) < 1:
        raise ConfigurationError(
            f"alpha={alpha:g} is below the resolution 1/(N+1) of N={sample.replications} draws"
        )
    return quantile(sample, 1.0 - alpha)


def p_value(sample: NullSample, observed: float) -> float:
    """Add-one Monte-Carlo p-value: (1 + #draws >= observed) / (N + 1)."""
    count = sample.replications - np.searchsorted(sample.draws, observed, side="left")
    return float((1 + count) / (sample.replications + 1))


def kolmogorov_cdf(x: float) -> float:
    """CDF of the supremum of the absolute Brownian bridge.

    Evaluated as the alternating series 1 - 2*sum_k (-1)**(k-1) exp(-2 k^2 x^2),
    truncated once a term drops below 1e-12.
    """
    if x <= 0.0:
        return 0.0
    total = 0.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * x * x)
        if term < 1e-12:
            break
        total += -term if k % 2 == 0 else term
        k += 1
    return min(1.0, max(0.0, 1.0 - 2.0 * total))


@lru_cache(maxsize=64)
def kolmogorov_quantile(level: float) -> float:
    """Inverse of ``kolmogorov_cdf`` by bisection to absolute precision 1e-8."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    lo, hi = 0.0, 2.0
    while kolmogorov_cdf(hi) < level:
        hi *= 2.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if kolmogorov_cdf(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def save_sample(sample: NullSample, path) -> None:
    """Write a null sample as a self-describing text cache.

    Header line ``snq v1 <kind> m=<m> N=<N> seed=<seed>`` followed by the
    sorted draws, one decimal per line.  Rewriting a loaded sample reproduces
    the file byte for byte.
    """
    lines = [
        f"{_CACHE_MAGIC} {_CACHE_VERSION} {sample.kind} "
        f"m={sample.grid_steps} N={sample.replications} seed={sample.seed}"
    ]
    lines.extend(repr(float(v)) for v in sample.draws)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def load_sample(
    path,
    kind: str | None = None,
    grid_steps: int | None = None,
    replications: int | None = None,
    seed: int | None = None,
) -> NullSample:
    """Load a cached null sample, verifying the provenance header.

    Any expected value passed as a keyword must match the header exactly;
    mismatches raise CacheProvenanceError, malformed files CacheFormatError.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        fields = header.split()
        if len(fields) != 6 or fields[0] != _CACHE_MAGIC:
            raise CacheFormatError(f"not a null-sample cache: {path}")
        if fields[1] != _CACHE_VERSION:
            raise CacheFormatError(f"unknown cache version {fields[1]!r} in {path}")
        try:
            file_kind = fields[2]
            file_m = int(fields[3].removeprefix("m="))
            file_n = int(fields[4].removeprefix("N="))
            file_seed = int(fields[5].removeprefix("seed="))
        except ValueError as exc:
            raise CacheFormatError(f"malformed cache header in {path}: {header!r}") from exc
        if file_kind not in _KINDS:
            raise CacheFormatError(f"unknown ratio kind {file_kind!r} in {path}")

        for name, expected, actual in [
            ("kind", kind, file_kind),
            ("grid_steps", grid_steps, file_m),
            ("replications", replications, file_n),
            ("seed", seed, file_seed),
        ]:
            if expected is not None and expected != actual:
                raise CacheProvenanceError(
                    f"cache {path} has {name}={actual}, expected {expected}"
                )

        try:
            draws = np.loadtxt(fh, dtype=float, ndmin=1)
        except ValueError as exc:
            raise CacheFormatError(f"malformed draw records in {path}") from exc
    if draws.size != file_n:
        raise CacheFormatError(
            f"cache {path} holds {draws.size} draws, header claims {file_n}"
        )
    if not np.all(np.isfinite(draws) & (draws > 0)) or np.any(np.diff(draws) < 0):
        raise CacheFormatError(f"draws in {path} are not finite, positive and sorted ascending")
    return NullSample(kind=file_kind, draws=draws, grid_steps=file_m, seed=file_seed)
