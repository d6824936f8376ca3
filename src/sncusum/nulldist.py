"""Monte-Carlo null distributions of the pivotal limiting ratios.

Both decision rules compare against the supremum ratio of functionals of two
independent Brownian motions on [0, 1]:

* ``simple-ratio``: sup|motion| / sup|bridge of the second motion|
* ``full-ratio``:   sup|motion| / sup|second motion|

Paths are simulated as scaled Gaussian random walks on a grid of
``grid_steps`` points.  Every replication draws from its own RNG stream keyed
by (seed, replication index), so results are bit-identical for any worker
count or scheduling order.  ``keyed_streams`` derives the streams of a whole
replication range in one vectorized pass.

A sample is cached as a self-describing text file ``<name>.snq`` (a header
line, then one decimal per draw; 1.9 MB at 100k draws) beside a binary
companion ``<name>.snq.f8`` (0.8 MB): the 32-byte sha256 of the ``.snq``
bytes, then the draws as little-endian float64.  Only ``save_sample`` writes
a companion.  ``load_sample`` takes the draws from it only while its length
and digest match the text beside it, so it returns the draws the text parses
to, in a fraction of the parse time.  Deleting a companion is safe, and a
cache written before companions existed loads from its text; rewriting it
(``sn-cusum nulldist``) adds the companion.  The ``.snq`` bytes are the same
with or without one.
"""

from dataclasses import dataclass, field
from functools import lru_cache
import io
import math
import os
import sys

import numpy as np

from sncusum.errors import CacheFormatError, CacheProvenanceError, ConfigurationError

SIMPLE_RATIO = "simple-ratio"
FULL_RATIO = "full-ratio"
_KINDS = (SIMPLE_RATIO, FULL_RATIO)

# Memory budget of one stacked block of Monte-Carlo replications, sized so
# that a block and the temporaries of its statistics stay in a core's L2 cache.
_BLOCK_BYTES = 2**18

# numpy's SeedSequence hash (a pool of four 32-bit words) and PCG64's LCG
# multiplier: from them `keyed_streams` derives the PCG64 state that
# np.random.default_rng([seed, rep]) starts from.
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BATCH = 1024  # replications whose states are derived in one vectorized pass

# A replication index is one 32-bit entropy word of its stream's seed.
MAX_REPLICATIONS = 2**32

_CACHE_MAGIC = "snq"
_CACHE_VERSION = "v1"
_DIGEST_BYTES = 32  # a sha256 digest, the head of a cache's binary companion


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


def _check_grid_steps(grid_steps: int) -> None:
    if grid_steps < 100:
        raise ValueError(f"grid_steps must be >= 100, got {grid_steps}")


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask where
    the platform has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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


def default_workers() -> int:
    """The worker count when a caller names none: the usable CPUs where pools
    fork (POSIX), else 1; and 1 inside a worker process, so that a caller's
    workers do not each start a pool of their own.  A forked worker does not
    re-import ``__main__``, so this default needs no ``if __name__ ==
    "__main__"`` guard in the calling script."""
    # Every worker process has imported multiprocessing, so a process that
    # has not is no worker; this spares the cold `nulldist` path its import.
    mp = sys.modules.get("multiprocessing")
    if os.name != "posix" or (mp is not None and mp.parent_process() is not None):
        return 1
    return usable_cpus()


def map_chunks(fn, tasks, workers: int) -> list:
    """``[fn(*task) for task in tasks]`` (a list) through one process pool of
    min(workers, usable CPUs, number of tasks) processes, or in this process
    when that is 1 or when this process is daemonic (a ``multiprocessing.Pool``
    worker, which may not start children).  Results keep the order of
    ``tasks``.  On POSIX the workers fork, whatever the platform's default
    start method: they inherit the modules loaded here (such as scipy.signal)
    and never re-import ``__main__``."""
    size = min(workers, usable_cpus(), len(tasks))
    if size > 1:
        # Imported here: `sn-cusum test` never builds a pool.
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork") if os.name == "posix" else None
            with ProcessPoolExecutor(max_workers=size, mp_context=context) as pool:
                return list(pool.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]


def block_rows(row_bytes: int) -> int:
    """Replications per stacked block: as many rows of ``row_bytes`` bytes as
    fit a block of _BLOCK_BYTES, and at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant of numpy SeedSequence's ``hashmix`` before and after
    each of ``calls`` calls, as a uint32 column: call k XORs with entry k and
    multiplies by entry k + 1.  It does not depend on the data hashed."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, once per row of ``consts`` but the last:
    row k hashes ``values`` (or its row k) with constants k and k + 1."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _pcg64_states(seed: int, reps: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) pair that ``default_rng([seed, rep])`` seeds, for
    every rep of a uint32 array: SeedSequence's ``mix_entropy`` and
    ``generate_state(4, uint64)`` on all reps at once, a row of pool words
    per step where the steps are independent, then PCG's ``srandom_r`` per
    rep.  The hash constants depend only on the number of entropy words,
    which is the same for every rep below 2**32."""
    seed = int(seed)
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # the seed's little-endian words, then the rep, padded with zeros to the pool
    entropy = np.zeros((max(len(words) + 1, _POOL_WORDS), len(reps)), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = reps
    extra = len(entropy) - _POOL_WORDS
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * (_POOL_WORDS + extra))
    pool = _hashmix(entropy[:_POOL_WORDS], consts[: _POOL_WORDS + 1])
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):  # every other word absorbs this one
        dst = [d for d in range(_POOL_WORDS) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + _POOL_WORDS]))
        k += _POOL_WORDS - 1
    for word in entropy[_POOL_WORDS:]:
        pool = _mix(pool, _hashmix(word, consts[k : k + _POOL_WORDS + 1]))
        k += _POOL_WORDS
    halves = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS))
    halves = halves.astype(np.uint64)
    # four little-endian uint64 words: the high and low halves of the initial
    # state, then those of the stream selector
    quads = zip(*(halves[0::2] | halves[1::2] << 32).tolist())
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in quads:
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        states.append((((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def keyed_streams(seed: int, start: int, stop: int):
    """The streams of replications ``start`` .. ``stop`` - 1 of ``seed``, in order.

    Yields one Generator, re-seeded before each yield to the state in which
    ``np.random.default_rng([seed, rep])`` starts, so a draw from it equals the
    same draw from that stream; use each before taking the next.  The states
    are derived _SEED_BATCH replications at a time.  The Generator is numpy's
    own ``default_rng([seed, start])``, and its state must equal the derived
    one: a numpy release that seeds differently raises RuntimeError instead of
    changing a draw.
    """
    if not 0 <= start <= stop <= MAX_REPLICATIONS:
        raise ValueError(
            f"replications {start}..{stop} outside 0..{MAX_REPLICATIONS}: "
            "an index is one 32-bit word of its stream's seed"
        )
    for lo in range(start, stop, _SEED_BATCH):
        states = _pcg64_states(seed, np.arange(lo, min(lo + _SEED_BATCH, stop), dtype=np.uint32))
        if lo == start:
            rng = np.random.default_rng([seed, start])
            state = rng.bit_generator.state
            key = state["state"]
            if (key["state"], key["inc"]) != states[0]:
                raise RuntimeError(
                    f"numpy seeds default_rng([{seed}, {start}]) differently from "
                    "keyed_streams; refusing to draw from other streams"
                )
        for key["state"], key["inc"] in states:
            rng.bit_generator.state = state
            yield rng


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
    streams = keyed_streams(seed, start, stop)
    for lo in range(start, stop, len(block)):
        paths = block[: stop - lo]
        for rows, rng in zip(paths, streams):  # rows first: zip stops before taking a stream
            rng.standard_normal((2, grid_steps), out=rows)
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
    workers: int | None = None,
) -> NullSample:
    """Simulate the null distribution of a pivotal ratio.

    Deterministic given (kind, grid_steps, replications, seed): each
    replication draws from its own keyed stream, so the draws are
    byte-identical at any worker count.  ``workers=None`` is
    ``default_workers()``, the same default as ``sn-cusum nulldist``.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    _check_grid_steps(grid_steps)
    if not 1000 <= replications <= MAX_REPLICATIONS:
        raise ValueError(f"replications must be in 1000..{MAX_REPLICATIONS}, got {replications}")
    _check_seed(seed)

    workers = default_workers() if workers is None else workers
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

    Refuses a level outside (0, 1), and one below the p-value resolution
    1/(N+1) of the sample, where even the largest draw would not give a test
    of size alpha.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha={alpha} not in (0, 1)")
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
    if math.isnan(x):
        raise ValueError("kolmogorov_cdf: x is NaN")
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


def kolmogorov_sf(x: float) -> float:
    """Survival function 1 - ``kolmogorov_cdf``, to full relative precision in
    the tail: from x = 1 on it is the series 2*sum_k (-1)**(k-1) exp(-2 k^2 x^2)
    itself, whose terms k >= 5 fall below 1e-20 of the first."""
    if not x >= 1.0:  # NaN reaches kolmogorov_cdf's check
        return 1.0 - kolmogorov_cdf(x)
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(4, 0, -1))


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


def _companion(path) -> str:
    """Path of the binary companion of the cache at ``path``: ``<path>.f8``."""
    return os.fspath(path) + ".f8"


def save_sample(sample: NullSample, path) -> None:
    """Write a null sample as a self-describing text cache and its binary companion.

    The text is the header line ``snq v1 <kind> m=<m> N=<N> seed=<seed>``
    followed by the sorted draws, one shortest-repr decimal per line;
    rewriting a loaded sample reproduces it byte for byte.  The companion
    ``<path>.f8`` then holds the 32-byte sha256 of those text bytes and the
    N draws as little-endian float64, which ``load_sample`` reads instead of
    parsing the text while the digest still matches.  Only this function
    writes a companion, and deleting one is safe.
    """
    import hashlib  # imported here: only a cache save or load hashes (~3 ms cold)

    draws = np.ascontiguousarray(sample.draws, dtype="<f8")
    header = (f"{_CACHE_MAGIC} {_CACHE_VERSION} {sample.kind} "
              f"m={sample.grid_steps} N={draws.size} seed={sample.seed}")
    text = "\n".join([header, *map(repr, draws.tolist()), ""]).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(text)
    with open(_companion(path), "wb") as fh:
        fh.write(hashlib.sha256(text).digest())
        fh.write(draws)


def _companion_draws(path, text: bytes, count: int) -> np.ndarray | None:
    """The draws in the companion of the cache at ``path``, whose bytes are
    ``text``; None unless the companion can be read, is exactly
    _DIGEST_BYTES + 8 * ``count`` bytes long and opens with the sha256 of
    ``text``."""
    import hashlib  # imported here: only a cache save or load hashes (~3 ms cold)

    try:
        with open(_companion(path), "rb") as fh:
            if os.fstat(fh.fileno()).st_size != _DIGEST_BYTES + 8 * count:
                return None
            if fh.read(_DIGEST_BYTES) != hashlib.sha256(text).digest():
                return None
            draws = np.empty(count, dtype="<f8")
            if fh.readinto(draws) != draws.nbytes:
                return None
    except OSError:
        return None
    return draws.astype(float, copy=False)


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
    The draws come from the binary companion ``<path>.f8`` when
    ``save_sample`` wrote it for exactly these text bytes (see
    ``_companion_draws``), else from parsing the text: a cache without a
    companion, or with a stale, short or long one, loads as before.  Either
    way they pass the same checks, and they are the draws the text parses to.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    if not text.isascii():
        offset = next(i for i, byte in enumerate(text) if byte > 0x7F)
        raise CacheFormatError(
            f"cache {path} is not ASCII text: byte {text[offset]:#04x} at offset {offset}"
        )
    head, _, body = text.partition(b"\n")
    header = head.decode("ascii").strip()
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
    if file_n < 1:
        raise CacheFormatError(f"cache {path} claims N={file_n} draws; need at least 1")
    try:  # the bounds simulate_null applies: no run writes other headers
        _check_grid_steps(file_m)
        _check_seed(file_seed)
    except ValueError as exc:
        raise CacheFormatError(f"cache {path} has impossible provenance: {exc}") from None

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

    source = _companion(path)
    draws = _companion_draws(path, text, file_n)
    if draws is None:
        source = path
        try:
            draws = np.loadtxt(io.StringIO(body.decode("ascii")), dtype=float, ndmin=1)
        except ValueError as exc:
            raise CacheFormatError(f"malformed draw records in {path}") from exc
        if draws.size != file_n:
            raise CacheFormatError(
                f"cache {path} holds {draws.size} draws, header claims {file_n}"
            )
    if not np.all(np.isfinite(draws) & (draws > 0)) or np.any(np.diff(draws) < 0):
        raise CacheFormatError(f"draws in {source} are not finite, positive and sorted ascending")
    return NullSample(kind=file_kind, draws=draws, grid_steps=file_m, seed=file_seed)
