import concurrent.futures
from fractions import Fraction
import hashlib
import json
import math
import multiprocessing
import operator
import os
import re
from pathlib import Path
import subprocess
import sys
from unittest import mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstwobign

from sncusum import nulldist, stats
from sncusum.errors import CacheFormatError, CacheProvenanceError, ConfigurationError
from sncusum.nulldist import (
    FULL_RATIO,
    SIMPLE_RATIO,
    NullSample,
    critical_value,
    block_rows,
    kolmogorov_cdf,
    kolmogorov_sf,
    load_sample,
    map_chunks,
    p_value,
    plan_chunks,
    quantile,
    save_sample,
    simulate_null,
)

from conftest import FakePool
import oracles


def small_sample(draws, kind=FULL_RATIO, grid_steps=100, seed=0):
    return NullSample(kind=kind, draws=np.asarray(draws, dtype=float),
                      grid_steps=grid_steps, seed=seed)


# --- simulation ---------------------------------------------------------------

def test_simulate_null_validation():
    with pytest.raises(ValueError):
        simulate_null("nonsense", 100, 1000, 0)
    with pytest.raises(ValueError):
        simulate_null(FULL_RATIO, 99, 1000, 0)
    with pytest.raises(ValueError):
        simulate_null(FULL_RATIO, 100, 999, 0)
    with pytest.raises(ValueError):
        simulate_null(FULL_RATIO, 100, 1000, -1)
    with pytest.raises(ValueError):
        simulate_null(FULL_RATIO, 100, 1000, 0, workers=0)


@pytest.mark.parametrize("kind", [SIMPLE_RATIO, FULL_RATIO])
@pytest.mark.parametrize("grid_steps", [100, 137, 1000])
def test_stacked_null_kernel_equals_the_per_replication_loop(kind, grid_steps):
    # a range that starts off zero and spans several stacked blocks
    assert block_rows(16 * grid_steps) < 1290 // 3
    for start, stop in ((10, 1300), (7, 8)):
        stacked = nulldist._simulate_chunk(kind, grid_steps, 5, start, stop)
        literal = oracles.simulate_chunk(kind, grid_steps, 5, start, stop)
        assert stacked.tobytes() == literal.tobytes()


SEEDS = (0, 5, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 12345, 2**200 + 7)
INDICES = (0, 1, 2, 999, 2**31, 2**32 - 1)


def test_keyed_streams_start_where_default_rng_does():
    for seed in SEEDS:
        for rep in INDICES:
            (stream,) = nulldist.keyed_streams(seed, rep, rep + 1)
            expected = np.random.default_rng([seed, rep]).bit_generator.state
            assert stream.bit_generator.state == expected, (seed, rep)
    # across a batch of derived states, and drawing from each stream in turn
    start, stop = nulldist._SEED_BATCH - 3, nulldist._SEED_BATCH + 2
    for rep, stream in zip(range(start, stop), nulldist.keyed_streams(7, start, stop), strict=True):
        assert stream.standard_normal(3).tobytes() == (
            np.random.default_rng([7, rep]).standard_normal(3).tobytes()
        )


def test_replication_indices_fit_one_entropy_word():
    assert list(nulldist.keyed_streams(0, 2**32, 2**32)) == []
    for start, stop in ((2**32, 2**32 + 1), (2**32 - 1, 2**32 + 1), (-1, 0), (3, 2)):
        with pytest.raises(ValueError, match="32-bit"):
            next(nulldist.keyed_streams(0, start, stop))
    # refused before anything is drawn or allocated
    with pytest.raises(ValueError, match="replications"):
        simulate_null(FULL_RATIO, 100, 2**32 + 1, 0)
    from sncusum.simulation import Scenario

    with pytest.raises(ValueError, match="replications"):
        Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid", n=100,
                 replications=2**32 + 1)


def test_chunk_refuses_streams_numpy_seeds_differently(monkeypatch):
    # a numpy release whose default_rng hashed its seed into a larger pool
    def reseeded(key):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key, pool_size=8)))

    monkeypatch.setattr(np.random, "default_rng", reseeded)
    with pytest.raises(RuntimeError, match="differently"):
        nulldist._simulate_chunk(FULL_RATIO, 100, 5, 10, 20)


def test_simulate_null_draws_pinned():
    # sha256 of the draws of the per-replication kernel that preceded the stacked one
    digests = {
        SIMPLE_RATIO: "b9a70a56132942d24605d393079949b52141173bc20e579fa858d47c7c4c11a6",
        FULL_RATIO: "0331b204da1a498e572d6e98cb4be7cf597b36c071196f7d4e696812e97a011a",
    }
    for kind, digest in digests.items():
        draws = simulate_null(kind, grid_steps=100, replications=1000, seed=0).draws
        assert hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == digest


def test_draws_positive_finite_sorted(null_full_small, null_simple_small):
    for sample in (null_full_small, null_simple_small):
        assert sample.draws.size == sample.replications
        assert np.all(np.isfinite(sample.draws))
        assert sample.draws.min() > 0
        assert np.all(np.diff(sample.draws) >= 0)


def test_replications_are_the_number_of_draws():
    sample = NullSample(FULL_RATIO, draws=[1.0, 2.0, 3.0], grid_steps=100, seed=0)
    assert sample.replications == 3
    assert p_value(sample, 2.5) == 2 / 4
    assert critical_value(sample, 0.5) == 2.0
    with pytest.raises(TypeError):
        NullSample(FULL_RATIO, draws=[1.0, 2.0, 3.0], grid_steps=100, replications=1000, seed=0)


def test_simulation_deterministic_across_workers():
    # None, the default, is the usable CPUs
    for kind in (SIMPLE_RATIO, FULL_RATIO):
        one = simulate_null(kind, 200, 3000, seed=7, workers=1).draws.tobytes()
        for workers in (None, 3):
            assert simulate_null(kind, 200, 3000, seed=7, workers=workers).draws.tobytes() == one


# Python 3.12+ warns when a process with threads forks, as these tests' pools do
IGNORE_FORK_WARNING = pytest.mark.filterwarnings(
    r"ignore:This process \(pid=\d+\) is multi-threaded, use of fork\(\):DeprecationWarning")


@IGNORE_FORK_WARNING
def test_simulate_null_in_a_daemonic_worker_draws_in_process(usable_cpus):
    # a multiprocessing.Pool worker may not start a pool of its own, though
    # the mask of three CPUs it inherits would give it one of three
    usable_cpus(3)
    serial = simulate_null(FULL_RATIO, 100, 2000, workers=1).draws.tobytes()
    with multiprocessing.get_context("fork").Pool(1) as workers:
        for args in ((FULL_RATIO, 100, 2000), (FULL_RATIO, 100, 2000, 0, 2)):
            sample = workers.apply_async(simulate_null, args).get(timeout=120)
            assert sample.draws.tobytes() == serial


def _draws_in_a_worker(workers):
    """The draws of ``simulate_null`` at ``workers``, and the sizes of the
    pools it built (a spy: no worker starts)."""
    built = []
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor",
                           lambda max_workers, mp_context=None: FakePool(built, max_workers)):
        draws = simulate_null(FULL_RATIO, 100, 2000, workers=workers).draws.tobytes()
    return draws, [pool.max_workers for pool in built]


@IGNORE_FORK_WARNING
def test_a_worker_process_builds_no_pool(monkeypatch, usable_cpus):
    # a caller's workers draw in-process at any worker count, so that N of
    # them do not each start a pool of every CPU
    usable_cpus(3)
    assert nulldist.default_workers() == 3
    serial = simulate_null(FULL_RATIO, 100, 2000, workers=1).draws.tobytes()
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
        for workers in (None, 2):
            assert pool.submit(_draws_in_a_worker, workers).result(timeout=120) == (serial, [])
    with monkeypatch.context() as patch:
        patch.setattr(os, "name", "nt")  # no fork: a pool would re-import __main__
        workers = nulldist.default_workers()
    assert workers == 1


UNGUARDED_SCRIPT = """
import hashlib, multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1], force=True)
from sncusum import nulldist
nulldist.usable_cpus = lambda: 2  # a pool on any host
draws = nulldist.simulate_null(nulldist.FULL_RATIO, grid_steps=100, replications=4000).draws
print(hashlib.sha256(draws.tobytes()).hexdigest(), "concurrent.futures.process" in sys.modules)
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_default_pool_runs_in_a_script_without_a_main_guard(tmp_path, method):
    # Under spawn or forkserver a pool's workers re-import __main__, and a
    # script that draws at module level would draw again in each of them and
    # break the pool.  The default pool forks, whatever the start method.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, str(script), method], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    serial = simulate_null(FULL_RATIO, grid_steps=100, replications=4000, workers=1).draws
    assert proc.stdout.split() == [hashlib.sha256(serial.tobytes()).hexdigest(), "True"]


def test_plan_chunks_caps_pool(usable_cpus, fake_pools):
    # plan_chunks splits; map_chunks sizes the pool (a fake: no worker starts)
    usable_cpus(2)
    bounds = plan_chunks(100_000, 10**6, min_chunk=1000)
    assert (bounds[0], bounds[-1], len(bounds)) == (0, 100_000, 101)
    chunks = list(zip(bounds[1:], bounds[:-1]))
    assert map_chunks(operator.sub, chunks, 10**6) == [1000] * 100
    usable_cpus(64)
    assert plan_chunks(3000, 8, min_chunk=1000) == [0, 1000, 2000, 3000]
    assert map_chunks(operator.sub, [(3, 1)] * 3, 8) == [2] * 3
    assert plan_chunks(40, 1, min_chunk=1) == [0, 10, 20, 30, 40]
    assert map_chunks(operator.sub, [(3, 1)] * 4, 1) == [2] * 4
    # capped by the CPU count, then by the task count; one worker builds none
    assert [pool.max_workers for pool in fake_pools] == [2, 3]
    for workers in (0, -3):
        with pytest.raises(ValueError):
            plan_chunks(1000, workers, min_chunk=1)


def test_usable_cpus_read_the_affinity_mask_else_the_cpu_count(monkeypatch, usable_cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    usable_cpus(3)
    assert nulldist.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity masks
    assert nulldist.usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert nulldist.usable_cpus() == 1


def test_denominator_marginal_mean():
    # The expected supremum of |Brownian motion| on [0,1] is sqrt(pi/2).
    # On an m-point grid the discrete maximum sits below that by the
    # discretization deficit (about 0.58/sqrt(m), i.e. 0.018 at m=1000),
    # so the Monte-Carlo mean must land just under the continuum value.
    m, reps, seed = 1000, 20_000, 31
    total = 0.0
    for rep in range(reps):
        z = np.random.default_rng([seed, rep]).standard_normal((2, m))
        total += np.abs(np.cumsum(z[1]) / math.sqrt(m)).max()
    mean = total / reps
    assert mean < math.sqrt(math.pi / 2)
    assert mean == pytest.approx(math.sqrt(math.pi / 2) - 0.018, abs=0.012)


def test_simple_ratio_stochastically_larger_than_full():
    # the simple ratio divides by a bridge supremum, which is stochastically
    # smaller than the motion supremum in the full ratio's denominator
    for seed in (40, 41):
        simple = simulate_null(SIMPLE_RATIO, 300, 20_000, seed=seed)
        full = simulate_null(FULL_RATIO, 300, 20_000, seed=seed + 100)
        assert quantile(simple, 0.5) > quantile(full, 0.5)
        # the full ratio of two exchangeable suprema has median 1
        assert quantile(full, 0.5) == pytest.approx(1.0, abs=0.03)


def test_quantile_two_seed_stability():
    a = simulate_null(FULL_RATIO, 200, 20_000, seed=50)
    b = simulate_null(FULL_RATIO, 200, 20_000, seed=51)
    qa, qb = quantile(a, 0.95), quantile(b, 0.95)
    assert abs(qa - qb) / qa < 0.03


def test_quantile_grid_refinement_closeness():
    # the ratio's quantile is nearly grid-free: numerator and denominator
    # suprema lose a similar deficit on coarser grids (no one-sided ordering;
    # the denominator's deficit in fact dominates slightly)
    coarse = simulate_null(FULL_RATIO, 500, 100_000, seed=60)
    fine = simulate_null(FULL_RATIO, 2000, 100_000, seed=61)
    qc, qf = quantile(coarse, 0.95), quantile(fine, 0.95)
    assert abs(qc - qf) / qc < 0.02


# --- quantiles and p-values ----------------------------------------------------

def test_quantile_rank_convention():
    sample = small_sample(np.arange(1.0, 11.0))
    assert quantile(sample, 0.95) == 10.0  # ceil(9.5) = 10th order statistic
    assert quantile(sample, 0.5) == 5.0
    assert quantile(sample, 0.05) == 1.0


def test_critical_value_rank_is_exact_for_decimal_alpha():
    # draws 1..N, so the critical value is its own rank
    alphas = [f"0.{i:03d}" for i in range(1, 1000)]
    for n in (1000, 2000, 5000, 10000, 100000):
        sample = small_sample(np.arange(1.0, n + 1.0))
        wrong = [
            alpha for alpha in alphas
            if critical_value(sample, float(alpha)) != math.ceil((1 - Fraction(alpha)) * n)
        ]
        assert wrong == [], f"N={n}: {len(wrong)} wrong ranks, first alpha={wrong[:3]}"


@settings(max_examples=50, deadline=None)
@given(levels=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6))
def test_quantile_monotone_in_level(levels):
    sample = small_sample(np.sort(np.random.default_rng(0).uniform(0.1, 9.0, size=500)))
    values = [quantile(sample, lvl) for lvl in sorted(levels)]
    assert values == sorted(values)


def test_quantile_level_validation(null_full_small):
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            quantile(null_full_small, bad)


def test_critical_value_refuses_unresolvable_alpha(null_full_small):
    assert critical_value(null_full_small, 0.05) == quantile(null_full_small, 0.95)
    critical_value(null_full_small, 1 / 4000)  # alpha * (N + 1) >= 1
    with pytest.raises(ConfigurationError):
        critical_value(null_full_small, 1e-4)


def test_p_value_extremes(null_full_small):
    n = null_full_small.replications
    assert p_value(null_full_small, 0.0) == pytest.approx(1.0, abs=1e-3)
    assert p_value(null_full_small, math.inf) == pytest.approx(1.0 / (n + 1))


def test_p_value_refuses_a_nan_statistic(null_full_small):
    # searchsorted puts NaN past every draw, which would read as the smallest p-value
    with pytest.raises(ValueError, match="nan"):
        p_value(null_full_small, math.nan)
    assert p_value(null_full_small, math.inf) == 1 / (null_full_small.replications + 1)
    assert p_value(null_full_small, -math.inf) == 1.0


def test_p_value_at_quantile(null_full_small):
    n = null_full_small.replications
    q = quantile(null_full_small, 0.95)
    assert p_value(null_full_small, q) == pytest.approx(0.05, abs=2.0 / math.sqrt(n))


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.0, 10.0), b=st.floats(0.0, 10.0))
def test_p_value_non_increasing(null_full_small, a, b):
    lo, hi = min(a, b), max(a, b)
    assert p_value(null_full_small, lo) >= p_value(null_full_small, hi)


# --- Kolmogorov distribution ----------------------------------------------------

def test_kolmogorov_cdf_bounds():
    assert kolmogorov_cdf(0.0) == 0.0
    assert kolmogorov_cdf(-1.0) == 0.0
    assert kolmogorov_cdf(6.0) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.05, 3.0, 60)
    vals = [kolmogorov_cdf(x) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_kolmogorov_cdf_refuses_nan():
    # a series summed until its terms are small never stops at NaN, so the
    # call runs in a child with a timeout
    probe = "from sncusum.nulldist import kolmogorov_cdf; kolmogorov_cdf(float('nan'))"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert "ValueError: kolmogorov_cdf: x is NaN" in proc.stderr


def test_kolmogorov_cdf_against_scipy():
    for x in np.linspace(0.05, 6.0, 1191):
        assert abs(kolmogorov_cdf(x) - kstwobign.cdf(x)) <= 1e-14


def test_kolmogorov_sf_against_scipy():
    # from x = 1 on, the survival series keeps full relative precision where
    # 1 - kolmogorov_cdf, the complement of a double near 1, reaches 0.0 (x >= 4.37)
    for x in np.linspace(1.0, 18.0, 171):
        assert kolmogorov_sf(x) == pytest.approx(kstwobign.sf(x), rel=1e-13)
    for x in np.linspace(0.05, 0.95, 19):
        assert kolmogorov_sf(x) == 1.0 - kolmogorov_cdf(x)


CDF_TIMING_PROBE = """
import json, math, time
from sncusum.nulldist import kolmogorov_cdf
out = []
for x in (1e-9, 1e-300, 5e-324, math.inf):
    times = []
    for _ in range(5):
        start = time.perf_counter()
        value = kolmogorov_cdf(x)
        times.append(time.perf_counter() - start)
    out.append([value, min(times)])
print(json.dumps(out))
"""


def test_kolmogorov_cdf_is_finite_and_fast_at_the_extremes():
    # in a child with a timeout: a series summed until its terms are small
    # runs for minutes at x = 1e-9, and never stops where x * x underflows
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", CDF_TIMING_PROBE],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for value, seconds in json.loads(proc.stdout):
        assert 0.0 <= value <= 1.0
        assert seconds < 1e-3


def test_kolmogorov_quantile_value():
    # the LRV test's critical value is the Kolmogorov quantile at 1 - alpha
    q = stats.lrv_critical_value(0.05)
    assert 1.3575 <= q <= 1.3585
    for lvl in (0.5, 0.9, 0.99):
        assert stats.lrv_critical_value(1 - lvl) == pytest.approx(kstwobign.ppf(lvl), abs=1e-6)


def test_kolmogorov_quantile_validation():
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            stats.lrv_critical_value(bad)


# --- cache -----------------------------------------------------------------------

def test_cache_round_trip_bytes(tmp_path, null_simple_small):
    first = tmp_path / "a.snq"
    second = tmp_path / "b.snq"
    save_sample(null_simple_small, first)
    loaded = load_sample(first)
    assert loaded.kind == null_simple_small.kind
    assert loaded.grid_steps == null_simple_small.grid_steps
    assert loaded.replications == null_simple_small.replications
    assert loaded.seed == null_simple_small.seed
    assert np.array_equal(loaded.draws, null_simple_small.draws)
    save_sample(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@settings(max_examples=25, deadline=None)
@given(
    raw=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40),
    seed=st.integers(0, 2**64 - 1),
)
def test_cache_round_trip_arbitrary_draws(tmp_path_factory, raw, seed):
    sample = small_sample(np.sort(np.asarray(raw)), kind=SIMPLE_RATIO, seed=seed)
    path = tmp_path_factory.mktemp("snq") / "s.snq"
    save_sample(sample, path)
    loaded = load_sample(path, kind=SIMPLE_RATIO, seed=seed)
    assert np.array_equal(loaded.draws, sample.draws)
    Path(f"{path}.f8").unlink()  # the text alone parses to the same draws
    assert load_sample(path).draws.tobytes() == loaded.draws.tobytes()


def write_companion(path, draws, extra=b"", cut=0):
    """A companion for the cache at ``path``: the digest of the cache's bytes
    as they are now, ``draws`` as float64, then ``extra``, less the last
    ``cut`` bytes."""
    body = (hashlib.sha256(path.read_bytes()).digest()
            + np.asarray(draws, dtype="<f8").tobytes() + extra)
    Path(f"{path}.f8").write_bytes(body[: len(body) - cut])


def test_cache_companion_round_trip_is_bit_identical(tmp_path, null_simple_small, monkeypatch):
    path = tmp_path / "a.snq"
    save_sample(null_simple_small, path)
    companion = Path(f"{path}.f8").read_bytes()
    assert companion[:32] == hashlib.sha256(path.read_bytes()).digest()
    assert companion[32:] == null_simple_small.draws.astype("<f8").tobytes()
    monkeypatch.setattr(np, "loadtxt", None)  # so the draws must come from the companion
    loaded = load_sample(path, kind=SIMPLE_RATIO)
    assert loaded.draws.dtype == np.float64 and loaded.draws.flags.writeable
    assert loaded.draws.tobytes() == null_simple_small.draws.tobytes()
    save_sample(loaded, tmp_path / "b.snq")
    assert Path(f"{tmp_path / 'b.snq'}.f8").read_bytes() == companion


def test_cache_companion_is_trusted_only_beside_its_own_text(tmp_path, null_simple_small,
                                                            null_full_small):
    # the companion is trusted on its digest: it is read whatever draws it holds
    path = tmp_path / "a.snq"
    save_sample(null_simple_small, path)
    write_companion(path, 2 * null_simple_small.draws)
    assert np.array_equal(load_sample(path).draws, 2 * null_simple_small.draws)
    # a .snq rewritten after save_sample leaves a stale digest beside it
    save_sample(null_simple_small, path)
    save_sample(null_full_small, tmp_path / "other.snq")
    path.write_bytes((tmp_path / "other.snq").read_bytes())
    assert load_sample(path).draws.tobytes() == null_full_small.draws.tobytes()


@pytest.mark.parametrize("extra, cut", [(b"", 8), (b"", 8 * 4000), (b"", 8 * 4000 + 32),
                                        (b"\0" * 8, 0), (b"\0", 0)])
def test_cache_companion_of_the_wrong_length_loads_the_text(tmp_path, null_simple_small,
                                                            extra, cut):
    # truncated (by a draw, to the digest alone, to nothing) or over-long
    path = tmp_path / "a.snq"
    save_sample(null_simple_small, path)
    write_companion(path, 2 * null_simple_small.draws, extra, cut)
    assert load_sample(path).draws.tobytes() == null_simple_small.draws.tobytes()


def test_cache_without_a_readable_companion_loads_the_text(tmp_path, null_simple_small):
    path = tmp_path / "a.snq"
    save_sample(null_simple_small, path)
    Path(f"{path}.f8").unlink()
    assert load_sample(path).draws.tobytes() == null_simple_small.draws.tobytes()
    Path(f"{path}.f8").mkdir()  # opening it is an OSError
    assert load_sample(path).draws.tobytes() == null_simple_small.draws.tobytes()


def test_cache_companion_draws_pass_the_text_checks(tmp_path, null_simple_small):
    path = tmp_path / "a.snq"
    save_sample(null_simple_small, path)
    write_companion(path, null_simple_small.draws[::-1])
    with pytest.raises(CacheFormatError, match=re.escape(f"{path}.f8")):
        load_sample(path)


def test_cache_load_verifies_provenance(tmp_path, null_simple_small):
    path = tmp_path / "c.snq"
    save_sample(null_simple_small, path)
    load_sample(path, kind=SIMPLE_RATIO, seed=null_simple_small.seed)
    with pytest.raises(CacheProvenanceError):
        load_sample(path, kind=FULL_RATIO)
    with pytest.raises(CacheProvenanceError):
        load_sample(path, seed=null_simple_small.seed + 1)
    with pytest.raises(CacheProvenanceError):
        load_sample(path, grid_steps=null_simple_small.grid_steps + 1)


def test_cache_rejects_corruption(tmp_path, null_simple_small):
    path = tmp_path / "d.snq"
    save_sample(null_simple_small, path)
    lines = path.read_text().splitlines()

    (tmp_path / "bad1.snq").write_text("garbage header\n1.0\n")
    with pytest.raises(CacheFormatError):
        load_sample(tmp_path / "bad1.snq")

    versioned = "\n".join(["snq v9 " + " ".join(lines[0].split()[2:])] + lines[1:])
    (tmp_path / "bad2.snq").write_text(versioned + "\n")
    with pytest.raises(CacheFormatError):
        load_sample(tmp_path / "bad2.snq")

    truncated = "\n".join(lines[: len(lines) // 2])
    (tmp_path / "bad3.snq").write_text(truncated + "\n")
    with pytest.raises(CacheFormatError):
        load_sample(tmp_path / "bad3.snq")

    swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:])
    (tmp_path / "bad4.snq").write_text(swapped + "\n")
    with pytest.raises(CacheFormatError):
        load_sample(tmp_path / "bad4.snq")

    notnum = "\n".join([lines[0], "abc"] + lines[2:])
    (tmp_path / "bad5.snq").write_text(notnum + "\n")
    with pytest.raises(CacheFormatError):
        load_sample(tmp_path / "bad5.snq")

    # an empty sample resolves no level; refused from its header alone
    empty = lines[0].replace(f"N={null_simple_small.replications}", "N=0")
    (tmp_path / "bad6.snq").write_text(empty + "\n")
    with pytest.raises(CacheFormatError, match="N=0"):
        load_sample(tmp_path / "bad6.snq")

    # a header field that is not an integer, and a kind no run writes
    head = lines[0].split()
    for name, header, message in [
        ("bad7.snq", " ".join(head[:3] + ["m=abc"] + head[4:]), "malformed cache header"),
        ("bad8.snq", " ".join(head[:2] + ["half-ratio"] + head[3:]), "unknown ratio kind"),
    ]:
        (tmp_path / name).write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(CacheFormatError, match=message):
            load_sample(tmp_path / name)

    # provenance no run could write: simulate_null needs grid_steps >= 100
    # and a 64-bit unsigned seed
    head = lines[0].split()
    for i, (m, seed) in enumerate([(-5, -1), (0, 0), (99, 0), (100, -1), (100, 2**64),
                                   (100, 99999999999999999999999)]):
        bad = tmp_path / f"provenance{i}.snq"
        header = " ".join(head[:3] + [f"m={m}", head[4], f"seed={seed}"])
        bad.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(CacheFormatError, match=re.escape(str(bad))):
            load_sample(bad)


@pytest.mark.parametrize("text", ["snq v1 full-ratio m=100 N=3 seed=0\n",
                                  "snq v1 full-ratio m=100 N=3 seed=0"])
def test_cache_cut_to_its_header_is_refused_without_a_warning(tmp_path, text):
    # an interrupted write: the header and no draws, and no companion beside it
    path = tmp_path / "cut.snq"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CacheFormatError, match="holds 0 draws"):
            load_sample(path)


@pytest.mark.parametrize(
    "draws",
    [("nan", "1.0", "2.0"), ("1.0", "2.0", "inf"), ("-1.0", "1.0", "2.0"), ("0.0", "1.0", "2.0")],
)
def test_cache_rejects_non_finite_or_non_positive_draws(tmp_path, draws):
    # every ratio draw is finite and positive; the text parser reads these lines
    # and a NaN passes the ascending-order check
    path = tmp_path / "e.snq"
    path.write_text("\n".join(["snq v1 full-ratio m=100 N=3 seed=0", *draws]) + "\n")
    with pytest.raises(CacheFormatError):
        load_sample(path)
    path.write_text("\n".join(["snq v1 full-ratio m=100 N=3 seed=0", "0.5", "1.0", "2.0"]) + "\n")
    assert load_sample(path).draws.tolist() == [0.5, 1.0, 2.0]
