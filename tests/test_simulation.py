import dataclasses
import importlib.util
import os
from pathlib import Path
import pickle
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sncusum import nulldist, simulation, stats
from sncusum.blocks import make_block_config
from sncusum.errors import ConfigurationError
from sncusum.simulation import (
    ALL_TESTS,
    Scenario,
    aggregate_rates,
    gen_errors,
    gen_series,
    mean_value,
    run_grid,
    run_scenario,
    scenario_cells,
    sigma_value,
    write_aggregate_csv,
    write_cells_csv,
)


# --- model functions ----------------------------------------------------------

def test_mean_function_point_values():
    assert mean_value(3, 0.25) == 0.0
    assert mean_value(3, 0.75) == 1.0
    assert mean_value(1, 0.0) == 0.0
    assert mean_value(2, 0.1) == -1.0
    assert mean_value(2, 0.9) == 2.0
    assert mean_value(0, 0.5) == 0.0


def test_mean_function_reflection_identities():
    grid = np.linspace(0.0, 1.0, 10_001)
    np.testing.assert_allclose(mean_value(4, grid), 0.5 - mean_value(1, grid), atol=1e-12)
    np.testing.assert_allclose(mean_value(5, grid), 1.5 - mean_value(2, grid), atol=1e-12)
    np.testing.assert_allclose(mean_value(6, grid), 1.0 - mean_value(3, grid), atol=1e-12)


def test_sigma_point_values():
    grid = np.linspace(0.0, 1.0, 101)
    assert np.all(sigma_value(0, grid) == 1.0)
    assert sigma_value(2, 0.0) == 0.5
    assert sigma_value(2, 0.5) == 1.5
    assert sigma_value(3, 0.6) == 1.5
    assert sigma_value(1, 0.25) == 0.75


def test_sigma_bounded_away_from_zero():
    grid = np.linspace(0.0, 1.0, 10_001)
    for sid in range(4):
        assert sigma_value(sid, grid).min() >= 0.5


def test_function_id_validation():
    with pytest.raises(ValueError):
        mean_value(7, 0.5)
    with pytest.raises(ValueError):
        sigma_value(4, 0.5)


# --- error models ---------------------------------------------------------------

def test_unknown_error_model():
    with pytest.raises(ValueError):
        gen_errors("arma", 100, 0)


def test_error_models_unit_variance():
    n = 1_000_000
    for model in ("iid", "ma", "ar"):
        eps = gen_errors(model, n, 3)
        assert eps.var() == pytest.approx(1.0, abs=0.01), model


def test_error_model_autocovariances():
    # closed forms: iid (1,0,0); ma (1, 0.4, 0); ar (1, 0.5, 0.25)
    n = 1_000_000
    bound = 5 * 2 / np.sqrt(n)
    targets = {"iid": (1.0, 0.0, 0.0), "ma": (1.0, 0.4, 0.0), "ar": (1.0, 0.5, 0.25)}
    for model, want in targets.items():
        eps = gen_errors(model, n, 4)
        for lag, target in enumerate(want):
            got = np.mean(eps[lag:] * eps[: n - lag]) if lag else np.mean(eps**2)
            assert got == pytest.approx(target, abs=bound), (model, lag)


def test_ar_long_run_variance_via_estimator():
    eps = gen_errors("ar", 100_000, 6)
    assert stats.lrv_estimate(eps) == pytest.approx(3.0, abs=0.3)


def test_ma_long_run_variance_via_estimator():
    eps = gen_errors("ma", 100_000, 6)
    assert stats.lrv_estimate(eps) == pytest.approx(1.8, abs=0.2)


# --- series generation ------------------------------------------------------------

def test_series_tiny_noise_returns_mean_samples():
    sc = Scenario(mean_id=3, sigma_id=0, c_sigma=1e-12, error_model="iid",
                  n=50, replications=1, seed=0)
    x = gen_series(sc, 0)
    grid = np.arange(1, 51) / 50
    np.testing.assert_allclose(x, mean_value(3, grid), atol=1e-9)


def test_series_reduces_to_raw_errors():
    sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="ma",
                  n=80, replications=1, seed=9)
    np.testing.assert_array_equal(gen_series(sc, 4), gen_errors("ma", 80, [9, 4]))


def test_series_deterministic_per_replication():
    sc = Scenario(mean_id=1, sigma_id=2, c_sigma=0.5, error_model="ar",
                  n=64, replications=10, seed=123)
    np.testing.assert_array_equal(gen_series(sc, 7), gen_series(sc, 7))
    assert not np.array_equal(gen_series(sc, 7), gen_series(sc, 8))


def test_series_from_a_keyed_stream_is_the_series_of_its_replication():
    for model in ("iid", "ma", "ar"):
        sc = Scenario(mean_id=2, sigma_id=1, c_sigma=0.7, error_model=model,
                      n=60, replications=10, seed=2**64 + 3)
        for rep, stream in zip(range(3, 9), nulldist.keyed_streams(sc.seed, 3, 9)):
            assert gen_series(sc, rep, stream).tobytes() == gen_series(sc, rep).tobytes()


def test_series_reads_the_cell_profile_once():
    # the cached mean and c_sigma * sigma give the bits of the literal formula
    grid = np.arange(1, 71) / 70
    for mean_id, sigma_id, c_sigma in ((1, 2, 0.7), (5, 3, 2.0**-30), (6, 1, 3.0)):
        sc = Scenario(mean_id=mean_id, sigma_id=sigma_id, c_sigma=c_sigma,
                      error_model="ar", n=70, replications=4, seed=11)
        for rep in range(4):
            eps = gen_errors("ar", 70, [11, rep])
            literal = mean_value(mean_id, grid) + c_sigma * sigma_value(sigma_id, grid) * eps
            assert gen_series(sc, rep).tobytes() == literal.tobytes()
        mean, scale = simulation._profile(sc)
        assert not mean.flags.writeable and not scale.flags.writeable


def test_scenario_validation():
    good = dict(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                n=100, replications=10)
    Scenario(**good)
    for bad in (
        {**good, "mean_id": 9},
        {**good, "sigma_id": -1},
        {**good, "c_sigma": 0.0},
        {**good, "error_model": "garch"},
        {**good, "n": 3},
        {**good, "block_length": 101},
        {**good, "replications": 0},
        {**good, "alpha": 1.0},
        {**good, "seed": -3},
    ):
        with pytest.raises(ValueError):
            Scenario(**bad)


def test_scenario_rejects_non_finite_c_sigma():
    good = dict(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                n=100, replications=10)
    for c_sigma in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="c_sigma"):
            Scenario(**{**good, "c_sigma": c_sigma})


# --- scenario runner ----------------------------------------------------------------

@pytest.fixture(scope="module")
def nulls(null_simple_small, null_full_small):
    return {
        nulldist.SIMPLE_RATIO: null_simple_small,
        nulldist.FULL_RATIO: null_full_small,
    }


def test_run_scenario_requires_null_samples():
    sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                  n=100, replications=5)
    with pytest.raises(ConfigurationError):
        run_scenario(sc, tests=("sn_simple",), nulls={})
    with pytest.raises(ConfigurationError):
        run_scenario(sc, tests=("sn_full_v2",), nulls=None)
    run_scenario(sc, tests=("r_lrv",), nulls=None)  # baseline needs no cache


def test_run_scenario_rejects_unknown_test(nulls):
    sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                  n=100, replications=5)
    with pytest.raises(ConfigurationError):
        run_scenario(sc, tests=("sn_simple", "bogus"), nulls=nulls)


def test_run_scenario_counts(nulls):
    sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                  n=120, replications=40, seed=2)
    res = run_scenario(sc, nulls=nulls)
    for name in simulation.ALL_TESTS:
        assert 0 <= res.rejections[name] <= 40
        assert res.degenerate[name] == 0
        assert res.rates[name] == res.rejections[name] / 40


def test_run_scenario_counts_are_scale_free(nulls):
    # under the zero-mean null every series at c_sigma = 2**1019 is the series
    # at c_sigma = 1 times an exact power of two, so no test may count differently
    results = [run_scenario(Scenario(mean_id=0, sigma_id=0, c_sigma=c, error_model="iid",
                                     n=500, replications=200, seed=11), nulls=nulls)
               for c in (1.0, 2.0**1019)]
    assert results[0].rejections == results[1].rejections
    assert results[0].degenerate == results[1].degenerate


def test_run_scenario_detects_step_change(nulls):
    sc = Scenario(mean_id=3, sigma_id=0, c_sigma=0.25, error_model="iid",
                  n=500, replications=30, seed=3)
    res = run_scenario(sc, tests=("sn_simple", "sn_full_v2"), nulls=nulls)
    assert res.rates["sn_simple"] == 1.0
    assert res.rates["sn_full_v2"] >= 0.9


def test_run_scenario_worker_count_invariant(nulls):
    sc = Scenario(mean_id=0, sigma_id=2, c_sigma=0.5, error_model="ma",
                  n=100, replications=60, seed=4)
    serial = run_scenario(sc, nulls=nulls, workers=1)
    parallel = run_scenario(sc, nulls=nulls, workers=2)
    assert serial.rejections == parallel.rejections
    assert serial.degenerate == parallel.degenerate

    cells = scenario_cells([0, 3], [2], [0.5], ["iid", "ar"], [100], replications=30, seed=4)
    serial = run_grid(cells, nulls=nulls, workers=1)
    parallel = run_grid(cells, nulls=nulls, workers=2)
    assert [r.scenario for r in parallel] == cells
    assert [r.rejections for r in serial] == [r.rejections for r in parallel]
    assert [r.degenerate for r in serial] == [r.degenerate for r in parallel]
    assert [r.rejections for r in serial[:2]] != [r.rejections for r in serial[2:]]


def test_run_grid_builds_one_capped_pool_of_thresholds(usable_cpus, fake_pools, nulls):
    cells = scenario_cells([0], [0], [1.0], ["iid", "ma", "ar"], [100], replications=6, seed=7)
    usable_cpus(64)
    pooled = run_grid(cells, nulls=nulls, workers=2)
    usable_cpus(3)
    run_grid(cells, nulls=nulls, workers=8)
    usable_cpus(64)
    run_grid([dataclasses.replace(cells[0], replications=32)], nulls=nulls, workers=8)
    # one pool per run, capped by the worker count, the CPU count, the task count
    assert [pool.max_workers for pool in fake_pools] == [2, 3, 2]

    tasks = fake_pools[0].tasks
    assert sorted({task[0] for task in tasks}, key=cells.index) == cells
    for task in tasks:
        assert not any(isinstance(arg, nulldist.NullSample) for arg in task)
        assert all(isinstance(v, stats.Calibration) for v in task[2].values())
        assert len(pickle.dumps(task)) < 1000
    serial = run_grid(cells, nulls=nulls, workers=1)
    assert len(fake_pools) == 3
    assert [r.rejections for r in serial] == [r.rejections for r in pooled]


def test_pools_fork_under_the_fork_warning_of_python_3_12(monkeypatch, usable_cpus, nulls):
    # From Python 3.12 on, os.fork warns in a process with threads (numpy's
    # BLAS pool is one), and pytest's filters make that warning an error
    cells = scenario_cells([0], [0], [1.0], ["iid", "ma"], [100], replications=6, seed=7)
    serial_draws = nulldist.simulate_null(nulldist.FULL_RATIO, 100, 4000, workers=1).draws
    serial_counts = [r.rejections for r in run_grid(cells, nulls=nulls, workers=1)]
    forks, fork = [], os.fork

    def warning_fork():
        forks.append(os.getpid())
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    usable_cpus(2)
    draws = nulldist.simulate_null(nulldist.FULL_RATIO, 100, 4000, workers=2).draws
    assert draws.tobytes() == serial_draws.tobytes()
    pooled_draws = len(forks)
    assert [r.rejections for r in run_grid(cells, nulls=nulls, workers=2)] == serial_counts
    assert 0 < pooled_draws < len(forks)  # each run forked its pool


def test_run_grid_refuses_before_building_a_pool(usable_cpus, fake_pools, nulls):
    usable_cpus(64)
    good = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                    n=100, replications=5)
    unresolvable = dataclasses.replace(good, alpha=1e-4)
    with pytest.raises(ConfigurationError):
        run_grid([good, unresolvable], tests=("sn_full_v2",), nulls=nulls, workers=2)
    with pytest.raises(ConfigurationError, match="missing null"):
        run_grid([good], tests=("r_lrv", "sn_simple"),
                 nulls={nulldist.FULL_RATIO: nulls[nulldist.FULL_RATIO]}, workers=2)
    # a repeated id would count every replication twice (a rate of 1.8)
    with pytest.raises(ConfigurationError, match=r"repeated .*\['sn_simple'\]"):
        run_grid([good], tests=("sn_simple", "r_lrv", "sn_simple"), nulls=nulls, workers=2)
    assert fake_pools == []


def test_run_grid_refuses_a_repeated_cell_before_building_a_pool(usable_cpus, fake_pools,
                                                                   nulls):
    # both copies would draw the same streams and count every replication twice
    usable_cpus(64)
    cells = scenario_cells([0], [0], [1.0], ["iid"], [100, 200, 100], replications=5)
    with pytest.raises(ConfigurationError, match=r"^repeated cell: Scenario\(.*n=100,"):
        run_grid(cells, tests=("sn_simple",), nulls=nulls, workers=2)
    with pytest.raises(ConfigurationError, match="repeated cell"):
        simulation.check_grid(cells, tests=())
    assert fake_pools == []
    other_seed = dataclasses.replace(cells[2], seed=1)
    assert simulation.check_grid(cells[:2] + [other_seed], tests=()) == []


def test_run_grid_checks_every_cell_before_building_a_pool(usable_cpus, fake_pools, nulls):
    # n=20 has 6 blocks of 3, too many for 20 points (its v2 split points
    # share a knot as well); the n=500 cell must not run first
    usable_cpus(64)
    cells = scenario_cells([0], [0], [1.0], ["iid"], [500, 20], replications=4)
    with pytest.raises(ConfigurationError, match=r"n=20 < 4 \* n_blocks=24"):
        run_grid(cells, tests=("sn_full_v2",), nulls=nulls, workers=2)
    assert fake_pools == []


@pytest.mark.parametrize("alpha", [0.1, 0.05])
def test_simulate_applies_the_rules_test_applies(usable_cpus, fake_pools, nulls, alpha):
    # a cell where every test rejects some replications and accepts others
    cell = Scenario(mean_id=3, sigma_id=2, c_sigma=1.5, error_model="ar", n=200,
                    replications=20, alpha=alpha, seed=8)
    cfg = make_block_config(cell.n)
    simple, full = nulls[nulldist.SIMPLE_RATIO], nulls[nulldist.FULL_RATIO]
    decide = {
        "r_lrv": lambda x: stats.cusum_lrv_test(x, alpha),
        "sn_simple": lambda x: stats.decide_simple(x, cfg, alpha, simple),
        "sn_full_v1": lambda x: stats.decide_full(x, cfg, stats.TestParams.v1(alpha), full),
        "sn_full_v2": lambda x: stats.decide_full(x, cfg, stats.TestParams.v2(alpha), full),
    }
    usable_cpus(64)
    run_grid([cell], tests=tuple(decide), nulls=nulls, workers=2)
    (pool,) = fake_pools
    x = gen_series(cell, 0)
    for task in pool.tasks:
        # the LRV critical value travels in no task: the worker looks it up
        assert set(task[2]) == set(stats.RULES)
        for name, calibration in task[2].items():
            assert calibration.threshold.hex() == decide[name](x).threshold.hex(), name
            assert calibration.knots == stats.RULES[name].knots(cfg)

    counts, degenerate = simulation._scenario_chunk(
        cell, tuple(decide), pool.tasks[0][2], 0, cell.replications)
    series = [gen_series(cell, rep) for rep in range(cell.replications)]
    expected = {name: sum(rule(x).reject for x in series) for name, rule in decide.items()}
    assert counts == expected
    assert all(0 < count < cell.replications for count in counts.values())
    assert degenerate == dict.fromkeys(decide, 0)


@pytest.mark.parametrize("size", [1, 7, nulldist.block_rows(8 * 1000) + 5])
def test_stacked_chunk_counts_equal_the_single_series_decisions(nulls, size):
    # blocks of block_rows(8 n) replications: one partial block, one full
    # block plus a partial one
    cell = Scenario(mean_id=0, sigma_id=2, c_sigma=1.0, error_model="ar", n=1000,
                    replications=100, alpha=0.1, seed=9)
    cfg = make_block_config(cell.n)
    simple, full = nulls[nulldist.SIMPLE_RATIO], nulls[nulldist.FULL_RATIO]
    decide = {
        "r_lrv": lambda x: stats.cusum_lrv_test(x, cell.alpha),
        "sn_simple": lambda x: stats.decide_simple(x, cfg, cell.alpha, simple),
        "sn_full_v1": lambda x: stats.decide_full(x, cfg, stats.TestParams.v1(cell.alpha), full),
        "sn_full_v2": lambda x: stats.decide_full(x, cfg, stats.TestParams.v2(cell.alpha), full),
    }
    calibrations = {name: rule.calibration(cfg, nulls[rule.kind], cell.alpha)
                    for name, rule in stats.RULES.items()}
    start = 3
    counts, degenerate = simulation._scenario_chunk(
        cell, tuple(decide), calibrations, start, start + size)
    series = [gen_series(cell, rep) for rep in range(start, start + size)]
    assert counts == {name: sum(rule(x).reject for x in series) for name, rule in decide.items()}
    assert degenerate == dict.fromkeys(decide, 0)


@pytest.mark.filterwarnings("error")
def test_stacked_tally_counts_a_zero_row_as_degenerate():
    cfg = make_block_config(250)
    x = np.random.default_rng(31).standard_normal((4, 250))
    x[2] = 0.0
    rejections, degenerate = dict.fromkeys(ALL_TESTS, 0), dict.fromkeys(ALL_TESTS, 0)
    calibrations = {name: stats.Calibration(rule.knots(cfg), 1.0, 0.0, 0.0)
                    for name, rule in stats.RULES.items()}
    simulation._tally(x, cfg, ALL_TESTS, calibrations, 0.05, rejections, degenerate)
    assert degenerate == dict.fromkeys(ALL_TESTS, 1)
    # every statistic of a non-zero row is positive, above a zero threshold
    assert {name: rejections[name] for name in stats.RULES} == dict.fromkeys(stats.RULES, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stacked_tally_refuses_a_non_finite_row(bad):
    cfg = make_block_config(250)
    x = np.random.default_rng(32).standard_normal((4, 250))
    x[1, 17] = bad
    calibrations = {name: stats.Calibration(rule.knots(cfg), 1.0, 1.0, 1.0)
                    for name, rule in stats.RULES.items()}
    for tests in (ALL_TESTS, ("r_lrv",), ("sn_simple",), ("sn_full_v2",)):
        rejections, degenerate = dict.fromkeys(tests, 0), dict.fromkeys(tests, 0)
        chosen = {name: calibrations[name] for name in tests if name in calibrations}
        with pytest.raises(ValueError, match="non-finite"):
            simulation._tally(x, cfg, tests, chosen, 0.05, rejections, degenerate)


def test_scenario_chunk_memory_is_linear():
    # A row of n=1e5 floats (800 KB) exceeds the stacked block's memory
    # budget, so the block falls to one row and the peak is that of one series:
    # the block row, gen_series' temporaries and the full statistic's rows,
    # about nine length-n arrays.  Stacking both replications would double it.
    cell = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                    n=100_000, replications=2)
    cfg = make_block_config(cell.n)
    calibrations = {name: stats.Calibration(rule.knots(cfg), 1.0, 3.0, 3.0)
                    for name, rule in stats.RULES.items()}
    tracemalloc.start()
    try:
        simulation._scenario_chunk(cell, ALL_TESTS, calibrations, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * cell.n


def _reproduce_tables():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_tables_runs_both_grids_through_one_pool(usable_cpus, fake_pools, tmp_path):
    reproduce_tables = _reproduce_tables()
    usable_cpus(64)
    argv = ["--reps", "2", "--sizes", "100", "--null-reps", "1000", "--workers", "2",
            "--out", str(tmp_path)]
    assert reproduce_tables.main(argv) == 0
    # 1000 null draws per kind make one chunk each, so the grid's is the only pool
    (pool,) = fake_pools
    assert pool.max_workers == 2
    assert len({task[0] for task in pool.tasks}) == 36 + 12  # null + alternative cells
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "alternative_by_mean.csv", "alternative_cells.csv", "null_by_c_sigma.csv",
        "null_by_errors.csv", "null_by_sigma.csv", "null_cells.csv",
    ]
    assert len((tmp_path / "null_cells.csv").read_text().splitlines()) == 2 + 36
    assert len((tmp_path / "alternative_cells.csv").read_text().splitlines()) == 2 + 12


def test_reproduce_tables_seed_overflow_is_a_usage_error(capsys, tmp_path):
    # the null seeds are seed + 7000 and seed + 7001; the second is 2**64
    cache, out = tmp_path / "cache", tmp_path / "tables"
    argv = ["--null-cache", str(cache), "--seed", str(2**64 - 7001), "--null-reps", "1000",
            "--reps", "2", "--sizes", "100", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        _reproduce_tables().main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "seed" in err
    assert not cache.exists() and not out.exists()


def test_reproduce_tables_repeated_size_is_a_usage_error(capsys, tmp_path):
    cache, out = tmp_path / "cache", tmp_path / "tables"
    argv = ["--mode", "null", "--null-cache", str(cache), "--null-reps", "1000",
            "--reps", "2", "--sizes", "100,100", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        _reproduce_tables().main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "repeated cell" in err and "simulating" not in err
    assert not cache.exists() and not out.exists()


def _cached_nulls(cache, grid_steps, replications, seed):
    cache.mkdir()
    for kind, kind_seed in nulldist.kind_seeds(seed).items():
        sample = nulldist.simulate_null(kind, grid_steps=grid_steps,
                                        replications=replications, seed=kind_seed)
        nulldist.save_sample(sample, cache / f"{kind}.snq")


def test_reproduce_tables_refuses_a_cache_of_other_draws(capsys, tmp_path):
    # the script's nulls for --seed 0 have 1000 steps and seeds 7000, 7001
    cache, out = tmp_path / "cache", tmp_path / "tables"
    _cached_nulls(cache, grid_steps=100, replications=1000, seed=7000)
    argv = ["--null-cache", str(cache), "--null-reps", "5000", "--reps", "2",
            "--sizes", "100", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        _reproduce_tables().main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "grid_steps=100, expected 1000" in err
    assert not out.exists()


def test_reproduce_tables_workers_below_one_with_a_cache_is_a_usage_error(capsys, tmp_path):
    # with both nulls cached, no simulator sees --workers before the grid does
    cache, out = tmp_path / "cache", tmp_path / "tables"
    _cached_nulls(cache, grid_steps=1000, replications=1000, seed=7000)
    argv = ["--null-cache", str(cache), "--null-reps", "1000", "--reps", "2",
            "--sizes", "100", "--workers", "0", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        _reproduce_tables().main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "workers must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, word", [
    (["--sizes", "100,abc"], "--sizes"),
    (["--reps", "0"], "replications"),
    (["--sizes", "100,2"], "need n >= 4, got 2"),
])
def test_reproduce_tables_bad_cells_are_usage_errors(capsys, tmp_path, flags, word):
    out = tmp_path / "tables"
    argv = ["--null-reps", "1000", "--out", str(out)] + flags
    with pytest.raises(SystemExit) as exc:
        _reproduce_tables().main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and word in err and "simulating" not in err
    assert not out.exists()


def test_reproduce_tables_checks_the_geometry_before_any_null(capsys, tmp_path):
    cache, out = tmp_path / "cache", tmp_path / "tables"
    argv = ["--mode", "null", "--sizes", "20", "--null-reps", "1000",
            "--null-cache", str(cache), "--reps", "2", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        _reproduce_tables().main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "series too short: n=20" in err and "simulating" not in err
    assert list(tmp_path.rglob("*.snq")) == []
    assert not out.exists()


def _demo_synthetic(*args):
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "demo_synthetic.py"), *args],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )


def test_demo_synthetic_runs_all_four_tests(tmp_path):
    out = tmp_path / "demo.csv"
    proc = _demo_synthetic("--n", "200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 200
    assert [line.split()[0] for line in proc.stdout.splitlines()] == [
        "sn_simple", "sn_full_v1", "sn_full_v2", "r_lrv"]


def test_demo_synthetic_reports_each_degenerate_test(tmp_path):
    # a constant zero series: every self-normalizer and the variance estimate are zero
    out = tmp_path / "demo.csv"
    proc = _demo_synthetic("--n", "100", "--mean", "0", "--noise", "0", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert [float(v) for v in out.read_text().split()] == [0.0] * 100
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["sn_simple", "sn_full_v1", "sn_full_v2", "r_lrv"]
    assert all("degenerate statistic" in line for line in lines)


@pytest.mark.parametrize("flags, message", [
    (["--n", "3"], "need n >= 4, got 3"),
    (["--mean", "9"], "mean function id must be in 0..6, got 9"),
    (["--n", "20"], "series too short: n=20"),  # a rule's geometry, not make_block_config
], ids=["n3", "mean9", "n20"])
def test_demo_synthetic_bad_arguments_are_usage_errors(tmp_path, flags, message):
    out = tmp_path / "demo.csv"
    proc = _demo_synthetic(*flags, "--out", str(out))
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not out.exists()


def test_run_grid_checks_the_null_kind_before_any_pool(usable_cpus, fake_pools, nulls):
    usable_cpus(64)
    cell = Scenario(0, 0, 1.0, "iid", 200, 40)
    wrong = {nulldist.FULL_RATIO: nulls[nulldist.SIMPLE_RATIO]}
    with pytest.raises(ConfigurationError, match="^need a full-ratio sample, got simple-ratio$"):
        run_grid([cell], tests=("sn_full_v2",), nulls=wrong, workers=2)
    assert fake_pools == []
    run_grid([cell], tests=("sn_full_v2",), nulls=nulls, workers=2)
    assert len(fake_pools) == 1


def test_run_grid_refuses_a_cell_that_overflows(nulls):
    # c_sigma * sigma(t) overflows to inf while the stack is built
    with pytest.raises(ValueError, match="non-finite"):
        run_grid([Scenario(0, 3, 1e308, "iid", 100, 20)], nulls=nulls)


def test_demo_synthetic_overflowing_noise_is_a_usage_error(tmp_path):
    out = tmp_path / "demo.csv"
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(root / "scripts" / "demo_synthetic.py"),
         "--noise", "1e308", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "series contains non-finite values" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_run_scenario_refuses_bad_level_and_workers(nulls):
    sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                  n=100, replications=5, alpha=1e-4)
    for test in ("sn_simple", "sn_full_v1", "sn_full_v2"):
        with pytest.raises(ConfigurationError):
            run_scenario(sc, tests=(test,), nulls=nulls)
    sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                  n=100, replications=5)
    for workers in (0, -3):
        with pytest.raises(ValueError):
            run_scenario(sc, tests=("r_lrv",), workers=workers)


# --- aggregation and CSV --------------------------------------------------------------

def test_single_cell_aggregation_matches_scenario(nulls):
    sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                  n=100, replications=30, seed=5)
    res = run_scenario(sc, tests=("r_lrv", "sn_full_v2"), nulls=nulls)
    rows = aggregate_rates([res], group_keys=("n",))
    assert rows == [
        {
            "n": 100,
            "replications": 30,
            "r_lrv": res.rates["r_lrv"],
            "sn_full_v2": res.rates["sn_full_v2"],
            "degenerate": 0,
        }
    ]


def test_aggregation_is_replication_weighted():
    def fake(n_reps, rejected, model):
        sc = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model=model,
                      n=100, replications=n_reps, seed=0)
        return simulation.ScenarioResult(
            scenario=sc, rejections={"r_lrv": rejected}, degenerate={"r_lrv": 0}
        )

    rows = aggregate_rates([fake(100, 10, "iid"), fake(300, 60, "ma")], group_keys=("n",))
    assert rows[0]["r_lrv"] == pytest.approx(70 / 400)
    by_model = aggregate_rates([fake(100, 10, "iid"), fake(300, 60, "ma")],
                               group_keys=("n", "errors"))
    assert [r["errors"] for r in by_model] == ["iid", "ma"]
    assert by_model[0]["r_lrv"] == pytest.approx(0.1)


def test_aggregate_rows_ascend_by_axis_values():
    # rows used to sort as strings: n 100, 1000, 200 and c 10, 2
    results = [
        simulation.ScenarioResult(
            scenario=Scenario(mean_id=0, sigma_id=0, c_sigma=c, error_model="iid",
                              n=n, replications=1),
            rejections={"r_lrv": 0}, degenerate={"r_lrv": 0},
        )
        for n in (1000, 200, 100) for c in (10.0, 2.0)
    ]
    rows = aggregate_rates(results, group_keys=("n", "c_sigma"))
    assert [(row["n"], row["c_sigma"]) for row in rows] == [
        (100, 2.0), (100, 10.0), (200, 2.0), (200, 10.0), (1000, 2.0), (1000, 10.0)
    ]


def test_parse_grid_axes():
    assert simulation.parse_grid("") == {
        "mean": [0], "sigma": [0], "c_sigma": [1.0], "errors": ["iid"], "n": [500]
    }
    grid = simulation.parse_grid(" mu=0,3; eps=ar,iid ;n=2000,100;")
    assert list(grid) == list(simulation.AXES)
    assert grid["mean"] == [0, 3] and grid["errors"] == ["ar", "iid"]
    assert grid["n"] == [2000, 100] and grid["c_sigma"] == [1.0]
    assert simulation.aggregate_columns(grid) == ["errors", "mean"]
    every = simulation.parse_grid("mu=1,2;sigma=0,1;c=1,2;eps=iid,ma")
    assert simulation.aggregate_columns(every) == ["errors", "sigma", "c_sigma", "mean"]
    for spec, message in [
        ("mu", "bad grid entry 'mu'; expected key=v1,v2,..."),
        ("nope=1", "unknown grid key 'nope'; expected one of ['c', 'eps', 'mu', 'n', 'sigma']"),
        ("n=100,x", "bad grid value(s) '100,x' for key 'n'"),
        ("c=1,1.0", "repeated grid value(s) '1,1.0' for key 'c'"),
    ]:
        with pytest.raises(ValueError) as exc:
            simulation.parse_grid(spec)
        assert str(exc.value) == message


def test_parse_grid_refuses_a_repeated_key():
    # the later values would replace the earlier ones without a word
    for spec, key in [("mu=0;mu=3", "mu"), ("n=100;n=200;n=100", "n"),
                      ("eps=ar; eps =iid", "eps")]:
        with pytest.raises(ValueError) as exc:
            simulation.parse_grid(spec)
        assert str(exc.value) == f"repeated grid key {key!r}"


def test_aggregate_unknown_key():
    with pytest.raises(ValueError):
        aggregate_rates([], group_keys=("banana",))


def test_scenario_cells_cartesian_order():
    cells = scenario_cells([0, 3], [0], [0.25, 1.0], ["iid"], [100, 200],
                           replications=7, seed=11)
    assert len(cells) == 8
    assert cells[0].mean_id == 0 and cells[0].c_sigma == 0.25 and cells[0].n == 100
    assert cells[1].n == 200
    assert cells[-1].mean_id == 3 and cells[-1].c_sigma == 1.0 and cells[-1].n == 200
    assert all(c.replications == 7 and c.seed == 11 for c in cells)


def test_csv_outputs(tmp_path, nulls):
    cells = scenario_cells([0], [0], [1.0], ["iid", "ma"], [100], replications=25, seed=6)
    results = run_grid(cells, tests=("r_lrv", "sn_full_v2"), nulls=nulls)

    cells_path = tmp_path / "cells.csv"
    write_cells_csv(results, cells_path, "meta test")
    lines = cells_path.read_text().splitlines()
    assert lines[0] == "# meta test"
    assert lines[1] == "mean,sigma,c_sigma,errors,n,replications,r_lrv,sn_full_v2,degenerate"
    assert len(lines) == 4
    assert lines[2].startswith("mu0,sigma0,1,iid,100,25,")

    rows = aggregate_rates(results, group_keys=("n", "errors"))
    agg_path = tmp_path / "agg.csv"
    write_aggregate_csv(rows, ("n", "errors"), agg_path, "meta test")
    agg_lines = agg_path.read_text().splitlines()
    assert agg_lines[1] == "n,errors,replications,r_lrv,sn_full_v2,degenerate"
    assert len(agg_lines) == 4

    # rewriting produces identical bytes
    again = tmp_path / "cells2.csv"
    write_cells_csv(results, again, "meta test")
    assert again.read_bytes() == cells_path.read_bytes()

    for empty in (lambda path: write_cells_csv([], path),
                  lambda path: write_aggregate_csv([], ("n",), path)):
        with pytest.raises(ValueError, match="nothing to aggregate"):
            empty(tmp_path / "empty.csv")


# --- lazy package root ----------------------------------------------------------

def test_package_root_resolves_simulation_names_lazily():
    import sncusum

    assert set(sncusum.__all__) <= set(dir(sncusum))
    for name in sncusum.__all__:
        assert getattr(sncusum, name) is not None, name
    namespace = {}
    exec("from sncusum import *", namespace)
    assert set(sncusum.__all__) <= set(namespace)
    assert namespace["ERROR_MODELS"] is simulation.ERROR_MODELS
    assert sncusum.run_grid is sncusum.simulation.run_grid
    with pytest.raises(AttributeError, match="no_such_name"):
        sncusum.no_such_name
