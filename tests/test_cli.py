import hashlib
import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from sncusum import cli, nulldist, stats, validation
from sncusum.simulation import Scenario, mean_value, run_grid


def write_series(path, values, header=None):
    lines = ([header] if header else []) + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("nullcache")
    code = cli.main(
        ["nulldist", "--steps", "200", "--reps", "2000", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture()
def gauss_csv(tmp_path):
    path = tmp_path / "series.csv"
    write_series(path, np.random.default_rng(0).standard_normal(400), header="value")
    return path


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- test subcommand -----------------------------------------------------------

def test_cmd_test_json_contract(capsys, cache_dir, gauss_csv):
    code, out, _ = run_cli(
        capsys,
        ["test", "--input", str(gauss_csv), "--method", "full-v2",
         "--alpha", "0.05", "--null-cache", str(cache_dir)],
    )
    assert code == 0
    result = json.loads(out)
    assert list(result) == ["method", "n", "b_n", "statistic", "threshold", "p_value", "reject"]
    assert result["method"] == "sn_full_v2"
    assert result["n"] == 400
    assert result["b_n"] == 9
    assert isinstance(result["reject"], bool)
    assert 0.0 < result["p_value"] <= 1.0


@pytest.mark.parametrize("method", ["full-v2", "lrv"])
def test_cmd_test_skips_blank_lines(capsys, cache_dir, gauss_csv, tmp_path, method):
    lines = gauss_csv.read_text().splitlines()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n" + "\n \n".join(lines) + "\n\n")
    outputs = []
    for path in (gauss_csv, spaced):
        code, out, _ = run_cli(capsys, ["test", "--input", str(path), "--method", method,
                                        "--null-cache", str(cache_dir)])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1])["n"] == 400


def test_cmd_test_variants_share_geometry(capsys, cache_dir, gauss_csv):
    outputs = {}
    for method in ("full-v1", "full-v2"):
        code, out, _ = run_cli(
            capsys,
            ["test", "--input", str(gauss_csv), "--method", method,
             "--null-cache", str(cache_dir)],
        )
        assert code == 0
        outputs[method] = json.loads(out)
    v1, v2 = outputs["full-v1"], outputs["full-v2"]
    assert (v1["n"], v1["b_n"]) == (v2["n"], v2["b_n"])
    assert v1["statistic"] != v2["statistic"]
    assert v1["threshold"] != v2["threshold"]


def test_cmd_test_detects_step_change(capsys, cache_dir, tmp_path):
    n = 1000
    grid = np.arange(1, n + 1) / n
    x = mean_value(3, grid) + 0.25 * np.random.default_rng(1).standard_normal(n)
    path = tmp_path / "step.csv"
    write_series(path, x)
    for method in ("simple", "full-v2"):
        code, out, _ = run_cli(
            capsys,
            ["test", "--input", str(path), "--method", method,
             "--null-cache", str(cache_dir)],
        )
        assert code == 0
        assert json.loads(out)["reject"] is True


def test_cmd_test_lrv_needs_no_cache(capsys, gauss_csv):
    code, out, _ = run_cli(capsys, ["test", "--input", str(gauss_csv), "--method", "lrv"])
    assert code == 0
    assert json.loads(out)["method"] == "r_lrv"


def test_cmd_test_lrv_finite_at_extreme_scale(tmp_path):
    # window sums of 1e200-scale data overflow when squared, and partial sums
    # of data near 2**1023 overflow; the output must stay strict JSON and the
    # scale-invariant decision must not change.  Each run is a child with a
    # timeout, so that a stalled run fails instead of hanging the suite.
    x = np.random.default_rng(3).standard_normal(400)
    x[200:] += 1.0
    x /= np.abs(x).max()  # max|x| = 1 exactly, so the last series has max 2**1023
    src = Path(__file__).resolve().parents[1] / "src"
    results = []
    for i, series in enumerate((x, 1e200 * x, np.ldexp(x, 1023))):
        path = tmp_path / f"scaled{i}.csv"
        write_series(path, series)
        proc = subprocess.run(
            [sys.executable, "-m", "sncusum.cli", "test", "--input", str(path), "--method", "lrv"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout, parse_constant=lambda c: pytest.fail(f"emitted {c}")))
    for result in results[1:]:
        assert math.isfinite(result["statistic"]) and math.isfinite(result["threshold"])
        assert result["reject"] == results[0]["reject"] is True
    assert results[2]["p_value"] == results[0]["p_value"]


def test_cmd_test_lrv_refuses_a_statistic_beyond_the_float_range(tmp_path):
    # a trend from -2**1023 to 2**1023: the test is decided in the scaled
    # units, but its CUSUM statistic in data units exceeds the float range
    path = tmp_path / "trend.csv"
    write_series(path, np.ldexp(np.linspace(-1.0, 1.0, 500), 1023))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sncusum.cli", "test", "--input", str(path),
         "--method", "lrv"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_USAGE == 1
    assert proc.stdout == ""
    assert "exceeds the float range" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_cmd_test_lrv_threshold_resolves_a_tiny_level(capsys, tmp_path):
    # the threshold's tail must be alpha: a statistic with p-value 6.3e-13 is
    # no rejection at alpha = 1e-13
    x = np.random.default_rng(5).standard_normal(500)
    x[250:] += 0.6
    path = tmp_path / "shift.csv"
    write_series(path, x)
    code, out, err = run_cli(capsys, ["test", "--input", str(path), "--method", "lrv",
                                      "--alpha", "1e-13"])
    assert code == 0, err
    result = json.loads(out)
    assert result["p_value"] > 1e-13
    assert result["reject"] is False


def test_cmd_test_reports_a_zero_statistic_as_positive_zero(capsys, cache_dir, tmp_path):
    x = np.zeros(500)
    x[-1] = 5.0
    path = tmp_path / "edge.csv"
    write_series(path, x)
    for method in ("full-v1", "full-v2"):
        code, out, err = run_cli(capsys, ["test", "--input", str(path), "--method", method,
                                          "--null-cache", str(cache_dir)])
        assert code == 0, err
        assert '"statistic": 0.0,' in out


def test_cmd_test_refuses_a_statistic_beyond_the_float_range(cache_dir, tmp_path):
    # a subnormal self-normalizer under a normal numerator
    x = np.zeros(500)
    x[10] = 1.0
    x[3] = 1e-310
    path = tmp_path / "subnormal.csv"
    write_series(path, x)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sncusum.cli", "test", "--input", str(path),
         "--method", "full-v2", "--null-cache", str(cache_dir)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_DEGENERATE == 2
    assert proc.stdout == ""
    assert "below the float range" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_cmd_test_sn_rules_finite_at_extreme_scale(capsys, cache_dir, tmp_path):
    # 1e307-scale sums overflow unless the statistics pre-scale the data
    x = np.random.default_rng(3).standard_normal(500)
    for method in ("simple", "full-v1", "full-v2"):
        results = []
        for scale in (1.0, 1e307):
            path = tmp_path / f"scaled{scale:g}.csv"
            write_series(path, scale * x)
            code, out, err = run_cli(capsys, ["test", "--input", str(path), "--method", method,
                                              "--null-cache", str(cache_dir)])
            assert code == 0, err
            results.append(json.loads(out, parse_constant=lambda c: pytest.fail(f"emitted {c}")))
        assert results[1]["statistic"] == pytest.approx(results[0]["statistic"], rel=1e-12)
        assert results[1]["p_value"] == results[0]["p_value"]


def test_cmd_test_refuses_unresolvable_alpha(capsys, cache_dir, gauss_csv):
    # 2000 draws resolve p-values down to 1/2001 only
    for method in ("simple", "full-v2"):
        code, out, err = run_cli(
            capsys,
            ["test", "--input", str(gauss_csv), "--method", method, "--alpha", "1e-4",
             "--null-cache", str(cache_dir)],
        )
        assert (code, out) == (1, "")
        assert "resolution" in err


@pytest.mark.parametrize("alpha", ["0", "-0.1", "1", "1.5", "nan"])
@pytest.mark.parametrize("method", ["simple", "full-v1", "full-v2", "lrv"])
def test_cmd_test_refuses_level_outside_unit_interval(capsys, cache_dir, gauss_csv,
                                                      method, alpha):
    # every method names the level it refuses, whatever the null behind it
    code, out, err = run_cli(
        capsys,
        ["test", "--input", str(gauss_csv), "--method", method, "--alpha", alpha,
         "--null-cache", str(cache_dir)],
    )
    assert (code, out) == (1, "")
    assert "alpha=" in err


@pytest.mark.parametrize("alpha", ["1e-17", "5e-17"])
def test_cmd_test_lrv_resolves_an_alpha_whose_complement_rounds_to_one(capsys, gauss_csv, alpha):
    # below about 2**-53, 1 - alpha is 1.0; the threshold is found from the tail itself
    thresholds = []
    for level in (alpha, "0.05"):
        code, out, _ = run_cli(capsys, ["test", "--input", str(gauss_csv), "--method", "lrv",
                                        "--alpha", level])
        assert code == 0
        thresholds.append(json.loads(out)["threshold"])
    assert math.isfinite(thresholds[0])
    ratio = stats.lrv_critical_value(float(alpha)) / stats.lrv_critical_value(0.05)
    assert thresholds[0] / thresholds[1] == pytest.approx(ratio, rel=1e-12)


def test_cmd_test_null_pvalues_approximately_uniform(capsys, cache_dir, tmp_path):
    # under a constant mean, p-values concentrate above the level for the
    # (conservative) full rule; p > 0.05 in well over 90% of runs
    path = tmp_path / "u.csv"
    above = 0
    runs = 200
    for seed in range(runs):
        write_series(path, np.random.default_rng([1000, seed]).standard_normal(400))
        code, out, _ = run_cli(
            capsys,
            ["test", "--input", str(path), "--method", "full-v2",
             "--null-cache", str(cache_dir)],
        )
        assert code == 0
        above += json.loads(out)["p_value"] > 0.05
    assert above >= 0.9 * runs


def test_cmd_test_degenerate_exit_code(capsys, cache_dir, tmp_path):
    path = tmp_path / "const.csv"
    write_series(path, np.zeros(300))
    code, _, err = run_cli(
        capsys,
        ["test", "--input", str(path), "--method", "simple", "--null-cache", str(cache_dir)],
    )
    assert code == 2
    assert "degenerate" in err


def test_cmd_test_missing_cache_instructs_precompute(capsys, gauss_csv, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["test", "--input", str(gauss_csv), "--method", "simple",
         "--null-cache", str(tmp_path / "empty")],
    )
    assert code == 1
    assert "nulldist" in err


def test_cmd_test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1.0\n2.0\noops\n4.0\n")
    code, _, err = run_cli(capsys, ["test", "--input", str(path), "--method", "lrv"])
    assert code == 3
    assert ":4:" in err and "oops" in err


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400"])
def test_cmd_test_non_finite_value_is_a_parse_error(capsys, tmp_path, text):
    # the same reader as aggregate: exit 3 and the line of the value
    path = tmp_path / "bad.csv"
    path.write_text(f"value\n1.0\n{text}\n" + "2.0\n" * 10)
    code, _, err = run_cli(capsys, ["test", "--input", str(path), "--method", "lrv"])
    assert code == 3
    assert ":3:" in err and "finite" in err


def test_cmd_test_undecodable_input_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"value\n1.0\n2.0\n\xff\n" + b"3.0\n" * 10)
    code, _, err = run_cli(capsys, ["test", "--input", str(path), "--method", "lrv"])
    assert code == 3
    assert str(path) in err and "decode" in err


@pytest.mark.parametrize("line", [0, 5])
def test_cmd_test_undecodable_cache_is_a_format_error(capsys, cache_dir, gauss_csv,
                                                      tmp_path, line):
    # a non-ASCII byte in the header or in a draw
    lines = (cache_dir / "full-ratio.snq").read_bytes().split(b"\n")
    lines[line] += b"\xe9"
    (tmp_path / "full-ratio.snq").write_bytes(b"\n".join(lines))
    code, _, err = run_cli(capsys, ["test", "--input", str(gauss_csv), "--method", "full-v2",
                                    "--null-cache", str(tmp_path)])
    assert code == 3
    assert str(tmp_path / "full-ratio.snq") in err and "ASCII" in err


def test_cmd_test_cache_cut_to_its_header_is_a_format_error(gauss_csv, tmp_path):
    # an interrupted write leaves the header and no companion: exit 3, no warning
    (tmp_path / "full-ratio.snq").write_text("snq v1 full-ratio m=200 N=2000 seed=6\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sncusum.cli", "test", "--input", str(gauss_csv),
         "--method", "full-v2", "--null-cache", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert "holds 0 draws" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_cmd_test_output_is_the_same_without_the_companions(capsys, cache_dir, gauss_csv,
                                                            tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    for kind in ("simple-ratio", "full-ratio"):
        assert (cache_dir / f"{kind}.snq.f8").exists()
        (bare / f"{kind}.snq").write_bytes((cache_dir / f"{kind}.snq").read_bytes())
    for method in ("simple", "full-v1", "full-v2"):
        argv = ["test", "--input", str(gauss_csv), "--method", method, "--null-cache"]
        with_companion = run_cli(capsys, argv + [str(cache_dir)])
        assert with_companion[0] == 0
        assert run_cli(capsys, argv + [str(bare)]) == with_companion
    # test only reads the cache directory: it writes no companion
    assert sorted(path.name for path in bare.iterdir()) == ["full-ratio.snq", "simple-ratio.snq"]


@pytest.mark.parametrize("text", ["", "value\n"], ids=["empty", "header-only"])
def test_cmd_test_input_without_rows_is_a_parse_error(capsys, tmp_path, text):
    path = tmp_path / "none.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["test", "--input", str(path), "--method", "lrv"])
    assert code == 3
    assert out == "" and "no numeric rows found" in err


def test_cmd_test_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["test", "--input", str(tmp_path / "nope.csv"), "--method", "lrv"]
    )
    assert code == 3


def test_cmd_test_short_series(capsys, cache_dir, tmp_path):
    path = tmp_path / "short.csv"
    write_series(path, np.random.default_rng(2).standard_normal(200))
    code, _, err = run_cli(
        capsys,
        ["test", "--input", str(path), "--method", "full-v2",
         "--block-size", "3", "--null-cache", str(cache_dir)],
    )
    assert code == 1
    assert "too short" in err


def test_cmd_test_checks_the_geometry_before_the_null_cache(capsys, tmp_path):
    path = tmp_path / "short.csv"
    write_series(path, np.random.default_rng(2).standard_normal(200))
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, err = run_cli(
        capsys,
        ["test", "--input", str(path), "--method", "full-v2",
         "--block-size", "3", "--null-cache", str(empty)],
    )
    assert code == 1
    assert out == "" and "too short" in err and "null cache" not in err


def test_cmd_test_env_cache_dir(capsys, cache_dir, gauss_csv, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
    code, out, _ = run_cli(capsys, ["test", "--input", str(gauss_csv), "--method", "simple"])
    assert code == 0
    assert json.loads(out)["method"] == "sn_simple"


@pytest.mark.parametrize("xdg", ["", "relative/dir"])
def test_cache_dir_ignores_an_empty_or_relative_xdg_cache_home(monkeypatch, tmp_path, xdg):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    assert cli._cache_dir(None) == tmp_path / ".cache" / "sn-cusum"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cli._cache_dir(None) == tmp_path / "xdg" / "sn-cusum"


def test_usage_errors_exit_one(capsys):
    assert cli.main(["test", "--method", "simple"]) == 1  # missing --input
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


# --- nulldist subcommand -----------------------------------------------------------

def test_nulldist_writes_both_caches(cache_dir):
    assert (cache_dir / "simple-ratio.snq").exists()
    assert (cache_dir / "full-ratio.snq").exists()
    header = (cache_dir / "simple-ratio.snq").read_text().splitlines()[0]
    assert header == "snq v1 simple-ratio m=200 N=2000 seed=5"
    header = (cache_dir / "full-ratio.snq").read_text().splitlines()[0]
    assert header == "snq v1 full-ratio m=200 N=2000 seed=6"


def test_nulldist_reruns_byte_identical(capsys, cache_dir, tmp_path):
    out = tmp_path / "again"
    code, stdout, _ = run_cli(
        capsys,
        ["nulldist", "--steps", "200", "--reps", "2000", "--seed", "5", "--out", str(out)],
    )
    assert code == 0
    for name in ("simple-ratio.snq", "full-ratio.snq"):
        assert (out / name).read_bytes() == (cache_dir / name).read_bytes()
    summary = json.loads(stdout)
    assert summary["simple-ratio"]["quantiles"]["0.95"] > 1.0
    for kind in ("simple-ratio", "full-ratio"):
        quantiles = summary[kind]["quantiles"]
        assert list(quantiles) == ["0.9", "0.95", "0.99"]
        assert list(quantiles.values()) == sorted(quantiles.values())


def test_nulldist_seed_sensitivity(capsys, tmp_path):
    qs = {}
    for seed in ("21", "22"):
        code, stdout, _ = run_cli(
            capsys,
            ["nulldist", "--steps", "200", "--reps", "2000", "--seed", seed,
             "--out", str(tmp_path / seed)],
        )
        assert code == 0
        qs[seed] = json.loads(stdout)["full-ratio"]["quantiles"]["0.95"]
    assert qs["21"] != qs["22"]
    assert abs(qs["21"] - qs["22"]) / qs["21"] < 0.15


def test_nulldist_defaults_to_a_pool_of_the_usable_cpus(capsys, tmp_path, usable_cpus, fake_pools):
    usable_cpus(3)
    argv = ["nulldist", "--steps", "100", "--reps", "12000", "--out", str(tmp_path)]
    assert run_cli(capsys, argv)[0] == 0
    # one pool per ratio kind, as large as the affinity mask allows
    assert [pool.max_workers for pool in fake_pools] == [3, 3]


def test_nulldist_default_workers_write_the_serial_bytes(capsys, tmp_path):
    for out, flags in (("default", []), ("serial", ["--workers", "1"])):
        argv = ["nulldist", "--steps", "100", "--reps", "3000", *flags, "--out", str(tmp_path / out)]
        assert run_cli(capsys, argv)[0] == 0
    for name in ("simple-ratio.snq", "full-ratio.snq"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_nulldist_writes_the_same_companions_at_one_and_two_workers(capsys, tmp_path,
                                                                   usable_cpus):
    usable_cpus(2)
    for workers in ("1", "2"):
        argv = ["nulldist", "--steps", "100", "--reps", "3000", "--workers", workers,
                "--out", str(tmp_path / workers)]
        assert run_cli(capsys, argv)[0] == 0
    for name in ("simple-ratio.snq", "full-ratio.snq", "simple-ratio.snq.f8",
                 "full-ratio.snq.f8"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_nulldist_seed_overflow_writes_no_cache(capsys, tmp_path):
    # the full-ratio sample takes seed + 1, which leaves the 64-bit range;
    # 50 grid steps are below the simulator's minimum of 100
    out = tmp_path / "null"
    for flag, word in [(["--seed", str(2**64 - 1)], "seed"), (["--steps", "50"], "grid_steps")]:
        code, _, err = run_cli(
            capsys, ["nulldist", "--steps", "100", "--reps", "1000", *flag, "--out", str(out)]
        )
        assert code == 1 and word in err
        assert not out.exists()


# --- simulate subcommand --------------------------------------------------------------

def test_simulate_smoke_cell(capsys, cache_dir, tmp_path):
    out = tmp_path / "sim"
    code, stdout, _ = run_cli(
        capsys,
        ["simulate", "--grid", "mu=0;sigma=0;c=1;eps=iid;n=120", "--reps", "100",
         "--seed", "3", "--out", str(out), "--null-cache", str(cache_dir)],
    )
    assert code == 0
    written = json.loads(stdout)["written"]
    assert str(out / "cells.csv") in written
    lines = (out / "cells.csv").read_text().splitlines()
    assert lines[0].startswith("# sn-cusum simulate seed=3 replications=100")
    assert lines[1] == (
        "mean,sigma,c_sigma,errors,n,replications,r_lrv,sn_simple,sn_full_v1,"
        "sn_full_v2,degenerate"
    )
    assert len(lines) == 3


def test_simulate_rerun_byte_identical(capsys, cache_dir, tmp_path):
    args = ["simulate", "--grid", "mu=0;eps=iid,ma;n=100", "--reps", "50", "--seed", "9",
            "--tests", "r_lrv,sn_full_v2", "--null-cache", str(cache_dir)]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code, _, _ = run_cli(capsys, args + ["--out", str(out)])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "cells.csv").read_bytes() == (outs[1] / "cells.csv").read_bytes()
    # eps has two values, so an aggregate by (n, errors) is emitted
    assert (outs[0] / "aggregate_errors.csv").exists()
    agg = (outs[0] / "aggregate_errors.csv").read_text().splitlines()
    assert agg[1] == "n,errors,replications,r_lrv,sn_full_v2,degenerate"


def test_simulate_ranges_keep_the_bytes(capsys, cache_dir, tmp_path):
    # 20 replications a cell are one or two ranges, however many workers run
    # them; sha256 recorded when every range could be a single replication
    digest = "17b0e3d0d26c5df27d344d7b67621a074558158bc267be641ddc0acea4e45a7b"
    for workers in ("1", "2"):
        out = tmp_path / workers
        argv = ["simulate", "--grid", "mu=0,3;eps=iid,ar;n=100", "--reps", "20", "--seed", "4",
                "--workers", workers, "--null-cache", str(cache_dir), "--out", str(out)]
        assert run_cli(capsys, argv)[0] == 0
        assert hashlib.sha256((out / "cells.csv").read_bytes()).hexdigest() == digest


def test_simulate_bad_grid_spec(capsys, cache_dir, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["simulate", "--grid", "nope=1", "--reps", "50",
         "--out", str(tmp_path / "x"), "--null-cache", str(cache_dir)],
    )
    assert code == 1
    assert "grid" in err


@pytest.mark.parametrize("grid, key", [("mu=0;mu=3", "mu"), ("n=100;n=200;n=100", "n")])
def test_simulate_refuses_a_repeated_grid_key_before_loading_a_null(capsys, tmp_path, grid, key):
    # a cache that cannot be parsed would exit 3 if any null were loaded
    broken = tmp_path / "cache"
    broken.mkdir()
    for kind in (nulldist.SIMPLE_RATIO, nulldist.FULL_RATIO):
        (broken / f"{kind}.snq").write_text("not a cache\n")
    out = tmp_path / "sim"
    code, _, err = run_cli(capsys, ["simulate", "--grid", grid, "--reps", "5",
                                    "--null-cache", str(broken), "--out", str(out)])
    assert code == cli.EXIT_USAGE == 1
    assert err == f"sn-cusum: repeated grid key {key!r}\n"
    assert not out.exists()


def test_simulate_overflowing_cell_is_a_clean_error(cache_dir, tmp_path):
    # c_sigma * sigma overflows while the series is built; the finiteness
    # check names it, with no numpy warning before it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sncusum.cli", "simulate",
         "--grid", "c=1e308;sigma=3", "--reps", "20", "--null-cache", str(cache_dir),
         "--out", str(tmp_path / "sim")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_USAGE == 1
    assert "series contains non-finite values" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags, word", [
    (["--grid", "c=nan"], "c_sigma"),
    (["--grid", "c=1,inf"], "c_sigma"),
    (["--tests", "sn_simple,sn_simple"], "repeated"),
    (["--tests", "sn_simple", "--grid", "n=20"], "series too short: n=20 < 4 * n_blocks=24;"),
])
def test_simulate_refuses_bad_cells_and_repeated_tests(capsys, cache_dir, tmp_path, flags, word):
    out = tmp_path / "sim"
    code, _, err = run_cli(
        capsys,
        ["simulate", "--reps", "5", "--out", str(out), "--null-cache", str(cache_dir)] + flags,
    )
    assert code == 1 and word in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1e-17", "5e-17"])
def test_simulate_writes_tables_at_an_lrv_alpha_whose_complement_rounds_to_one(capsys, tmp_path,
                                                                               alpha):
    out = tmp_path / "sim"
    code, stdout, _ = run_cli(capsys, ["simulate", "--tests", "r_lrv", "--alpha", alpha,
                                       "--grid", "n=100", "--reps", "40", "--out", str(out)])
    assert code == 0
    written = json.loads(stdout)["written"]
    assert str(out / "cells.csv") in written
    assert all(Path(path).exists() for path in written)


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_simulate_refuses_an_lrv_alpha_before_any_worker_starts(capsys, tmp_path, usable_cpus,
                                                               fake_pools, alpha):
    # the error names the alpha given, and no pool is built and no table written
    usable_cpus(64)
    out = tmp_path / "sim"
    code, stdout, err = run_cli(capsys, ["simulate", "--tests", "r_lrv", "--alpha", alpha,
                                         "--grid", "n=100", "--reps", "40", "--workers", "2",
                                         "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert f"alpha={float(alpha)}" in err
    assert not fake_pools and not out.exists()


def test_test_and_simulate_share_one_admissibility_rule(capsys, cache_dir, tmp_path):
    # `test` accepts a geometry exactly when run_grid accepts the cell, and
    # both refuse it with the same message
    nulls = {kind: nulldist.load_sample(cache_dir / f"{kind}.snq")
             for kind in (nulldist.SIMPLE_RATIO, nulldist.FULL_RATIO)}
    path = tmp_path / "x.csv"
    outcomes = set()
    for n in range(4, 81):
        write_series(path, np.random.default_rng(n).standard_normal(n))
        for block in (None, 2, 3):
            flags = [] if block is None else ["--block-size", str(block)]
            cell = Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid", n=n,
                            replications=1, block_length=block)
            for method, test_id in cli._METHODS.items():
                if test_id not in stats.RULES:
                    continue
                code, _, err = run_cli(capsys, ["test", "--input", str(path), "--method", method,
                                                "--null-cache", str(cache_dir)] + flags)
                try:
                    run_grid([cell], tests=(test_id,), nulls=nulls)
                except ValueError as exc:
                    assert (code, err) == (1, f"sn-cusum: {exc}\n"), (n, block, method)
                    outcomes.add("refused")
                else:
                    assert code == 0, (n, block, method, err)
                    outcomes.add("accepted")
    assert outcomes == {"accepted", "refused"}


def test_workers_below_one_exit_one(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["nulldist", "--steps", "100", "--reps", "1000", "--workers", "0",
         "--out", str(tmp_path / "null")],
    )
    assert code == 1 and "workers" in err
    code, _, err = run_cli(
        capsys,
        ["simulate", "--grid", "n=100", "--reps", "5", "--tests", "r_lrv",
         "--workers", "-3", "--out", str(tmp_path / "sim")],
    )
    assert code == 1 and "workers" in err


# --- import boundary -------------------------------------------------------------------

IMPORT_PROBE = """
import json, sys
from sncusum import cli
tmp = sys.argv[1]
def run(*argv):
    assert cli.main(list(argv)) == 0, argv
def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m in ("sncusum.simulation", "sncusum.validation",
                           "concurrent.futures.process"))
after_import = heavy()
run("nulldist", "--steps", "100", "--reps", "1000", "--out", tmp + "/cache")
for method in ("simple", "full-v1", "full-v2", "lrv"):
    run("test", "--input", tmp + "/x.csv", "--method", method, "--null-cache", tmp + "/cache")
after_test = heavy()
run("simulate", "--grid", "n=100", "--reps", "5", "--tests", "r_lrv", "--out", tmp + "/sim")
print(json.dumps([after_import, after_test, "scipy.signal" in sys.modules]))
"""


def test_cold_test_and_nulldist_import_no_scipy(tmp_path):
    # `test` and `nulldist` must not pay for scipy or for the process-pool
    # module; `nulldist` runs at its default worker count, but a 1000-draw
    # kind is one range, so it stays in-process.  `simulate` must import
    # scipy.signal before its pool forks, so that workers inherit it.
    write_series(tmp_path / "x.csv", np.random.default_rng(1).standard_normal(200))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_test, simulate_loads_lfilter = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == []
    assert after_test == []
    assert simulate_loads_lfilter


# --- validate subcommand ---------------------------------------------------------------

def test_validate_default_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)
    assert {"name", "deviation", "tolerance", "params", "passed"} <= set(reports[0])


def test_validate_fails_when_a_check_fails(capsys, monkeypatch):
    failing = validation.OracleReport(name="failing", deviation=1.0, tolerance=0.1)
    monkeypatch.setattr(validation, "run_all_checks", lambda seed: [failing])
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == 1
    assert any(not r["passed"] for r in json.loads(out))


# --- aggregate subcommand ----------------------------------------------------------------

def test_aggregate_single_year(capsys, tmp_path):
    src = tmp_path / "daily.csv"
    src.write_text("date,value\n2001-07-01,1\n2001-07-02,2\n2001-07-03,3\n")
    dst = tmp_path / "annual.csv"
    code, _, _ = run_cli(capsys, ["aggregate", "--input", str(src), "--out", str(dst)])
    assert code == 0
    assert dst.read_text() == "year,value\n2001,2.000000\n"


def test_aggregate_interleaved_years_sorted(capsys, tmp_path):
    src = tmp_path / "daily.csv"
    src.write_text("2002-07-01,4\n2001-07-01,1\n2002-07-02,6\n2001-07-02,3\n")
    dst = tmp_path / "annual.csv"
    code, _, _ = run_cli(capsys, ["aggregate", "--input", str(src), "--out", str(dst)])
    assert code == 0
    assert dst.read_text() == "year,value\n2001,2.000000\n2002,5.000000\n"


def test_aggregate_missing_values_counted(capsys, tmp_path):
    src = tmp_path / "daily.csv"
    src.write_text(
        "date,value\n2001-07-01,1\n2001-07-02,\n2001-07-03,3\n"
        "2003-07-01,NA\n2003-07-02,nan\n2004-07-01,7\n"
    )
    dst = tmp_path / "annual.csv"
    code, _, err = run_cli(capsys, ["aggregate", "--input", str(src), "--out", str(dst)])
    assert code == 0
    assert "skipped 3 row(s)" in err
    assert "year 2003" in err and "omitted" in err
    assert dst.read_text() == "year,value\n2001,2.000000\n2004,7.000000\n"


def test_aggregate_bad_rows(capsys, tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("date,value\n2001-07-01,1\nnot-a-date,2\n")
    dst = tmp_path / "annual.csv"
    code, _, err = run_cli(capsys, ["aggregate", "--input", str(src), "--out", str(dst)])
    assert code == 3
    assert ":3:" in err

    src.write_text("date,value\n2001-07-01,1,9\n")
    code, _, err = run_cli(capsys, ["aggregate", "--input", str(src), "--out", str(dst)])
    assert code == 3
    assert "two columns" in err

    # a value that parses to inf, and a year whose mean overflows
    src.write_text("date,value\n2001-07-01,1\n2001-07-02,1e400\n")
    code, _, err = run_cli(capsys, ["aggregate", "--input", str(src), "--out", str(dst)])
    assert code == 3
    assert ":3:" in err and "finite" in err
    # a year led by a digit that int() does not read (a superscript two)
    src.write_text("2020-01-01,1.0\n\u00b2020-01-02,2.0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["aggregate", "--input", str(src), "--out", str(dst)])
    assert code == 3
    assert ":2: bad date" in err
    src.write_text("date,value\n2001-07-01,1e308\n2001-07-02,1e308\n")
    code, _, err = run_cli(capsys, ["aggregate", "--input", str(src), "--out", str(dst)])
    assert code == 3
    assert "2001" in err
    assert not dst.exists()


def test_byte_order_mark_keeps_the_first_row(capsys, cache_dir, tmp_path):
    # a UTF-8 byte-order mark (as Excel and PowerShell write) must not turn
    # the first observation into a header
    x = np.random.default_rng(3).standard_normal(200)
    x[:20] += 5.0
    text = "\n".join(repr(float(v)) for v in x) + "\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for method in ("lrv", "full-v2"):
        outputs = [run_cli(capsys, ["test", "--input", str(path), "--method", method,
                                    "--null-cache", str(cache_dir)])
                   for path in (plain, marked)]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1], method
        assert json.loads(outputs[1][1])["n"] == 200

    daily = "2001-07-01,1\n2001-07-02,101\n2002-07-01,4\n"
    plain.write_text(daily, encoding="utf-8")
    marked.write_text(daily, encoding="utf-8-sig")
    for path in (plain, marked):
        dst = tmp_path / f"annual-{path.stem}.csv"
        code, _, _ = run_cli(capsys, ["aggregate", "--input", str(path), "--out", str(dst)])
        assert code == 0
        assert dst.read_text() == "year,value\n2001,51.000000\n2002,4.000000\n"
