"""The user workloads: their set-up, inputs and untraced op loops.

Inputs come from the benchmark seed through plain numpy, so a change to the
package cannot alter them; the package sees only the generated files and
arrays. Every workload is one client in a closed loop.
"""

from pathlib import Path
import resource
import time

import numpy as np

import checks
from harness import Context, median, run_cli, strict_json, tail

KINDS = ("simple-ratio", "full-ratio")
SHIFT = 0.5  # mean shift, in noise standard deviations, at the series midpoint

# analyst: (n, shifted, method). full-v2 is the recommended rule, so it takes
# half the ops; lrv skips the cache load and is kept to 3 of 16 ops so the
# median stays inside the cluster of ops that load it.
ANALYST_MIX = [
    (120, 0, "full-v2"), (500, 1, "full-v1"), (2000, 0, "full-v2"), (20000, 1, "lrv"),
    (120, 1, "full-v2"), (500, 0, "simple"), (2000, 1, "full-v2"), (20000, 0, "full-v1"),
    (120, 0, "lrv"), (500, 1, "full-v2"), (2000, 0, "full-v1"), (20000, 1, "full-v2"),
    (120, 1, "simple"), (500, 0, "full-v2"), (2000, 1, "lrv"), (20000, 0, "full-v2"),
]
ORACLE_N = 120  # short enough for the literal O(n^2) loops of tests/oracles.py

# long_series: one cycle visits every (n, rule) pair once; the loop runs whole
# cycles so the median and tail ranks fall inside the same clusters each run.
LONG_MIX = [
    (20_000, "full-v2"), (100_000, "full-v1"), (200_000, "lrv"),
    (100_000, "full-v2"), (200_000, "full-v1"), (20_000, "lrv"),
    (200_000, "full-v2"), (20_000, "full-v1"), (100_000, "lrv"),
]


SMOKE_NULL_REPS = 2000  # --smoke shrinks the null samples so that a run takes seconds


def recorded(ctx: Context) -> dict:
    """Digests recorded at the first benchmarked commit (digests.json)."""
    return checks.DIGESTS["smoke" if ctx.smoke else "full"]


def series(rng: np.random.Generator, n: int, shifted: int) -> np.ndarray:
    x = rng.standard_normal(n)
    if shifted:
        x[n // 2 :] += SHIFT
    return x


def write_csv(path: Path, x: np.ndarray) -> None:
    path.write_text("value\n" + "\n".join(map(repr, x.tolist())) + "\n", encoding="ascii")


# ---------------------------------------------------------------- set-up


def cli_setup(ctx: Context) -> dict:
    """``sn-cusum nulldist`` at its documented defaults (serial, both kinds,
    100k draws, m=1000); ``setup_s`` is its wall time."""
    null_dir = ctx.subdir("null")
    args = ["nulldist", "--out", str(null_dir)]
    if ctx.smoke:
        args += ["--reps", str(SMOKE_NULL_REPS)]
    child = run_cli(ctx, *args)
    problems = [] if child.code == 0 else [f"nulldist exit {child.code}: {child.stderr[-300:]}"]
    if not problems:
        try:
            strict_json(child.stdout)
        except ValueError as exc:
            problems.append(f"nulldist output: {exc}")
        for kind in KINDS:
            digest = checks.sha256_file(null_dir / f"{kind}.snq")
            if digest != recorded(ctx)["snq"][kind]:
                problems.append(f"{kind}.snq digest {digest} differs from the recorded one")
    ctx.setup_check(problems)
    nulls = None if problems else {k: checks.read_draws(null_dir / f"{k}.snq") for k in KINDS}
    return {"setup_s": child.wall_s, "null_dir": null_dir, "nulls": nulls}


def library_setup(ctx: Context) -> dict:
    """``simulate_null(FULL_RATIO)`` at its defaults, as in the README example."""
    from sncusum import FULL_RATIO, simulate_null

    kwargs = {"replications": SMOKE_NULL_REPS} if ctx.smoke else {}
    start = time.perf_counter()
    sample = simulate_null(FULL_RATIO, **kwargs)
    setup_s = time.perf_counter() - start
    digest = checks.sha256_array(sample.draws)
    if digest != recorded(ctx)["library_full_draws"]:
        ctx.setup_check([f"simulate_null draws digest {digest} differs from the recorded one"])
    return {"setup_s": setup_s, "sample": sample}


def rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(setup_s: float, walls: list, work_per_s: float, peak_rss_mb: float) -> dict:
    value, beyond = tail(walls)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (median(walls), "s"),
        "op_tail_s": (value, "s"),
        "work_per_s": (work_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "_ops": len(walls),
        "_walls": walls,
        "_tail_beyond": beyond,
    }


# ---------------------------------------------------------------- analyst


def analyst_inputs(ctx: Context) -> dict:
    rng = np.random.default_rng(ctx.seed)
    folder = ctx.subdir("inputs")
    inputs = {}
    for n in sorted({n for n, _, _ in ANALYST_MIX}):
        for shifted in (0, 1):
            x = series(rng, n, shifted)
            path = folder / f"n{n}-shift{shifted}.csv"
            write_csv(path, x)
            inputs[n, shifted] = (path, x)
    return inputs


class TestChecker:
    """Checks ``sn-cusum test`` outputs; references are computed once per
    (series, method) and outside the timed region."""

    def __init__(self, nulls: dict):
        from sncusum.blocks import make_block_config

        self.nulls = nulls
        self.oracles = checks.load_oracles()
        self.make_cfg = make_block_config
        self.refs = {}

    def __call__(self, stdout: str, x: np.ndarray, method: str, key) -> list[str]:
        try:
            out = strict_json(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            return [f"{method} n={x.size}: output is not strict JSON: {exc}"]
        if (key, method) not in self.refs:
            self.refs[key, method] = checks.reference(x, method, self.nulls)
        problems = checks.check_outcome(out, x, method, self.refs[key, method])
        if not problems and x.size == ORACLE_N:
            problems = checks.check_oracle(self.oracles, x, method, out, self.make_cfg(x.size))
        return problems


def analyst(ctx: Context, setup: dict) -> dict:
    inputs = analyst_inputs(ctx)
    checker = TestChecker(setup["nulls"])
    walls, rss = [], []
    deadline = time.perf_counter() + ctx.seconds
    while not walls or time.perf_counter() < deadline:
        n, shifted, method = ANALYST_MIX[len(walls) % len(ANALYST_MIX)]
        path, x = inputs[n, shifted]
        child = run_cli(ctx, "test", "--input", str(path), "--method", method,
                        "--null-cache", str(setup["null_dir"]))
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        if child.code != 0:
            ctx.op([f"test {method} n={n}: exit {child.code}: {child.stderr.strip()[-300:]}"])
        else:
            ctx.op(checker(child.stdout, x, method, (n, shifted)))
    return summary(setup["setup_s"], walls, len(walls) / sum(walls), max(rss))


# ---------------------------------------------------------------- long_series


def long_series(ctx: Context, setup: dict) -> dict:
    from sncusum import TestParams, cusum_lrv_test, decide_full, make_block_config

    sample = setup["sample"]
    nulls = {"full-ratio": sample.draws}
    rng = np.random.default_rng(ctx.seed)
    inputs = {(n, s): series(rng, n, s) for n in sorted({n for n, _ in LONG_MIX}) for s in (0, 1)}
    rules = {"full-v1": TestParams.v1, "full-v2": TestParams.v2}
    first = {}
    walls, points = [], 0
    deadline = time.perf_counter() + ctx.seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        for n, method in LONG_MIX:
            x = inputs[n, cycle % 2]
            start = time.perf_counter()
            if method == "lrv":
                outcome = cusum_lrv_test(x, checks.ALPHA)
            else:
                cfg = make_block_config(n)
                outcome = decide_full(x, cfg, rules[method](checks.ALPHA), sample)
            walls.append(time.perf_counter() - start)
            points += n
            out = {"method": outcome.method, "n": n, "b_n": make_block_config(n).block_length,
                   "statistic": outcome.statistic, "threshold": outcome.threshold,
                   "p_value": outcome.p_value, "reject": outcome.reject}
            key = (n, cycle % 2, method)
            if key not in first:
                first[key] = out
                ctx.op(checks.check_outcome(out, x, method, checks.reference(x, method, nulls)))
            else:
                ctx.op([] if out == first[key] else [f"{method} n={n}: result changed on rerun"])
        cycle += 1
    return summary(setup["setup_s"], walls, points / sum(walls), rss_self_mb())


OP_MEANING = {
    "analyst": "op: one cold `sn-cusum test` subprocess; work: tests",
    "long_series": "op: one in-process decision; work: observations",
}
SETUPS = {"analyst": cli_setup, "long_series": library_setup}
RUNS = {"analyst": analyst, "long_series": long_series}
