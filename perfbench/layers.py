"""Per-layer metrics: the traced run (``--trace 1``).

After the workload's own set-up, probe rounds repeat until ``--seconds`` have
passed and every metric is the median over the rounds. Each module is timed
through its public functions; spans come from ``tracing.Tracer`` and a self
time is a span minus its child spans. Cold start-up is timed on CLI children
(the only child processes); everything else runs in this process.
"""

from collections import defaultdict
import contextlib
import io
import time
import tracemalloc
import types

import numpy as np

import checks
from harness import Context, median, nproc, run_cli, run_python
from tracing import Tracer
import workloads

N_SMALL, N_MAIN, N_LARGE = 500, 20_000, 100_000
REPEATS = 20  # calls per round of each sub-millisecond probe
SCENARIO_REPS = 100  # replications of the in-process run_scenario probe
PAIRS = 3  # untraced/traced run_scenario pairs per round
NOOP_CALLS = 20_000
DRAWS = 1000  # draws per kind of the simulate_null probe (its minimum)
ATTRIBUTION_TOLERANCE = 0.10  # share of cli.cold_test_s the layer sum may miss
# The methodologist's rejection-rate study: 36 cells of n <= 500.
GRID_SPEC = "mu=0,3;sigma=0,2;c=1;eps=iid,ma,ar;n=100,200,500"
GRID_CELLS = 36
GRID_REPS, SMOKE_GRID_REPS = 100, 5

UNITS = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main_self_n500_s": "s",
    "cli.main_self_n20000_s": "s",
    "cli.cold_test_s": "s",
    "nulldist.load_s": "s",
    "nulldist.cache_bytes": "bytes",
    "nulldist.draw_us": "us",
    "nulldist.save_s": "s",
    "blocks.grid_n500_us": "us",
    "blocks.grid_n100000_ms": "ms",
    "blocks.grid_peak_mb_n100000": "MB",
    "stats.full_n500_us": "us",
    "stats.simple_n500_us": "us",
    "stats.lrv_n500_us": "us",
    "stats.full_n100000_ms": "ms",
    "stats.lrv_n100000_ms": "ms",
    "simulation.gen_series_iid_us": "us",
    "simulation.gen_series_ma_us": "us",
    "simulation.gen_series_ar_us": "us",
    "simulation.rep_us": "us",
    "simulation.rep_self_us": "us",
    "simulation.serial_reps_per_s": "1/s",
    "simulation.parallel_speedup": "ratio",
    "trace.span_cost_us": "us",
    "trace.overhead_rep_us": "us",
    "attribution.residual_share": "ratio",
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _targets():
    """Public functions whose calls get a span, named module.function."""
    from sncusum import blocks, nulldist, simulation, stats

    names = {
        nulldist: ("load_sample", "save_sample", "simulate_null", "quantile", "p_value"),
        stats: ("decide_full", "decide_simple", "full_statistic", "simple_statistic",
                "cusum_lrv_test", "full_statistic_from_grid", "simple_statistic_from_grid"),
        simulation: ("gen_series", "run_scenario"),
    }
    targets = [(mod, attr, f"{mod.__name__.split('.')[-1]}.{attr}")
               for mod, attrs in names.items() for attr in attrs]
    targets.append((blocks.PartialSumGrid, "compute", "blocks.PartialSumGrid.compute"))
    return targets


class Probe:
    def __init__(self, ctx: Context, full_sample):
        from sncusum import nulldist

        self.ctx = ctx
        self.full = full_sample
        self.tracer = Tracer()
        self.samples = defaultdict(list)
        self.dir = ctx.subdir("probe")
        rng = np.random.default_rng([ctx.seed, 1])
        self.x = {n: rng.standard_normal(n) for n in (N_SMALL, N_MAIN, N_LARGE)}
        self.csv = {}
        for n in (N_SMALL, N_MAIN):
            self.csv[n] = self.dir / f"n{n}.csv"
            workloads.write_csv(self.csv[n], self.x[n])
        # Probe caches: the set-up's 100k full-ratio sample and a small
        # simple-ratio sample, so every workload's traced run probes alike.
        self.simple = nulldist.simulate_null(nulldist.SIMPLE_RATIO, replications=DRAWS, seed=1)
        nulldist.save_sample(self.simple, self.dir / "simple-ratio.snq")
        nulldist.save_sample(self.full, self.dir / "full-ratio.snq")
        self.checker = workloads.TestChecker({"full-ratio": self.full.draws})

    def add(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds * SCALE.get(UNITS[name], 1.0))

    def traced(self):
        return self.tracer.installed(_targets())

    def spans(self, name: str, since: int) -> list[float]:
        return [self.tracer.duration(i) for i in self.tracer.select(name, since)]

    # ------------------------------------------------------------ probes

    def cold(self) -> None:
        """Interpreter start, cold import and one cold ``test`` at n=500."""
        interp = run_python(self.ctx, ["-c", "pass"])
        imported = run_python(self.ctx, ["-c", "import sncusum.cli"])
        test = run_cli(self.ctx, "test", "--input", str(self.csv[N_SMALL]),
                       "--method", "full-v2", "--null-cache", str(self.dir))
        problems = [f"{c.code}: {c.stderr[-200:]}" for c in (interp, imported, test) if c.code]
        if not problems:
            problems = self.checker(test.stdout, self.x[N_SMALL], "full-v2", N_SMALL)
        self.ctx.op(problems)
        self.add("cli.interp_s", interp.wall_s)
        self.add("cli.import_s", imported.wall_s - interp.wall_s)
        self.add("cli.cold_test_s", test.wall_s)

    def nulldist(self) -> None:
        from sncusum import nulldist

        with self.traced():
            mark = len(self.tracer.spans)
            nulldist.save_sample(self.full, self.dir / "full-ratio.snq")
            for kind in (nulldist.SIMPLE_RATIO, nulldist.FULL_RATIO):
                nulldist.simulate_null(kind, replications=DRAWS, seed=1)
        self.add("nulldist.save_s", self.spans("nulldist.save_sample", mark)[0])
        for seconds in self.spans("nulldist.simulate_null", mark):
            self.add("nulldist.draw_us", seconds / DRAWS)
        self.samples["nulldist.cache_bytes"].append((self.dir / "full-ratio.snq").stat().st_size)

    def main(self) -> None:
        """Warm in-process ``cli.main(["test", ...])``, traced after one warm-up call."""
        from sncusum import cli

        for n in (N_SMALL, N_MAIN):
            argv = ["test", "--input", str(self.csv[n]), "--method", "full-v2",
                    "--null-cache", str(self.dir)]
            self._call_main(cli, argv)  # warm the file cache and lazy state
            mark = len(self.tracer.spans)
            with self.traced():
                for _ in range(2):
                    with self.tracer.span("cli.main"):
                        code, stdout = self._call_main(cli, argv)
            problems = [f"cli.main exit {code}"] if code else []
            self.ctx.op(problems or self.checker(stdout, self.x[n], "full-v2", n))
            own = self.tracer.self_times()
            mains = self.tracer.select("cli.main", mark)
            for i in mains:
                self.add(f"cli.main_self_n{n}_s", own[i])
            if n == N_SMALL:
                for seconds in self.spans("nulldist.load_sample", mark):
                    self.add("nulldist.load_s", seconds)
                self.samples["_decide_n500_s"] += self.spans("stats.decide_full", mark)

    @staticmethod
    def _call_main(cli, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    def kernels(self) -> None:
        """Lattice and statistics at n=500 and n=100000."""
        from sncusum import blocks, stats
        from sncusum.blocks import make_block_config

        small, large = self.x[N_SMALL], self.x[N_LARGE]
        cfg_small, cfg_large = make_block_config(N_SMALL), make_block_config(N_LARGE)
        with self.traced():
            mark = len(self.tracer.spans)
            for _ in range(REPEATS):
                stats.full_statistic(small, cfg_small, 1 / 3, 1 / 2)
                stats.simple_statistic(small, cfg_small)
                stats.cusum_lrv_test(small)
            for seconds in self.spans("blocks.PartialSumGrid.compute", mark):
                self.add("blocks.grid_n500_us", seconds)
            for name, metric in (("full_statistic", "full"), ("simple_statistic", "simple"),
                                 ("cusum_lrv_test", "lrv")):
                for seconds in self.spans(f"stats.{name}", mark):
                    self.add(f"stats.{metric}_n500_us", seconds)
            mark = len(self.tracer.spans)
            stats.full_statistic(large, cfg_large, 1 / 3, 1 / 2)
            for _ in range(3):
                stats.cusum_lrv_test(large)
        self.add("blocks.grid_n100000_ms", self.spans("blocks.PartialSumGrid.compute", mark)[0])
        self.add("stats.full_n100000_ms", self.spans("stats.full_statistic", mark)[0])
        for seconds in self.spans("stats.cusum_lrv_test", mark):
            self.add("stats.lrv_n100000_ms", seconds)
        tracemalloc.start()
        try:
            blocks.PartialSumGrid.compute(large, cfg_large)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.samples["blocks.grid_peak_mb_n100000"].append(peak / 2**20)

    def simulation(self) -> None:
        """Series generation and one n=500 cell at workers=1, all four tests."""
        from sncusum import nulldist, simulation

        nulls = {nulldist.SIMPLE_RATIO: self.simple, nulldist.FULL_RATIO: self.full}
        cell = simulation.Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                                   n=N_SMALL, replications=SCENARIO_REPS, seed=self.ctx.seed)
        with self.traced():
            mark = len(self.tracer.spans)
            for model in simulation.ERROR_MODELS:
                model_cell = simulation.Scenario(0, 0, 1.0, model, N_SMALL, REPEATS, seed=self.ctx.seed)
                for rep in range(REPEATS):
                    simulation.gen_series(model_cell, rep)
                for seconds in self.spans("simulation.gen_series", mark):
                    self.add(f"simulation.gen_series_{model}_us", seconds)
                mark = len(self.tracer.spans)
        for _ in range(PAIRS):  # untraced then traced, so drift hits both alike
            start = time.perf_counter()
            simulation.run_scenario(cell, nulls=nulls)
            untraced = (time.perf_counter() - start) / SCENARIO_REPS
            with self.traced():
                mark = len(self.tracer.spans)
                simulation.run_scenario(cell, nulls=nulls)
            [run] = self.tracer.select("simulation.run_scenario", mark)
            self.add("simulation.rep_us", untraced)
            self.add("simulation.rep_self_us", self.tracer.self_times()[run] / SCENARIO_REPS)
            self.add("trace.overhead_rep_us", self.tracer.duration(run) / SCENARIO_REPS - untraced)

    def span_cost(self) -> None:
        """Traced minus untraced time of a call that does nothing."""
        target = types.SimpleNamespace(noop=lambda: None)
        elapsed = []
        for tracer in (None, Tracer()):
            with tracer.installed([(target, "noop", "noop")]) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                for _ in range(NOOP_CALLS):
                    target.noop()
                elapsed.append(time.perf_counter() - start)
        self.add("trace.span_cost_us", (elapsed[1] - elapsed[0]) / NOOP_CALLS)

    def pool(self) -> None:
        """A rejection-rate grid through ``sn-cusum simulate`` at 1 and at nproc
        workers; its cells.csv must match the recorded digest at both."""
        reps = SMOKE_GRID_REPS if self.ctx.smoke else GRID_REPS
        rates = {}
        for workers in (1, nproc()):
            out = self.dir / f"simulate{workers}"
            child = run_cli(self.ctx, "simulate", "--grid", GRID_SPEC, "--reps", str(reps),
                            "--seed", "0", "--workers", str(workers),
                            "--null-cache", str(self.dir), "--out", str(out))
            problems = [] if child.code == 0 else [f"simulate exit {child.code}: {child.stderr[-300:]}"]
            if not problems:
                digest = checks.sha256_file(out / "cells.csv")
                if digest != workloads.recorded(self.ctx)["probe_cells"][self.ctx.workload]:
                    problems.append(f"cells.csv digest at {workers} workers: {digest}")
            self.ctx.op(problems)
            rates[workers] = GRID_CELLS * reps / child.wall_s
        self.samples["simulation.serial_reps_per_s"].append(rates[1])
        self.samples["simulation.parallel_speedup"].append(rates[nproc()] / rates[1])


def run(ctx: Context, full_sample) -> dict:
    probe = Probe(ctx, full_sample)
    deadline = time.perf_counter() + ctx.seconds
    probe.pool()
    while not probe.samples["cli.interp_s"] or time.perf_counter() < deadline:
        probe.cold()
        probe.nulldist()
        probe.main()
        probe.kernels()
        probe.simulation()
        probe.span_cost()
    probe.tracer.dump(ctx.work / "spans.jsonl")

    value = {name: median(values) for name, values in probe.samples.items()}
    # A cold `test` should be interpreter + import + cache load + main's own
    # work + the decision; the rest is start-up and exit that nothing traces.
    parts = sum(value[name] for name in ("cli.interp_s", "cli.import_s", "nulldist.load_s",
                                         "cli.main_self_n500_s", "_decide_n500_s"))
    value["attribution.residual_share"] = abs(1 - parts / value["cli.cold_test_s"])
    metrics = {name: (value[name], unit) for name, unit in UNITS.items()}
    metrics["_rounds"] = len(probe.samples["cli.interp_s"])
    metrics["_attribution_ok"] = value["attribution.residual_share"] <= ATTRIBUTION_TOLERANCE
    metrics["_counts"] = dict(probe.tracer.counts)
    return metrics
