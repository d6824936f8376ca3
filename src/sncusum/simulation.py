"""Synthetic data models and the rejection-rate simulation engine.

Series follow ``X_i = mean(i/n) + c_sigma * sigma(i/n) * eps_i`` with seven
mean shapes, four standard-deviation shapes and three stationary error
models.  Every replication draws from an RNG stream keyed by
(seed, replication index), so scenario results do not depend on the worker
count or scheduling.
"""

from collections import Counter
import csv
from dataclasses import dataclass, field
from functools import lru_cache
import itertools
import math

import numpy as np
# At module top on purpose: forked pool workers inherit it instead of re-importing.
from scipy.signal import lfilter

from sncusum import nulldist, stats
from sncusum.blocks import make_block_config
from sncusum.errors import ConfigurationError
from sncusum.nulldist import NullSample, block_rows, map_chunks, plan_chunks

ERROR_MODELS = ("iid", "ma", "ar")
ALL_TESTS = stats.ALL_TESTS

# Replications per range at least: a range pays ~150 us to derive its keyed
# streams, which at 16 replications is half of what default_rng([seed, rep])
# would take to seed them one by one (break-even is ~10-12 on 2 vCPUs).
_MIN_RANGE = 16


@dataclass(frozen=True)
class Axis:
    """One scenario axis: its ``--grid`` key, ``Scenario`` field, value parser,
    default, the prefix of its table label, and its position among the
    aggregate tables of ``simulate`` (None: the axis leads every aggregate)."""

    key: str
    field: str
    parse: type
    default: object
    prefix: str = ""
    aggregate: int | None = None

    def label(self, value):
        return f"{self.prefix}{value}" if self.prefix else value


# The scenario grid, keyed by table column.  Its order is the column order of
# the tables, the argument order of `scenario_cells` and the nesting of its
# cells (the last axis varies fastest).
AXES = {
    "mean": Axis("mu", "mean_id", int, 0, prefix="mu", aggregate=3),
    "sigma": Axis("sigma", "sigma_id", int, 0, prefix="sigma", aggregate=1),
    "c_sigma": Axis("c", "c_sigma", float, 1.0, aggregate=2),
    "errors": Axis("eps", "error_model", str, "iid", aggregate=0),
    "n": Axis("n", "n", int, 500),
}


def parse_grid(spec: str) -> dict[str, list]:
    """Grid DSL: semicolon-separated key=v1,v2 pairs, e.g.
    "mu=0,3;sigma=0,2;c=1;eps=iid,ar;n=100,500".

    Returns the values of every axis keyed by table column, in ``AXES`` order;
    an omitted key keeps the axis default.
    """
    by_key = {axis.key: column for column, axis in AXES.items()}
    grid = {column: [axis.default] for column, axis in AXES.items()}
    given = set()
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad grid entry {part!r}; expected key=v1,v2,...")
        key, _, values = part.partition("=")
        key = key.strip()
        if key not in by_key:
            raise ValueError(f"unknown grid key {key!r}; expected one of {sorted(by_key)}")
        if key in given:  # its later values would replace the earlier ones
            raise ValueError(f"repeated grid key {key!r}")
        given.add(key)
        column = by_key[key]
        try:
            grid[column] = [AXES[column].parse(v.strip()) for v in values.split(",")]
        except ValueError:
            raise ValueError(f"bad grid value(s) {values!r} for key {key!r}") from None
        if len(set(grid[column])) < len(grid[column]):  # a repeat would rerun the same streams
            raise ValueError(f"repeated grid value(s) {values!r} for key {key!r}")
    return grid


def aggregate_columns(grid: dict[str, list]) -> list[str]:
    """The axes of a parsed grid that get an aggregate table (those with more
    than one value), in aggregate order."""
    varying = [c for c, axis in AXES.items() if axis.aggregate is not None and len(grid[c]) > 1]
    return sorted(varying, key=lambda c: AXES[c].aggregate)


def mean_value(fn_id: int, x):
    """Evaluate mean function ``fn_id`` (0..6) at points in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if fn_id == 0:
        return np.zeros_like(x)
    if fn_id == 1:
        return np.sin(8 * np.pi * x) + 2 * (x - 0.25) ** 2 * (x > 0.25)
    if fn_id == 2:
        return (
            -1.0 * (x <= 0.25)
            - (1.5 * np.sin(2 * np.pi * x) + 0.5) * ((x > 0.25) & (x <= 0.75))
            + 2.0 * (x > 0.75)
        )
    if fn_id == 3:
        return (x > 0.5).astype(float)
    if fn_id == 4:
        return 0.5 - mean_value(1, x)
    if fn_id == 5:
        return 1.5 - mean_value(2, x)
    if fn_id == 6:
        return 1.0 - mean_value(3, x)
    raise ValueError(f"mean function id must be in 0..6, got {fn_id}")


def sigma_value(fn_id: int, x):
    """Evaluate standard-deviation function ``fn_id`` (0..3) at points in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if fn_id == 0:
        return np.ones_like(x)
    if fn_id == 1:
        return 0.5 + x
    if fn_id == 2:
        return 1.0 - 0.5 * np.cos(2 * np.pi * x)
    if fn_id == 3:
        return 0.5 + (x > 0.5)
    raise ValueError(f"sigma function id must be in 0..3, got {fn_id}")


def gen_errors(model: str, n: int, seed) -> np.ndarray:
    """Generate n stationary errors from a seeded stream.

    * iid: standard Gaussian.
    * ma:  (2/sqrt(5)) * (eta_i + eta_{i-1}/2), exact unit variance.
    * ar:  first-order autoregression with coefficient 1/2 and innovation
      scale sqrt(3)/2, initialized from its exact stationary law (unit
      variance, long-run variance 3).
    """
    if model not in ERROR_MODELS:
        raise ValueError(f"error model must be one of {ERROR_MODELS}, got {model!r}")
    rng = np.random.default_rng(seed)
    if model == "iid":
        return rng.standard_normal(n)
    if model == "ma":
        eta = rng.standard_normal(n + 1)
        return (2.0 / math.sqrt(5.0)) * (eta[1:] + 0.5 * eta[:-1])
    scale = math.sqrt(3.0) / 2.0
    init_sd = math.sqrt(scale**2 / (1.0 - 0.5**2))
    start = init_sd * rng.standard_normal()
    eta = rng.standard_normal(n)
    out, _ = lfilter([scale], [1.0, -0.5], eta, zi=[0.5 * start])
    return out


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: data model, sample size and replication budget."""

    mean_id: int
    sigma_id: int
    c_sigma: float
    error_model: str
    n: int
    replications: int
    alpha: float = 0.05
    seed: int = 0
    block_length: int | None = None

    def __post_init__(self):
        if not 0 <= self.mean_id <= 6:
            raise ValueError(f"mean_id must be in 0..6, got {self.mean_id}")
        if not 0 <= self.sigma_id <= 3:
            raise ValueError(f"sigma_id must be in 0..3, got {self.sigma_id}")
        if not 0 < self.c_sigma < math.inf:
            raise ValueError(f"c_sigma must be positive and finite, got {self.c_sigma}")
        if self.error_model not in ERROR_MODELS:
            raise ValueError(f"unknown error model {self.error_model!r}")
        make_block_config(self.n, self.block_length)  # n >= 4, block length in [1, n]
        if not 1 <= self.replications <= nulldist.MAX_REPLICATIONS:
            raise ValueError(
                f"replications must be in 1..{nulldist.MAX_REPLICATIONS}, got {self.replications}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha={self.alpha} not in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class ScenarioResult:
    """Empirical rejection rates of one scenario, with degenerate draws
    counted separately (never as rejections)."""

    scenario: Scenario
    rejections: dict[str, int]
    degenerate: dict[str, int]
    rates: dict[str, float] = field(init=False)

    def __post_init__(self):
        reps = self.scenario.replications
        self.rates = {name: count / reps for name, count in self.rejections.items()}


@lru_cache(maxsize=8)
def _profile(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The mean and the scale ``c_sigma * sigma`` of a cell on the time grid
    {i/n}, which every replication shares; cached and read-only."""
    grid = np.arange(1, scenario.n + 1) / scenario.n
    mean = mean_value(scenario.mean_id, grid)
    scale = scenario.c_sigma * sigma_value(scenario.sigma_id, grid)
    mean.setflags(write=False)
    scale.setflags(write=False)
    return mean, scale


def gen_series(scenario: Scenario, replication: int, stream=None) -> np.ndarray:
    """Generate the series of one replication from its keyed stream.

    ``stream``, when given, is that stream already seeded: a Generator in the
    state ``np.random.default_rng([scenario.seed, replication])`` starts from,
    as ``nulldist.keyed_streams`` yields it.
    """
    seed = [scenario.seed, replication] if stream is None else stream
    eps = gen_errors(scenario.error_model, scenario.n, seed)
    mean, scale = _profile(scenario)
    return mean + scale * eps


def _tally(x: np.ndarray, cfg, tests, thresholds: dict, knots: dict, rejections: dict,
           degenerate: dict) -> None:
    """Add the rejections and degenerate rows of a stack of series (one per
    row, each kernel scaling it as it reads) to the per-test counts; one walk
    reads every rule at its ``knots``, and the LRV test rejects above sigma
    times its critical value in ``thresholds``."""
    ratios = dict(zip(knots, stats._ratios(x, cfg, list(knots.values())))) if knots else {}
    for name in tests:
        if name in ratios:
            numerator, denominator = ratios[name]
            valid = denominator != 0.0
            rejected = numerator[valid] / denominator[valid] > thresholds[name]
        else:
            statistic, sigma2, _ = stats.cusum_lrv(x)
            valid = sigma2 != 0.0
            rejected = statistic[valid] > np.sqrt(sigma2[valid]) * thresholds[name]
        degenerate[name] += len(x) - int(np.count_nonzero(valid))
        rejections[name] += int(np.count_nonzero(rejected))


def _scenario_chunk(scenario: Scenario, tests, thresholds: dict, knots: dict, start, stop):
    """Count rejections and degenerate draws per test over one replication
    range, a stacked block of replications at a time."""
    cfg = make_block_config(scenario.n, scenario.block_length)
    rejections = dict.fromkeys(tests, 0)
    degenerate = dict.fromkeys(tests, 0)
    block = np.empty((min(block_rows(8 * scenario.n), stop - start), scenario.n))
    streams = nulldist.keyed_streams(scenario.seed, start, stop)
    for lo in range(start, stop, len(block)):
        x = block[: stop - lo]
        # the stream last: zip stops at the end of the block before taking one
        with np.errstate(over="ignore"):  # c_sigma near the float limit overflows
            for rep, row, stream in zip(range(lo, stop), x, streams):
                row[:] = gen_series(scenario, rep, stream)
        _tally(x, cfg, tests, thresholds, knots, rejections, degenerate)
    return rejections, degenerate


def check_grid(scenarios, tests=ALL_TESTS) -> list[stats.Rule]:
    """The rules of the self-normalized ``tests``; ConfigurationError unless every
    test id is known and unrepeated, no cell repeats an earlier one (it would
    rerun the same streams) and every rule admits every cell's geometry."""
    unknown = set(tests) - set(ALL_TESTS)
    if unknown:
        raise ConfigurationError(f"unknown test identifier(s): {sorted(unknown)}")
    repeated = sorted(name for name, count in Counter(tests).items() if count > 1)
    if repeated:
        raise ConfigurationError(f"repeated test identifier(s): {repeated}")
    cell = next((sc for sc, count in Counter(scenarios).items() if count > 1), None)
    if cell is not None:
        raise ConfigurationError(f"repeated cell: {cell}")
    rules = [stats.RULES[name] for name in tests if name in stats.RULES]
    for scenario, rule in itertools.product(scenarios, rules):
        rule.knots(make_block_config(scenario.n, scenario.block_length))
    return rules


def run_scenario(
    scenario: Scenario,
    tests=ALL_TESTS,
    nulls: dict[str, NullSample] | None = None,
    workers: int = 1,
) -> ScenarioResult:
    """Run all replications of one scenario and tally rejection rates."""
    return run_grid([scenario], tests=tests, nulls=nulls, workers=workers)[0]


def run_grid(
    scenarios,
    tests=ALL_TESTS,
    nulls: dict[str, NullSample] | None = None,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Run a list of scenarios through one worker pool.

    The rules are checked against every cell and calibrated for it here (for
    the LRV test, its critical value looked up), so a geometry, null sample or
    level the run cannot use fails before any worker starts.  Each task is one
    (cell, replication range) pair carrying the cell's thresholds and knots.
    """
    scenarios = list(scenarios)
    tests = tuple(tests)
    rules = check_grid(scenarios, tests)
    missing = sorted({rule.kind for rule in rules} - set(nulls or ()))
    if missing:
        raise ConfigurationError(f"missing null sample(s): {missing}")
    tasks, owners = [], []
    for index, scenario in enumerate(scenarios):
        cfg = make_block_config(scenario.n, scenario.block_length)
        calibrations = {r.test_id: r.calibration(cfg, nulls[r.kind], scenario.alpha) for r in rules}
        thresholds = {name: c.threshold for name, c in calibrations.items()}
        knots = {name: c.knots for name, c in calibrations.items()}
        if stats.METHOD_LRV in tests:
            thresholds[stats.METHOD_LRV] = stats.lrv_critical_value(scenario.alpha)
        bounds = plan_chunks(scenario.replications, workers, min_chunk=_MIN_RANGE)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            tasks.append((scenario, tests, thresholds, knots, start, stop))
            owners.append(index)

    rejections = [Counter() for _ in scenarios]
    degenerate = [Counter() for _ in scenarios]
    parts = map_chunks(_scenario_chunk, tasks, workers)
    for index, (rej, deg) in zip(owners, parts):
        rejections[index].update(rej)
        degenerate[index].update(deg)
    return [
        ScenarioResult(
            scenario=sc,
            rejections={name: rej[name] for name in tests},
            degenerate={name: deg[name] for name in tests},
        )
        for sc, rej, deg in zip(scenarios, rejections, degenerate)
    ]


def _rate_row(group_keys, members) -> dict:
    """Replication-weighted rates of ``members``, labelled by the group keys
    of the first one."""
    total = sum(r.scenario.replications for r in members)
    sc = members[0].scenario
    row = {k: AXES[k].label(getattr(sc, AXES[k].field)) for k in group_keys}
    row["replications"] = total
    for name in members[0].rejections:
        row[name] = sum(r.rejections[name] for r in members) / total
    row["degenerate"] = sum(sum(r.degenerate.values()) for r in members)
    return row


def aggregate_rates(results, group_keys=("n",)) -> list[dict]:
    """Replication-weighted mean rejection rates, grouped by scenario axes
    (columns of ``AXES``); rows ascend by the axis values in key order."""
    for key in group_keys:
        if key not in AXES:
            raise ValueError(f"unknown group key {key!r}")
    groups: dict[tuple, list[ScenarioResult]] = {}
    for res in results:
        key = tuple(getattr(res.scenario, AXES[k].field) for k in group_keys)
        groups.setdefault(key, []).append(res)
    return [_rate_row(group_keys, groups[key]) for key in sorted(groups)]


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def write_cells_csv(results, path, metadata: str = "") -> None:
    """One row per scenario cell, in the order given, rejection rates to 6
    decimals.

    Output is byte-identical for a fixed seed regardless of worker count;
    a leading comment line carries the run metadata.
    """
    keys = tuple(AXES)
    write_aggregate_csv([_rate_row(keys, [res]) for res in results], keys, path, metadata)


def write_aggregate_csv(rows, group_keys, path, metadata: str = "") -> None:
    """Aggregated rates from :func:`aggregate_rates` as CSV."""
    rows = list(rows)
    if not rows:
        raise ValueError("nothing to aggregate")
    test_names = [
        k for k in rows[0] if k not in group_keys and k not in ("replications", "degenerate")
    ]
    with open(path, "w", newline="", encoding="ascii") as fh:
        if metadata:
            fh.write(f"# {metadata}\n")
        writer = csv.writer(fh)
        writer.writerow(list(group_keys) + ["replications"] + test_names + ["degenerate"])
        for row in rows:
            writer.writerow(
                [_format_value(row[k]) for k in group_keys]
                + [row["replications"]]
                + [f"{row[name]:.6f}" for name in test_names]
                + [row["degenerate"]]
            )


def scenario_cells(
    mean_ids,
    sigma_ids,
    c_sigmas,
    error_models,
    sizes,
    replications: int,
    alpha: float = 0.05,
    seed: int = 0,
    block_length: int | None = None,
) -> list[Scenario]:
    """Cartesian product of the axis values in ``AXES`` order (the last axis,
    n, varies fastest)."""
    fields = [axis.field for axis in AXES.values()]
    return [
        Scenario(**dict(zip(fields, values)), replications=replications, alpha=alpha,
                 seed=seed, block_length=block_length)
        for values in itertools.product(mean_ids, sigma_ids, c_sigmas, error_models, sizes)
    ]
