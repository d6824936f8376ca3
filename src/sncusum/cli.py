"""Command-line front end.

Subcommands: ``test`` a CSV series, ``nulldist`` precompute quantile caches,
``simulate`` run rejection-rate grids, ``validate`` run the numerical
checks, and ``aggregate`` turn daily data into an annual series.

Exit codes: 0 success, 1 usage or configuration error, 2 degenerate
statistic, 3 I/O or parse error.
"""

import argparse
import json
import math
import os
from pathlib import Path
import sys

import numpy as np

from sncusum import nulldist, stats
from sncusum.blocks import as_series, make_block_config
from sncusum.errors import CacheFormatError, ConfigurationError, DegenerateStatisticError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_IO = 3

CACHE_ENV = "SN_CUSUM_CACHE"

# `test --method` names of the test ids.
_METHODS = {
    "simple": stats.METHOD_SIMPLE,
    "full-v1": stats.METHOD_FULL_V1,
    "full-v2": stats.METHOD_FULL_V2,
    "lrv": stats.METHOD_LRV,
}


class _ParseError(Exception):
    """Input file could not be parsed (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cache_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    base = Path(os.environ.get("XDG_CACHE_HOME", "")).expanduser()
    if not base.is_absolute():  # the XDG spec ignores an empty or relative value
        base = Path.home() / ".cache"
    return base / "sn-cusum"


def _load_null(cache_flag: str | None, kind: str) -> nulldist.NullSample:
    path = _cache_dir(cache_flag) / f"{kind}.snq"
    if not path.exists():
        raise ConfigurationError(
            f"null cache {path} not found; precompute it with "
            f"`sn-cusum nulldist --out {path.parent}`"
        )
    return nulldist.load_sample(path, kind=kind)


def _lines(path) -> list[str]:
    try:
        return Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _ParseError(f"cannot read {path}: {exc}") from exc


def _data_lines(lines: list[str], parse) -> list[tuple[int, str]]:
    """(line number, stripped text) of the non-empty ``lines``, less a header:
    a first line on which ``parse`` raises ValueError."""
    rows = [(lineno, text) for lineno, line in enumerate(lines, start=1)
            if (text := line.strip())]
    if rows:
        try:
            parse(rows[0][1])
        except ValueError:
            del rows[0]
    return rows


def _finite(path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _ParseError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise _ParseError(f"{path}:{lineno}: not a finite number: {text!r}")
    return value


def _series(path) -> np.ndarray:
    """The values of a one-column CSV, less a header (a first non-empty line
    that is not a number), in one pass; a bad row is located afterwards, by
    the line-numbered reader ``cmd_aggregate`` uses."""
    lines = _lines(path)
    values = []
    header = bad = False
    for line in lines:
        try:
            values.append(float(line))  # float() ignores surrounding whitespace
        except ValueError:
            if not line.strip():
                continue
            if values or header:
                bad = True
                break
            header = True
    x = np.array(values)
    if bad or not np.isfinite(x).all():
        for lineno, text in _data_lines(lines, float):
            _finite(path, lineno, text)  # raises at the first bad row
    return x


def cmd_test(args) -> int:
    x = _series(args.input)
    if not x.size:
        raise _ParseError(f"{args.input}: no numeric rows found")
    x = as_series(x)
    cfg = make_block_config(x.size, args.block_size)

    rule = stats.RULES.get(_METHODS[args.method])
    if rule is None:
        outcome = stats.cusum_lrv_test(x, args.alpha)
    else:
        rule.knots(cfg)  # before the null cache is read
        outcome = rule.decide(x, cfg, args.alpha, _load_null(args.null_cache, rule.kind))

    result = {
        "method": outcome.method,
        "n": cfg.n,
        "b_n": cfg.block_length,
        "statistic": outcome.statistic,
        "threshold": outcome.threshold,
        "p_value": outcome.p_value,
        "reject": outcome.reject,
    }
    print(json.dumps(result, allow_nan=False))
    return EXIT_OK


def cmd_nulldist(args) -> int:
    out = Path(args.out)
    summary = {}
    for kind, seed in nulldist.kind_seeds(args.seed).items():  # checks both seeds first
        sample = nulldist.simulate_null(
            kind,
            grid_steps=args.steps,
            replications=args.reps,
            seed=seed,
            workers=args.workers,
        )
        out.mkdir(parents=True, exist_ok=True)  # not before: a bad setting leaves no directory
        path = out / f"{kind}.snq"
        nulldist.save_sample(sample, path)
        summary[kind] = {
            "path": str(path),
            "grid_steps": sample.grid_steps,
            "replications": sample.replications,
            "seed": sample.seed,
            "quantiles": {str(level): nulldist.quantile(sample, level)
                          for level in (0.9, 0.95, 0.99)},
        }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from sncusum import simulation

    grid = simulation.parse_grid(args.grid)
    tests = tuple(t.strip() for t in args.tests.split(",")) if args.tests else simulation.ALL_TESTS
    scenarios = simulation.scenario_cells(
        *grid.values(),
        replications=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        block_length=args.block_size,
    )
    kinds = dict.fromkeys(rule.kind for rule in simulation.check_grid(scenarios, tests))
    nulls = {kind: _load_null(args.null_cache, kind) for kind in kinds}

    results = simulation.run_grid(scenarios, tests=tests, nulls=nulls, workers=args.workers)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    block = args.block_size if args.block_size is not None else "auto(n^0.375)"
    metadata = (
        f"sn-cusum simulate seed={args.seed} replications={args.reps} "
        f"alpha={args.alpha!r} block={block} tests={','.join(tests)}"
    )
    written = []
    cells_path = out / "cells.csv"
    simulation.write_cells_csv(results, cells_path, metadata)
    written.append(str(cells_path))

    for key in simulation.aggregate_columns(grid):
        rows = simulation.aggregate_rates(results, group_keys=("n", key))
        agg_path = out / f"aggregate_{key}.csv"
        simulation.write_aggregate_csv(rows, ("n", key), agg_path, metadata)
        written.append(str(agg_path))
    print(json.dumps({"written": written}))
    return EXIT_OK


def cmd_validate(args) -> int:
    from sncusum import validation

    reports = validation.run_all_checks(seed=args.seed)
    print(json.dumps([r.to_dict() for r in reports], indent=2))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_USAGE


def cmd_aggregate(args) -> int:
    path = Path(args.input)
    missing_markers = {"", "na", "nan", "null"}
    by_year: dict[int, list[float]] = {}
    missing_by_year: dict[int, int] = {}
    for lineno, text in _data_lines(_lines(path), lambda text: int(text[:4])):
        fields = [f.strip() for f in text.split(",")]
        if len(fields) != 2:
            raise _ParseError(f"{path}:{lineno}: expected two columns (date,value)")
        date_text, value_text = fields
        if len(date_text) < 4 or not date_text[:4].isdecimal():  # the digits int() reads
            raise _ParseError(f"{path}:{lineno}: bad date {date_text!r}")
        year = int(date_text[:4])
        values = by_year.setdefault(year, [])
        if value_text.lower() in missing_markers:
            missing_by_year[year] = missing_by_year.get(year, 0) + 1
        else:
            values.append(_finite(path, lineno, value_text))

    skipped = sum(missing_by_year.values())
    if skipped:
        print(f"skipped {skipped} row(s) with missing values", file=sys.stderr)
    lines = ["year,value"]
    for year in sorted(by_year):
        values = by_year[year]
        if not values:
            print(
                f"year {year}: all {missing_by_year.get(year, 0)} row(s) missing; omitted",
                file=sys.stderr,
            )
            continue
        mean = sum(values) / len(values)
        if not math.isfinite(mean):
            raise _ParseError(f"{path}: the mean of year {year} overflows")
        text = f"{mean:.6f}"  # six decimals would flatten a series on a small scale
        lines.append(f"{year},{text if float(text) == mean else repr(mean)}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="ascii")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="sn-cusum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a univariate CSV series for a change in mean")
    p_test.add_argument("--input", required=True, help="CSV file with one numeric column")
    p_test.add_argument(
        "--method",
        required=True,
        choices=list(_METHODS),
        help="decision rule to apply",
    )
    p_test.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    p_test.add_argument("--block-size", type=int, default=None, help="override the block length")
    p_test.add_argument("--null-cache", default=None, help="directory with .snq quantile caches")
    p_test.set_defaults(func=cmd_test)

    p_null = sub.add_parser("nulldist", help="precompute Monte-Carlo null quantile caches")
    p_null.add_argument("--steps", type=int, default=1000, help="path grid steps (default 1000)")
    p_null.add_argument("--reps", type=int, default=100_000, help="replications (default 100000)")
    p_null.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p_null.add_argument("--out", required=True, help="output directory")
    p_null.add_argument(
        "--workers", type=int, default=None,
        help="parallel workers (default: the CPUs this process may run on)",
    )
    p_null.set_defaults(func=cmd_nulldist)

    p_sim = sub.add_parser("simulate", help="run a rejection-rate scenario grid")
    p_sim.add_argument(
        "--grid",
        default="",
        help='grid spec, e.g. "mu=0;sigma=0,2;c=1;eps=iid,ar;n=100,500"',
    )
    p_sim.add_argument("--reps", type=int, default=1000, help="replications per cell")
    p_sim.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    p_sim.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    p_sim.add_argument("--out", required=True, help="output directory for CSV tables")
    p_sim.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    p_sim.add_argument(
        "--tests",
        default="",
        help=f"comma list from {','.join(stats.ALL_TESTS)} (default all)",
    )
    p_sim.add_argument("--block-size", type=int, default=None, help="override the block length")
    p_sim.add_argument("--null-cache", default=None, help="directory with .snq quantile caches")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run the numerical validation checks")
    p_val.add_argument("--seed", type=int, default=0, help="seed for the Monte-Carlo checks")
    p_val.set_defaults(func=cmd_validate)

    p_agg = sub.add_parser("aggregate", help="aggregate a daily date,value CSV to annual means")
    p_agg.add_argument("--input", required=True, help="CSV with date,value columns")
    p_agg.add_argument("--out", required=True, help="output CSV (year,value)")
    p_agg.set_defaults(func=cmd_aggregate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DegenerateStatisticError as exc:
        print(f"sn-cusum: degenerate statistic: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (_ParseError, CacheFormatError, OSError) as exc:
        print(f"sn-cusum: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ConfigurationError and CacheProvenanceError among them
        print(f"sn-cusum: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
