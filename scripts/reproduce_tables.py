#!/usr/bin/env python3
"""Reproduce the empirical rejection-rate tables at desk scale.

Runs the constant-mean grid (level) and the changing-mean grid (power) over
the model space, then writes per-cell and aggregated CSV tables, one
aggregate per varying dimension.  With default settings the run takes a few
minutes; pass --full for the complete alternative grid.

Example:
    python scripts/reproduce_tables.py --reps 1000 --sizes 100,200,500 --out tables/
"""

import argparse
from pathlib import Path
import sys

from sncusum import nulldist
from sncusum.simulation import (
    aggregate_rates,
    check_grid,
    run_grid,
    scenario_cells,
    write_aggregate_csv,
    write_cells_csv,
)


def load_or_simulate_nulls(cache_dir, steps, reps, seed, workers):
    nulls = {}
    for kind, kind_seed in nulldist.kind_seeds(seed).items():
        path = Path(cache_dir) / f"{kind}.snq" if cache_dir else None
        if path is not None and path.exists():
            # a cache of another draw count, grid or seed is an error, not a fallback
            nulls[kind] = nulldist.load_sample(path, kind=kind, grid_steps=steps,
                                               replications=reps, seed=kind_seed)
            print(f"loaded {kind} quantiles from {path}", file=sys.stderr)
        else:
            print(f"simulating {kind} null ({reps} draws) ...", file=sys.stderr)
            nulls[kind] = nulldist.simulate_null(
                kind, grid_steps=steps, replications=reps, seed=kind_seed,
                workers=workers,
            )
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                nulldist.save_sample(nulls[kind], path)
    return nulls


def emit(results, out_dir, stem, metadata, by):
    write_cells_csv(results, out_dir / f"{stem}_cells.csv", metadata)
    for key in by:
        rows = aggregate_rates(results, group_keys=("n", key))
        write_aggregate_csv(rows, ("n", key), out_dir / f"{stem}_by_{key}.csv", metadata)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["null", "alternative", "both"], default="both")
    parser.add_argument("--reps", type=int, default=1000, help="replications per cell")
    parser.add_argument("--sizes", default="100,200,500", help="comma list of sample sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="tables")
    parser.add_argument("--null-cache", default=None,
                        help="directory with (or for) .snq quantile caches")
    parser.add_argument("--null-reps", type=int, default=100_000,
                        help="Monte-Carlo draws for the pivotal quantiles")
    parser.add_argument("--full", action="store_true",
                        help="full alternative grid (all sigma, c, error models)")
    args = parser.parse_args(argv)

    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        parser.error(f"--sizes must be a comma list of integers, got {args.sizes!r}")
    # The cells are built and checked against every rule before any null is
    # simulated; --out is created only once the grid has run.
    null_cells, alternative_cells = [], []
    try:
        if args.mode in ("null", "both"):
            null_cells = scenario_cells(
                [0], range(4), [0.25, 0.5, 1.0], ["iid", "ma", "ar"], sizes,
                replications=args.reps, seed=args.seed,
            )
        if args.mode in ("alternative", "both"):
            if args.full:
                sigma_ids, c_values, models = range(4), [0.25, 0.5, 1.0], ["iid", "ma", "ar"]
            else:
                sigma_ids, c_values, models = [0], [0.25, 1.0], ["iid"]
            alternative_cells = scenario_cells(
                range(1, 7), sigma_ids, c_values, models, sizes,
                replications=args.reps, seed=args.seed,
            )
        check_grid(null_cells + alternative_cells)
        nulls = load_or_simulate_nulls(
            args.null_cache, 1000, args.null_reps, args.seed + 7000, args.workers
        )
    except ValueError as exc:  # a cell, geometry, seed, draw count or cache the run cannot use
        parser.error(str(exc))

    print(f"running {len(null_cells)} null and {len(alternative_cells)} alternative cells ...",
          file=sys.stderr)
    try:
        # One run_grid call, so one worker pool serves both grids.
        results = run_grid(null_cells + alternative_cells, nulls=nulls, workers=args.workers)
    except ValueError as exc:  # a worker count or level the run cannot use
        parser.error(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metadata = (
        f"reproduce_tables seed={args.seed} replications={args.reps} alpha=0.05 "
        f"block=auto(n^0.375) null_reps={args.null_reps}"
    )
    if null_cells:
        emit(results[:len(null_cells)], out_dir, "null", metadata,
             by=("errors", "sigma", "c_sigma"))
    if alternative_cells:
        emit(results[len(null_cells):], out_dir, "alternative", metadata, by=("mean",))

    print(f"tables written to {out_dir}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
