#!/usr/bin/env python3
"""Quick demo: simulate one drifting series and run all four tests on it.

Writes the series to a CSV (reusable with `sn-cusum test --input ...`) and
prints each test's statistic, threshold, p-value and decision.  A test whose
statistic is degenerate (a constant series) is reported on its own line, and
the script then exits 2, as `sn-cusum test` does.
"""

import argparse
from functools import partial
from pathlib import Path
import sys

import numpy as np

from sncusum import nulldist, stats
from sncusum.blocks import as_series, make_block_config
from sncusum.errors import DegenerateStatisticError
from sncusum.simulation import gen_errors, mean_value, sigma_value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--mean", type=int, default=1, help="mean function id (0..6)")
    parser.add_argument("--noise", type=float, default=0.5, help="noise scale")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="demo_series.csv")
    args = parser.parse_args()

    # The series and every rule's geometry are checked before the CSV is
    # written or any null is drawn.
    try:
        cfg = make_block_config(args.n)
        for rule in stats.RULES.values():
            rule.knots(cfg)
        grid = np.arange(1, args.n + 1) / args.n
        with np.errstate(over="ignore"):  # a noise near the float limit overflows
            x = as_series(mean_value(args.mean, grid) + args.noise * sigma_value(2, grid)
                          * gen_errors("ar", args.n, args.seed))
    except ValueError as exc:  # a length, mean id, seed or noise the run cannot use
        parser.error(str(exc))
    Path(args.out).write_text("\n".join(repr(float(v)) for v in x) + "\n")
    print(f"series written to {args.out}", file=sys.stderr)

    nulls = {kind: nulldist.simulate_null(kind, 1000, 20_000, seed=seed)
             for kind, seed in ((nulldist.SIMPLE_RATIO, 1), (nulldist.FULL_RATIO, 2))}
    runs = {rule.test_id: partial(rule.decide, x, cfg, 0.05, nulls[rule.kind])
            for rule in stats.RULES.values()}
    runs[stats.METHOD_LRV] = partial(stats.cusum_lrv_test, x, 0.05)
    degenerate = False
    for method, run in runs.items():
        try:
            out = run()
        except DegenerateStatisticError as exc:  # e.g. a constant series
            print(f"{method:<10s} degenerate statistic: {exc}")
            degenerate = True
            continue
        print(
            f"{out.method:<10s} statistic={out.statistic:8.4f} "
            f"threshold={out.threshold:8.4f} p={out.p_value:6.4f} "
            f"reject={out.reject}"
        )
    return 2 if degenerate else 0


if __name__ == "__main__":
    sys.exit(main())
