"""Independent oracles and numerical checks of the analytic guarantees.

The checks compare the optimized partial-sum kernels against literal
re-implementations, the noiseless process against its closed-form mean
approximation, and the scaled full-sample sum against its limiting variance.
Each check returns an :class:`OracleReport`; tolerances carry enough slack to
cover the unquantified remainder terms of the approximations.
"""

from dataclasses import asdict, dataclass, field
import math

import numpy as np
from scipy.integrate import quad

from sncusum.blocks import BlockConfig, _floor_index, make_block_config, partial_sum, permute_index
from sncusum.simulation import gen_errors, mean_value, sigma_value

SIGMA_SQUARED_INTEGRALS = {0: 1.0, 1: 13.0 / 12.0, 2: 9.0 / 8.0, 3: 5.0 / 4.0}

# The settings of the checks: the oracle's random configurations, their
# largest n and its absolute tolerance, the mean formula's (t, s) grid and
# tolerance in units of block_length / n, and the FCLT variance's series
# length, replications and relative tolerance.
_ORACLE_CASES = 1000
_ORACLE_MAX_N = 200
_ORACLE_TOLERANCE = 1e-12
_MEAN_GRID_POINTS = 50
_MEAN_TOLERANCE_FACTOR = 5.0
_FCLT_N = 2000
_FCLT_REPLICATIONS = 5000
_FCLT_TOLERANCE = 0.1


@dataclass
class OracleReport:
    """Outcome of one numerical check; ``passed`` means deviation <= tolerance."""

    name: str
    deviation: float
    tolerance: float
    params: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.deviation = float(self.deviation)
        self.tolerance = float(self.tolerance)
        self.passed = self.deviation <= self.tolerance

    def to_dict(self) -> dict:
        return asdict(self)


def brute_force_partial_sum(x, cfg: BlockConfig, t: float, s: float) -> float:
    """Literal evaluation of the bivariate partial sum, one index at a time.

    Serves as the independent O(n)-per-query oracle for the optimized
    prefix-sum path; no shared cumulative-sum machinery.
    """
    x = np.asarray(x, dtype=float)
    m = _floor_index(t * cfg.n)
    j = _floor_index(s * cfg.n)
    total = 0.0
    for i in range(1, cfg.n + 1):
        if i <= m and permute_index(i, cfg) <= j:
            total += x[permute_index(i, cfg) - 1]
    return total / cfg.n


def _mean_integral(mean, lo: float, hi: float) -> float:
    """Signed integral of a mean function (id or callable) over [lo, hi]."""
    if lo > hi:
        return -_mean_integral(mean, hi, lo)
    if isinstance(mean, int):
        if mean == 0:
            return 0.0
        if mean == 3:
            return max(0.0, hi - 0.5) - max(0.0, lo - 0.5)
        if mean == 6:
            return (hi - lo) - _mean_integral(3, lo, hi)
        fn = lambda v: float(mean_value(mean, v))
        breaks = {1: (0.25,), 2: (0.25, 0.75), 4: (0.25,), 5: (0.25, 0.75)}[mean]
    else:
        fn = mean
        breaks = ()
    points = [lo] + [b for b in breaks if lo < b < hi] + [hi]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        total += quad(fn, a, b, epsabs=1e-12, limit=100)[0]
    return total


def expected_partial_sum(mean, cfg: BlockConfig, t: float, s: float) -> float:
    """Closed-form approximation of the noiseless partial sum at (t, s).

    ``mean`` is a mean-function id (0..6) or a callable on [0, 1].  Exact up
    to a remainder of order block_length/n.
    """
    m = _floor_index(t * cfg.n)
    k = m // cfg.n_blocks
    b = cfg.block_length
    lower = (m - k * cfg.n_blocks) * b / cfg.n
    return (k / b) * _mean_integral(mean, 0.0, s) - _mean_integral(mean, lower, s) / b


def check_partial_sum_oracle(seed: int = 0) -> OracleReport:
    """Optimized vs. brute-force partial sums on random configurations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(_ORACLE_CASES):
        n = int(rng.integers(4, _ORACLE_MAX_N + 1))
        block = int(rng.integers(1, n + 1))
        cfg = make_block_config(n, block)
        x = rng.standard_normal(n)
        t, s = rng.uniform(size=2)
        worst = max(worst, abs(partial_sum(x, cfg, t, s) - brute_force_partial_sum(x, cfg, t, s)))
    return OracleReport(
        name="partial-sum-oracle",
        deviation=worst,
        tolerance=_ORACLE_TOLERANCE,
        params={"cases": _ORACLE_CASES, "max_n": _ORACLE_MAX_N, "seed": seed},
    )


def check_mean_formula(mean, n: int, label: str | None = None) -> OracleReport:
    """Noiseless partial sums vs. the closed-form mean approximation.

    Evaluates both on a grid of (t, s) pairs; the tolerance is
    ``_MEAN_TOLERANCE_FACTOR * block_length / n``.
    """
    cfg = make_block_config(n)
    sample_points = np.arange(1, n + 1) / n
    x = mean_value(mean, sample_points) if isinstance(mean, int) else np.vectorize(mean)(sample_points)
    x = np.asarray(x, dtype=float)

    grid = np.linspace(0.0, 1.0, _MEAN_GRID_POINTS)
    worst = 0.0
    for t in grid:
        for s in grid:
            approx = expected_partial_sum(mean, cfg, t, s)
            worst = max(worst, abs(approx - partial_sum(x, cfg, t, s)))
    return OracleReport(
        name=f"mean-formula-{label or mean}-n{n}",
        deviation=worst,
        tolerance=_MEAN_TOLERANCE_FACTOR * cfg.block_length / n,
        params={"n": n, "block_length": cfg.block_length, "grid_points": _MEAN_GRID_POINTS},
    )


def check_fclt_variance(sigma_id: int, seed: int = 0) -> OracleReport:
    """Sample variance of the scaled full-sample sum vs. its limit.

    Simulates zero-mean series with iid errors and modulating standard
    deviation ``sigma_id``; the limit variance is the integral of the squared
    standard deviation over [0, 1].
    """
    n, target = _FCLT_N, SIGMA_SQUARED_INTEGRALS[sigma_id]
    scale = sigma_value(sigma_id, np.arange(1, n + 1) / n)
    values = np.empty(_FCLT_REPLICATIONS)
    for rep in range(_FCLT_REPLICATIONS):
        x = scale * gen_errors("iid", n, [seed, rep])
        values[rep] = x.sum() / math.sqrt(n)  # sqrt(n) times the process at t = s = 1
    deviation = abs(float(np.var(values, ddof=1)) - target) / target
    return OracleReport(
        name=f"fclt-variance-sigma{sigma_id}",
        deviation=deviation,
        tolerance=_FCLT_TOLERANCE,
        params={"n": n, "replications": _FCLT_REPLICATIONS, "seed": seed, "target": target},
    )


def run_all_checks(seed: int = 0) -> list[OracleReport]:
    """The default validation battery."""
    reports = [check_partial_sum_oracle(seed=seed)]
    for n in (200, 2000):
        reports.append(check_mean_formula(0, n, label="mu0"))
        reports.append(check_mean_formula(3, n, label="mu3"))
        reports.append(check_mean_formula(lambda v: v, n, label="ramp"))
    for sigma_id in (0, 1, 2):
        reports.append(check_fclt_variance(sigma_id, seed=seed))
    return reports
