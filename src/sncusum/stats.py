"""Self-normalized change-point statistics and decision rules.

Two ratio statistics are provided.  The simple one tests whether the mean is
identically zero; the full one tests whether the mean is constant.  Both are
exactly invariant under rescaling of the observations, so no long-run
variance enters the decision.  A classical CUSUM test with a difference-based
global long-run variance estimate serves as baseline.
"""

from dataclasses import dataclass
import math

import numpy as np

from sncusum.blocks import BlockConfig, PartialSumGrid, as_series, knot_of
from sncusum.errors import ConfigurationError, DegenerateStatisticError
from sncusum import nulldist
from sncusum.nulldist import NullSample

METHOD_LRV = "r_lrv"
METHOD_SIMPLE = "sn_simple"
METHOD_FULL_V1 = "sn_full_v1"
METHOD_FULL_V2 = "sn_full_v2"


@dataclass(frozen=True)
class TestParams:
    """Level and split points of the full decision rule."""

    alpha: float = 0.05
    t0: float = 1.0 / 3.0
    t1: float = 1.0 / 2.0
    tag: str = "v2"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha={self.alpha} not in (0, 1)")
        if not 0.0 < self.t0 < self.t1 < 1.0:
            raise ValueError(f"need 0 < t0 < t1 < 1, got t0={self.t0}, t1={self.t1}")

    @classmethod
    def v1(cls, alpha: float = 0.05) -> "TestParams":
        return cls(alpha=alpha, t0=1.0 / 3.0, t1=2.0 / 3.0, tag="v1")

    @classmethod
    def v2(cls, alpha: float = 0.05) -> "TestParams":
        return cls(alpha=alpha, t0=1.0 / 3.0, t1=1.0 / 2.0, tag="v2")

    @property
    def threshold_factor(self) -> float:
        """Scale applied to the pivotal quantile in the full decision rule."""
        return math.sqrt(
            self.t0 * (1.0 - self.t0) / ((1.0 - self.t1) * (self.t1 - self.t0))
        )


# Every self-normalized test: the null kind it reads and, for the full rules,
# the ``TestParams`` preset (called with alpha) that fixes its split points.
RULES = {
    METHOD_SIMPLE: (nulldist.SIMPLE_RATIO, None),
    METHOD_FULL_V1: (nulldist.FULL_RATIO, TestParams.v1),
    METHOD_FULL_V2: (nulldist.FULL_RATIO, TestParams.v2),
}
ALL_TESTS = (METHOD_LRV, *RULES)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one test run; ``reject`` is exactly ``statistic > threshold``."""

    method: str
    statistic: float
    threshold: float
    quantile: float
    p_value: float
    reject: bool


def _bridge_area(values: np.ndarray, n: int) -> np.ndarray:
    """Integrated deviation of a grid function from its chord through 0.

    For a function f on the grid {j/n}, returns at each s = j/n the Riemann
    sum over x in {1/n, ..., j/n} of (f(x) - (x/s) f(s)) / n.
    """
    csum = np.cumsum(values)
    weights = (np.arange(len(values)) + 1) / 2.0
    out = (csum - values[0] - values * weights) / n
    out[0] = 0.0
    return out


def _knot_indices(cfg: BlockConfig, t0: float, t1: float) -> tuple[int, int, int]:
    last = cfg.n_knots
    k0, k1 = knot_of(cfg, t0), knot_of(cfg, t1)
    if not last > k1 > k0 >= 1:
        raise ConfigurationError(
            f"split points t0={t0}, t1={t1} collide on the coarse grid "
            f"(knots {k0}, {k1} of {last}); increase n or the block length"
        )
    return k0, k1, last


def simple_statistic_from_grid(grid: PartialSumGrid) -> float:
    """Simple ratio statistic from the plain partial sums and the knot margins."""
    cfg = grid.cfg
    last = cfg.n_knots
    if last < 2:
        raise ConfigurationError(
            f"need at least 2 coarse steps, got {last} for n={cfg.n}"
        )
    numerator = np.abs(np.cumsum(grid.x)).max() / cfg.n
    margins = grid.knot_margins()
    scaled = np.arange(last) / (last - 1)  # rescaled time at knots 1..last
    denominator = np.abs(margins[1:] - scaled * margins[last]).max()
    if denominator == 0.0:
        raise DegenerateStatisticError("self-normalizer is zero (constant-zero series?)")
    return float(numerator / denominator)


def full_statistic_from_grid(grid: PartialSumGrid, t0: float, t1: float) -> float:
    """Full ratio statistic from the process rows at knots k0, k1 and last."""
    k0, k1, last = _knot_indices(grid.cfg, t0, t1)
    early, mid, late = grid.row(k0), grid.row(k1), grid.row(last)
    numerator = np.abs(numerator_values(early)).max()
    contrast = contrast_values(early, mid, late, (k1 - k0) / (last - k0))
    denominator = np.abs(_bridge_area(contrast, grid.cfg.n)).max()
    if denominator == 0.0:
        raise DegenerateStatisticError("self-normalizer is zero (constant series?)")
    return float(numerator / denominator)


def numerator_values(early: np.ndarray) -> np.ndarray:
    """Numerator process of the full rule on the s-grid, from the row at knot k0."""
    n = early.size - 1
    return math.sqrt(n) * _bridge_area(early, n)


def contrast_values(early: np.ndarray, mid: np.ndarray, late: np.ndarray,
                    ratio: float) -> np.ndarray:
    """Between-knot contrast on the s-grid, from the rows at knots k0, k1 and
    last: the slice increment from k0 to k1 minus ``ratio`` = (k1-k0)/(last-k0)
    times the increment from k0 to the last knot."""
    return math.sqrt(early.size - 1) * (mid - early - ratio * (late - early))


def simple_statistic(x, cfg: BlockConfig) -> float:
    """Ratio statistic for the zero-mean hypothesis.

    Supremum of the plain partial-sum process over the s-grid, divided by the
    supremum (over the coarse knots k >= 1) of the coarsened time marginal
    minus its rescaled-time share of the final value.
    """
    return simple_statistic_from_grid(PartialSumGrid.compute(x, cfg))


def full_statistic(x, cfg: BlockConfig, t0: float, t1: float) -> float:
    """Ratio statistic for the constant-mean hypothesis."""
    return full_statistic_from_grid(PartialSumGrid.compute(x, cfg), t0, t1)


def rule_threshold(null: NullSample, kind: str, alpha: float,
                   factor: float = 1.0) -> tuple[float, float]:
    """The (1 - alpha) quantile of a ``kind`` null sample and the rejection
    threshold ``factor`` times it."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} not in (0, 1)")
    if null.kind != kind:
        raise ConfigurationError(f"need a {kind} sample, got {null.kind}")
    q = nulldist.critical_value(null, alpha)
    return q, factor * q


def decide_simple(x, cfg: BlockConfig, alpha: float, null: NullSample) -> TestOutcome:
    """Run the zero-mean test against a simulated simple-ratio null sample."""
    q, threshold = rule_threshold(null, nulldist.SIMPLE_RATIO, alpha)
    statistic = simple_statistic(x, cfg)
    return TestOutcome(
        method=METHOD_SIMPLE,
        statistic=statistic,
        threshold=threshold,
        quantile=q,
        p_value=nulldist.p_value(null, statistic),
        reject=statistic > threshold,
    )


def decide_full(x, cfg: BlockConfig, params: TestParams, null: NullSample) -> TestOutcome:
    """Run the constant-mean test against a simulated full-ratio null sample."""
    factor = params.threshold_factor
    q, threshold = rule_threshold(null, nulldist.FULL_RATIO, params.alpha, factor)
    statistic = full_statistic(x, cfg, params.t0, params.t1)
    return TestOutcome(
        method=f"sn_full_{params.tag}",
        statistic=statistic,
        threshold=threshold,
        quantile=q,
        p_value=nulldist.p_value(null, statistic / factor),
        reject=statistic > threshold,
    )


def lrv_estimate(x, bandwidth: int | None = None) -> float:
    """Difference-based global long-run variance estimate.

    Averages the squared difference of adjacent length-``bandwidth`` window
    sums over all start positions, scaled by 1/(2*bandwidth); the default
    bandwidth is floor(n**(1/3)).
    """
    x = as_series(x)
    n = x.size
    m = bandwidth if bandwidth is not None else max(1, int(n ** (1.0 / 3.0) + 1e-9))
    if m < 1:
        raise ValueError(f"bandwidth must be >= 1, got {m}")
    if n < 2 * m:
        raise ValueError(f"need n >= 2*bandwidth, got n={n}, bandwidth={m}")
    # summing x[i+j] - x[i+m+j] keeps constant series at exactly zero
    diffs = x[: n - m] - x[m:]
    csum = np.concatenate(([0.0], np.cumsum(diffs)))
    windows = csum[m : n - m + 1] - csum[: n - 2 * m + 1]
    return float(np.mean(windows**2) / (2 * m))


def cusum_lrv_test(x, alpha: float = 0.05) -> TestOutcome:
    """Classical CUSUM test scaled by the estimated long-run variance."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} not in (0, 1)")
    x = as_series(x)
    n = x.size
    csum = np.cumsum(x)
    statistic = float(np.abs(csum - np.arange(1, n + 1) / n * csum[-1]).max() / math.sqrt(n))
    # The estimate squares window sums, which overflow for large data; an
    # exact power-of-two pre-scale keeps it finite and leaves sigma unchanged.
    exponent = int(np.frexp(np.abs(x).max())[1])
    sigma2 = lrv_estimate(np.ldexp(x, -exponent))
    if sigma2 == 0.0:
        raise DegenerateStatisticError("long-run variance estimate is zero")
    sigma = math.ldexp(math.sqrt(sigma2), exponent)
    q = nulldist.kolmogorov_quantile(1.0 - alpha)
    return TestOutcome(
        method=METHOD_LRV,
        statistic=statistic,
        threshold=sigma * q,
        quantile=q,
        p_value=1.0 - nulldist.kolmogorov_cdf(statistic / sigma),
        reject=statistic > sigma * q,
    )
