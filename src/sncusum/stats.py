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
class Rule:
    """A self-normalized test: its id, null kind and split points (full rules)."""

    test_id: str
    kind: str
    splits: tuple[float, float] | None = None

    @property
    def factor(self) -> float:
        """Scale of the pivotal quantile in the threshold; 1 for the simple rule."""
        if self.splits is None:
            return 1.0
        t0, t1 = self.splits
        return math.sqrt(t0 * (1.0 - t0) / ((1.0 - t1) * (t1 - t0)))

    def check(self, cfg: BlockConfig) -> None:
        """Raise ConfigurationError unless the block geometry is admissible:
        n >= 4 * n_blocks and, for a full rule, split points on distinct knots."""
        if cfg.n < 4 * cfg.n_blocks:
            raise ConfigurationError(
                f"series too short: n={cfg.n} < 4 * n_blocks={4 * cfg.n_blocks}; "
                "use a longer series or a larger block length"
            )
        if self.splits is not None:
            _knot_indices(cfg, *self.splits)

    def threshold(self, null: NullSample, alpha: float) -> tuple[float, float]:
        """The (1 - alpha) quantile of the null sample and ``factor`` times it."""
        if null.kind != self.kind:
            raise ConfigurationError(f"need a {self.kind} sample, got {null.kind}")
        q = nulldist.critical_value(null, alpha)
        return q, self.factor * q

    def statistic(self, grid: PartialSumGrid) -> float:
        """The rule's ratio statistic of a grid whose geometry ``check`` admits."""
        if self.splits is None:
            return simple_statistic_from_grid(grid)
        return full_statistic_from_grid(grid, *self.splits)

    def ratio(self, grid: PartialSumGrid) -> tuple[np.ndarray, np.ndarray]:
        """Numerator and self-normalizer of the statistic along the last axis of
        a ``unit_scaled`` grid; the statistic is their quotient where the
        self-normalizer is not zero."""
        if self.splits is None:
            return _simple_ratio(grid)
        return _full_ratio(grid, *self.splits)

    def decide(self, x, cfg: BlockConfig, alpha: float, null: NullSample) -> "TestOutcome":
        """Run the rule as ``decide_simple`` or ``decide_full`` does."""
        if self.splits is None:
            return decide_simple(x, cfg, alpha, null)
        tag = self.test_id.removeprefix("sn_full_")
        return decide_full(x, cfg, TestParams(alpha, *self.splits, tag), null)


# The self-normalized tests, keyed by test id.
RULES = {rule.test_id: rule for rule in (
    Rule(METHOD_SIMPLE, nulldist.SIMPLE_RATIO),
    Rule(METHOD_FULL_V1, nulldist.FULL_RATIO, (1.0 / 3.0, 2.0 / 3.0)),
    Rule(METHOD_FULL_V2, nulldist.FULL_RATIO, (1.0 / 3.0, 1.0 / 2.0)),
)}
ALL_TESTS = (METHOD_LRV, *RULES)


@dataclass(frozen=True)
class TestParams:
    """Level and split points of a full rule; a tag that names an entry of
    ``RULES`` (``v2``: ``sn_full_v2``) must carry that entry's split points."""

    alpha: float = 0.05
    t0: float = RULES[METHOD_FULL_V2].splits[0]
    t1: float = RULES[METHOD_FULL_V2].splits[1]
    tag: str = "v2"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha={self.alpha} not in (0, 1)")
        if not 0.0 < self.t0 < self.t1 < 1.0:
            raise ValueError(f"need 0 < t0 < t1 < 1, got t0={self.t0}, t1={self.t1}")
        known = RULES.get(f"sn_full_{self.tag}")
        if known is not None and known.splits != (self.t0, self.t1):
            raise ValueError(f"{known.test_id} has split points {known.splits}, "
                             f"not {(self.t0, self.t1)}")

    @classmethod
    def v1(cls, alpha: float = 0.05) -> "TestParams":
        return cls(alpha, *RULES[METHOD_FULL_V1].splits, "v1")

    @classmethod
    def v2(cls, alpha: float = 0.05) -> "TestParams":
        return cls(alpha, *RULES[METHOD_FULL_V2].splits, "v2")


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
    """Integrated deviation of a grid function from its chord through 0,
    along the last axis.

    For a function f on the grid {j/n}, returns at each s = j/n the Riemann
    sum over x in {1/n, ..., j/n} of (f(x) - (x/s) f(s)) / n.
    """
    weights = (np.arange(values.shape[-1]) + 1) / 2.0
    out = np.cumsum(values, axis=-1)
    out -= values[..., :1]
    out -= values * weights
    out /= n
    out[..., 0] = 0.0
    return out


def _sup(values: np.ndarray) -> np.ndarray:
    """max |values| along the last axis."""
    return np.maximum(values.max(axis=-1), -values.min(axis=-1))


def _knot_indices(cfg: BlockConfig, t0: float, t1: float) -> tuple[int, int, int]:
    last = cfg.n_knots
    k0, k1 = knot_of(cfg, t0), knot_of(cfg, t1)
    if not last > k1 > k0 >= 1:
        raise ConfigurationError(
            f"split points t0={t0}, t1={t1} collide on the coarse grid "
            f"(knots {k0}, {k1} of {last}); increase n or the block length"
        )
    return k0, k1, last


def _exponent(x: np.ndarray) -> np.ndarray:
    """Binary exponent e of max|x| along the last axis: ``ldexp(x, -e)``
    lies in (-1, 1); 0 for a zero row."""
    return np.frexp(_sup(x))[1]


def unit_scaled(grid: PartialSumGrid) -> PartialSumGrid:
    """The grid of each series times the exact power of two 2**-e, which both
    ratios are invariant to: no sum of it overflows, and tiny data keep their bits."""
    return PartialSumGrid(grid.cfg, np.ldexp(grid.x, -_exponent(grid.x)[..., None]))


def _simple_ratio(grid: PartialSumGrid) -> tuple[np.ndarray, np.ndarray]:
    """Simple ratio's numerator (plain partial sums) and self-normalizer (knot
    margins) along the last axis of a unit-scaled grid."""
    cfg = grid.cfg
    last = cfg.n_knots
    if last < 2:
        raise ConfigurationError(
            f"need at least 2 coarse steps, got {last} for n={cfg.n}"
        )
    numerator = _sup(np.cumsum(grid.x, axis=-1)) / cfg.n
    margins = grid.knot_margins()
    scaled = np.arange(last) / (last - 1)  # rescaled time at knots 1..last
    return numerator, _sup(margins[..., 1:] - scaled * margins[..., last, None])


def _full_ratio(grid: PartialSumGrid, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
    """Full ratio's numerator and self-normalizer from the process rows at
    knots k0, k1 and last, along the last axis of a unit-scaled grid."""
    k0, k1, last = _knot_indices(grid.cfg, t0, t1)
    early, mid, late = grid.row(k0), grid.row(k1), grid.row(last)
    contrast = contrast_values(early, mid, late, (k1 - k0) / (last - k0))
    return _sup(numerator_values(early)), _sup(_bridge_area(contrast, grid.cfg.n))


def _quotient(numerator, denominator, what: str) -> float:
    if denominator == 0.0:
        raise DegenerateStatisticError(f"self-normalizer is zero ({what} series?)")
    return float(numerator / denominator)


def simple_statistic_from_grid(grid: PartialSumGrid) -> float:
    """Simple ratio statistic from the plain partial sums and the knot margins."""
    return _quotient(*_simple_ratio(unit_scaled(grid)), "constant-zero")


def full_statistic_from_grid(grid: PartialSumGrid, t0: float, t1: float) -> float:
    """Full ratio statistic from the process rows at knots k0, k1 and last."""
    return _quotient(*_full_ratio(unit_scaled(grid), t0, t1), "constant")


def numerator_values(early: np.ndarray) -> np.ndarray:
    """Numerator process of the full rule on the s-grid, from the row at knot k0."""
    n = early.shape[-1] - 1
    out = _bridge_area(early, n)
    out *= math.sqrt(n)
    return out


def contrast_values(early: np.ndarray, mid: np.ndarray, late: np.ndarray,
                    ratio: float) -> np.ndarray:
    """Between-knot contrast on the s-grid, from the rows at knots k0, k1 and
    last: the slice increment from k0 to k1 minus ``ratio`` = (k1-k0)/(last-k0)
    times the increment from k0 to the last knot."""
    out = mid - early
    step = late - early
    step *= ratio
    out -= step
    out *= math.sqrt(early.shape[-1] - 1)
    return out


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


def _decide(rule: Rule, x, cfg: BlockConfig, alpha: float, null: NullSample) -> TestOutcome:
    q, threshold = rule.threshold(null, alpha)
    rule.check(cfg)
    statistic = rule.statistic(PartialSumGrid.compute(x, cfg))
    return TestOutcome(
        method=rule.test_id,
        statistic=statistic,
        threshold=threshold,
        quantile=q,
        p_value=nulldist.p_value(null, statistic / rule.factor),
        reject=statistic > threshold,
    )


def decide_simple(x, cfg: BlockConfig, alpha: float, null: NullSample) -> TestOutcome:
    """Run the zero-mean test against a simulated simple-ratio null sample."""
    return _decide(RULES[METHOD_SIMPLE], x, cfg, alpha, null)


def decide_full(x, cfg: BlockConfig, params: TestParams, null: NullSample) -> TestOutcome:
    """Run the constant-mean test against a simulated full-ratio null sample."""
    rule = Rule(f"sn_full_{params.tag}", nulldist.FULL_RATIO, (params.t0, params.t1))
    return _decide(rule, x, cfg, params.alpha, null)


def _bandwidth(n: int) -> int:
    return max(1, int(n ** (1.0 / 3.0) + 1e-9))


def _lrv(x: np.ndarray, m: int) -> np.ndarray:
    """``lrv_estimate`` with bandwidth ``m`` along the last axis."""
    n = x.shape[-1]
    # summing x[i+j] - x[i+m+j] keeps constant series at exactly zero
    csum = np.zeros(x.shape[:-1] + (n - m + 1,))
    np.cumsum(x[..., : n - m] - x[..., m:], axis=-1, out=csum[..., 1:])
    windows = csum[..., m : n - m + 1] - csum[..., : n - 2 * m + 1]
    return np.mean(windows**2, axis=-1) / (2 * m)


def lrv_estimate(x, bandwidth: int | None = None) -> float:
    """Difference-based global long-run variance estimate.

    Averages the squared difference of adjacent length-``bandwidth`` window
    sums over all start positions, scaled by 1/(2*bandwidth); the default
    bandwidth is floor(n**(1/3)).
    """
    x = as_series(x)
    n = x.size
    m = bandwidth if bandwidth is not None else _bandwidth(n)
    if m < 1:
        raise ValueError(f"bandwidth must be >= 1, got {m}")
    if n < 2 * m:
        raise ValueError(f"need n >= 2*bandwidth, got n={n}, bandwidth={m}")
    return float(_lrv(x, m))


def cusum_lrv(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CUSUM statistic, long-run variance estimate sigma2 and sigma along the
    last axis of validated series; sigma2 = 0 makes the test degenerate.

    The estimate squares window sums, which overflow for large data, so it is
    taken of the series times the exact power of two 2**-e and sigma scaled
    back by 2**e.
    """
    n = x.shape[-1]
    csum = np.cumsum(x, axis=-1)
    statistic = _sup(csum - np.arange(1, n + 1) / n * csum[..., -1:]) / math.sqrt(n)
    exponent = _exponent(x)
    sigma2 = _lrv(np.ldexp(x, -exponent[..., None]), _bandwidth(n))
    return statistic, sigma2, np.ldexp(np.sqrt(sigma2), exponent)


def cusum_lrv_test(x, alpha: float = 0.05) -> TestOutcome:
    """Classical CUSUM test scaled by the estimated long-run variance."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} not in (0, 1)")
    statistic, sigma2, sigma = map(float, cusum_lrv(as_series(x)))
    if sigma2 == 0.0:
        raise DegenerateStatisticError("long-run variance estimate is zero")
    q = nulldist.kolmogorov_quantile(1.0 - alpha)
    return TestOutcome(
        method=METHOD_LRV,
        statistic=statistic,
        threshold=sigma * q,
        quantile=q,
        p_value=1.0 - nulldist.kolmogorov_cdf(statistic / sigma),
        reject=statistic > sigma * q,
    )
