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

from sncusum.blocks import (BlockConfig, PartialSumGrid, _carried_cumsum, _exponent,
                            _knot_margins, _row, _sup, as_series, knot_of)
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

    def ratio(self, u: np.ndarray, cfg: BlockConfig) -> tuple[np.ndarray, np.ndarray]:
        """Numerator and self-normalizer of the statistic along the last axis of
        ``unit_scaled`` series of geometry ``cfg``; the statistic is their
        quotient where the self-normalizer is not zero."""
        if self.splits is None:
            return _simple_ratio(u, cfg)
        return _full_ratio(u, cfg, *self.splits)

    def decide(self, x, cfg: BlockConfig, alpha: float, null: NullSample) -> "TestOutcome":
        """Run the rule through ``decide_simple``, or ``decide_full`` with
        ``TestParams(alpha, self)``."""
        if self.splits is None:
            return decide_simple(x, cfg, alpha, null)
        return decide_full(x, cfg, TestParams(alpha, self), null)


# The self-normalized tests, keyed by test id.
RULES = {rule.test_id: rule for rule in (
    Rule(METHOD_SIMPLE, nulldist.SIMPLE_RATIO),
    Rule(METHOD_FULL_V1, nulldist.FULL_RATIO, (1.0 / 3.0, 2.0 / 3.0)),
    Rule(METHOD_FULL_V2, nulldist.FULL_RATIO, (1.0 / 3.0, 1.0 / 2.0)),
)}
ALL_TESTS = (METHOD_LRV, *RULES)


@dataclass(frozen=True)
class TestParams:
    """A level bound to a full rule of ``RULES``, which holds its split points."""

    alpha: float
    rule: Rule

    @classmethod
    def v1(cls, alpha: float = 0.05) -> "TestParams":
        return cls(alpha, RULES[METHOD_FULL_V1])

    @classmethod
    def v2(cls, alpha: float = 0.05) -> "TestParams":
        return cls(alpha, RULES[METHOD_FULL_V2])


@dataclass(frozen=True)
class TestOutcome:
    """Result of one test run; ``reject`` is exactly ``statistic > threshold``."""

    method: str
    statistic: float
    threshold: float
    quantile: float
    p_value: float
    reject: bool


def _bridge_area(values: np.ndarray, n: int, lo: int, carry: np.ndarray) -> np.ndarray:
    """Integrated deviation of a grid function from its chord through 0,
    along the last axis.

    For a function f on the grid {j/n} with f(0) = 0, returns at each s = j/n
    the Riemann sum over x in {1/n, ..., j/n} of (f(x) - (x/s) f(s)) / n.
    ``values`` holds f at the grid columns lo, lo+1, ...; the running sum of
    f continues from ``carry`` (see ``blocks._carried_cumsum``).
    """
    out = _carried_cumsum(values.copy(), carry)
    weights = np.arange(lo + 1, lo + 1 + values.shape[-1], dtype=float)
    weights /= 2.0
    out -= values * weights
    out /= n
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


def unit_scaled(x: np.ndarray) -> np.ndarray:
    """Each series along the last axis of ``x`` times the exact power of two
    2**-e, in whose units all four tests decide: no sum of it overflows, and
    tiny data keep their bits."""
    return np.ldexp(x, -_exponent(x)[..., None])


def _simple_ratio(u: np.ndarray, cfg: BlockConfig) -> tuple[np.ndarray, np.ndarray]:
    """Simple ratio's numerator (plain partial sums) and self-normalizer (knot
    margins) along the last axis of unit-scaled series."""
    last = cfg.n_knots
    if last < 2:
        raise ConfigurationError(
            f"need at least 2 coarse steps, got {last} for n={cfg.n}"
        )
    numerator = _sup(np.cumsum(u, axis=-1)) / cfg.n
    margins = _knot_margins(u, cfg)
    scaled = np.arange(last) / (last - 1)  # rescaled time at knots 1..last
    return numerator, _sup(margins[..., 1:] - scaled * margins[..., last, None])


def _full_ratio(u: np.ndarray, cfg: BlockConfig, t0: float,
                t1: float) -> tuple[np.ndarray, np.ndarray]:
    """Full ratio's numerator and self-normalizer from the process rows at
    knots k0, k1 and last, along the last axis of unit-scaled series.

    One pass over the grid columns 1..n in blocks of ``nulldist.block_rows``
    columns for the whole stack: each block reads the three rows, the
    contrast and both bridge areas, and carries their five prefix sums on to
    the next block; each supremum is the largest block supremum.  Column 0
    (s = 0) is zero in all of them.  The numerator, the k0 area's supremum
    times sqrt(n), rounds as the supremum of its values times sqrt(n) would.
    Every value has the bits of the full-length rows, but no length-n
    temporary is built.
    """
    k0, k1, last = _knot_indices(cfg, t0, t1)
    ratio = (k1 - k0) / (last - k0)
    ell = cfg.n_blocks
    bounds = [*range(1, cfg.n + 1, nulldist.block_rows(8 * (u.size // cfg.n))), cfg.n + 1]
    carries = np.full((5,) + u.shape[:-1] + (1,), -0.0)
    numerator = denominator = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        early = _row(u, cfg, k0 * ell, lo, hi, carries[0])
        numerator = np.maximum(numerator, _sup(_bridge_area(early, cfg.n, lo, carries[1])))
        contrast = contrast_values(early, _row(u, cfg, k1 * ell, lo, hi, carries[2]),
                                   _row(u, cfg, last * ell, lo, hi, carries[3]), ratio, cfg.n)
        denominator = np.maximum(denominator, _sup(_bridge_area(contrast, cfg.n, lo, carries[4])))
    return numerator * math.sqrt(cfg.n), denominator


def _quotient(numerator, denominator, what: str) -> float:
    if denominator == 0.0:
        raise DegenerateStatisticError(f"self-normalizer is zero ({what} series?)")
    return float(numerator / denominator)


def simple_statistic_from_grid(grid: PartialSumGrid) -> float:
    """Simple ratio statistic from the plain partial sums and the knot margins."""
    return _quotient(*_simple_ratio(unit_scaled(grid.x), grid.cfg), "constant-zero")


def full_statistic_from_grid(grid: PartialSumGrid, t0: float, t1: float) -> float:
    """Full ratio statistic from the process rows at knots k0, k1 and last."""
    return _quotient(*_full_ratio(unit_scaled(grid.x), grid.cfg, t0, t1), "constant")


def contrast_values(early: np.ndarray, mid: np.ndarray, late: np.ndarray,
                    ratio: float, n: int) -> np.ndarray:
    """Between-knot contrast on the s-grid, from the rows at knots k0, k1 and
    last: the slice increment from k0 to k1 minus ``ratio`` = (k1-k0)/(last-k0)
    times the increment from k0 to the last knot.  Columnwise, so it takes any
    block of columns of the three rows."""
    out = mid - early
    step = late - early
    step *= ratio
    out -= step
    out *= math.sqrt(n)
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
    """Run the constant-mean test of ``params.rule`` at level ``params.alpha``
    against a simulated full-ratio null sample."""
    return _decide(params.rule, x, cfg, params.alpha, null)


def cusum_lrv(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CUSUM statistic and long-run variance estimate sigma2 along the last
    axis of ``unit_scaled`` series, in the units of ``u``; sigma2 = 0 makes
    the test degenerate.

    The estimate averages the squared difference of adjacent length-m window
    sums over all start positions, scaled by 1/(2m), with m = floor(n**(1/3)).
    """
    n = u.shape[-1]
    m = max(1, int(n ** (1.0 / 3.0) + 1e-9))
    # one buffer holds both cumulative sums, so that large n touches fewer fresh pages
    csum = np.empty(u.shape[:-1] + (n + 1,))
    csum[..., 0] = 0.0
    # summing u[i+j] - u[i+m+j] keeps constant series at exactly zero
    steps = np.subtract(u[..., : n - m], u[..., m:], out=csum[..., 1 : n - m + 1])
    np.cumsum(steps, axis=-1, out=steps)
    windows = csum[..., m : n - m + 1] - csum[..., : n - 2 * m + 1]
    windows *= windows
    sigma2 = np.mean(windows, axis=-1) / (2 * m)
    del windows
    sums = np.cumsum(u, axis=-1, out=csum[..., 1:])
    sums -= np.arange(1.0, n + 1) / n * sums[..., -1:]
    return _sup(sums) / math.sqrt(n), sigma2


def lrv_estimate(x) -> float:
    """Difference-based global long-run variance estimate of ``cusum_lrv``,
    taken of the series times 2**-e and scaled back by 4**e."""
    x = as_series(x)
    e = int(_exponent(x))
    return float(np.ldexp(cusum_lrv(np.ldexp(x, -e))[1], 2 * e))


def cusum_lrv_test(x, alpha: float = 0.05) -> TestOutcome:
    """Classical CUSUM test scaled by the estimated long-run variance.

    The test is decided on the series times 2**-e; the statistic and the
    threshold are scaled back by 2**e.  Raises ConfigurationError when either
    of them, scaled back, exceeds the float range (data near 2**1023).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} not in (0, 1)")
    x = as_series(x)
    e = int(_exponent(x))
    statistic, sigma2 = map(float, cusum_lrv(np.ldexp(x, -e)))
    if sigma2 == 0.0:
        raise DegenerateStatisticError("long-run variance estimate is zero")
    sigma = math.sqrt(sigma2)
    q = nulldist.kolmogorov_quantile(1.0 - alpha)
    try:
        statistic_x, threshold_x = math.ldexp(statistic, e), math.ldexp(sigma * q, e)
    except OverflowError:
        raise ConfigurationError(
            "the LRV-CUSUM statistic or threshold exceeds the float range in the "
            "units of the data; rescale the series"
        ) from None
    return TestOutcome(
        method=METHOD_LRV,
        statistic=statistic_x,
        threshold=threshold_x,
        quantile=q,
        p_value=nulldist.kolmogorov_sf(statistic / sigma),
        reject=statistic > sigma * q,
    )
