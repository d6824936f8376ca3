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

from sncusum.blocks import (BlockConfig, PartialSumGrid, _carried_cumsum, _exponent, _knot_sums,
                            _row, _sup, as_series, knot_of)
from sncusum.errors import ConfigurationError, DegenerateStatisticError
from sncusum import nulldist
from sncusum.nulldist import NullSample

METHOD_LRV = "r_lrv"
METHOD_SIMPLE = "sn_simple"
METHOD_FULL_V1 = "sn_full_v1"
METHOD_FULL_V2 = "sn_full_v2"


@dataclass(frozen=True)
class Calibration:
    """A rule at one geometry and level: its knots (None: simple rule), factor,
    (1 - alpha) null quantile and threshold, the factor times the quantile."""

    knots: tuple[int, int, int] | None
    factor: float
    quantile: float
    threshold: float


@dataclass(frozen=True)
class Rule:
    """A self-normalized test: its id, null kind and split points (full rules)."""

    test_id: str
    kind: str
    splits: tuple[float, float] | None = None

    def knots(self, cfg: BlockConfig) -> tuple[int, int, int] | None:
        """The knots of the split points (None: simple rule); ConfigurationError
        unless n >= 4 * n_blocks and a full rule's split points fall on distinct knots."""
        if cfg.n < 4 * cfg.n_blocks:
            raise ConfigurationError(f"series too short: n={cfg.n} < 4 * n_blocks="
                                     f"{4 * cfg.n_blocks}; use a longer series or a larger "
                                     "block length")
        return None if self.splits is None else _knot_indices(cfg, *self.splits)

    def calibration(self, cfg: BlockConfig, null: NullSample, alpha: float) -> Calibration:
        """The rule's decision at geometry ``cfg`` and level ``alpha`` against
        ``null``, whose kind is checked first, then alpha, then the geometry."""
        if null.kind != self.kind:
            raise ConfigurationError(f"need a {self.kind} sample, got {null.kind}")
        q = nulldist.critical_value(null, alpha)
        knots, factor = self.knots(cfg), 1.0
        if self.splits is not None:
            t0, t1 = self.splits
            factor = math.sqrt(t0 * (1.0 - t0) / ((1.0 - t1) * (t1 - t0)))
        return Calibration(knots, factor, q, factor * q)

    def decide(self, x, cfg: BlockConfig, alpha: float, null: NullSample) -> "TestOutcome":
        """Run the rule through ``decide_simple``, or ``decide_full`` with ``TestParams``."""
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


def _bridge_area(values: np.ndarray, weights: np.ndarray, carry: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """Integrated deviation of a grid function f, f(0) = 0, from its chord
    through 0 along the last axis, times n, in place: at each s = j/n, the
    sum over x in {1/n, ..., j/n} of f(x) - (x/s) f(s).  ``values`` holds f
    at consecutive grid columns j and ``weights`` (j + 1)/2 at them; the
    running sum continues from ``carry``, and ``scratch`` takes f times the
    weights."""
    np.multiply(values, weights, out=scratch)
    _carried_cumsum(values, carry)
    values -= scratch
    return values


def _knot_indices(cfg: BlockConfig, t0: float, t1: float) -> tuple[int, int, int]:
    last = cfg.n_knots
    k0, k1 = knot_of(cfg, t0), knot_of(cfg, t1)
    if not last > k1 > k0 >= 1:
        raise ConfigurationError(
            f"split points t0={t0}, t1={t1} collide on the coarse grid "
            f"(knots {k0}, {k1} of {last}); increase n or the block length"
        )
    return k0, k1, last


def _ratios(x: np.ndarray, cfg: BlockConfig, triples) -> list[tuple[np.ndarray, np.ndarray]]:
    """Numerator and self-normalizer of each of ``triples`` (a full rule's knots
    (k0, k1, K), or None for the simple rule) along the last axis of series of
    geometry ``cfg``, each read times 2**-e (``_exponent``); the statistic is
    their quotient where the self-normalizer is not zero.  One pass over chunks
    of whole blocks (``block_rows`` for the stack) through a workspace made
    once per call: the chunk, scaled as it is read, a temporary and one row
    per distinct knot, which the rules share.  Every prefix sum carries on to
    the next chunk, so every value has the bits of the full-length rows; each
    supremum is the largest chunk supremum, divided by n once."""
    b, ell, n, last = cfg.block_length, cfg.n_blocks, cfg.n, cfg.n_knots
    simple = None in triples
    if simple and last < 2:
        raise ConfigurationError(f"need at least 2 coarse steps, got {last} for n={n}")
    full = list(dict.fromkeys(filter(None, triples)))  # each contrast once
    knots = sorted({k for t in full for k in t})
    width = max(1, nulldist.block_rows(8 * (x.size // n)) // b) * b
    bounds = [*range(1, ell * b + 1, width), n + 1]
    span = max(bounds[1] - bounds[0], bounds[-1] - bounds[-2])  # the others are as wide
    lead = x.shape[:-1]
    chunk, scratch, *rows = np.empty((2 + len(knots),) + lead + (span,))
    if simple:  # the simple rule's supremum, running sum and knot sums
        prefix, running, sums = 0.0, np.full(lead + (1,), -0.0), np.zeros(lead + (last + 1,))
    if full:
        early = sorted({t[0] for t in full})  # each numerator once
        tops = [0.0] * (len(full) + len(early))  # the contrasts' bridge areas, the numerators'
        carries = np.full((len(tops) + len(knots),) + lead + (1,), -0.0)  # theirs, the rows'
        weights = np.arange(2.0, span + 2)
        weights /= 2  # (j + 1)/2 at the columns j = 1, 2, ...
    scale = -_exponent(x)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        w = hi - lo
        xs, tmp = np.ldexp(x[..., lo - 1 : hi - 1], scale, out=chunk[..., :w]), scratch[..., :w]
        if full:
            built = {k: _row(xs, cfg, k * ell, lo, carry, row[..., :w], tmp)
                     for k, carry, row in zip(knots, carries[len(tops):], rows)}
        if simple:  # the knot sums, then the prefix sum in place of the chunk
            _knot_sums(xs, cfg, lo, sums)
            if lo > 1:  # past the first chunk, its first block took the running sums
                np.ldexp(x[..., lo - 1 : lo - 1 + b], scale, out=xs[..., :b])
            prefix = np.maximum(prefix, _sup(_carried_cumsum(xs, running)))
        if full:  # each contrast into the chunk, then the numerators in place of the k0 rows
            for i, (k0, k1, _) in enumerate(full):
                contrast = contrast_values(built[k0], built[k1], built[last],
                                           (k1 - k0) / (last - k0), n, xs, tmp)
                tops[i] = np.maximum(tops[i], _sup(_bridge_area(contrast, weights[:w], carries[i],
                                                                tmp)))
            for i, k0 in enumerate(early, len(full)):
                tops[i] = np.maximum(tops[i], _sup(_bridge_area(built[k0], weights[:w], carries[i],
                                                                tmp)))
            weights += w / 2  # exact: halves of integers
    if simple:
        margins = np.add.accumulate(sums, axis=-1) / n
        scaled = np.arange(last) / (last - 1)  # rescaled time at knots 1..last
        sn = _sup(margins[..., 1:] - scaled * margins[..., last, None])
    return [(prefix / n, sn) if t is None else
            (tops[len(full) + early.index(t[0])] / n * math.sqrt(n), tops[full.index(t)] / n)
            for t in triples]


def _statistic(x: np.ndarray, cfg: BlockConfig, knots) -> float:
    """The ratio statistic of one validated series at a full rule's knots (None: simple rule)."""
    numerator, denominator = _ratios(x, cfg, [knots])[0]
    if denominator == 0.0:
        what = "constant-zero" if knots is None else "constant"
        raise DegenerateStatisticError(f"self-normalizer is zero ({what} series?)")
    return float(numerator / denominator)


def simple_statistic_from_grid(grid: PartialSumGrid) -> float:
    """Simple ratio statistic from the plain partial sums and the knot margins."""
    return _statistic(grid.x, grid.cfg, None)


def full_statistic_from_grid(grid: PartialSumGrid, t0: float, t1: float) -> float:
    """Full ratio statistic from the process rows at knots k0, k1 and last."""
    return _statistic(grid.x, grid.cfg, _knot_indices(grid.cfg, t0, t1))


def contrast_values(early: np.ndarray, mid: np.ndarray, late: np.ndarray, ratio: float, n: int,
                    out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Between-knot contrast on the s-grid, from the rows at knots k0, k1 and
    last, into ``out`` (new if None; ``scratch`` takes the late increment):
    the slice increment from k0 to k1 minus ``ratio`` = (k1-k0)/(last-k0)
    times the increment from k0 to the last knot.  Columnwise, so it takes
    any block of columns of the three rows."""
    out = np.subtract(mid, early, out=out)
    late = np.subtract(late, early, out=scratch)
    late *= ratio
    out -= late
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
    calibration = rule.calibration(cfg, null, alpha)
    statistic = _statistic(as_series(x, cfg), cfg, calibration.knots)
    return TestOutcome(
        method=rule.test_id, statistic=statistic,
        threshold=calibration.threshold, quantile=calibration.quantile,
        p_value=nulldist.p_value(null, statistic / calibration.factor),
        reject=statistic > calibration.threshold,
    )


def decide_simple(x, cfg: BlockConfig, alpha: float, null: NullSample) -> TestOutcome:
    """Run the zero-mean test against a simulated simple-ratio null sample."""
    return _decide(RULES[METHOD_SIMPLE], x, cfg, alpha, null)


def decide_full(x, cfg: BlockConfig, params: TestParams, null: NullSample) -> TestOutcome:
    """Run the constant-mean test of ``params.rule`` at level ``params.alpha``
    against a simulated full-ratio null sample."""
    return _decide(params.rule, x, cfg, params.alpha, null)


def cusum_lrv(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CUSUM statistic, long-run variance estimate sigma2 and e along the last
    axis of series: the first two in the units of each series times 2**-e
    (``_exponent``); sigma2 = 0 makes the test degenerate.

    The estimate averages the squared difference of adjacent length-m window
    sums over all start positions, scaled by 1/(2m), with m = floor(n**(1/3)).
    The scaled series fills the first of two n-sized buffers; the second holds
    the prefix sums, then the sums of the window differences, and the first
    then the squared window sums.  (j/n) S_n is taken a chunk at a time.
    """
    n = x.shape[-1]
    m = max(1, int(n ** (1.0 / 3.0) + 1e-9))
    e = _exponent(x)
    buffer = np.empty(x.shape[:-1] + (2 * n + 1,))
    u, csum = buffer[..., :n], buffer[..., n:]
    np.ldexp(x, -e, out=u)
    sums = np.cumsum(u, axis=-1, out=csum[..., 1:])
    width = min(nulldist.block_rows(8 * (x.size // n)), n)
    ramp = np.arange(1.0, width + 1)  # j at the chunk's columns
    line = np.empty(x.shape[:-1] + (width,))
    statistic = 0.0
    for lo in range(0, n, width):
        part = np.divide(ramp[: n - lo], n, out=line[..., : n - lo])
        part *= sums[..., -1:]
        np.subtract(sums[..., lo : lo + width], part, out=part)
        statistic = np.maximum(statistic, _sup(part))
        ramp += width
    csum[..., 0] = 0.0
    # summing u[i+j] - u[i+m+j] keeps constant series at exactly zero
    steps = np.subtract(u[..., : n - m], u[..., m:], out=csum[..., 1 : n - m + 1])
    np.cumsum(steps, axis=-1, out=steps)
    # one whole array, so that np.mean sums it pairwise as one
    windows = np.subtract(csum[..., m : n - m + 1], csum[..., : n - 2 * m + 1],
                          out=u[..., : n - 2 * m + 1])
    windows *= windows
    return statistic / math.sqrt(n), np.mean(windows, axis=-1) / (2 * m), e[..., 0]


def lrv_estimate(x) -> float:
    """The long-run variance estimate of ``cusum_lrv``, scaled back by 4**e.
    Raises ConfigurationError when that exceeds the float range (data above ~2**511)."""
    _, sigma2, e = cusum_lrv(as_series(x))
    try:
        return math.ldexp(float(sigma2), 2 * int(e))
    except OverflowError:
        raise ConfigurationError("the long-run variance estimate exceeds the float range in "
                                 "the units of the data; rescale the series") from None


def lrv_critical_value(alpha: float) -> float:
    """The LRV-CUSUM test's critical value: the (1 - alpha) Kolmogorov quantile.
    Refuses an alpha outside (0, 1), or below ~2**-53, where 1 - alpha is 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} not in (0, 1)")
    if 1.0 - alpha == 1.0:
        raise ConfigurationError(f"alpha={alpha} is too small for the LRV test: 1 - alpha is 1")
    return nulldist.kolmogorov_quantile(1.0 - alpha)


def cusum_lrv_test(x, alpha: float = 0.05) -> TestOutcome:
    """Classical CUSUM test scaled by the estimated long-run variance.

    The test is decided on the series times 2**-e; the statistic and the
    threshold are scaled back by 2**e.  Raises ConfigurationError when either
    of them, scaled back, exceeds the float range (data near 2**1023).
    """
    q = lrv_critical_value(alpha)
    statistic, sigma2, e = cusum_lrv(as_series(x))
    statistic, sigma2, e = float(statistic), float(sigma2), int(e)
    if sigma2 == 0.0:
        raise DegenerateStatisticError("long-run variance estimate is zero")
    sigma = math.sqrt(sigma2)
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
