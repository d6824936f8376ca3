"""Self-normalized CUSUM change-point tests for locally stationary time series.

The package provides the bivariate block-permuted partial-sum process, two
self-normalized decision rules with Monte-Carlo pivotal quantiles, an
LRV-CUSUM baseline, a simulation engine for empirical rejection rates, and
numerical validation oracles.
"""

from sncusum.errors import (
    CacheFormatError,
    CacheProvenanceError,
    ConfigurationError,
    DegenerateStatisticError,
)
from sncusum.blocks import (
    BlockConfig,
    PartialSumGrid,
    make_block_config,
    partial_sum,
    permute_index,
)
from sncusum.stats import (
    TestOutcome,
    TestParams,
    cusum_lrv_test,
    decide_full,
    decide_simple,
    full_statistic,
    lrv_estimate,
    simple_statistic,
)
from sncusum.nulldist import (
    FULL_RATIO,
    SIMPLE_RATIO,
    NullSample,
    kolmogorov_cdf,
    load_sample,
    p_value,
    quantile,
    save_sample,
    simulate_null,
)
# The simulation engine imports scipy; it loads on first use of one of its names.
_SIMULATION_NAMES = frozenset((
    "ERROR_MODELS", "Scenario", "ScenarioResult", "gen_errors", "gen_series",
    "mean_value", "run_grid", "run_scenario", "sigma_value",
))


def __getattr__(name):
    if name in _SIMULATION_NAMES:
        from sncusum import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SIMULATION_NAMES)


__version__ = "0.1.0"

__all__ = [
    "BlockConfig",
    "CacheFormatError",
    "CacheProvenanceError",
    "ConfigurationError",
    "DegenerateStatisticError",
    "ERROR_MODELS",
    "FULL_RATIO",
    "NullSample",
    "PartialSumGrid",
    "Scenario",
    "ScenarioResult",
    "SIMPLE_RATIO",
    "TestOutcome",
    "TestParams",
    "cusum_lrv_test",
    "decide_full",
    "decide_simple",
    "full_statistic",
    "gen_errors",
    "gen_series",
    "kolmogorov_cdf",
    "load_sample",
    "lrv_estimate",
    "make_block_config",
    "mean_value",
    "p_value",
    "partial_sum",
    "permute_index",
    "quantile",
    "run_grid",
    "run_scenario",
    "save_sample",
    "sigma_value",
    "simple_statistic",
    "simulate_null",
]
