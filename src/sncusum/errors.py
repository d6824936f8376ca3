"""Exception types shared across the package."""


class DegenerateStatisticError(ArithmeticError):
    """Raised when a single-series statistic is 0/0: a zero self-normalizer
    or a zero long-run variance estimate (e.g. a constant series).

    Kept distinct from ValueError so that ``sn-cusum test`` exits 2 rather
    than as a usage error; the scenario runner counts such rows by mask.
    """


class ConfigurationError(ValueError):
    """Raised when block/knot geometry cannot support the requested test, or
    when a test's reported statistic would exceed the float range."""


class CacheFormatError(ValueError):
    """Raised when a null-sample cache file is corrupt or has an unknown version."""


class CacheProvenanceError(ValueError):
    """Raised when a cache file's header does not match the expected provenance."""
