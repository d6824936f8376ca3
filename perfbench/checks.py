"""Correctness checks, written against the definitions rather than the
package's kernels.

Statistics are recomputed with one masked prefix sum per knot row (no
lattice), thresholds straight from the sorted null draws, and on the
shortest series with the literal loops of ``tests/oracles.py``.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import kstwobign

from harness import ROOT

REL_TOL = 1e-9
ALPHA = 0.05
SPLITS = {"full-v1": (1 / 3, 2 / 3), "full-v2": (1 / 3, 1 / 2)}
METHOD_IDS = {"full-v1": "sn_full_v1", "full-v2": "sn_full_v2", "simple": "sn_simple", "lrv": "r_lrv"}
TEST_KEYS = {"method", "n", "b_n", "statistic", "threshold", "p_value", "reject"}
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_array(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def load_oracles():
    """The repository's literal reference implementations."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_draws(path) -> np.ndarray:
    """Draws of an ``.snq`` cache, read without the package."""
    return np.loadtxt(path, skiprows=1)


def order_quantile(draws: np.ndarray, level: float = 1 - ALPHA) -> float:
    return float(np.sort(draws)[math.ceil(level * draws.size) - 1])


def _geometry(n: int):
    block = max(2, int(n**0.375 + 1e-9))
    ell = n // block
    k = np.arange(1, n + 1)
    position = np.where(k <= ell * block, ((k - 1) % ell) * block + (k + ell - 1) // ell, k) - 1
    rank = np.empty(n, dtype=np.int64)
    rank[position] = k  # time rank of each sample position
    return ell, n // ell, rank


def _row(x: np.ndarray, rank: np.ndarray, count: int) -> np.ndarray:
    """Partial sums over s = j/n of the observations with time rank <= count."""
    return np.concatenate(([0.0], np.cumsum(np.where(rank <= count, x, 0.0)))) / x.size


def _bridge(values: np.ndarray, n: int) -> np.ndarray:
    """sum_{i<=j} (v_i - (i/j) v_j) / n for every j."""
    j = np.arange(values.size)
    csum = np.cumsum(values) - values[0]
    return (csum - values * (j + 1) / 2.0) / n * (j > 0)


def full_statistic(x: np.ndarray, method: str) -> float:
    t0, t1 = SPLITS[method]
    n = x.size
    ell, last, rank = _geometry(n)
    k0 = math.floor(t0 * n + 1e-9) // ell
    k1 = math.floor(t1 * n + 1e-9) // ell
    early, mid, late = (_row(x, rank, k * ell) for k in (k0, k1, last))
    contrast = math.sqrt(n) * (mid - early - (k1 - k0) / (last - k0) * (late - early))
    numerator = np.abs(math.sqrt(n) * _bridge(early, n)).max()
    return float(numerator / np.abs(_bridge(contrast, n)).max())


def simple_statistic(x: np.ndarray) -> float:
    n = x.size
    ell, last, rank = _geometry(n)
    numerator = np.abs(np.cumsum(x)).max() / n
    margins = np.array([x[rank <= k * ell].sum() / n for k in range(1, last + 1)])
    share = np.arange(last) / (last - 1)
    return float(numerator / np.abs(margins - share * margins[-1]).max())


def lrv_statistic(x: np.ndarray) -> tuple[float, float]:
    """CUSUM statistic and its LRV-scaled threshold."""
    n = x.size
    csum = np.cumsum(x)
    statistic = np.abs(csum - np.arange(1, n + 1) / n * csum[-1]).max() / math.sqrt(n)
    m = max(1, int(n ** (1 / 3) + 1e-9))
    windows = np.convolve(x, np.ones(m), mode="valid")
    sigma2 = np.mean((windows[: n - 2 * m + 1] - windows[m:]) ** 2) / (2 * m)
    return float(statistic), float(math.sqrt(sigma2) * kstwobign.ppf(1 - ALPHA))


def reference(x: np.ndarray, method: str, nulls: dict) -> tuple[float, float]:
    """Reference (statistic, threshold); ``nulls`` maps kind to sorted draws."""
    if method == "lrv":
        return lrv_statistic(x)
    if method == "simple":
        return simple_statistic(x), order_quantile(nulls["simple-ratio"])
    t0, t1 = SPLITS[method]
    factor = math.sqrt(t0 * (1 - t0) / ((1 - t1) * (t1 - t0)))
    return full_statistic(x, method), factor * order_quantile(nulls["full-ratio"])


def check_outcome(out: dict, x: np.ndarray, method: str, ref: tuple[float, float]) -> list[str]:
    """Compare one test outcome (the CLI's JSON fields) with the reference."""
    problems = []
    if set(out) != TEST_KEYS:
        return [f"{method} n={x.size}: keys {sorted(out)}"]
    numbers = [out[k] for k in ("statistic", "threshold", "p_value")]
    if not all(isinstance(v, float) and math.isfinite(v) for v in numbers):
        return [f"{method} n={x.size}: non-finite fields {numbers}"]
    if out["method"] != METHOD_IDS[method] or out["n"] != x.size:
        problems.append(f"{method} n={x.size}: reported {out['method']} n={out['n']}")
    if not 0.0 <= out["p_value"] <= 1.0 or out["reject"] != (out["statistic"] > out["threshold"]):
        problems.append(f"{method} n={x.size}: inconsistent outcome {out}")
    statistic, threshold = ref
    tol = 1e-6 if method == "lrv" else REL_TOL  # the package inverts the Kolmogorov CDF to 1e-8
    if not close(out["statistic"], statistic) or not close(out["threshold"], threshold, tol):
        problems.append(
            f"{method} n={x.size}: statistic/threshold {out['statistic']!r}/{out['threshold']!r}"
            f" vs reference {statistic!r}/{threshold!r}"
        )
    if out["reject"] != (statistic > out["threshold"]):
        problems.append(f"{method} n={x.size}: decision differs from the reference")
    return problems


def check_oracle(oracles, x: np.ndarray, method: str, out: dict, cfg) -> list[str]:
    """Literal-loop oracle on short series: statistic to 1e-9, same decision."""
    if method == "lrv":
        return []
    if method == "simple":
        statistic = oracles.simple_statistic(x, cfg)
    else:
        statistic = oracles.full_statistic(x, cfg, *SPLITS[method])
    if not close(out["statistic"], statistic) or out["reject"] != (statistic > out["threshold"]):
        return [f"{method} n={x.size}: oracle statistic {statistic!r} vs {out['statistic']!r}"]
    return []
