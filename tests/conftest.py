import concurrent.futures
import os
import sys
from pathlib import Path

import pytest

from sncusum import nulldist

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def null_simple_small():
    """Small simple-ratio sample; quantiles are coarse but stable."""
    return nulldist.simulate_null(
        nulldist.SIMPLE_RATIO, grid_steps=300, replications=4000, seed=9001
    )


@pytest.fixture(scope="session")
def null_full_small():
    return nulldist.simulate_null(
        nulldist.FULL_RATIO, grid_steps=300, replications=4000, seed=9002
    )


class FakePool:
    """Stands in for ``ProcessPoolExecutor``: records its size and the
    arguments of every task, and runs the tasks in this process."""

    def __init__(self, built, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        built.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        self.tasks.extend(tasks)
        return [fn(*task) for task in tasks]


@pytest.fixture
def fake_pools(monkeypatch):
    """Every pool ``nulldist.map_chunks`` builds, in order; no worker starts.

    ``map_chunks`` imports ``ProcessPoolExecutor`` from ``concurrent.futures``
    when it builds a pool, so the fake replaces it there.
    """
    built = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers, mp_context=None: FakePool(built, max_workers),
    )
    return built


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets the number of CPUs this process may run on, as
    ``nulldist.usable_cpus`` reads it from the affinity mask."""

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_count
