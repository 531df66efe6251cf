"""Pool-cache health: broken executors are evicted and rebuilt.

A ``ProcessPoolExecutor`` whose worker died (OOM kill, ``os._exit``
in a task) is permanently broken — every later submit raises
``BrokenExecutor``.  The cache must never hand such a corpse back:
``get_pool`` health-checks the cached pool and rebuilds it once,
counting the eviction under ``parallel.pool_rebuilt``.
"""

import os

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

import repro
from repro.parallel import pools
from repro.parallel.pools import get_pool, pool_is_healthy, shutdown_pools
from repro.telemetry.metrics import METRICS

WORKERS = 2


def _break(pool):
    """Deterministically kill a worker so the executor marks itself
    broken (``os._exit`` skips all cleanup, like a SIGKILL)."""
    with pytest.raises(BrokenProcessPool):
        pool.submit(os._exit, 1).result(timeout=30)
    assert getattr(pool, "_broken", False)


@pytest.fixture(autouse=True)
def _fresh_cache():
    shutdown_pools()
    yield
    shutdown_pools()


class TestHealthCheck:
    def test_healthy_pool_is_reused(self):
        pool = get_pool(WORKERS)
        assert pool_is_healthy(pool)
        assert get_pool(WORKERS) is pool

    def test_broken_pool_detected_passively(self):
        pool = get_pool(WORKERS)
        _break(pool)
        assert not pool_is_healthy(pool)

    def test_shutdown_pool_is_unhealthy(self):
        pool = get_pool(WORKERS)
        pool.shutdown(wait=True)
        assert not pool_is_healthy(pool)


class TestRebuild:
    def test_broken_pool_rebuilt_once(self):
        before = METRICS.counter("parallel.pool_rebuilt").value
        pool = get_pool(WORKERS)
        _break(pool)

        rebuilt = get_pool(WORKERS)
        assert rebuilt is not pool
        assert pool_is_healthy(rebuilt)
        assert METRICS.counter("parallel.pool_rebuilt").value == before + 1

        # The rebuilt pool is cached — no churn on the next request.
        assert get_pool(WORKERS) is rebuilt
        assert METRICS.counter("parallel.pool_rebuilt").value == before + 1

    def test_rebuilt_pool_actually_works(self):
        pool = get_pool(WORKERS)
        _break(pool)
        lists = [repro.random_list(64, rng=s) for s in range(4)]
        result = repro.batch_maximal_matching(lists, workers=WORKERS)
        for lst, matching in zip(lists, result.matchings):
            expect = repro.maximal_matching(
                lst, backend="reference").matching
            assert np.array_equal(
                np.sort(matching.tails), np.sort(expect.tails))

    def test_drop_pool_still_works(self):
        pool = get_pool(WORKERS)
        pools.drop_pool(WORKERS)
        assert WORKERS not in pools._POOLS
        assert get_pool(WORKERS) is not pool
