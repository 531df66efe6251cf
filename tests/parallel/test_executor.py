"""Executor mechanics: sharding, validation, fallback."""

import numpy as np
import pytest

import repro
import repro.telemetry as telemetry
from repro.backends.batch import batch_maximal_matching
from repro.errors import InvalidParameterError
from repro.parallel import run_sharded_batch, shard_bounds


class TestShardBounds:
    @pytest.mark.parametrize("sizes,k", [
        ([10], 1), ([10], 4),
        ([1] * 7, 3), ([100, 1, 1, 1, 1], 2),
        ([1, 1, 1, 1, 100], 2), (list(range(20)), 4),
        ([5, 5, 5, 5], 4), ([0, 0, 0], 2),
    ])
    def test_partition_properties(self, sizes, k):
        bounds = shard_bounds(sizes, k)
        assert 1 <= len(bounds) <= k
        assert bounds[0][0] == 0 and bounds[-1][1] == len(sizes)
        for (alo, ahi), (blo, bhi) in zip(bounds, bounds[1:]):
            assert ahi == blo, "shards must be contiguous"
        assert all(hi > lo for lo, hi in bounds), "shards must be non-empty"

    def test_deterministic(self):
        sizes = [3, 141, 59, 26, 53, 58, 97, 93, 23, 84]
        assert shard_bounds(sizes, 4) == shard_bounds(sizes, 4)

    def test_empty_and_invalid(self):
        assert shard_bounds([], 4) == []
        with pytest.raises(InvalidParameterError):
            shard_bounds([1, 2], 0)


class TestConfigValidation:
    @pytest.mark.parametrize("workers", [0, -1, -7])
    def test_workers_below_one_rejected_config_time(self, workers):
        # Validation happens before any pool or shard exists, even on
        # an empty batch.
        with pytest.raises(ValueError):
            batch_maximal_matching([], workers=workers)

    def test_non_int_workers_rejected(self):
        with pytest.raises(InvalidParameterError):
            batch_maximal_matching([], workers=2.5)
        with pytest.raises(InvalidParameterError):
            batch_maximal_matching([], workers=True)


class TestInputOrder:
    def test_matchings_follow_input_order(self):
        # Wildly imbalanced sizes make shard completion order diverge
        # from shard index order; results must not care.
        sizes = [2000, 1, 2, 3, 1500, 7, 9, 1000, 4, 5, 6, 800]
        lists = [repro.random_list(n, rng=i) for i, n in enumerate(sizes)]
        batch = batch_maximal_matching(lists, workers=3)
        assert len(batch.matchings) == len(lists)
        for lst, m in zip(lists, batch.matchings):
            assert m.lst is lst
            solo = repro.maximal_matching(lst, algorithm="match4",
                                          backend="numpy")
            assert np.array_equal(m.tails, solo.matching.tails)

    def test_single_list_returns_none(self):
        lists = [repro.random_list(64, rng=0)]
        assert run_sharded_batch(
            lists, algorithm="match4", p=1, kwargs={}, workers=4) is None


class TestFallback:
    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        from concurrent.futures import BrokenExecutor

        import repro.parallel.pools as pools

        def explode(workers):
            raise BrokenExecutor("worker died in testing")

        monkeypatch.setattr(pools, "get_pool", explode)
        lists = [repro.random_list(n, rng=n) for n in (33, 65, 120, 40)]
        serial = batch_maximal_matching(lists)
        with telemetry.capture() as sink:
            degraded = batch_maximal_matching(lists, workers=2)
        for sm, dm in zip(serial.matchings, degraded.matchings):
            assert np.array_equal(sm.tails, dm.tails)
        # degraded, never wrong — and loudly so:
        assert "parallel.fallback" in sink.span_names()
        assert telemetry.METRICS.counter("parallel.fallback").value >= 1

    def test_algorithm_errors_propagate(self):
        # An invalid parameter is the caller's bug, not pool trouble:
        # no silent serial retry.
        lists = [repro.random_list(n, rng=n) for n in (33, 65)]
        with pytest.raises(InvalidParameterError):
            batch_maximal_matching(lists, algorithm="match4", workers=2,
                                   strategy="table")


class TestResilienceLadder:
    def test_numpy_rung_degrades_to_reference(self):
        from repro.resilience import resilient_matching

        lst = repro.random_list(256, rng=4)
        calls = []

        def sabotage(tails, i):
            calls.append(i)
            return tails[1:] if i == 0 else tails

        result = resilient_matching(
            lst, backend="numpy", perturb=sabotage, repair=False,
            tries_per_rung=2)
        assert result.matching.size > 0
        assert len(calls) >= 2
        attempts = result.log.attempts
        assert attempts[0].backend == "numpy"
        # retries fall back to the reference backend by ladder policy
        assert attempts[-1].backend == "reference"
        assert attempts[-1].outcome == "ok"
