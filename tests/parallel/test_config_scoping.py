"""Parallel configuration is per call: the ``workers=`` of one batch.

Callers may switch worker counts between calls.  The pool cache keys on
worker count only (:mod:`repro.parallel.pools`): each count maps to its
own pool, and switching between them must not change any answer.
"""

import numpy as np

import repro
import repro.telemetry as telemetry
from repro.parallel import pools


def _sharded(lists, workers):
    with telemetry.capture() as sink:
        got = repro.batch_maximal_matching(lists, algorithm="match4",
                                           workers=workers)
    shards = [s for s in sink.spans if s.name.startswith("shard.")]
    assert len(shards) == workers
    assert "parallel.fallback" not in sink.span_names()
    return got


class TestPoolReuseAcrossConfigs:
    def test_same_worker_count_reuses_pool_across_chunk_sizes(self):
        # The parent slices each batch into node-balanced shards, so
        # batches of different sizes cut different chunks; the pool is
        # keyed on worker count only, so both calls share one executor.
        small = [repro.random_list(m, rng=m) for m in (64, 96, 128, 160)]
        large = [repro.random_list(m, rng=m) for m in (700, 900, 1100)]
        _sharded(small, 2)
        pool_a = pools.get_pool(2)
        _sharded(large, 2)
        pool_b = pools.get_pool(2)
        assert pool_a is pool_b

    def test_planner_style_worker_switch_is_bit_identical(self):
        # Back-to-back calls with different worker counts must agree
        # with serial and with each other.
        lists = [repro.random_list(m, rng=14 + m)
                 for m in (300, 450, 600, 900)]
        base = repro.batch_maximal_matching(lists, algorithm="match4")
        results = [_sharded(lists, workers) for workers in (2, 3, 2)]
        for got in results:
            for g, b in zip(got.matchings, base.matchings):
                assert np.array_equal(g.tails, b.tails)
            assert got.stats == base.stats
        assert results[0].report == results[2].report
