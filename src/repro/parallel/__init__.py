"""Multiprocess execution: sharded batches.

The paper speaks in PRAM processors ``p``; this package is the
host-side counterpart — real worker *processes* for the decomposition
the batch driver allows: :mod:`~repro.parallel.executor` shards
:func:`repro.batch_maximal_matching` across a process pool (lists are
independent; shard by node-balanced contiguous ranges, reassemble in
input order), and :mod:`~repro.parallel.pools` caches and
health-checks the pools.

Sharded results are **bit-identical** to the serial batch by
construction, and a batch falls back to serial execution (with a
``parallel.fallback`` telemetry event) when the pool infrastructure
fails; see ``docs/parallel.md``.
"""

from __future__ import annotations

from .pools import drop_pool, get_pool, shutdown_pools
from .executor import run_sharded_batch, shard_bounds

__all__ = [
    "get_pool",
    "drop_pool",
    "shutdown_pools",
    "shard_bounds",
    "run_sharded_batch",
]
