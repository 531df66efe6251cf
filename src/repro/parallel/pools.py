"""Cached worker pools with health checks.

Spawning a :class:`~concurrent.futures.ProcessPoolExecutor` costs
fork + import per worker — far more than one small matching — so the
executor layer reuses pools across calls, one per worker count.  The
cache can go stale: a worker that died (OOM kill, ``os._exit`` in a
task, a SIGKILL'd child) permanently breaks its executor, and handing
that corpse back to a caller guarantees a :class:`BrokenExecutor` on
the next submit.  :func:`get_pool` therefore health-checks the cached
pool before returning it (the executor's broken and shutdown flags)
and rebuilds a broken pool once, emitting a ``parallel.pool_rebuilt``
telemetry event and counter so operators can see churn.

A pool that breaks *mid-call* is still dropped by the caller via
:func:`drop_pool` so the next request builds a fresh one;
:func:`shutdown_pools` tears everything down and is registered at
interpreter exit.

The cache is keyed by **worker count only**, deliberately.  A pool's
contents are call-independent — workers are blank interpreters that
receive self-contained payloads, and the parent slices the work — so
when callers change worker counts mid-process, each count maps to its
own cached pool and switching between them is safe.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor

from ..telemetry.metrics import METRICS
from ..telemetry.spans import event as telemetry_event

__all__ = ["get_pool", "drop_pool", "pool_is_healthy", "shutdown_pools"]

_POOLS: dict[int, ProcessPoolExecutor] = {}


def pool_is_healthy(pool: ProcessPoolExecutor) -> bool:
    """Whether ``pool`` can still accept work.

    Reads the executor's broken/shutdown flags — free, but only sees
    failures the executor has already noticed; a pool that breaks
    mid-call is caught by the executor's serial fallback instead.
    """
    if getattr(pool, "_broken", False):
        return False
    if getattr(pool, "_shutdown_thread", False):
        return False
    return True


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool with ``workers`` processes (created on demand).

    A cached pool that fails its health check is shut down and rebuilt
    once, with a ``parallel.pool_rebuilt`` event/counter recording the
    eviction; the returned executor is always freshly verified-or-new.
    """
    pool = _POOLS.get(workers)
    if pool is not None and not pool_is_healthy(pool):
        drop_pool(workers)
        pool = None
        METRICS.counter("parallel.pool_rebuilt").inc()
        telemetry_event("parallel.pool_rebuilt", workers=workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
    return pool


def drop_pool(workers: int) -> None:
    """Forget (and shut down) the cached pool for ``workers``, if any."""
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass


def shutdown_pools() -> None:
    """Shut down every cached pool (idempotent; runs at exit)."""
    for workers in list(_POOLS):
        drop_pool(workers)


atexit.register(shutdown_pools)
