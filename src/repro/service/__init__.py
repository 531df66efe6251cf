"""Matching-as-a-service: a stdlib asyncio batch server.

The production face of :func:`repro.batch_maximal_matching`: a
long-running HTTP server that coalesces many small client requests
into fused engine batches, sheds load explicitly instead of buffering
it, honors per-request deadlines end-to-end, and degrades through the
resilience ladder rather than erroring.  Start it from the shell::

    python -m repro serve --port 8080 --record runs.jsonl

or in-process::

    from repro.service import MatchingService, ServiceConfig

    service = MatchingService(ServiceConfig(port=0))
    await service.start()
    ...
    await service.drain()

Layers (each its own module):

- :mod:`~repro.service.config` — every tuning knob, one frozen object;
- :mod:`~repro.service.workload` — request parsing and the canonical
  workload identity shared with RunRecord manifests;
- :mod:`~repro.service.cache` — the LRU response cache on that
  identity;
- :mod:`~repro.service.batcher` — bounded admission queue, the
  micro-batcher, deadlines, per-request degradation;
- :mod:`~repro.service.server` — the HTTP/1.1 front, graceful drain,
  and the final RunRecord manifest;
- :mod:`~repro.service.client` — the tiny asyncio client the tests
  and the traffic benchmark use.

See ``docs/service.md`` for endpoint and semantics documentation.
"""

from .batcher import AdmissionQueue, MicroBatcher, PendingRequest
from .cache import ResponseCache
from .config import ServiceConfig
from .server import MatchingService
from .workload import Workload, WorkloadError, parse_workload

__all__ = [
    "AdmissionQueue",
    "MatchingService",
    "MicroBatcher",
    "PendingRequest",
    "ResponseCache",
    "ServiceConfig",
    "Workload",
    "WorkloadError",
    "parse_workload",
]
