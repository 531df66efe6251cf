"""Admission control and the micro-batcher.

Two cooperating pieces, both owned by the event loop:

:class:`AdmissionQueue`
    The only buffer in the service, and a *bounded* one: a request is
    either admitted (queue depth and in-flight bytes both under their
    configured limits) or shed immediately with a reason that maps to
    429 + ``Retry-After`` — the server never buffers unboundedly, so
    overload degrades into fast rejections instead of memory growth.

:class:`MicroBatcher`
    A single background task that takes whatever queued while the
    previous batch computed, up to ``max_batch_items`` requests and
    without waiting for more, and dispatches each (algorithm, backend)
    group through one :func:`~repro.backends.batch.batch_maximal_matching`
    call in the one compute thread — a request carries one list, so
    many concurrent requests become one arena-fused batch, the
    throughput form the paper's batch-of-lists framing suggests.  A
    group's requests are answered once its call returns.  Around that
    call sit the robustness layers:

    - **deadlines** — the server's handler answers 504 through
      :meth:`MicroBatcher.expire` when a request's deadline passes;
      requests expired while queued are never computed, and compute
      already running finishes in the background;
    - **degrade** — any failure of the batch call falls back *per
      request* through :func:`repro.resilience.resilient_matching` on
      the reference tier, so one poisoned workload degrades its own
      answer instead of failing the batch: accepted requests answer
      200 or 504, never 500, unless even the sequential floor fails.
      Pool failures need no separate path: the sharded executor
      already reruns a batch serially when its pool breaks.

Every decision is counted in ``service.*`` metrics (always on — the
process's own metrics are its operational surface; span emission
still honors the global telemetry flag).

Two observability duties ride along with responding.  Every answered
request feeds the rolling :class:`~repro.telemetry.live
.LiveAggregator` behind ``/debug/vars`` and — when it carries a
:class:`~repro.telemetry.context.TraceContext` — emits its
``service.request`` root span at finish time, the root the fused
``service.batch`` span's ``links`` attribute lets the exporter hang
shard work under.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..pram.cost import CostModel
from ..telemetry.context import TraceContext, using_trace
from ..telemetry.live import LiveAggregator
from ..telemetry.metrics import METRICS
from ..telemetry.spans import (
    Span,
    enabled as telemetry_enabled,
    event as telemetry_event,
    get_tracer,
    span as telemetry_span,
)
from .config import ServiceConfig
from .workload import Workload

__all__ = ["PendingRequest", "AdmissionQueue", "MicroBatcher"]

_log = logging.getLogger(__name__)

#: Shed reasons (429) an :meth:`AdmissionQueue.try_admit` can return.
SHED_QUEUE_FULL = "queue_full"
SHED_BYTES = "inflight_bytes"
SHED_DRAINING = "draining"

#: The 504 text of a request whose deadline passed before it was picked.
EXPIRED_QUEUED = "deadline expired while queued (not computed)"


@dataclass(eq=False)  # identity semantics: requests live in sets
class PendingRequest:
    """One admitted HTTP request, one list, traveling queue → batch →
    response."""

    workload: Workload
    deadline: float  # event-loop clock
    enqueued_at: float
    future: "asyncio.Future[tuple[int, dict[str, Any]]]"
    #: ``"miss"`` (the answer fills the cache) or ``"off"``.
    cache: str = "off"
    #: Byte budget charged at admission; zeroed once released.
    admitted_bytes: int = 0
    #: Request trace identity (``None`` when telemetry is disabled).
    #: Carries the preallocated root span id; the ``service.request``
    #: span itself is emitted once, at :meth:`MicroBatcher._finish`.
    trace: TraceContext | None = None
    #: ``time.perf_counter()`` at HTTP ingress (the root span's start).
    ingress_at: float = 0.0
    #: Set when the request leaves the admission queue: the batcher or
    #: drain picked it, or its deadline passed while it was queued.
    picked: bool = False


class AdmissionQueue:
    """Bounded request queue with explicit load shedding.

    ``depth`` counts the requests on the queue; ``inflight_bytes``
    counts the pointer-arena bytes of every admitted request until it
    is answered *and* off the queue, so the two limits together bound
    resident workload memory.  A request leaves the queue when it is
    picked, or through :meth:`remove` when its deadline passes first.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.inflight_bytes = 0
        self.draining = False
        self.admitted = 0
        self.shed_counts: dict[str, int] = {}
        self._queue: deque[PendingRequest] = deque()
        self._nonempty = asyncio.Event()

    @property
    def depth(self) -> int:
        return len(self._queue)

    def try_admit(self, request: PendingRequest) -> str | None:
        """Admit ``request`` or return the shed reason (never blocks)."""
        if self.draining:
            reason = SHED_DRAINING
        elif self.depth >= self.config.max_queue_depth:
            reason = SHED_QUEUE_FULL
        elif (self.inflight_bytes + request.workload.nbytes
                > self.config.max_inflight_bytes):
            reason = SHED_BYTES
        else:
            reason = None
        if reason is not None:
            self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
            METRICS.counter(f"service.shed.{reason}").inc()
            return reason
        request.admitted_bytes = request.workload.nbytes
        self.inflight_bytes += request.admitted_bytes
        self._queue.append(request)
        self._nonempty.set()
        self.admitted += 1
        METRICS.counter("service.accepted").inc()
        METRICS.gauge("service.queue_depth").set(self.depth)
        METRICS.gauge("service.inflight_bytes").set(self.inflight_bytes)
        return None

    def release(self, nbytes: int) -> None:
        """Return an answered request's byte budget to the admitter."""
        self.inflight_bytes = max(0, self.inflight_bytes - nbytes)
        METRICS.gauge("service.inflight_bytes").set(self.inflight_bytes)

    async def get(self) -> PendingRequest:
        while not self._queue:
            self._nonempty.clear()
            await self._nonempty.wait()
        return self._dequeued(self._queue.popleft())

    def get_nowait(self) -> PendingRequest | None:
        return self._dequeued(self._queue.popleft()) if self._queue else None

    def remove(self, request: PendingRequest) -> None:
        """Take ``request`` off the queue before the batcher picks it."""
        self._queue.remove(request)
        self._dequeued(request)

    def _dequeued(self, request: PendingRequest) -> PendingRequest:
        request.picked = True
        METRICS.gauge("service.queue_depth").set(self.depth)
        return request


def _call_traced(ctx: TraceContext | None, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` under ``ctx`` in the compute thread.

    ``loop.run_in_executor`` does not propagate contextvars, so the
    batch's trace context must be re-installed inside the thread —
    this is what lets the sharded executor's ``current_trace()`` see
    the request identity and ship it to pool workers.
    """
    with using_trace(ctx):
        return fn()


class MicroBatcher:
    """The single consumer task between the queue and the engine.

    ``batch_fn`` defaults to
    :func:`~repro.backends.batch.batch_maximal_matching`; tests inject
    wrappers that fail on schedule to drive the fallback path
    deterministically.  ``fallback_fn`` likewise defaults to
    :func:`repro.resilience.resilient_matching`.
    """

    def __init__(
        self,
        admission: AdmissionQueue,
        config: ServiceConfig,
        *,
        batch_fn: Callable[..., Any] | None = None,
        fallback_fn: Callable[..., Any] | None = None,
        cache=None,
        live: LiveAggregator | None = None,
    ) -> None:
        from ..backends.batch import batch_maximal_matching
        from ..resilience import resilient_matching

        self.admission = admission
        self.config = config
        self.cache = cache
        #: Rolling-window operational view (always on, like the
        #: ``service.*`` counters); shared with the server's
        #: ``/debug/vars`` handler.
        self.live = live if live is not None else LiveAggregator()
        self._batch_fn = batch_fn or batch_maximal_matching
        self._fallback_fn = fallback_fn or resilient_matching
        self._stopping = asyncio.Event()
        self._executor = None  # created lazily on the running loop
        #: Aggregate Brent account of everything computed, for the
        #: final manifest.
        self.cost = CostModel(1)
        self.batches = 0
        self.nodes_served = 0
        # Per-instance lifetime counts for this server's manifest (the
        # global METRICS registry accumulates across instances).
        self.served = 0
        self.timeouts = 0
        self.errors = 0
        self.engine_faults = 0
        self.degraded = 0
        self.deadline_shed = 0

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Ask :meth:`run` to exit once the queue is flushed."""
        self._stopping.set()

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    def _pool(self):
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            # One thread: batches compute one at a time, in dispatch
            # order.
            self._executor = ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix="repro-service-compute",
            )
        return self._executor

    def shutdown_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- main loop ---------------------------------------------------------

    async def run(self) -> None:
        """Consume the queue until :meth:`stop` *and* the queue drains."""
        while True:
            first = await self._next_request()
            if first is None:
                return
            await self._dispatch(self._gather(first))

    async def _next_request(self) -> PendingRequest | None:
        """Next queued request; ``None`` when stopping with an empty
        queue (drain complete)."""
        while True:
            request = self.admission.get_nowait()
            if request is not None:
                return request
            if self.stopping:
                return None
            get_task = asyncio.ensure_future(self.admission.get())
            stop_task = asyncio.ensure_future(self._stopping.wait())
            done, _ = await asyncio.wait(
                {get_task, stop_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            stop_task.cancel()
            if get_task in done:
                return get_task.result()
            # Stop was requested.  The get may have raced a final
            # enqueue to completion — never drop an admitted request.
            get_task.cancel()
            try:
                return await get_task
            except asyncio.CancelledError:
                pass
            # Loop once more: get_nowait flushes whatever is queued.

    def _gather(self, first: PendingRequest) -> list[PendingRequest]:
        """``first`` plus whatever queued behind it, up to
        ``max_batch_items``; never waits for more."""
        batch = [first]
        while len(batch) < self.config.max_batch_items:
            request = self.admission.get_nowait()
            if request is None:
                break
            batch.append(request)
        return batch

    # -- responding --------------------------------------------------------

    def _finish(self, request: PendingRequest, status: int,
                payload: dict[str, Any]) -> None:
        """Release the request's byte budget once it is off the queue;
        resolve its future, count the answer and emit its span, each
        exactly once: the first of the batcher, :meth:`expire` and
        drain to answer wins."""
        self._release(request)  # even when already answered or cancelled
        if request.future.done():
            return
        loop = asyncio.get_running_loop()
        latency_ms = (loop.time() - request.enqueued_at) * 1000.0
        payload = {**payload, "latency_ms": round(latency_ms, 3)}
        if request.trace is not None:
            payload["trace_id"] = request.trace.trace_id
        METRICS.histogram("service.latency_ms").observe(latency_ms)
        if status == 200:
            self.served += 1
            METRICS.counter("service.served").inc()
        elif status in (503, 504):
            self.timeouts += 1
            METRICS.counter("service.timeouts").inc()
        else:
            self.errors += 1
            METRICS.counter("service.errors").inc()
        self.observe_request(request.trace, request.ingress_at,
                             request.workload.n, request.cache,
                             status=status, latency_ms=latency_ms)
        request.future.set_result((status, payload))

    def _release(self, request: PendingRequest) -> None:
        """Return a picked request's byte budget; a second call returns
        nothing."""
        if request.picked:
            self.admission.release(request.admitted_bytes)
            request.admitted_bytes = 0

    def observe_request(self, trace: TraceContext | None,
                        ingress_at: float, n: int, cache: str, *,
                        status: int, latency_ms: float) -> None:
        """Account one answered request of an ``n``-node list whose
        cache state is ``cache``: the live window, and (traced,
        telemetry on) its ``service.request`` root span.

        Every answer goes through here — batcher-resolved requests and
        the server's queue-less cache hits and sheds alike — so the
        span carries the same attributes on every path.  The span is
        built foreign rather than via the span stack: the request
        lived across awaits, threads, and possibly worker processes,
        so its span exists only now — with the id that every child
        already parented under via the ambient context.
        """
        hits = int(cache == "hit")
        lookups = int(cache != "off")
        self.live.observe_request(
            latency_ms=latency_ms, status=status,
            cache_hits=hits, cache_lookups=lookups,
        )
        if trace is None or not telemetry_enabled():
            return
        tracer = get_tracer()
        end = time.perf_counter()
        sp = Span(
            "service.request",
            trace.span_id if trace.span_id is not None
            else tracer.next_id(),
            None,
            ingress_at or end,
            {
                "status": status,
                "latency_ms": round(latency_ms, 3),
                "n": n,
                "cache_hits": hits,
                "cache_lookups": lookups,
            },
            tracer,
            trace.trace_id,
        )
        sp.end = end
        sp.status = "ok" if status == 200 else "error"
        tracer.emit_foreign(sp)

    def _shed_expired(self, request: PendingRequest) -> None:
        """504 a request whose deadline passed while queued, uncomputed;
        counted by the first to answer it, :meth:`expire` or
        :meth:`_dispatch` (a cancelled future was answered by neither)."""
        future = request.future
        if not future.done() or future.cancelled():
            self.deadline_shed += 1
            METRICS.counter("service.deadline.queued").inc()
        self._finish(request, 504, {"error": EXPIRED_QUEUED})

    def expire(self, request: PendingRequest) -> None:
        """Answer ``request`` 504 at its deadline (the server's handler
        calls this).  A queued request leaves the queue first, so its
        list is no longer resident when its bytes are released."""
        if request.picked:
            METRICS.counter("service.deadline.inflight").inc()
            self._finish(request, 504, {"error": "deadline exceeded"})
        else:
            self.admission.remove(request)
            self._shed_expired(request)

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, batch: list[PendingRequest]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: list[PendingRequest] = []
        for request in batch:
            if request.deadline <= now:
                self._shed_expired(request)
            else:
                live.append(request)
        if not live:
            return
        self.batches += 1
        METRICS.counter("service.batches").inc()
        METRICS.histogram("service.batch.requests").observe(len(live))
        groups: dict[tuple[str, str], list[PendingRequest]] = {}
        for request in live:
            key = (request.workload.algorithm, request.workload.backend)
            groups.setdefault(key, []).append(request)
        # A group's requests are answered once that group has computed.
        for (algorithm, backend), requests in groups.items():
            await self._compute_group(algorithm, backend, requests)

    async def _compute_group(
        self,
        algorithm: str,
        backend: str,
        requests: list[PendingRequest],
    ) -> None:
        """One fused batch call for one group; any failure degrades
        every member request."""
        # Members answered at their deadline while an earlier group
        # computed are not computed; a cancelled one still returns its
        # bytes.
        for req in requests:
            if req.future.done():
                self._release(req)
        requests = [req for req in requests if not req.future.done()]
        if not requests:
            return
        loop = asyncio.get_running_loop()
        lists = [req.workload.lst for req in requests]
        METRICS.histogram("service.batch.lists").observe(len(lists))
        fn = partial(
            self._batch_fn, lists, algorithm=algorithm, backend=backend,
            workers=self.config.workers, p=1,
        )
        # One fused span serves every member request: simple parentage
        # cannot express that, so the span carries each member's trace
        # id in ``links`` (the key request_trace_spans re-cuts the tree
        # with), is tagged with the first member's trace id, and hands
        # the compute thread an ambient context parenting thread-root
        # spans under it.
        links = tuple(sorted({
            req.trace.trace_id for req in requests if req.trace is not None
        })) if telemetry_enabled() else ()
        try:
            with telemetry_span(
                "service.batch", algorithm=algorithm, backend=backend,
                lists=len(lists), links=links,
            ) as batch_span:
                ctx = None
                if links:
                    batch_span.trace_id = links[0]
                    ctx = TraceContext(links[0], batch_span.span_id)
                result = await loop.run_in_executor(
                    self._pool(), partial(_call_traced, ctx, fn))
        except Exception as exc:  # noqa: BLE001 - degrade, never 500
            # An engine error, or a pool failure that already failed
            # the executor's serial rerun: the ladder answers instead.
            self.engine_faults += 1
            METRICS.counter("service.engine_faults").inc()
            _log.warning("batch call failed; degrading %d list(s)",
                         len(requests), exc_info=True)
            error = f"{type(exc).__name__}: {exc}"
            if telemetry_enabled():
                telemetry_event(
                    "service.engine_fault", algorithm=algorithm,
                    backend=backend, error=error,
                )
            await self._fallback(requests, error)
            return
        self.cost.absorb(result.report)
        for request, matching in zip(requests, result.matchings):
            self.nodes_served += request.workload.n
            self._answer(request, matching, served_by=algorithm,
                         degraded=False)

    async def _fallback(self, requests: list[PendingRequest],
                        error: str) -> None:
        """Per-request degradation: reference-tier resilience ladder."""
        loop = asyncio.get_running_loop()
        for request in requests:
            if request.future.done():
                continue  # answered at its deadline
            fn = partial(
                self._fallback_fn, request.workload.lst,
                backend="reference", p=1,
            )
            try:
                res = await loop.run_in_executor(self._pool(), fn)
            except Exception as exc:  # noqa: BLE001 - the ladder's floor
                self._finish(request, 500, {"error": (
                    f"degraded path failed after {error}: "
                    f"{type(exc).__name__}: {exc}"
                )})
                continue
            self.degraded += 1
            METRICS.counter("service.degraded").inc()
            served_by = getattr(res, "served_by", "reference-ladder")
            self.nodes_served += request.workload.n
            self._answer(request, res.matching, served_by=served_by,
                         degraded=True)
            if telemetry_enabled():
                telemetry_event(
                    "service.degraded", served_by=served_by, cause=error,
                )

    def _answer(self, request: PendingRequest, matching, *,
                served_by: str, degraded: bool) -> None:
        """Answer ``request`` 200 with ``matching``, filling the cache
        on a miss."""
        workload = request.workload
        payload = {
            "n": workload.n,
            "algorithm": workload.algorithm,
            "backend": workload.backend,
            "tails": [int(t) for t in matching.tails],
            "matched": int(matching.size),
            "served_by": served_by,
            "degraded": degraded,
        }
        if self.cache is not None and request.cache == "miss":
            # Cached without the request's own ask, so an "auto" and an
            # explicit request for the same backend share the entry.
            self.cache.put(workload.cache_key(), dict(payload))
        if workload.requested_backend is not None:
            payload["requested_backend"] = workload.requested_backend
        self._finish(request, 200, {**payload, "cache": request.cache})
