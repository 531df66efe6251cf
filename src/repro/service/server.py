"""The asyncio HTTP front: routing, drain, and the final manifest.

A deliberately small HTTP/1.1 server on raw ``asyncio`` streams — no
third-party dependencies, keep-alive connections, bounded bodies.
Endpoints:

====================  =====================================================
``POST /v1/match``    one list (explicit ``next`` array or ``n/layout/seed``
                      spec) → its maximal matching
``GET /metrics``      Prometheus text exposition of the live registry
``GET /healthz``      liveness (200 while the process runs)
``GET /readyz``       readiness (503 once draining)
``GET /debug/vars``   JSON operational snapshot: rolling-window rates,
                      latency quantiles, SLO burn, lifetime totals
====================  =====================================================

With telemetry enabled, every request is assigned a deterministic
:class:`~repro.telemetry.context.TraceContext` at ingress (trace id
hashed from the workload's canonical cache key plus an ingress
sequence number, root span id preallocated) and carries it through
admission, batching, and the sharded executor — the exporter's
``request_trace_events`` then reconstructs one span tree per request
from the shared JSONL soup.  Responses echo the id as ``trace_id``.

The response contract the robustness machinery guarantees: an
*accepted* request is answered 200 (possibly ``"degraded": true``) or
504 (its deadline passed) — never 500; a request that cannot be
accepted is answered immediately with 429 (overload) or 503
(draining), both carrying ``Retry-After``.  The request's deadline is
the one timer on its answer.

On SIGTERM/SIGINT the service **drains**: stops admitting, lets the
micro-batcher flush the queue for up to ``drain_deadline_s``, answers
whatever is left 503, appends one ``kind="service"`` RunRecord (the
aggregate Brent account of everything computed plus the full
admission/shed/cache ledger) to the manifest, shuts worker pools down,
and exits.  A batcher task that dies starts the same drain at once
(outcome ``failed``, and :meth:`MatchingService.run` returns 1).
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
from typing import Any, Callable, NoReturn

from ..telemetry import resources as _resources
from ..telemetry.context import TraceContext, derive_trace_id
from ..telemetry.live import LiveAggregator
from ..telemetry.metrics import METRICS
from ..telemetry.runrecord import RunRecord, append_record
from ..telemetry.spans import enabled as telemetry_enabled, get_tracer
from .batcher import AdmissionQueue, MicroBatcher, PendingRequest
from .cache import ResponseCache
from .config import ServiceConfig
from .workload import WorkloadError, parse_workload

__all__ = ["MatchingService", "HttpError"]

_log = logging.getLogger(__name__)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A protocol-level failure answered with ``status`` and closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader, *, max_body: int,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        line = await reader.readline()
    except (ValueError, ConnectionError):
        raise HttpError(431, "request line too long") from None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except (ValueError, ConnectionError):
            raise HttpError(431, "header line too long") from None
        if raw in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= 100:
            raise HttpError(431, "too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise HttpError(400, "malformed Content-Length") from None
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > max_body:
        raise HttpError(413, f"body exceeds {max_body} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _reject_constant(token: str) -> NoReturn:
    """``json.loads`` hook: ``NaN`` / ``Infinity`` are not JSON numbers
    (a NaN deadline would reach the event loop as a timeout)."""
    raise ValueError(f"non-finite number {token} is not allowed")


def _encode_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
    close: bool = False,
) -> bytes:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    head += [f"{name}: {value}" for name, value in extra_headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class MatchingService:
    """One server instance: admission → micro-batcher → responses.

    In-process use (tests, notebooks)::

        service = MatchingService(ServiceConfig(port=0))
        await service.start()           # binds; service.port is real
        ...
        await service.drain(reason="test")   # flush + manifest + stop

    Process use: :meth:`run` blocks, serving until SIGTERM/SIGINT.
    ``batch_fn`` / ``fallback_fn`` inject failing compute paths in
    tests (see :class:`~repro.service.batcher.MicroBatcher`).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        batch_fn: Callable[..., Any] | None = None,
        fallback_fn: Callable[..., Any] | None = None,
    ) -> None:
        # Baselines register the "sequential" algorithm — the ladder's
        # floor — as an import side effect.
        import repro.baselines  # noqa: F401

        self.config = config or ServiceConfig()
        self.admission = AdmissionQueue(self.config)
        self.cache = ResponseCache(self.config.cache_size)
        self.live = LiveAggregator()
        self.batcher = MicroBatcher(
            self.admission, self.config,
            batch_fn=batch_fn, fallback_fn=fallback_fn,
            cache=self.cache if self.config.cache_size else None,
            live=self.live,
        )
        self.port: int | None = None
        self.started_at: float | None = None
        self.drain_outcome: str | None = None
        self.manifest_record: RunRecord | None = None
        self._server: asyncio.base_events.Server | None = None
        self._batcher_task: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self._stopped = asyncio.Event()
        self._outstanding: set[PendingRequest] = set()
        self._direct_served = 0
        self._ingress_seq = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind, start serving, and start the micro-batcher task."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        self._batcher_task = asyncio.create_task(
            self.batcher.run(), name="repro-service-batcher")
        # A batcher that ends while serving has died: drain at once.
        # (A normal stop ends it while draining: then this is a no-op.)
        self._batcher_task.add_done_callback(
            lambda _task: self.initiate_drain("batcher-failed"))
        METRICS.gauge("service.up").set(1)

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, self.initiate_drain, signal.Signals(sig).name)

    def _remove_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.remove_signal_handler(sig)
            except (ValueError, RuntimeError):  # pragma: no cover
                pass

    def initiate_drain(self, reason: str = "signal") -> None:
        """Idempotently begin graceful shutdown (signal-handler safe)."""
        if self._drain_task is None:
            self.admission.draining = True
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain(reason), name="repro-service-drain")
            # Stopped even when a drain step raised: a signal must
            # always end the process.
            self._drain_task.add_done_callback(
                lambda _task: self._stopped.set())

    async def drain(self, reason: str = "api") -> None:
        """Begin drain (if not begun) and wait for full shutdown."""
        self.initiate_drain(reason)
        await self._stopped.wait()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def _drain(self, reason: str) -> None:
        METRICS.gauge("service.up").set(0)
        assert self._batcher_task is not None
        self.batcher.stop()
        try:
            await asyncio.wait_for(
                asyncio.shield(self._batcher_task),
                self.config.drain_deadline_s,
            )
            self.drain_outcome = "clean"
        except (asyncio.TimeoutError, TimeoutError):
            self.drain_outcome = "deadline"
            self._batcher_task.cancel()
            try:
                await self._batcher_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        except Exception:  # noqa: BLE001 - the batcher task died
            # Its requests can only be answered here, so drain goes on.
            self.drain_outcome = "failed"
            _log.error("micro-batcher task failed", exc_info=True)
        # Whatever is still queued or mid-flight gets a fast 503.
        while True:
            request = self.admission.get_nowait()
            if request is None:
                break
            self.batcher._finish(request, 503, {
                "error": "server draining",
            })
        for request in list(self._outstanding):
            if not request.future.done():
                self.batcher._finish(request, 503, {
                    "error": "server draining",
                })
        self._write_manifest(reason)
        self.batcher.shutdown_executor()
        from ..parallel import pools

        pools.shutdown_pools()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._remove_signal_handlers()

    def _write_manifest(self, reason: str) -> None:
        """Append the final ``kind="service"`` RunRecord (always built,
        only persisted when ``manifest_path`` is configured)."""
        report = self.batcher.cost.report()
        uptime = (time.monotonic() - self.started_at
                  if self.started_at is not None else None)
        cfg = self.config
        record = RunRecord(
            kind="service",
            algorithm=cfg.algorithm,
            backend=cfg.backend,
            n=int(self.batcher.nodes_served),
            p=1,
            time=int(report.time),
            work=int(report.work),
            wall_s=uptime,
            phases=tuple(
                (ph.name, int(ph.time), int(ph.work), int(ph.steps))
                for ph in report.phases
            ),
            extra={
                "drain": self.drain_outcome or "unknown",
                "drain_reason": reason,
                "admitted": self.admission.admitted,
                "served": self.batcher.served + self._direct_served,
                "shed": dict(self.admission.shed_counts),
                "timeouts": self.batcher.timeouts,
                "errors": self.batcher.errors,
                "deadline_shed": self.batcher.deadline_shed,
                "engine_faults": self.batcher.engine_faults,
                "degraded": self.batcher.degraded,
                "batches": self.batcher.batches,
                "cache": self.cache.stats(),
                "workers": cfg.workers,
                "max_queue_depth": cfg.max_queue_depth,
                "max_batch_items": cfg.max_batch_items,
                # The serialization byte ledger (REPRO_RESOURCES): the
                # exact bytes this server pushed over the pool boundary.
                **({"resources": _resources.ledger_snapshot()}
                   if _resources.enabled() else {}),
            },
        )
        self.manifest_record = record
        if cfg.manifest_path:
            append_record(cfg.manifest_path, record)

    def run(self) -> int:
        """Blocking entry for ``repro serve``: serve until signalled;
        1 when the batcher task died, else 0."""
        async def main() -> None:
            await self.start()
            self.install_signal_handlers()
            print(f"serving on http://{self.config.host}:{self.port}",
                  flush=True)
            await self.wait_stopped()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:  # pragma: no cover - direct ^C race
            pass
        return 1 if self.drain_outcome == "failed" else 0

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    parsed = await _read_request(
                        reader, max_body=self.config.max_request_bytes)
                except HttpError as exc:
                    writer.write(_encode_response(
                        exc.status,
                        json.dumps({"error": str(exc)}).encode() + b"\n",
                        close=True,
                    ))
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                if parsed is None:
                    break
                method, target, headers, body = parsed
                METRICS.counter("service.requests").inc()
                status, payload = await self._route(method, target, body)
                close = headers.get("connection", "").lower() == "close"
                if isinstance(payload, bytes):
                    raw, ctype = payload, "text/plain; version=0.0.4"
                    extra: tuple[tuple[str, str], ...] = ()
                else:
                    raw = json.dumps(payload).encode() + b"\n"
                    ctype = "application/json"
                    extra = ()
                    if status in (429, 503):
                        extra = (("Retry-After",
                                  f"{self.config.retry_after_s:g}"),)
                writer.write(_encode_response(
                    status, raw, content_type=ctype, extra_headers=extra,
                    close=close,
                ))
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - socket already gone
                pass

    # -- routing -----------------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes,
    ) -> tuple[int, Any]:
        path = target.split("?", 1)[0]
        try:
            if method == "GET":
                if path == "/healthz":
                    uptime = (time.monotonic() - self.started_at
                              if self.started_at is not None else 0.0)
                    return 200, {"status": "ok",
                                 "uptime_s": round(uptime, 3)}
                if path == "/readyz":
                    if self.admission.draining:
                        return 503, {"status": "draining"}
                    return 200, {
                        "status": "ready",
                        "queue_depth": self.admission.depth,
                        "inflight_bytes": self.admission.inflight_bytes,
                    }
                if path == "/metrics":
                    from ..telemetry.export import prometheus_exposition

                    return 200, prometheus_exposition(METRICS).encode()
                if path == "/debug/vars":
                    return 200, self._debug_vars()
                return 404, {"error": f"no such path: {path}"}
            if method == "POST":
                if path == "/v1/match":
                    return await self._handle_match(body)
                return 404, {"error": f"no such path: {path}"}
            return 405, {"error": f"method {method} not supported"}
        except Exception as exc:  # noqa: BLE001 - the 500 of last resort
            METRICS.counter("service.errors").inc()
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    # -- live view -----------------------------------------------------------

    def _debug_vars(self) -> dict[str, Any]:
        """The ``/debug/vars`` document: window aggregates + lifetime
        totals, one JSON object."""
        uptime = (time.monotonic() - self.started_at
                  if self.started_at is not None else 0.0)
        cfg = self.config
        return {
            "uptime_s": round(uptime, 3),
            "live": self.live.snapshot(),
            "service": {
                "draining": self.admission.draining,
                "queue_depth": self.admission.depth,
                "inflight_bytes": self.admission.inflight_bytes,
                "admitted": self.admission.admitted,
                "shed": dict(self.admission.shed_counts),
            },
            "totals": {
                "served": self.batcher.served + self._direct_served,
                "batches": self.batcher.batches,
                "timeouts": self.batcher.timeouts,
                "errors": self.batcher.errors,
                "degraded": self.batcher.degraded,
                "deadline_shed": self.batcher.deadline_shed,
                "engine_faults": self.batcher.engine_faults,
                "nodes_served": self.batcher.nodes_served,
                "cache": self.cache.stats(),
            },
            "config": {
                "algorithm": cfg.algorithm,
                "backend": cfg.backend,
                "workers": cfg.workers,
            },
        }

    async def _handle_match(self, body: bytes) -> tuple[int, dict[str, Any]]:
        ingress_at = time.perf_counter()
        try:
            data = json.loads(body.decode("utf-8"),
                              parse_constant=_reject_constant)
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder recurses.
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(data, dict):
            return 400, {"error": "request body must be a JSON object"}
        try:
            workload = parse_workload(
                data,
                default_algorithm=self.config.algorithm,
                default_backend=self.config.backend,
            )
        except WorkloadError as exc:
            return 400, {"error": str(exc)}

        trace: TraceContext | None = None
        if telemetry_enabled():
            # Deterministic request identity: the workload's canonical
            # cache key plus this process's ingress sequence number,
            # with the root span id preallocated so children can
            # parent under a span that is emitted only at finish.
            self._ingress_seq += 1
            trace = TraceContext(
                derive_trace_id(workload.cache_key(), self._ingress_seq),
                get_tracer().next_id(),
            )

        deadline_ms = data.get("deadline_ms", self.config.default_deadline_ms)
        if isinstance(deadline_ms, bool) or not isinstance(
                deadline_ms, (int, float)):
            return 400, {"error": "'deadline_ms' must be a number"}
        # Clamped before the float conversion: an integer past float
        # range still compares.
        deadline_ms = float(min(max(deadline_ms, 1.0),
                                self.config.max_deadline_ms))
        use_cache = data.get("cache", True)
        if not isinstance(use_cache, bool):
            return 400, {"error": "'cache' must be a boolean"}
        cache = "miss" if use_cache and self.config.cache_size else "off"

        hit = (self.cache.get(workload.cache_key())
               if cache == "miss" else None)
        if hit is not None:
            # Answered without queue or compute.
            self._direct_served += 1
            METRICS.counter("service.served").inc()
            METRICS.histogram("service.latency_ms").observe(0.0)
            self.batcher.observe_request(
                trace, ingress_at, workload.n, "hit", status=200,
                latency_ms=(time.perf_counter() - ingress_at) * 1000.0)
            payload = dict(hit)
            if workload.requested_backend is not None:
                payload["requested_backend"] = workload.requested_backend
            payload.update(cache="hit", latency_ms=0.0)
            if trace is not None:
                payload["trace_id"] = trace.trace_id
            return 200, payload

        loop = asyncio.get_running_loop()
        now = loop.time()
        request = PendingRequest(
            workload=workload,
            deadline=now + deadline_ms / 1000.0,
            enqueued_at=now,
            future=loop.create_future(),
            cache=cache,
            trace=trace,
            ingress_at=ingress_at,
        )
        reason = self.admission.try_admit(request)
        if reason is not None:
            status = 503 if reason == "draining" else 429
            self.batcher.observe_request(
                trace, ingress_at, workload.n, cache, status=status,
                latency_ms=(time.perf_counter() - ingress_at) * 1000.0)
            return status, {
                "error": f"request shed: {reason}",
                "retry_after_s": self.config.retry_after_s,
            }
        self._outstanding.add(request)
        request.future.add_done_callback(
            lambda _f: self._outstanding.discard(request))
        # The deadline is the request's one timer.  ``asyncio.wait``
        # never cancels the future, so the batcher's answer after a
        # 504 given here is a no-op, and its compute runs to the end.
        await asyncio.wait((request.future,),
                           timeout=request.deadline - loop.time())
        if not request.future.done():
            self.batcher.expire(request)
        return request.future.result()
