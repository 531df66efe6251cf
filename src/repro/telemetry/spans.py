"""Structured, nested spans and the process tracer.

A *span* is one timed region of a run — ``maximal_matching`` at the
top, the engine/cost phases underneath it, the PRAM lockstep loop and
resilience attempts below those — carrying arbitrary key/value
attributes (cost totals, fault counts, outcomes).  Spans nest through
a process-local stack: a span opened while another is active records
that span as its parent, so a sink sees the full tree.

**Disabled is free.**  Telemetry is off by default; :func:`span` then
returns a shared no-op context manager and instrumented code performs
exactly one global-flag check.  The instrumentation in the algorithm
tiers is therefore unconditional ``with span(...)`` blocks — there are
a handful per run, never one per pointer or per lockstep step.

Every finished span also feeds the ``span.<name>.seconds`` summary
histogram in :data:`repro.telemetry.metrics.METRICS`, which is how
"wall-clock per phase" exists as a metric without separate plumbing.

Spans may additionally carry a **trace id** — the request identity
from :mod:`repro.telemetry.context`.  A span inherits it from its
parent on the stack, or (at stack roots) from the ambient
:class:`~repro.telemetry.context.TraceContext`, which also supplies
the parent id across async/thread/process boundaries the stack cannot
see.  Untraced runs pay nothing: ``trace_id`` stays ``None`` and the
ambient lookup happens only while telemetry is enabled.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from typing import Any

from .context import current_trace
from .metrics import METRICS
from .sinks import JsonlSink, LogSink, NullSink, Sink

__all__ = [
    "Span",
    "Tracer",
    "span",
    "event",
    "enabled",
    "configure",
    "disable",
    "configure_from_env",
    "get_tracer",
    "current_span",
]

_log = logging.getLogger(__name__)


class Span:
    """One timed, attributed region; also its own context manager."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end",
                 "attributes", "status", "trace_id", "_tracer")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 start: float, attributes: dict[str, Any],
                 tracer: "Tracer", trace_id: str | None = None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attributes = attributes
        self.status = "ok"
        self.trace_id = trace_id
        self._tracer = tracer

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes (chainable)."""
        self.attributes.update(attributes)
        return self

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "duration_s": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault(
                "error", f"{exc_type.__name__}: {exc}")
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, status={self.status})")


class _NoopSpan:
    """The shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class Tracer:
    """Owns the span stack and forwards finished spans to its sink."""

    def __init__(self, sink: Sink) -> None:
        self.sink = sink
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._sink_failed = False

    def _inherit(self) -> tuple[int | None, str | None]:
        """Parent id and trace id for a new span: stack first, then the
        ambient :class:`~repro.telemetry.context.TraceContext`."""
        if self._stack:
            top = self._stack[-1]
            return top.span_id, top.trace_id
        ctx = current_trace()
        if ctx is not None:
            return ctx.span_id, ctx.trace_id
        return None, None

    def start_span(self, name: str, attributes: dict[str, Any]) -> Span:
        parent, trace_id = self._inherit()
        sp = Span(name, next(self._ids), parent, time.perf_counter(),
                  attributes, self, trace_id)
        self._stack.append(sp)
        return sp

    def event(self, name: str, attributes: dict[str, Any]) -> Span:
        """Emit an instantaneous (zero-duration) span."""
        parent, trace_id = self._inherit()
        now = time.perf_counter()
        sp = Span(name, next(self._ids), parent, now, attributes, self,
                  trace_id)
        sp.end = now
        self._emit(sp)
        return sp

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def next_id(self) -> int:
        """Allocate a fresh span id.

        Used when merging externally produced spans (a worker process's
        captured trace) into this tracer's id space without colliding
        with locally started spans.
        """
        return next(self._ids)

    def emit_foreign(self, sp: Span) -> None:
        """Emit an already-finished span built outside ``start_span``.

        The span must carry ids from :meth:`next_id` and a set ``end``;
        it is fed to the sink and the duration histogram exactly like a
        locally finished span, but never touches the live span stack.
        """
        METRICS.histogram(f"span.{sp.name}.seconds").observe(sp.duration)
        self._emit(sp)

    def _finish(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        # Pop through abandoned children (an exception can unwind several
        # spans before the outermost __exit__ runs).
        while self._stack:
            if self._stack.pop() is sp:
                break
        METRICS.histogram(f"span.{sp.name}.seconds").observe(sp.duration)
        self._emit(sp)

    def _emit(self, sp: Span) -> None:
        """Hand ``sp`` to the sink.  A sink that raises (a full disk)
        never takes the caller down: the span is dropped and counted,
        and the first failure is logged."""
        try:
            self.sink.emit_span(sp)
        except Exception:  # noqa: BLE001 - drop, count, keep running
            METRICS.counter("telemetry.dropped").inc()
            if not self._sink_failed:
                self._sink_failed = True
                _log.warning("telemetry sink failed; dropping spans",
                             exc_info=True)


_enabled = False
_tracer = Tracer(NullSink())


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return _enabled


def span(name: str, **attributes: Any):
    """Open a span (no-op context manager while telemetry is disabled)."""
    if not _enabled:
        return _NOOP
    return _tracer.start_span(name, attributes)


def event(name: str, **attributes: Any) -> None:
    """Emit an instantaneous span (dropped while disabled)."""
    if _enabled:
        _tracer.event(name, attributes)


def current_span() -> Span | None:
    """The innermost open span, or ``None``."""
    return _tracer.current() if _enabled else None


def get_tracer() -> Tracer:
    """The process tracer (its sink changes via :func:`configure`)."""
    return _tracer


def configure(sink: Sink | None = None, *, enabled: bool = True) -> Tracer:
    """Enable (or re-point) telemetry; returns the active tracer.

    Passing ``sink=None`` keeps the current sink (useful to re-enable
    after :func:`disable`).  The span stack is reset: configuration is
    a between-runs operation.
    """
    global _enabled, _tracer
    if sink is not None:
        _tracer = Tracer(sink)
    else:
        _tracer = Tracer(_tracer.sink)
    _enabled = bool(enabled)
    return _tracer


def disable() -> None:
    """Stop recording (the configured sink is kept but not fed)."""
    global _enabled
    _enabled = False


def configure_from_env(
    env: str = "REPRO_TELEMETRY", *, spec: str | None = None
) -> bool:
    """Configure from ``$REPRO_TELEMETRY``; returns True if it did.

    Accepted values: ``log`` / ``stderr`` (human-readable stderr
    lines), ``jsonl:PATH`` (append JSON lines to PATH), ``off`` / empty
    (leave disabled).  An explicit ``spec`` (the CLI's ``--telemetry``)
    takes precedence over the environment variable.
    """
    if spec is None:
        spec = os.environ.get(env, "").strip()
    if not spec or spec == "off":
        return False
    if spec in ("log", "stderr"):
        configure(LogSink())
        return True
    if spec.startswith("jsonl:"):
        configure(JsonlSink(spec[len("jsonl:"):]))
        return True
    raise ValueError(
        f"unrecognized {env}={spec!r}; use 'off', 'log', or 'jsonl:PATH'"
    )
