"""Unified telemetry: spans, metrics, sinks, and persisted run records.

Every layer of the system reports into this package:

- :func:`repro.maximal_matching` opens a ``maximal_matching`` span and
  bumps the run/step/work counters;
- the cost model (:mod:`repro.pram.cost`) opens a ``phase.<name>``
  span per algorithm phase, so both the reference tier and the numpy
  engine emit their phase structure (and wall-clock per phase) with no
  per-backend plumbing;
- the PRAM machine's lockstep loop emits ``pram.run`` spans and
  step/fault counters; checkpoint recovery counts rollbacks;
- the resilience ladder emits one ``resilience.attempt`` event per
  attempt and a ``resilience.run`` span around the whole call;
- the batch driver records batch sizes.

Telemetry is **disabled by default and free when disabled**: the
instrumented call sites cost one global-flag check.  Enable it with
:func:`configure` (choosing a sink), the ``REPRO_TELEMETRY``
environment variable (``log`` or ``jsonl:PATH``), or the CLI's
``--telemetry`` option.  :func:`capture` is the test-friendly scoped
form.  See ``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .context import (
    TraceContext,
    current_trace,
    derive_trace_id,
    set_trace,
    using_trace,
)
from .live import LiveAggregator, SloConfig
from .metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from .resources import (
    PhaseResource,
    ResourceLedger,
    ResourceReport,
    build_report as build_resource_report,
    configure_resources_from_env,
    ledger_snapshot,
    tracking as track_resources,
)
from .resources import enabled as resources_enabled
from .runrecord import (
    SCHEMA_VERSION,
    RunRecord,
    append_record,
    read_records,
    write_records,
)
from .sinks import InMemorySink, JsonlSink, LogSink, NullSink, Sink
from .spans import (
    Span,
    Tracer,
    configure,
    configure_from_env,
    current_span,
    disable,
    enabled,
    event,
    get_tracer,
    span,
)

# Imported after the core modules: profiling/export/report_html build on
# everything above (and reach into repro.pram lazily, inside functions).
from .export import (  # noqa: E402
    chrome_trace_events,
    machine_trace_events,
    prometheus_exposition,
    resource_counter_events,
    request_trace_events,
    request_trace_ids,
    request_trace_spans,
    spans_from_jsonl,
    write_chrome_trace,
)
from .profiling import (  # noqa: E402
    PhaseProfile,
    ProfileReport,
    ProfiledRun,
    build_profile,
    occupancy_grid,
    profile_matching,
)
from .report_html import diff_records, render_report, write_report  # noqa: E402

__all__ = [
    # spans
    "Span", "Tracer", "span", "event", "enabled", "configure", "disable",
    "configure_from_env", "current_span", "get_tracer", "capture",
    # trace context
    "TraceContext", "derive_trace_id", "current_trace", "set_trace",
    "using_trace",
    # live view
    "LiveAggregator", "SloConfig",
    # metrics
    "METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    # resources
    "PhaseResource", "ResourceLedger", "ResourceReport",
    "build_resource_report", "configure_resources_from_env",
    "ledger_snapshot", "track_resources", "resources_enabled",
    # sinks
    "Sink", "NullSink", "InMemorySink", "JsonlSink", "LogSink",
    # run records
    "SCHEMA_VERSION", "RunRecord", "append_record", "write_records",
    "read_records",
    # profiler
    "PhaseProfile", "ProfileReport", "ProfiledRun", "build_profile",
    "occupancy_grid", "profile_matching",
    # exporters
    "chrome_trace_events", "machine_trace_events",
    "resource_counter_events", "write_chrome_trace",
    "prometheus_exposition", "spans_from_jsonl",
    "request_trace_ids", "request_trace_spans", "request_trace_events",
    # HTML report
    "render_report", "write_report", "diff_records",
]


@contextmanager
def capture(*, reset_metrics: bool = True) -> Iterator[InMemorySink]:
    """Record telemetry into a fresh in-memory sink for one block.

    Enables telemetry for the duration, restoring the previous
    enabled/sink state afterwards.  With ``reset_metrics`` (default)
    the global registry is cleared on entry so the block observes only
    its own metrics.

    >>> import repro, repro.telemetry as telemetry
    >>> with telemetry.capture() as sink:
    ...     _ = repro.maximal_matching(repro.random_list(64, rng=0))
    >>> "maximal_matching" in sink.span_names()
    True
    """
    from . import spans as _spans

    prev_enabled = _spans._enabled
    prev_tracer = _spans._tracer
    sink = InMemorySink()
    if reset_metrics:
        METRICS.reset()
    configure(sink)
    try:
        yield sink
    finally:
        _spans._enabled = prev_enabled
        _spans._tracer = prev_tracer
