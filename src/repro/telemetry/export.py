"""Standard-format exporters: Chrome Trace Event JSON and Prometheus.

Two interchange formats on top of the in-process telemetry:

- **Chrome Trace Event JSON** (``chrome://tracing`` / Perfetto):
  :func:`chrome_trace_events` renders a captured span tree as complete
  (``"ph": "X"``) events — one track (``tid``) per nesting level, so
  the phase structure reads as a flame chart — and
  :func:`machine_trace_events` renders an instruction-level PRAM
  memory trace as one track per processor with per-step read/write
  slices and merged idle slices (Lemma 7's pipelined diagonal is
  directly visible in Perfetto).  :func:`write_chrome_trace` wraps
  any event collection in the JSON object container format.

- **Prometheus text exposition**: :func:`prometheus_exposition`
  renders the :class:`~repro.telemetry.metrics.MetricsRegistry` in the
  text format scrapers ingest — counters as ``*_total``, gauges as-is,
  histograms as summaries with ``quantile`` labels (p50/p95/p99) plus
  ``_sum``/``_count``.

Timestamps in trace events are microseconds (the Trace Event schema's
unit), relative to the earliest span so traces from different runs
align at zero.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from .metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from .sinks import json_default, read_jsonl
from .spans import Span

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..pram.machine import MachineReport

__all__ = [
    "chrome_trace_events",
    "machine_trace_events",
    "resource_counter_events",
    "write_chrome_trace",
    "prometheus_exposition",
    "spans_from_jsonl",
    "request_trace_ids",
    "request_trace_spans",
    "request_trace_events",
]


def _jsonable(value: Any) -> Any:
    """Coerce one attribute value into a JSON-native type."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return json_default(value)


# -- Chrome Trace Event JSON ------------------------------------------------

#: ``pid`` of the span-tree tracks in exported traces.
SPAN_PID = 1
#: ``pid`` of the PRAM machine tracks in exported traces.
MACHINE_PID = 2


def chrome_trace_events(
    spans: Sequence[Span],
    *,
    pid: int = SPAN_PID,
    origin: float | None = None,
) -> list[dict[str, Any]]:
    """Render captured spans as Trace Event dicts (one track per depth).

    Spans with a duration become complete events (``"ph": "X"``);
    zero-duration spans (:func:`repro.telemetry.event`) become instant
    events (``"ph": "i"``).  ``tid`` is the span's nesting depth, so
    ``chrome://tracing`` lays the tree out as a flame chart.  ``args``
    carries the span's attributes, status, and ids.

    ``origin`` overrides the timestamp zero (default: earliest span
    start), letting span and machine tracks share one timeline.
    """
    spans = [s for s in spans if s.end is not None]
    if not spans:
        return []
    if origin is None:
        origin = min(s.start for s in spans)
    by_id = {s.span_id: s for s in spans}

    def depth_of(s: Span) -> int:
        d = 0
        cur = s
        while cur.parent_id is not None and cur.parent_id in by_id:
            cur = by_id[cur.parent_id]
            d += 1
        return d

    events: list[dict[str, Any]] = []
    max_depth = 0
    for s in sorted(spans, key=lambda s: (s.start, s.span_id)):
        depth = depth_of(s)
        max_depth = max(max_depth, depth)
        args = {
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "status": s.status,
        }
        if getattr(s, "trace_id", None) is not None:
            args["trace_id"] = s.trace_id
        args.update({k: _jsonable(v) for k, v in s.attributes.items()})
        base = {
            "name": s.name,
            "cat": "span",
            "ts": round((s.start - origin) * 1e6, 3),
            "pid": pid,
            "tid": depth,
            "args": args,
        }
        if s.duration == 0.0:
            events.append({**base, "ph": "i", "s": "t"})
        else:
            events.append({
                **base, "ph": "X", "dur": round(s.duration * 1e6, 3),
            })
    events.append(_meta("process_name", pid, 0, name="repro spans"))
    for depth in range(max_depth + 1):
        events.append(_meta("thread_name", pid, depth,
                            name=f"span depth {depth}"))
    return events


def machine_trace_events(
    report: "MachineReport",
    *,
    pid: int = MACHINE_PID,
    max_procs: int = 64,
    step_range: tuple[int, int] | None = None,
    max_steps: int | None = None,
    step_us: float = 1.0,
) -> list[dict[str, Any]]:
    """Render a PRAM memory trace as one Trace Event track per processor.

    Each traced step becomes a ``step_us``-wide slice on the issuing
    processor's track — ``read`` / ``write`` slices carry the address
    (and written value) in ``args``; runs of consecutive idle steps
    merge into single ``idle`` slices so the schedule's pipeline
    bubbles stay visible without bloating the file.  Windowing
    (``step_range`` / ``max_steps``) matches the
    :mod:`repro.pram.trace` renderers.
    """
    from ..pram.trace import select_steps

    steps = select_steps(report, step_range=step_range, max_steps=max_steps)
    nproc = min(report.nprocs, max_procs)
    events: list[dict[str, Any]] = [
        _meta("process_name", pid, 0, name="pram machine"),
    ]
    for proc in range(nproc):
        events.append(_meta("thread_name", pid, proc, name=f"P{proc}"))
    for proc in range(nproc):
        idle_from: int | None = None

        def flush_idle(upto: int) -> None:
            nonlocal idle_from
            if idle_from is None:
                return
            events.append({
                "name": "idle",
                "cat": "pram",
                "ph": "X",
                "ts": round(idle_from * step_us, 3),
                "dur": round((upto - idle_from) * step_us, 3),
                "pid": pid,
                "tid": proc,
                "args": {},
            })
            idle_from = None

        for idx, t in enumerate(steps):
            if proc in t.writes:
                flush_idle(idx)
                addr, value = t.writes[proc]
                events.append({
                    "name": "write", "cat": "pram", "ph": "X",
                    "ts": round(idx * step_us, 3),
                    "dur": round(step_us, 3),
                    "pid": pid, "tid": proc,
                    "args": {"step": t.step, "addr": addr, "value": value},
                })
            elif proc in t.reads:
                flush_idle(idx)
                events.append({
                    "name": "read", "cat": "pram", "ph": "X",
                    "ts": round(idx * step_us, 3),
                    "dur": round(step_us, 3),
                    "pid": pid, "tid": proc,
                    "args": {"step": t.step, "addr": t.reads[proc]},
                })
            elif idle_from is None:
                idle_from = idx
        flush_idle(len(steps))
    if report.nprocs > nproc:
        events.append(_meta(
            "process_labels", pid, 0,
            labels=f"{report.nprocs - nproc} more processors clipped"))
    return events


def _meta(event_name: str, pid: int, tid: int, **args: Any) -> dict[str, Any]:
    return {"name": event_name, "ph": "M", "pid": pid, "tid": tid,
            "args": args}


def resource_counter_events(
    spans: Sequence[Span],
    *,
    pid: int = SPAN_PID,
    origin: float | None = None,
) -> list[dict[str, Any]]:
    """Counter tracks (``"ph": "C"``) from resource span attributes.

    Two tracks ride alongside the flame chart when resource accounting
    was on (:mod:`repro.telemetry.resources`):

    - ``phase alloc (B)`` — each span carrying ``alloc_net_b`` /
      ``alloc_peak_b`` plots its net and peak allocation at the span's
      end time;
    - ``shard bytes (cumulative)`` — running submit / result /
      span-replay byte totals over the ``shard.<i>`` spans, stepping up
      as each hop completes.

    Returns ``[]`` when no span carries resource attributes, so the
    tracks appear only in traces recorded with accounting enabled.
    Use the same ``origin`` as :func:`chrome_trace_events` to align
    the counter samples with the span timeline.
    """
    spans = [s for s in spans if s.end is not None]
    if not spans:
        return []
    if origin is None:
        origin = min(s.start for s in spans)
    events: list[dict[str, Any]] = []
    cum_out = cum_in = cum_replay = 0
    for s in sorted(spans, key=lambda s: (s.end, s.span_id)):
        ts = round((s.end - origin) * 1e6, 3)
        attrs = s.attributes
        if "alloc_net_b" in attrs or "alloc_peak_b" in attrs:
            events.append({
                "name": "phase alloc (B)", "cat": "resource", "ph": "C",
                "ts": ts, "pid": pid, "tid": 0,
                "args": {"net": int(attrs.get("alloc_net_b") or 0),
                         "peak": int(attrs.get("alloc_peak_b") or 0)},
            })
        if "bytes_out" in attrs or "bytes_in" in attrs:
            cum_out += int(attrs.get("bytes_out") or 0)
            cum_in += int(attrs.get("bytes_in") or 0)
            cum_replay += int(attrs.get("span_replay_b") or 0)
            events.append({
                "name": "shard bytes (cumulative)", "cat": "resource",
                "ph": "C", "ts": ts, "pid": pid, "tid": 0,
                "args": {"out": cum_out, "in": cum_in,
                         "span_replay": cum_replay},
            })
    return events


def write_chrome_trace(
    path,
    events: Iterable[dict[str, Any]],
    *,
    metadata: Mapping[str, Any] | None = None,
) -> Path:
    """Write events in the JSON *object* container format.

    The container (``{"traceEvents": [...], ...}``) is what
    ``chrome://tracing`` and Perfetto both accept; ``metadata`` lands
    in ``otherData``.
    """
    from .._buildinfo import build_info

    payload = {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
        "otherData": {**build_info(), **(metadata or {})},
    }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(payload, default=json_default) + "\n",
                 encoding="utf-8")
    return p


# -- Per-request trace reconstruction ---------------------------------------
#
# The service emits, per request, one root ``service.request`` span
# tagged with the request's trace id; the micro-batcher's fused
# ``service.batch`` span carries the trace ids of every member request
# in a ``links`` attribute (one batch serves many requests, so simple
# parentage cannot express the relation); and the sharded executor's
# ``shard.<i>`` spans (plus the worker spans replayed under them) hang
# off the batch span through ordinary parent ids.  These helpers re-cut
# that shared span soup into one renderable tree per request.


def _span_from_dict(data: Mapping[str, Any]) -> Span:
    sp = Span(
        data["name"], int(data["span_id"]),
        data.get("parent_id"), float(data["start"]),
        dict(data.get("attributes", {})), tracer=None,
        trace_id=data.get("trace_id"),
    )
    sp.end = sp.start + float(data.get("duration_s", 0.0))
    sp.status = data.get("status", "ok")
    return sp


def spans_from_jsonl(path) -> list[Span]:
    """Load ``{"type": "span", ...}`` lines from a JsonlSink file.

    Lines of other types (run records sharing the file) are skipped;
    malformed lines (a truncated tail from a killed writer, a
    non-object, a span line missing a field) are skipped with a
    :class:`RuntimeWarning`, as :func:`~repro.telemetry.sinks.read_jsonl`
    describes.
    """
    return read_jsonl(path, "span", _span_from_dict)


def _span_links(span: Span) -> tuple[str, ...]:
    links = span.attributes.get("links")
    if isinstance(links, (list, tuple)):
        return tuple(str(l) for l in links)
    return ()


def request_trace_ids(spans: Sequence[Span]) -> list[str]:
    """Trace ids that have a root span, in first-seen (ingress) order."""
    seen: list[str] = []
    for s in spans:
        tid = getattr(s, "trace_id", None)
        if tid and s.parent_id is None and tid not in seen:
            seen.append(tid)
    return seen


def request_trace_spans(
    spans: Sequence[Span], trace_id: str,
) -> list[Span]:
    """One request's span tree, re-parented and ready to export.

    Selects the request's own spans (``trace_id`` match), every span
    that *links* to the request (the fused batch span), and all their
    descendants (shard spans, replayed worker spans).  Linked spans are
    re-parented under the request's root span, so the result renders as
    a single tree; spans shared with co-batched requests appear in each
    linked request's tree.  Returns copies — the originals keep their
    shared parentage.
    """
    by_id = {s.span_id: s for s in spans}
    # A span that *links* to the request (the fused batch span, tagged
    # with its first member's trace id) is shared work, never the root.
    roots = [s for s in spans
             if getattr(s, "trace_id", None) == trace_id
             and trace_id not in _span_links(s)
             and (s.parent_id is None or s.parent_id not in by_id)]
    own = [s for s in spans if getattr(s, "trace_id", None) == trace_id]
    linked = [s for s in spans if trace_id in _span_links(s)]
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)

    picked: dict[int, Span] = {}

    def take(s: Span) -> None:
        if s.span_id in picked:
            return
        picked[s.span_id] = s
        for child in children.get(s.span_id, ()):
            take(child)

    for s in own + linked:
        take(s)
    if not picked:
        return []
    root_id = roots[0].span_id if roots else None
    out: list[Span] = []
    for s in sorted(picked.values(), key=lambda s: (s.start, s.span_id)):
        copy = Span(s.name, s.span_id, s.parent_id, s.start,
                    dict(s.attributes), tracer=None,
                    trace_id=getattr(s, "trace_id", None))
        copy.end = s.end
        copy.status = s.status
        # Re-parent: linked spans (and any picked span whose parent was
        # not picked) hang off the request root.
        if copy.span_id != root_id and (
                trace_id in _span_links(s)
                or copy.parent_id not in picked):
            copy.parent_id = root_id
        out.append(copy)
    return out


def request_trace_events(
    spans: Sequence[Span], trace_id: str, *, pid: int = SPAN_PID,
) -> list[dict[str, Any]]:
    """Chrome Trace events for one request's reconstructed tree."""
    tree = request_trace_spans(spans, trace_id)
    events = chrome_trace_events(tree, pid=pid)
    # Rename the track: this is one request, not the whole process.
    for e in events:
        if e.get("ph") == "M" and e["name"] == "process_name":
            e["args"]["name"] = f"request {trace_id}"
    return events


# -- Prometheus text exposition ---------------------------------------------
#
# The 0.0.4 text format has a real grammar: metric names match
# ``[a-zA-Z_:][a-zA-Z0-9_:]*``, label names ``[a-zA-Z_][a-zA-Z0-9_]*``,
# label values are double-quoted with ``\\``, ``\"``, and ``\n``
# escapes, and HELP text escapes ``\\`` and newlines.  Metric and span
# names here come from arbitrary code (span names become
# ``span.<name>.seconds`` histograms), so everything is sanitized —
# a hostile span name must never produce an unparseable exposition.

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    out = prefix + _NAME_RE.sub("_", name)
    if not out:
        return "_"
    if out[0].isdigit():
        out = "_" + out
    return out


def _prom_label_name(name: str) -> str:
    """Sanitize a label name (no colons, cannot start ``__``)."""
    out = _LABEL_NAME_RE.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    while out.startswith("__"):  # reserved for internal use
        out = out[1:]
    return out or "_"


def _prom_label_value(value: Any) -> str:
    """Escape a label value per the 0.0.4 grammar."""
    return (str(value)
            .replace("\\", r"\\")
            .replace('"', r"\"")
            .replace("\n", r"\n"))


def _prom_help(text: str) -> str:
    """Escape HELP text (backslash and newline only, per the spec)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _prom_counter_name(name: str, prefix: str, unit: str) -> str:
    """Counter name under the ``<base>[_<unit>]_total`` convention.

    The unit token is appended only when the sanitized name does not
    already contain it (``parallel.bytes_out`` keeps its shape, while
    ``requests`` + unit ``bytes`` becomes ``requests_bytes``), and
    ``_total`` is never doubled — a hostile counter literally named
    ``x_total`` exports as ``..._x_total``, not ``..._x_total_total``.
    """
    base = _prom_name(name, prefix)
    if base.endswith("_total"):
        base = base[:-len("_total")]
    if unit:
        unit = _NAME_RE.sub("_", unit)
        if unit and not re.search(rf"(^|_){re.escape(unit)}(_|$)", base):
            base += "_" + unit
    return base + "_total"


def _prom_labels(labels: Mapping[str, Any] | None,
                 extra: tuple[tuple[str, Any], ...] = ()) -> str:
    """Render a ``{name="value",...}`` block (empty string if none)."""
    pairs = [(k, v) for k, v in (labels or {}).items()]
    pairs += list(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{_prom_label_name(k)}="{_prom_label_value(v)}"'
        for k, v in pairs
    )
    return "{" + body + "}"


def _prom_value(value: Any) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_exposition(
    registry: MetricsRegistry = METRICS,
    *,
    prefix: str = "repro_",
    labels: Mapping[str, Any] | None = None,
) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters are exported as ``<name>_total``, gauges as-is (unset
    gauges are skipped — Prometheus has no "never written" value),
    histograms as summaries: ``quantile`` labels for p50/p95/p99 plus
    ``_sum`` and ``_count`` children.  Metric names are sanitized to
    the ``[a-zA-Z_:][a-zA-Z0-9_:]*`` grammar, HELP text and label
    values are escaped, and ``labels`` (e.g. an instance tag) are
    attached — escaped — to every sample line.
    """
    lines: list[str] = []
    lbl = lambda *extra: _prom_labels(labels, tuple(extra))  # noqa: E731
    for name, metric in registry.items():
        if isinstance(metric, Counter):
            unit = getattr(metric, "unit", "")
            base = _prom_counter_name(name, prefix, unit)
            help_text = f"repro counter {_prom_help(name)}"
            if unit:
                help_text += f" (unit: {_prom_help(unit)})"
            lines.append(f"# HELP {base} {help_text}")
            lines.append(f"# TYPE {base} counter")
            lines.append(f"{base}{lbl()} {_prom_value(metric.value)}")
        elif isinstance(metric, Gauge):
            if metric.value is None:
                continue
            base = _prom_name(name, prefix)
            lines.append(f"# HELP {base} repro gauge {_prom_help(name)}")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base}{lbl()} {_prom_value(metric.value)}")
        elif isinstance(metric, Histogram):
            base = _prom_name(name, prefix)
            lines.append(f"# HELP {base} repro summary {_prom_help(name)}")
            lines.append(f"# TYPE {base} summary")
            for label, q in (("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)):
                value = metric.quantile(q)
                if value is not None:
                    lines.append(
                        f"{base}{lbl(('quantile', label))} "
                        f"{_prom_value(value)}")
            lines.append(f"{base}_sum{lbl()} {_prom_value(metric.total)}")
            lines.append(f"{base}_count{lbl()} {_prom_value(metric.count)}")
    return "\n".join(lines) + ("\n" if lines else "")

