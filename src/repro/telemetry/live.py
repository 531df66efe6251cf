"""Live operational view: rolling-window aggregates and SLO burn.

The metrics registry (:mod:`repro.telemetry.metrics`) accumulates
since process start — the right shape for manifests and the perf
gate, the wrong shape for "is the service healthy *right now*".  This
module adds the time axis: a :class:`LiveAggregator` keeps a ring of
per-second buckets over a sliding window (default 60 s) and computes,
at snapshot time,

- request rate and windowed latency quantiles (p50/p95/p99),
- shed / timeout / error rates and the cache hit rate,
- **SLO error-budget burn**: against a configured objective
  (:class:`SloConfig`: a p95-style latency bound plus an availability
  target), every request in the window is classified good or bad; the
  burn rate is ``bad_fraction / error_budget`` — burn 1.0 spends the
  budget exactly as fast as the objective allows, 10x eats a month of
  budget in three days.

The aggregator is fed per request by the service's micro-batcher
(always on, like the ``service.*`` counters — a handful of dict
updates per request), published by ``GET /debug/vars`` (JSON) and the
``GET /debug/stream`` SSE feed, and rendered in a terminal by
``repro top``.  :func:`replay_jsonl` rebuilds the same aggregates
from a recorded telemetry JSONL file, so the dashboard works on a
post-mortem exactly as it does live.

Everything is deterministic under an injected ``clock`` (tests) and
bounded: the ring holds ``window_s / bucket_s`` buckets, each keeping
at most :data:`LiveAggregator.MAX_SAMPLES_PER_BUCKET` latency samples
(windowed quantiles degrade to a uniform prefix sample under extreme
rates, never to unbounded memory).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "SloConfig",
    "LiveAggregator",
    "replay_jsonl",
    "render_dashboard",
    "sparkline",
]


@dataclass(frozen=True)
class SloConfig:
    """The service-level objective requests are judged against.

    A request is **good** when it was answered 200 within
    ``p95_latency_ms`` (cache hits included — they are real requests).
    ``availability`` is the target good-fraction; its complement is
    the error budget the burn rate is measured against.
    """

    p95_latency_ms: float = 500.0
    availability: float = 0.999

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad-fraction (never zero)."""
        return max(1e-9, 1.0 - self.availability)

    def is_good(self, status: int, latency_ms: float) -> bool:
        return status == 200 and latency_ms <= self.p95_latency_ms

    def to_dict(self) -> dict[str, Any]:
        return {
            "p95_latency_ms": self.p95_latency_ms,
            "availability": self.availability,
            "budget": self.budget,
        }


class _Bucket:
    """One ``bucket_s`` of observations (a slot in the ring)."""

    __slots__ = ("epoch", "count", "by_status", "good", "bad",
                 "cache_hits", "cache_lookups", "latencies")

    def __init__(self) -> None:
        # ``None`` sentinel: a fresh slot matches no real epoch (an
        # integer sentinel like -1 is a *valid* epoch when the clock
        # starts near zero and the window reaches below it).
        self.reset(None)

    def reset(self, epoch: int | None) -> None:
        self.epoch = epoch
        self.count = 0
        self.by_status: dict[int, int] = {}
        self.good = 0
        self.bad = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.latencies: list[float] = []


def _quantiles(samples: Sequence[float]) -> dict[str, float | None]:
    """Nearest-rank p50/p95/p99 (``None`` values when empty)."""
    ordered = sorted(samples)

    def at(q: float) -> float | None:
        if not ordered:
            return None
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
        return round(ordered[rank], 3)

    return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99)}


class LiveAggregator:
    """Sliding-window request aggregates over a ring of second buckets."""

    #: Latency samples kept per bucket; beyond it quantiles are computed
    #: over the bucket's first MAX samples (bounded memory under bursts).
    MAX_SAMPLES_PER_BUCKET = 256

    def __init__(
        self,
        *,
        slo: SloConfig | None = None,
        window_s: float = 60.0,
        bucket_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0 or bucket_s <= 0:
            raise ValueError("window_s and bucket_s must be > 0")
        self.slo = slo or SloConfig()
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self._clock = clock
        self._ring = [_Bucket() for _ in
                      range(max(1, math.ceil(window_s / bucket_s)))]
        self.total = 0  #: requests observed since construction

    # -- feeding -----------------------------------------------------------

    def _bucket_at(self, now: float) -> _Bucket:
        epoch = int(now // self.bucket_s)
        bucket = self._ring[epoch % len(self._ring)]
        if bucket.epoch != epoch:
            bucket.reset(epoch)
        return bucket

    def observe_request(
        self,
        *,
        latency_ms: float,
        status: int,
        cache_hits: int = 0,
        cache_lookups: int = 0,
        now: float | None = None,
    ) -> None:
        """Record one answered request (any status, shed included)."""
        now = self._clock() if now is None else now
        bucket = self._bucket_at(now)
        bucket.count += 1
        self.total += 1
        status = int(status)
        bucket.by_status[status] = bucket.by_status.get(status, 0) + 1
        if self.slo.is_good(status, latency_ms):
            bucket.good += 1
        else:
            bucket.bad += 1
        bucket.cache_hits += cache_hits
        bucket.cache_lookups += cache_lookups
        if status == 200 and len(bucket.latencies) < \
                self.MAX_SAMPLES_PER_BUCKET:
            bucket.latencies.append(float(latency_ms))

    # -- reading -----------------------------------------------------------

    def _live_buckets(self, now: float) -> list[_Bucket]:
        """Ring slots still inside the window, oldest first."""
        newest = int(now // self.bucket_s)
        oldest = newest - len(self._ring) + 1
        out = []
        for epoch in range(oldest, newest + 1):
            bucket = self._ring[epoch % len(self._ring)]
            if bucket.epoch == epoch:
                out.append(bucket)
        return out

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """All windowed aggregates as one JSON-ready dict."""
        now = self._clock() if now is None else now
        buckets = self._live_buckets(now)
        count = sum(b.count for b in buckets)
        by_status: dict[str, int] = {}
        for b in buckets:
            for status, n in b.by_status.items():
                key = str(status)
                by_status[key] = by_status.get(key, 0) + n
        latencies = [v for b in buckets for v in b.latencies]
        good = sum(b.good for b in buckets)
        bad = sum(b.bad for b in buckets)
        hits = sum(b.cache_hits for b in buckets)
        lookups = sum(b.cache_lookups for b in buckets)

        def rate(pred: Callable[[int], bool]) -> float:
            n = sum(v for k, v in by_status.items() if pred(int(k)))
            return round(n / count, 4) if count else 0.0

        bad_rate = (bad / count) if count else 0.0
        burn = bad_rate / self.slo.budget
        return {
            "window_s": self.window_s,
            "count": count,
            "total": self.total,
            "rps": round(count / self.window_s, 3),
            "by_status": dict(sorted(by_status.items())),
            "latency_ms": _quantiles(latencies),
            "rates": {
                "shed": rate(lambda s: s in (429, 503)),
                "timeout": rate(lambda s: s == 504),
                "error": rate(lambda s: s == 0
                              or (500 <= s < 600 and s not in (503, 504))),
                "cache_hit": round(hits / lookups, 4) if lookups else 0.0,
            },
            "slo": {
                **self.slo.to_dict(),
                "good": good,
                "bad": bad,
                "bad_rate": round(bad_rate, 6),
                "burn_rate": round(burn, 3),
                "healthy": burn <= 1.0,
            },
            "per_bucket": [b.count for b in buckets],
        }


def replay_jsonl(path, *, slo: SloConfig | None = None) -> dict[str, Any]:
    """Rebuild live aggregates from a recorded telemetry JSONL file.

    Reads the ``service.request`` spans a traced server emitted (their
    attributes carry status / latency / cache counts), replays them
    into a :class:`LiveAggregator` whose window covers the whole
    recording, and returns the final snapshot — the post-mortem twin
    of ``GET /debug/vars``'s ``live`` section.
    """
    from .export import spans_from_jsonl

    requests = [s for s in spans_from_jsonl(path)
                if s.name == "service.request"]
    if not requests:
        agg = LiveAggregator(slo=slo)
        return agg.snapshot(now=0.0)
    ends = [(s.end if s.end is not None else s.start) for s in requests]
    t0, t1 = min(s.start for s in requests), max(ends)
    window = max(1.0, t1 - t0 + 1.0)
    agg = LiveAggregator(slo=slo, window_s=window,
                         clock=lambda: t1 - t0)
    for s, end in zip(requests, ends):
        attrs = s.attributes
        agg.observe_request(
            latency_ms=float(attrs.get("latency_ms", s.duration * 1e3)),
            status=int(attrs.get("status", 200)),
            cache_hits=int(attrs.get("cache_hits", 0)),
            cache_lookups=int(attrs.get("cache_lookups", 0)),
            now=end - t0,
        )
    return agg.snapshot()


# -- terminal rendering ------------------------------------------------------

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, width: int = 60) -> str:
    """A unicode block sparkline, newest value rightmost."""
    values = list(values)[-width:]
    if not values:
        return ""
    top = max(values) or 1.0
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int(v / top * (len(_SPARK) - 1) + 0.5))]
        for v in values
    )


def _bar(fraction: float, *, width: int = 24) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(fraction * width + 0.5)
    return "█" * filled + "·" * (width - filled)


def _fmt_ms(value: float | None) -> str:
    return "    --" if value is None else f"{value:8.1f}ms"


def render_dashboard(vars_doc: Mapping[str, Any], *,
                     title: str = "repro top") -> str:
    """Render one ``/debug/vars`` document as a fixed-width dashboard.

    Pure string-in/string-out (testable, replayable); ``repro top``
    wraps it in a clear-screen poll loop.
    """
    live = vars_doc.get("live", vars_doc)
    slo = live.get("slo", {})
    rates = live.get("rates", {})
    lat = live.get("latency_ms", {})
    totals = vars_doc.get("totals", {})
    uptime = vars_doc.get("uptime_s")
    burn = float(slo.get("burn_rate", 0.0))
    lines = [
        f"{title} — window {live.get('window_s', 0):g}s"
        + (f", uptime {uptime:.0f}s" if uptime is not None else ""),
        "",
        f"  requests  {live.get('count', 0):>7}  ({live.get('rps', 0):g}/s)"
        f"   total {live.get('total', totals.get('served', 0)):>8}",
        f"  activity  {sparkline(live.get('per_bucket', []))}",
        "",
        f"  latency   p50 {_fmt_ms(lat.get('p50'))}"
        f"   p95 {_fmt_ms(lat.get('p95'))}"
        f"   p99 {_fmt_ms(lat.get('p99'))}",
        f"  rates     shed {rates.get('shed', 0.0):6.2%}"
        f"   timeout {rates.get('timeout', 0.0):6.2%}"
        f"   error {rates.get('error', 0.0):6.2%}"
        f"   cache {rates.get('cache_hit', 0.0):6.2%}",
        "",
        f"  SLO       p95 ≤ {slo.get('p95_latency_ms', 0):g}ms @ "
        f"{slo.get('availability', 0):.3%} availability",
        f"  burn      [{_bar(burn)}] {burn:5.2f}x "
        + ("OK" if slo.get("healthy", True) else "BURNING"),
        f"  good/bad  {slo.get('good', 0)}/{slo.get('bad', 0)}"
        f"   budget {slo.get('budget', 0.0):g}",
    ]
    service = vars_doc.get("service")
    if service:
        lines += [
            "",
            f"  queue     depth {service.get('queue_depth', 0)}"
            f"   inflight {service.get('inflight_bytes', 0)}B"
            f"   draining {service.get('draining', False)}",
        ]
    if totals:
        lines += [
            f"  totals    served {totals.get('served', 0)}"
            f"   batches {totals.get('batches', 0)}"
            f"   degraded {totals.get('degraded', 0)}",
        ]
    return "\n".join(lines) + "\n"
