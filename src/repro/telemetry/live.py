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
updates per request) and published by ``GET /debug/vars`` (JSON).

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
from typing import Any, Callable, Sequence

from .metrics import nearest_rank

__all__ = ["SloConfig", "LiveAggregator"]


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
        value = nearest_rank(ordered, q)
        return None if value is None else round(value, 3)

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

