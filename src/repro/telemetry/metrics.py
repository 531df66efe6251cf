"""Process-local metrics: counters, gauges, and summary histograms.

The registry is a flat name -> metric map shared by the whole process
(one per interpreter, like the tracer).  Instrumented code holds no
metric objects of its own; it asks the registry by name, so a metric
exists exactly when something incremented it and ``snapshot()`` shows
only what actually ran.

Histograms keep summary statistics (count / total / min / max) plus a
*bounded* sample reservoir for quantiles (p50/p95/p99): enough for
"wall-clock per phase" and "batch sizes" without unbounded memory.
The reservoir is deterministic — replacement uses a per-histogram
seeded PRNG — so snapshots of identical observation sequences are
identical.  Everything here is deliberately dependency-free and
cheap; the *zero*-overhead guarantee for disabled telemetry lives in
:mod:`repro.telemetry.spans` (instrumented call sites check the global
enabled flag before touching the registry).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "METRICS",
           "nearest_rank"]


def nearest_rank(ordered: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q`` quantile of sorted values (``None`` if empty)."""
    if not ordered:
        return None
    rank = int(q * len(ordered) + 0.5) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


class Counter:
    """Monotonically increasing count (runs, steps, faults, ...).

    ``unit`` is an optional measurement unit ("bytes", "seconds");
    the Prometheus exporter uses it to enforce the
    ``<name>_<unit>_total`` naming convention and to annotate the
    ``# HELP`` line.
    """

    __slots__ = ("name", "value", "unit")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.value = 0
        self.unit = unit

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"type": "counter", "value": self.value}
        if self.unit:
            d["unit"] = self.unit
        return d


class Gauge:
    """Last-written value (current ladder rung, live processors, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float | None = None

    def set(self, value: int | float) -> None:
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Summary statistics + bounded quantile reservoir of a distribution.

    Up to :data:`SAMPLE_CAP` observations are kept verbatim (quantiles
    are then exact); beyond that, classic reservoir sampling with a
    per-histogram seeded PRNG keeps a uniform — and deterministic —
    sample of everything seen.
    """

    #: Reservoir size: quantiles are exact up to this many observations.
    SAMPLE_CAP = 2048

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "_samples", "_rng")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._samples: list[float] = []
        self._rng = random.Random(0)

    def observe(self, value: int | float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        if len(self._samples) < self.SAMPLE_CAP:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.SAMPLE_CAP:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile over the reservoir (``None`` if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return nearest_rank(sorted(self._samples), q)

    def quantiles(self) -> dict[str, float | None]:
        """The standard p50/p95/p99 summary (``None`` values if empty)."""
        ordered = sorted(self._samples)
        return {"p50": nearest_rank(ordered, 0.50),
                "p95": nearest_rank(ordered, 0.95),
                "p99": nearest_rank(ordered, 0.99)}

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            **self.quantiles(),
        }


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Flat name -> metric registry with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, kind: str):
        metric = self._metrics.get(name)
        cls = _METRIC_TYPES[kind]
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, unit: str = "") -> Counter:
        c = self._get(name, "counter")
        if unit and not c.unit:
            c.unit = unit
        return c

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram")

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All metrics as plain JSON-ready dicts, sorted by name."""
        return {
            name: self._metrics[name].to_dict()
            for name in sorted(self._metrics)
        }

    def items(self) -> list[tuple[str, Any]]:
        """``(name, metric)`` pairs sorted by name (exporter access)."""
        return [(name, self._metrics[name]) for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every metric (tests and fresh capture windows)."""
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: object) -> bool:
        return name in self._metrics


#: The process-wide registry all instrumented code reports into.
METRICS = MetricsRegistry()
