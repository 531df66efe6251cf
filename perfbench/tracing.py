"""The benchmark's own spans, self times and summary statistics.

A span is ``(op, name, start, end, parent)``: ``op`` is the id shared by
every span of one operation, ``parent`` the index of the enclosing span
(``None`` for the op's root).  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the part of
its interval that its children cover.
"""

from __future__ import annotations

import json
import statistics
from typing import Iterable


class SpanLog:
    """In-memory span store for one run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, op: int, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        self.spans.append((op, name, start, end, parent))
        return len(self.spans) - 1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "op": op, "name": name, "start": start,
                    "end": end, "parent": parent}) + "\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each ``(name, start, end, parent)`` span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [end - start - covered(children.get(i, ()), start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def layer_times(spans: list[tuple], layer_of: dict[str, str]) -> dict:
    """Self time per layer of one op's spans, plus the unattributed rest.

    ``spans`` are ``(name, start, end, parent)`` with the op's root
    first; ``layer_of`` maps span names to layer metric names.  Spans of
    unmapped names count as unattributed.  Returns seconds per layer
    and ``"unattributed"``.
    """
    out: dict[str, float] = {}
    rest = 0.0
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = layer_of.get(name)
        if layer is None:
            rest += own
        else:
            out[layer] = out.get(layer, 0.0) + own
    out["unattributed"] = rest
    return out


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation; 0.0 if empty."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def median(values) -> float:
    vals = list(values)
    return statistics.median(vals) if vals else 0.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
