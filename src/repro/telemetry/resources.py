"""Resource accounting: allocations, serialized bytes, and bandwidth.

The telemetry stack (spans, metrics, run records) prices *time* —
wall-clock per phase, Brent steps per run.  This module prices **data
movement**, the other axis the paper's cost accounting (and the
communication-volume bounds of the related work) care about:

- **Per-phase allocations** — a scoped :mod:`tracemalloc` integration:
  every cost-model phase (``phase.<name>`` span) records the *net*
  allocation delta and the *peak* high-water mark inside the phase,
  attached to the phase span as ``alloc_net_b`` / ``alloc_peak_b``.
  Nested phases propagate their peaks outward, so an outer phase's
  peak is never smaller than a peak reached inside a child.
- **The serialization byte ledger** — the parallel tier counts the
  exact serialized payload bytes of every shard hop: submit bytes
  (each list's ``NEXT`` array as ``int64`` raw bytes, ``n * 8`` per
  list), result bytes (each matching's tail array, ``matched * 8``),
  and the pickled size of the replayed worker span dicts.  The shard
  spans carry them as attributes, ``/metrics`` as the
  ``repro_parallel_bytes_*_total`` counters, and perfbench reads them
  as its ``parallel.bytes_out`` / ``parallel.bytes_in`` layers.
- **Per-phase bandwidth estimates** — bytes touched divided by the
  phase span's wall-clock, under the documented bytes-touched model
  below.

**Disabled by default and cheap when disabled**: instrumented sites
(the cost model's phase hook, the sharded executor) perform one
module-flag check.  Enable with :func:`enable`, the scoped
:func:`tracking` context manager, the ``REPRO_RESOURCES`` environment
variable (``ledger`` for byte accounting only, ``full`` to add
tracemalloc), or ``repro profile --memory``.  ``tracemalloc`` itself
is expensive (every allocation is traced), which is why the ledger
mode exists separately: byte accounting adds a few integer adds per
shard hop and may stay on in production.

**The bytes-touched model.**  One Brent work unit is one active
processor executing one pointer operation of the paper's per-round
array sweeps.  The reference tier stores everything as ``int64``: one
read plus one write per unit, 16 bytes.  The numpy engine reads
``int64`` pointers but writes ``int8`` labels in its sweep rounds:
8 + 1 = 9 bytes per unit.  The model is an *estimate* of traffic, not
a measurement — its purpose is to rank phases and spot
bandwidth-bound ones, and it is recorded alongside every report so a
future model change is visible in the data.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from .metrics import METRICS

__all__ = [
    "PhaseResource",
    "ResourceLedger",
    "ResourceReport",
    "BYTES_PER_WORK",
    "DEFAULT_BYTES_PER_WORK",
    "bytes_per_work",
    "enabled",
    "memory_tracking",
    "enable",
    "disable",
    "reset",
    "configure_resources_from_env",
    "tracking",
    "phase_begin",
    "phase_end",
    "account_shard",
    "ledger_snapshot",
    "build_report",
]

#: Estimated bytes touched per Brent work unit, per backend (see the
#: module docstring for the derivation).  Unknown backends use the
#: conservative reference-tier figure.
BYTES_PER_WORK = {
    "reference": 16,  # int64 read + int64 write per pointer op
    "numpy": 9,       # int64 gather read + int8 label write
}
DEFAULT_BYTES_PER_WORK = 16

#: Name recorded with every report so model revisions are visible.
BYTES_TOUCHED_MODEL = "array-sweep-rw-v1"


def bytes_per_work(backend: str | None) -> int:
    """The model's bytes-per-work-unit figure for ``backend``."""
    return BYTES_PER_WORK.get(backend or "", DEFAULT_BYTES_PER_WORK)


@dataclass(frozen=True)
class PhaseResource:
    """Resource account of one phase (or measured block).

    ``alloc_net_b`` / ``alloc_peak_b`` are ``None`` when memory
    tracking was off (ledger-only mode); net may be negative (the
    phase freed more than it allocated), peak never is.
    """

    name: str
    time: int
    work: int
    steps: int
    wall_s: float
    alloc_net_b: int | None = None
    alloc_peak_b: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "time": self.time,
            "work": self.work,
            "steps": self.steps,
            "wall_s": self.wall_s,
            "alloc_net_b": self.alloc_net_b,
            "alloc_peak_b": self.alloc_peak_b,
        }


class ResourceLedger:
    """The process-global accumulator instrumented sites report into."""

    __slots__ = ("phases", "bytes_out", "bytes_in", "span_replay_bytes",
                 "shard_hops")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.phases: list[PhaseResource] = []
        self.bytes_out = 0
        self.bytes_in = 0
        self.span_replay_bytes = 0
        self.shard_hops = 0

    def snapshot(self) -> dict[str, Any]:
        """The serialization ledger as a JSON-ready dict."""
        return {
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
            "span_replay_bytes": self.span_replay_bytes,
            "shard_hops": self.shard_hops,
        }


@dataclass(frozen=True)
class ResourceReport:
    """Frozen summary of one run's resource account.

    Embedded in RunRecords (``extra["resources"]``) so the HTML
    report renders the memory/bandwidth panel and
    ``benchmarks/compare.py`` gates ``peak_alloc_b`` regressions.
    ``peak_alloc_b`` is the maximum per-phase peak (``None`` without
    memory tracking).
    """

    backend: str | None
    bytes_per_work: int
    phases: tuple[PhaseResource, ...]
    bytes_out: int
    bytes_in: int
    span_replay_bytes: int
    shard_hops: int
    peak_alloc_b: int | None

    def to_dict(self) -> dict[str, Any]:
        phases = []
        for ph in self.phases:
            touched = ph.work * self.bytes_per_work
            phases.append({
                **ph.to_dict(),
                "bytes_touched": touched,
                "bandwidth_bps": (touched / ph.wall_s
                                  if ph.wall_s > 0 and touched else None),
            })
        return {
            "backend": self.backend,
            "model": {"name": BYTES_TOUCHED_MODEL,
                      "bytes_per_work": self.bytes_per_work},
            "phases": phases,
            "ledger": {
                "bytes_out": self.bytes_out,
                "bytes_in": self.bytes_in,
                "span_replay_bytes": self.span_replay_bytes,
                "shard_hops": self.shard_hops,
            },
            "peak_alloc_b": self.peak_alloc_b,
        }

    def summary(self) -> str:
        """Human-readable account (what ``repro profile --memory``
        prints)."""
        def b(v: int | None) -> str:
            return "       -" if v is None else f"{v:>8,}"

        lines = ["memory    : per-phase allocations and bandwidth "
                 f"(model {BYTES_TOUCHED_MODEL}, "
                 f"{self.bytes_per_work} B/work)"]
        if self.phases:
            lines.append(
                f"  {'phase':<14} {'net_b':>8} {'peak_b':>8} "
                f"{'touched_b':>10} {'GB/s':>6}")
            for ph in self.phases:
                touched = ph.work * self.bytes_per_work
                bw = (touched / ph.wall_s / 1e9
                      if ph.wall_s > 0 and touched else None)
                lines.append(
                    f"  {ph.name:<14} {b(ph.alloc_net_b)} "
                    f"{b(ph.alloc_peak_b)} {touched:>10,} "
                    f"{'     -' if bw is None else f'{bw:6.2f}'}")
        if self.peak_alloc_b is not None:
            lines.append(f"peak alloc: {self.peak_alloc_b:,} B")
        if self.shard_hops:
            lines.append(
                f"shard hops: {self.shard_hops} "
                f"(out {self.bytes_out:,} B, in {self.bytes_in:,} B, "
                f"span replay {self.span_replay_bytes:,} B)")
        return "\n".join(lines)


class _PhaseToken:
    """Mutable frame for one in-flight measured phase."""

    __slots__ = ("name", "t0", "start_cur", "child_peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.t0 = 0.0
        self.start_cur: int | None = None
        self.child_peak = 0


_enabled = False
_track_memory = False
_started_tracemalloc = False
_ledger = ResourceLedger()
_frames: list[_PhaseToken] = []


def enabled() -> bool:
    """Whether resource accounting is currently on."""
    return _enabled


def memory_tracking() -> bool:
    """Whether per-phase tracemalloc accounting is on."""
    return _enabled and _track_memory


def enable(*, memory: bool = True) -> None:
    """Turn resource accounting on (``memory=False``: ledger only).

    With ``memory``, starts :mod:`tracemalloc` unless something else
    already did; :func:`disable` stops it only if this call started it.
    """
    global _enabled, _track_memory, _started_tracemalloc
    _enabled = True
    _track_memory = bool(memory)
    if _track_memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        _started_tracemalloc = True


def disable() -> None:
    """Turn resource accounting off (the ledger's data is kept)."""
    global _enabled, _track_memory, _started_tracemalloc
    _enabled = False
    _track_memory = False
    _frames.clear()
    if _started_tracemalloc:
        tracemalloc.stop()
        _started_tracemalloc = False


def reset() -> None:
    """Clear the accumulated ledger (enabled state unchanged)."""
    _ledger.reset()
    _frames.clear()


def configure_resources_from_env(
    env: str = "REPRO_RESOURCES", *, spec: str | None = None,
) -> bool:
    """Configure from ``$REPRO_RESOURCES``; returns True if it did.

    Accepted values: ``off`` / empty (leave disabled), ``ledger``
    (byte accounting only — cheap enough to keep on), ``full`` /
    ``memory`` / ``on`` / ``1`` (ledger plus per-phase tracemalloc).
    """
    if spec is None:
        spec = os.environ.get(env, "").strip()
    if not spec or spec == "off":
        return False
    if spec == "ledger":
        enable(memory=False)
        return True
    if spec in ("full", "memory", "on", "1"):
        enable(memory=True)
        return True
    raise ValueError(
        f"unrecognized {env}={spec!r}; use 'off', 'ledger', or 'full'"
    )


@contextmanager
def tracking(*, memory: bool = True,
             reset_ledger: bool = True) -> Iterator[ResourceLedger]:
    """Scoped resource accounting (tests, ``repro profile --memory``).

    Enables accounting for the block (resetting the ledger by
    default), restores the previous enabled state afterwards, and
    yields the ledger — still readable after the block exits (build a
    :class:`ResourceReport` with :func:`build_report`).
    """
    prev_enabled, prev_memory = _enabled, _track_memory
    enable(memory=memory)
    if reset_ledger:
        reset()
    try:
        yield _ledger
    finally:
        if prev_enabled:
            enable(memory=prev_memory)
        else:
            disable()


# -- per-phase accounting (hooked by repro.pram.cost.CostModel.phase) -------


def phase_begin(name: str) -> _PhaseToken | None:
    """Open a measured block; ``None`` when accounting is disabled.

    This is the one-flag-check fast path instrumented sites pay while
    the layer is off.
    """
    if not _enabled:
        return None
    tok = _PhaseToken(name)
    if _track_memory and tracemalloc.is_tracing():
        tok.start_cur, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
    _frames.append(tok)
    tok.t0 = time.perf_counter()
    return tok


def phase_end(token: _PhaseToken, ph: Any = None, sp: Any = None) -> None:
    """Close a measured block opened by :func:`phase_begin`.

    ``ph`` is the finished :class:`~repro.pram.cost.PhaseCost` (or
    ``None`` for blocks outside the cost model, e.g. the engine's
    sweep); ``sp`` the phase span to attach ``alloc_net_b`` /
    ``alloc_peak_b`` attributes to (a no-op span is fine).

    Peak semantics under nesting: ``tracemalloc.reset_peak`` is
    per-process, so each block resets it on entry and propagates its
    absolute high-water mark to the enclosing block on exit — an
    outer phase's peak is the max over its own and its children's.
    """
    wall = time.perf_counter() - token.t0
    # Pop through abandoned frames (an exception can unwind nested
    # phases before their phase_end runs).
    while _frames:
        if _frames.pop() is token:
            break
    net = peak = None
    if token.start_cur is not None and tracemalloc.is_tracing():
        cur, hi = tracemalloc.get_traced_memory()
        abs_peak = max(hi, token.child_peak, cur)
        net = cur - token.start_cur
        peak = max(0, abs_peak - token.start_cur)
        tracemalloc.reset_peak()
        if _frames:
            parent = _frames[-1]
            parent.child_peak = max(parent.child_peak, abs_peak)
        if sp is not None:
            sp.set(alloc_net_b=net, alloc_peak_b=peak)
    _ledger.phases.append(PhaseResource(
        name=token.name,
        time=int(ph.time) if ph is not None else 0,
        work=int(ph.work) if ph is not None else 0,
        steps=int(ph.steps) if ph is not None else 0,
        wall_s=wall,
        alloc_net_b=net,
        alloc_peak_b=peak,
    ))


# -- the shard-hop byte ledger (hooked by repro.parallel.executor) ----------


def account_shard(*, bytes_out: int, bytes_in: int,
                  span_replay_bytes: int = 0) -> None:
    """Record one shard hop's exact serialized payload bytes.

    ``bytes_out``: parent→worker submit payload (the raw ``NEXT``
    buffers); ``bytes_in``: worker→parent result payload (the raw
    tail buffers); ``span_replay_bytes``: pickled size of the worker's
    replayed span dicts.  Bumps the ``parallel.bytes_out`` /
    ``parallel.bytes_in`` / ``parallel.span_replay_bytes`` counters
    when telemetry is also enabled (metrics live in telemetry-land).
    """
    if not _enabled:
        return
    _ledger.bytes_out += int(bytes_out)
    _ledger.bytes_in += int(bytes_in)
    _ledger.span_replay_bytes += int(span_replay_bytes)
    _ledger.shard_hops += 1
    from .spans import enabled as telemetry_enabled

    if telemetry_enabled():
        METRICS.counter("parallel.bytes_out", unit="bytes").inc(bytes_out)
        METRICS.counter("parallel.bytes_in", unit="bytes").inc(bytes_in)
        METRICS.counter("parallel.span_replay_bytes",
                        unit="bytes").inc(span_replay_bytes)


# -- reading ----------------------------------------------------------------


def ledger() -> ResourceLedger:
    """The live accumulator (mutable; snapshot before handing out)."""
    return _ledger


def ledger_snapshot() -> dict[str, Any]:
    """The serialization ledger as a JSON-ready dict (service manifest)."""
    return _ledger.snapshot()


def build_report(*, backend: str | None = None) -> ResourceReport:
    """Freeze the accumulated ledger into a :class:`ResourceReport`.

    ``backend`` selects the bytes-touched model figure; phases keep
    their raw Brent work so a re-build under another model is exact.
    """
    peaks = [ph.alloc_peak_b for ph in _ledger.phases
             if ph.alloc_peak_b is not None]
    return ResourceReport(
        backend=backend,
        bytes_per_work=bytes_per_work(backend),
        phases=tuple(_ledger.phases),
        bytes_out=_ledger.bytes_out,
        bytes_in=_ledger.bytes_in,
        span_replay_bytes=_ledger.span_replay_bytes,
        shard_hops=_ledger.shard_hops,
        peak_alloc_b=max(peaks) if peaks else None,
    )
