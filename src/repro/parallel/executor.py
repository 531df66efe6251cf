"""Sharded batch execution across a process pool.

The batch driver's lists are independent by definition, so the batch
splits into contiguous *shards* — one per worker — each matched by the
serial numpy engine inside a worker process.  Everything a task ships
is pickle-cheap raw buffers:

- parent → worker: each list's ``NEXT`` array as ``int64`` bytes (the
  worker rebuilds ``LinkedList`` views without re-validating — the
  parent already did), and the shard's first index in the batch, by
  which the worker's errors name their lists;
- worker → parent: per-list tail arrays as bytes, the shard's
  :class:`~repro.pram.cost.CostReport` (a frozen picklable dataclass),
  and — when the parent has telemetry enabled — the worker's captured
  span tree as plain dicts.

**Determinism.**  Shard boundaries are a pure function of the input
sizes and the worker count (:func:`shard_bounds`), results are
reassembled strictly by shard index, and each worker runs the same
bit-identical serial engine — so the returned matchings equal the
serial batch driver's for every input, regardless of the order in
which workers finish.  The aggregate report is the absorb (in shard
order) of the per-shard lockstep reports.

**Failure.**  Errors raised by the algorithm inside a worker
(:class:`~repro.errors.VerificationError` and friends) propagate to
the caller unchanged.  Pool *infrastructure* failures — a worker
process dying, fork refusal, pickling breakage — instead make
:func:`run_sharded_batch` drop the broken pool, emit a
``parallel.fallback`` telemetry event, and return ``None`` so the
caller reruns serially (the resilience posture: degraded, never
wrong).
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import BrokenExecutor
from typing import Any, Sequence

import numpy as np

from ..errors import InvalidParameterError
from ..lists.linked_list import LinkedList
from ..core.matching import Matching
from ..pram.cost import CostModel, CostReport
from ..telemetry import resources as _resources
from ..telemetry.context import TraceContext, current_trace, using_trace
from ..telemetry.metrics import METRICS
from ..telemetry.spans import (
    Span,
    enabled as telemetry_enabled,
    event as telemetry_event,
    get_tracer,
    span as telemetry_span,
)
from . import pools

__all__ = ["shard_bounds", "run_sharded_batch"]

#: Pool-infrastructure failures that trigger the serial fallback.  An
#: algorithm error raised inside a worker is none of these and
#: propagates unchanged.
POOL_ERRORS = (BrokenExecutor, OSError, pickle.PicklingError)


def shard_bounds(sizes: Sequence[int], num_shards: int,
                 ) -> list[tuple[int, int]]:
    """Contiguous, node-balanced shard ranges over a list of sizes.

    Returns ``[(lo, hi), ...]`` half-open index ranges covering
    ``range(len(sizes))`` in order, at most ``num_shards`` of them,
    each non-empty.  Greedy by cumulative node weight (every list
    charges its node count plus one, so swarms of tiny lists still
    spread): a pure function of ``(sizes, num_shards)``, independent of
    anything runtime.
    """
    if num_shards < 1:
        raise InvalidParameterError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    m = len(sizes)
    k = min(num_shards, m)
    if k == 0:
        return []
    weights = [int(s) + 1 for s in sizes]
    remaining = sum(weights)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for s in range(k):
        shards_left = k - s
        if shards_left == 1:
            hi = m
        else:
            target = remaining / shards_left
            acc = 0
            hi = lo
            max_hi = m - (shards_left - 1)  # leave one list per later shard
            while hi < max_hi:
                acc += weights[hi]
                hi += 1
                if acc >= target:
                    break
            remaining -= acc
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _run_shard_task(payload: tuple) -> tuple:
    """Worker entry: match one shard's lists with the serial engine.

    Must stay a top-level importable function (it is pickled by
    reference).  Returns raw, picklable components only — never
    ``Matching`` objects, which drag the whole list along.
    """
    (shard, first, algorithm, backend, p, kwargs, raw_lists, want_spans,
     trace_id) = payload
    from ..backends.batch import _run_batch
    from ..telemetry import capture, disable

    lls = [
        LinkedList(np.frombuffer(buf, dtype=np.int64), validate=False)
        for buf in raw_lists
    ]
    t0 = time.perf_counter()
    if want_spans:
        # The parent's trace context rides in the payload: spans this
        # worker captures are tagged with the originating request's
        # trace id at creation time (their parentage is fixed on
        # replay, once the parent-side shard span exists).
        ctx = TraceContext(trace_id) if trace_id else None
        with using_trace(ctx), capture(reset_metrics=False) as sink:
            matchings, report = _run_batch(
                lls, algorithm=algorithm, backend=backend, p=p,
                kwargs=kwargs, first=first,
            )
        span_dicts = [sp.to_dict() for sp in sink.spans]
    else:
        # Forked workers inherit whatever telemetry state the parent had
        # at pool creation; silence it so a cached pool never writes to
        # a sink the parent since reconfigured.
        disable()
        matchings, report = _run_batch(
            lls, algorithm=algorithm, backend=backend, p=p, kwargs=kwargs,
            first=first,
        )
        span_dicts = []
    wall = time.perf_counter() - t0
    blobs = [np.ascontiguousarray(m.tails).tobytes() for m in matchings]
    return shard, blobs, report, span_dicts, wall


def _replay_spans(tracer, span_dicts: list[dict[str, Any]], shard: int,
                  parent_id: int, base_start: float,
                  trace_id: str | None = None) -> None:
    """Merge a worker's captured spans into the parent trace.

    Ids are remapped through :meth:`Tracer.next_id` so they never
    collide with locally started spans; the worker's root spans are
    re-parented under the ``shard.<i>`` span; start times are rebased
    so the shard's earliest span aligns with the shard span's start.
    Every replayed span gains a ``shard`` attribute, and keeps the
    trace id it was captured under (falling back to the parent-side
    ``trace_id`` for workers that predate trace propagation).
    """
    if not span_dicts:
        return
    t0 = min(d["start"] for d in span_dicts)
    idmap = {d["span_id"]: tracer.next_id() for d in span_dicts}
    for d in span_dicts:
        attrs = dict(d["attributes"])
        attrs["shard"] = shard
        sp = Span(
            d["name"],
            idmap[d["span_id"]],
            idmap.get(d["parent_id"], parent_id),
            base_start + (d["start"] - t0),
            attrs,
            tracer,
            d.get("trace_id") or trace_id,
        )
        sp.end = sp.start + d["duration_s"]
        sp.status = d["status"]
        tracer.emit_foreign(sp)


def run_sharded_batch(
    lls: Sequence[LinkedList],
    *,
    algorithm: str,
    p: int,
    kwargs: dict[str, Any],
    workers: int,
    backend: str = "numpy",
) -> tuple[tuple[Matching, ...], CostReport] | None:
    """Match a batch of lists across ``workers`` processes.

    ``kwargs`` must already be normalized (canonical names); ``backend``
    is what each worker runs *inside* its process (a worker never
    nests pools).  Returns
    ``(matchings, report)`` with matchings in **input order** — shard
    results are reassembled by shard index, never by completion order —
    or ``None`` when the pool infrastructure failed and the caller
    should run serially.  Matchings are bit-identical to the serial
    batch driver's; the report is the shard-order absorb of the
    per-shard reports (for the reference backend this equals the serial
    report exactly, since both are the same in-order phase
    concatenation; the numpy arena fuses differently — see
    ``docs/parallel.md``).
    """
    bounds = shard_bounds([l.n for l in lls], workers)
    if len(bounds) < 2:
        return None
    want_spans = telemetry_enabled()
    ctx = current_trace() if want_spans else None
    trace_id = ctx.trace_id if ctx is not None else None
    payloads = [
        (
            shard,
            lo,
            algorithm,
            backend,
            p,
            dict(kwargs),
            [lst.next.tobytes() for lst in lls[lo:hi]],
            want_spans,
            trace_id,
        )
        for shard, (lo, hi) in enumerate(bounds)
    ]
    try:
        pool = pools.get_pool(workers)
        futures = [pool.submit(_run_shard_task, pl) for pl in payloads]
        results = [f.result() for f in futures]
    except POOL_ERRORS as exc:
        pools.drop_pool(workers)
        METRICS.counter("parallel.fallback").inc()
        telemetry_event(
            "parallel.fallback", stage="batch", workers=workers,
            error=f"{type(exc).__name__}: {exc}",
        )
        return None

    by_shard = {res[0]: res for res in results}
    cost = CostModel(p)
    matchings: list[Matching] = []
    tracer = get_tracer()
    track_bytes = _resources.enabled()
    for shard, (lo, hi) in enumerate(bounds):
        _, blobs, report, span_dicts, wall = by_shard[shard]
        cost.absorb(report)
        out_b = in_b = replay_b = 0
        if track_bytes:
            # The exact serialized payload of this hop: the raw NEXT
            # buffers shipped out, the raw tail buffers shipped back,
            # and the pickled span dicts riding the result.
            out_b = sum(len(buf) for buf in payloads[shard][6])
            in_b = sum(len(blob) for blob in blobs)
            if span_dicts:
                replay_b = len(pickle.dumps(span_dicts))
            _resources.account_shard(
                bytes_out=out_b, bytes_in=in_b,
                span_replay_bytes=replay_b,
            )
        if want_spans and telemetry_enabled():
            nodes = int(sum(l.n for l in lls[lo:hi]))
            with telemetry_span(
                f"shard.{shard}", shard=shard, lo=lo, hi=hi,
                num_lists=hi - lo, nodes=nodes, worker_wall_s=wall,
            ) as sp:
                if track_bytes:
                    sp.set(bytes_out=out_b, bytes_in=in_b,
                           span_replay_b=replay_b)
                _replay_spans(tracer, span_dicts, shard, sp.span_id,
                              sp.start, trace_id)
        for j, blob in enumerate(blobs):
            tails = np.frombuffer(blob, dtype=np.int64)
            matchings.append(Matching(lls[lo + j], tails, pre_verified=True))
    return tuple(matchings), cost.report()
