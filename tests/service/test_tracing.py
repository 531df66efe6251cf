"""End-to-end request tracing and the live debug surface.

The tentpole acceptance tests: a traced request admitted over HTTP,
fused into a batch, and (with ``workers=2``) sharded across worker
processes must come back out of the span soup as **one** reconstructed
tree — deterministically, across fresh processes — and the live
``/debug/vars`` surface must agree with what the client did.
"""

import asyncio
import json

import pytest

import repro.telemetry as telemetry
from repro.service import ServiceConfig
from repro.service.client import get
from repro.telemetry import (
    request_trace_events,
    request_trace_ids,
    request_trace_spans,
)

from .conftest import HOST, GatedBatch, match, run_service, until

CFG = dict(port=0, cache_size=16)


def traced_requests(specs, config=None, **service_kwargs):
    """Serve ``specs`` under telemetry capture; return (responses, sink)."""

    async def scenario(service):
        out = []
        for spec in specs:
            out.append(await match(service, spec))
        return out

    with telemetry.capture() as sink:
        responses = run_service(
            ServiceConfig(**(config or CFG)), scenario, **service_kwargs)
    return responses, sink


class TestTraceIds:
    def test_response_carries_trace_id(self):
        [resp], sink = traced_requests([{"n": 64, "seed": 3}])
        assert resp.status == 200
        tid = resp.json()["trace_id"]
        assert isinstance(tid, str) and len(tid) == 16
        assert tid in request_trace_ids(sink.spans)

    def test_untraced_response_has_no_trace_id(self):
        async def scenario(service):
            return await match(service, {"n": 64, "seed": 3})

        resp = run_service(ServiceConfig(**CFG), scenario)
        assert "trace_id" not in resp.json()

    def test_trace_ids_deterministic_across_fresh_services(self):
        specs = [{"n": 64, "seed": 3}, {"n": 128, "layout": "sawtooth",
                                        "seed": 5, "cache": False}]
        first, _ = traced_requests(specs)
        second, _ = traced_requests(specs)
        assert [r.json()["trace_id"] for r in first] == \
            [r.json()["trace_id"] for r in second]

    def test_distinct_requests_distinct_traces(self):
        # Identical workload twice: the ingress sequence number keeps
        # the two requests' traces apart (the second is a cache hit).
        responses, sink = traced_requests(
            [{"n": 64, "seed": 3}, {"n": 64, "seed": 3}])
        tids = [r.json()["trace_id"] for r in responses]
        assert len(set(tids)) == 2
        assert set(tids) <= set(request_trace_ids(sink.spans))


class TestReconstructedTree:
    def test_request_tree_has_ingress_batch_and_compute(self):
        [resp], sink = traced_requests([{"n": 128, "seed": 1}])
        tid = resp.json()["trace_id"]
        tree = request_trace_spans(sink.spans, tid)
        names = {s.name for s in tree}
        assert "service.request" in names
        assert "service.batch" in names
        assert "batch.maximal_matching" in names

        roots = [s for s in tree if s.parent_id is None]
        assert len(roots) == 1, "one tree, one root"
        assert roots[0].name == "service.request"
        by_id = {s.span_id: s for s in tree}
        for s in tree:  # fully connected: every parent is in the tree
            if s.parent_id is not None:
                assert s.parent_id in by_id

    def test_request_root_attributes(self):
        [resp], sink = traced_requests([{"n": 128, "seed": 1}])
        tid = resp.json()["trace_id"]
        root = [s for s in request_trace_spans(sink.spans, tid)
                if s.parent_id is None][0]
        assert root.attributes["status"] == 200
        assert root.attributes["latency_ms"] > 0
        assert root.status == "ok"

    def test_cache_hit_root_has_the_same_attribute_keys(self):
        # A cache hit is answered by the server without queueing;
        # its root span must carry what a computed request's does.
        responses, sink = traced_requests(
            [{"n": 64, "seed": 3}, {"n": 64, "seed": 3}])
        assert [r.json()["cache"] for r in responses] == ["miss", "hit"]
        roots = {s.trace_id: s for s in sink.spans
                 if s.name == "service.request"}
        miss, hit = (roots[r.json()["trace_id"]] for r in responses)
        assert set(hit.attributes) == set(miss.attributes)
        assert hit.attributes["n"] == miss.attributes["n"] == 64

    def test_fused_batch_links_every_member(self):
        # No timer makes a batch: K requests queued behind a held
        # compute call go out in the next batch call, together.
        k = 3
        gate = GatedBatch()
        specs = [{"n": 64 + s, "seed": s, "cache": False} for s in range(k)]

        async def scenario(service):
            try:
                held = asyncio.create_task(
                    match(service, {"n": 32, "cache": False}))
                await until(lambda: len(gate.calls) == 1)
                queued = [asyncio.create_task(match(service, spec))
                          for spec in specs]
                await until(lambda: service.admission.depth == k)
            finally:
                gate.release()
            return await asyncio.gather(held, *queued)

        with telemetry.capture() as sink:
            _, *responses = run_service(
                ServiceConfig(**CFG), scenario, batch_fn=gate)
        assert [r.status for r in responses] == [200] * k
        assert len(gate.calls) == 2
        assert sorted(gate.calls[1]) == [spec["n"] for spec in specs]
        tids = {r.json()["trace_id"] for r in responses}
        # one service.batch span links all k members
        [shared] = [s for s in sink.spans if s.name == "service.batch"
                    and set(s.attributes["links"]) == tids]
        # every member's reconstruction hangs the shared batch span
        # under its own root
        for tid in tids:
            tree = request_trace_spans(sink.spans, tid)
            [root] = [s for s in tree if s.name == "service.request"]
            [batch] = [s for s in tree if s.name == "service.batch"]
            assert batch.span_id == shared.span_id
            assert batch.parent_id == root.span_id

    def test_workers2_shard_spans_reparent_into_request(self):
        cfg = dict(CFG, workers=2)
        specs = [{"n": 256, "seed": s, "cache": False} for s in range(4)]
        gate = GatedBatch()

        async def scenario(service):
            # The specs queue behind a held call, so they fuse into
            # one batch, which two workers shard.
            try:
                held = asyncio.create_task(
                    match(service, {"n": 64, "cache": False}))
                await until(lambda: len(gate.calls) == 1)
                queued = [asyncio.create_task(match(service, spec))
                          for spec in specs]
                await until(lambda: service.admission.depth == len(specs))
            finally:
                gate.release()
            await held
            return await asyncio.gather(*queued)

        with telemetry.capture() as sink:
            responses = run_service(
                ServiceConfig(**cfg), scenario, batch_fn=gate)
        assert all(r.status == 200 for r in responses)
        shard_spans = [s for s in sink.spans
                       if s.name.startswith("shard.")]
        assert shard_spans, "batch never sharded — config did not bite"

        tid = responses[0].json()["trace_id"]
        tree = request_trace_spans(sink.spans, tid)
        names = {s.name for s in tree}
        assert {"service.request", "service.batch",
                "batch.maximal_matching"} <= names
        assert any(n.startswith("shard.") for n in names)
        by_id = {s.span_id: s for s in tree}
        for s in tree:
            if s.name.startswith("shard."):
                assert by_id[s.parent_id].name == "batch.maximal_matching"

    def test_chrome_trace_events_exportable(self):
        [resp], sink = traced_requests([{"n": 64, "seed": 9}])
        tid = resp.json()["trace_id"]
        events = request_trace_events(sink.spans, tid)
        assert events
        json.dumps(events)  # JSON-clean
        meta = [e for e in events if e.get("ph") == "M"]
        assert any(tid in str(e.get("args", {})) for e in meta)


class TestDebugSurface:
    def test_debug_vars_counts_requests(self):
        async def scenario(service):
            for s in range(3):
                await match(service, {"n": 64, "seed": s})
            return await get(HOST, service.port, "/debug/vars")

        resp = run_service(ServiceConfig(**CFG), scenario)
        assert resp.status == 200
        doc = resp.json()
        live = doc["live"]
        assert live["count"] == 3
        assert live["by_status"] == {"200": 3}
        assert live["slo"]["healthy"]
        assert doc["totals"]["served"] == 3
        assert doc["service"]["draining"] is False

    def test_debug_vars_sees_sheds(self):
        cfg = dict(CFG, max_queue_depth=1)
        gate = GatedBatch()

        async def scenario(service):
            # While the first request holds the compute thread, one
            # more fills the queue and the other six are shed.
            admission = service.admission
            try:
                held = asyncio.create_task(
                    match(service, {"n": 64, "seed": 0, "cache": False}))
                await until(lambda: len(gate.calls) == 1)
                rest = [asyncio.create_task(
                    match(service, {"n": 64, "seed": s, "cache": False}))
                    for s in range(1, 8)]
                await until(lambda: admission.admitted
                            + sum(admission.shed_counts.values()) == 8)
            finally:
                gate.release()
            await asyncio.gather(held, *rest)
            return await get(HOST, service.port, "/debug/vars")

        resp = run_service(ServiceConfig(**cfg), scenario, batch_fn=gate)
        live = resp.json()["live"]
        assert live["count"] == 8
        shed = (live["by_status"].get("429", 0)
                + live["by_status"].get("503", 0))
        assert shed > 0
        assert live["rates"]["shed"] > 0
        assert live["slo"]["bad"] >= shed
