"""The robustness contract, exercised end to end.

- SIGTERM drains queued requests before exit and rejects new ones;
- a full admission queue sheds 429 + ``Retry-After`` without growing
  any internal buffer;
- a request whose deadline expired while queued is never computed, and
  it leaves the queue, freeing its slot and its bytes;
- a request's deadline is the one timer on its answer: it is answered
  504 when the deadline passes, whatever else its batch computes, and
  200 as soon as its own group has computed;
- a batch call that fails in any way degrades its requests, and the
  batcher goes on serving with its byte budget intact;
- a telemetry sink that fails never takes serving down;
- a batcher task that dies drains the service at once: drain answers
  503 and writes its manifest, and ``run()`` returns 1.

The acceptance scenario (a faulty burst beyond the admission limit)
lives in ``test_acceptance.py``.
"""

import asyncio
import json
import signal
import threading
import time

import pytest

import repro.telemetry as telemetry
from repro.backends.batch import batch_maximal_matching
from repro.errors import VerificationError
from repro.service import (
    AdmissionQueue,
    MatchingService,
    MicroBatcher,
    PendingRequest,
    ServiceConfig,
    parse_workload,
)
from repro.service.client import get
from repro.telemetry import METRICS, Sink

from .conftest import (
    HOST,
    GatedBatch,
    assert_bit_identical,
    match,
    run_service,
    until,
)

PARSE = dict(default_algorithm="match4", default_backend="numpy")


class TestSigtermDrain:
    def test_sigterm_drains_queued_and_rejects_new(self, tmp_path):
        """Queued work is finished, late arrivals are 503'd, and the
        final manifest records a clean drain."""
        manifest = tmp_path / "runs.jsonl"

        def slow_batch(lists, **kwargs):
            time.sleep(0.05)  # guarantees a non-empty queue at SIGTERM
            return batch_maximal_matching(lists, **kwargs)

        config = ServiceConfig(
            port=0, max_batch_items=1,
            default_deadline_ms=30000.0, drain_deadline_s=20.0,
            cache_size=0, manifest_path=str(manifest),
        )
        specs = [{"n": 64, "layout": "random", "seed": s} for s in range(4)]

        async def scenario(service):
            service.install_signal_handlers()
            tasks = [asyncio.create_task(match(service, spec))
                     for spec in specs]
            while service.admission.admitted < len(specs):
                await asyncio.sleep(0.005)
            signal.raise_signal(signal.SIGTERM)
            while not service.admission.draining:
                await asyncio.sleep(0.001)
            # The batcher still owes ~4 * 50ms of work, so the socket
            # is open — a new request must be rejected, not queued.
            late = await match(service, {"n": 32, "seed": 9})
            responses = await asyncio.gather(*tasks)
            await service.wait_stopped()
            return responses, late

        responses, late = run_service(config, scenario, batch_fn=slow_batch)
        assert [r.status for r in responses] == [200] * len(specs)
        for resp, spec in zip(responses, specs):
            assert_bit_identical(resp.json(), spec)
        assert late.status == 503
        assert late.retry_after is not None

        record = json.loads(manifest.read_text().splitlines()[-1])
        assert record["type"] == "run"
        assert record["kind"] == "service"
        extra = record["extra"]
        assert extra["drain"] == "clean"
        assert extra["drain_reason"] == "SIGTERM"
        assert extra["served"] == len(specs)
        assert extra["shed"].get("draining", 0) == 1


class TestAdmissionShedding:
    def test_full_queue_sheds_429_without_buffering(self):
        """Overload answers fast 429 + Retry-After; no internal
        structure grows beyond the configured bounds."""
        release = threading.Event()

        def blocking_batch(lists, **kwargs):
            release.wait(timeout=30)
            return batch_maximal_matching(lists, **kwargs)

        config = ServiceConfig(
            port=0, max_queue_depth=2, max_batch_items=1,
            default_deadline_ms=30000.0, drain_deadline_s=20.0,
            cache_size=0,
        )

        async def scenario(service):
            # One request occupies the (single) compute thread ...
            first = asyncio.create_task(match(service, {"n": 64, "seed": 0}))
            while service.batcher.batches < 1:
                await asyncio.sleep(0.005)
            # ... two more fill the admission queue to its depth limit.
            queued = [asyncio.create_task(
                match(service, {"n": 64, "seed": 1 + i})) for i in range(2)]
            while service.admission.depth < 2:
                await asyncio.sleep(0.005)

            shed = [await match(service, {"n": 64, "seed": 10 + i})
                    for i in range(5)]
            bounds = {
                "qsize": len(service.admission._queue),
                "depth": service.admission.depth,
                "outstanding": len(service._outstanding),
            }
            release.set()
            accepted = await asyncio.gather(first, *queued)
            return shed, bounds, accepted

        shed, bounds, accepted = run_service(config, scenario,
                                             batch_fn=blocking_batch)
        assert [r.status for r in shed] == [429] * 5
        for resp in shed:
            assert resp.retry_after == config.retry_after_s
            assert "queue_full" in resp.json()["error"]
        # Shed requests left no residue: the queue never exceeded its
        # depth and only the 3 admitted requests were ever tracked.
        assert bounds["qsize"] <= config.max_queue_depth
        assert bounds["depth"] <= config.max_queue_depth
        assert bounds["outstanding"] == 3
        assert [r.status for r in accepted] == [200] * 3


class TestDeadlines:
    def test_expired_in_queue_is_never_computed(self):
        """A request that died waiting is answered 504 without the
        engine ever seeing its workload."""
        calls = []

        def recording_batch(lists, **kwargs):
            calls.append([l.n for l in lists])
            return batch_maximal_matching(lists, **kwargs)

        async def scenario():
            loop = asyncio.get_running_loop()
            config = ServiceConfig()
            admission = AdmissionQueue(config)
            batcher = MicroBatcher(admission, config,
                                   batch_fn=recording_batch)
            workload = parse_workload({"n": 64, "seed": 0}, **PARSE)
            request = PendingRequest(
                workload=workload,
                deadline=loop.time() - 0.001,  # already dead
                enqueued_at=loop.time(),
                future=loop.create_future(),
            )
            assert admission.try_admit(request) is None
            task = asyncio.create_task(batcher.run())
            status, payload = await request.future
            batcher.stop()
            await task
            batcher.shutdown_executor()
            return status, payload, batcher

        status, payload, batcher = asyncio.run(scenario())
        assert status == 504
        assert "not computed" in payload["error"]
        assert calls == []  # the engine never saw it
        assert batcher.deadline_shed == 1

    def test_expired_in_queue_over_http(self):
        """Same guarantee through the full HTTP path: a 1ms deadline
        behind a busy batcher answers 504 and its workload (the only
        n=97 in the test) never reaches the engine."""
        release = threading.Event()
        seen = []

        def gated_batch(lists, **kwargs):
            seen.extend(l.n for l in lists)
            release.wait(timeout=30)
            return batch_maximal_matching(lists, **kwargs)

        config = ServiceConfig(
            port=0, max_queue_depth=4, max_batch_items=1,
            default_deadline_ms=30000.0, drain_deadline_s=20.0,
            cache_size=0,
        )

        async def scenario(service):
            first = asyncio.create_task(match(service, {"n": 64, "seed": 0}))
            while service.batcher.batches < 1:
                await asyncio.sleep(0.005)
            doomed = asyncio.create_task(
                match(service, {"n": 97, "deadline_ms": 1.0}))
            # Answered at its deadline, off the queue: it never waits
            # for the busy batcher.
            await until(doomed.done)
            release.set()
            return await asyncio.gather(first, doomed)

        first, doomed = run_service(config, scenario, batch_fn=gated_batch)
        assert first.status == 200
        assert doomed.status == 504
        assert "not computed" in doomed.json()["error"]
        assert 97 not in seen

    def test_deadline_answered_while_another_group_computes(self):
        """A 100 ms request picked into a batch whose other group, a
        30 s reference request, holds the compute thread: 504 at its
        own deadline, and its list is never computed."""
        gate = GatedBatch(held=2)
        config = ServiceConfig(port=0, default_deadline_ms=30000.0,
                               cache_size=0)

        async def scenario(service):
            admission = service.admission
            try:
                blocker = asyncio.create_task(
                    match(service, {"n": 64, "seed": 0}))
                await until(lambda: len(gate.calls) == 1)
                slow = asyncio.create_task(match(
                    service, {"n": 64, "seed": 1, "backend": "reference"}))
                await until(lambda: admission.depth == 1)
                short = asyncio.create_task(match(
                    service, {"n": 97, "seed": 2, "deadline_ms": 100},
                    timeout=3.0))
                await until(lambda: admission.depth == 2)
                gate.release(0)  # next batch: the reference group first
                resp = await short
                held = len(gate.calls)
            finally:
                gate.release()
            others = await asyncio.gather(blocker, slow)
            return resp, held, others, service.batcher

        resp, held, others, batcher = run_service(config, scenario,
                                                  batch_fn=gate)
        assert resp.status == 504
        assert resp.json()["error"] == "deadline exceeded"
        assert held == 2  # answered while the reference group computed
        assert [r.status for r in others] == [200, 200]
        assert (batcher.timeouts, batcher.errors) == (1, 0)
        assert all(97 not in call for call in gate.calls)

    def test_deadline_answered_while_its_batch_computes(self):
        """A 100 ms request fused with a 30 s one: 504 at its own
        deadline, not when their shared batch call returns."""
        gate = GatedBatch(held=2)
        config = ServiceConfig(port=0, default_deadline_ms=30000.0,
                               cache_size=0)

        async def scenario(service):
            admission = service.admission
            try:
                blocker = asyncio.create_task(
                    match(service, {"n": 64, "seed": 0}))
                await until(lambda: len(gate.calls) == 1)
                long = asyncio.create_task(
                    match(service, {"n": 64, "seed": 1}))
                await until(lambda: admission.depth == 1)
                start = time.monotonic()
                short = asyncio.create_task(match(
                    service, {"n": 97, "seed": 2, "deadline_ms": 100},
                    timeout=3.0))
                await until(lambda: admission.depth == 2)
                gate.release(0)
                resp = await short
                took = time.monotonic() - start
            finally:
                gate.release()
            others = await asyncio.gather(blocker, long)
            return resp, took, others

        resp, took, others = run_service(config, scenario, batch_fn=gate)
        assert sorted(gate.calls[1]) == [64, 97]  # one fused call
        assert resp.status == 504
        assert resp.json()["error"] == "deadline exceeded"
        assert took < 1.0
        assert [r.status for r in others] == [200, 200]

    def test_queued_request_answered_at_its_deadline_leaves_the_queue(self):
        """A request answered 504 while queued leaves the queue at once,
        uncomputed: its bytes are charged exactly while its list is
        resident, and are free for the next request."""
        gate = GatedBatch()
        # n = 64 lists are 512 bytes each: two fit the budget, three
        # do not.
        config = ServiceConfig(port=0, default_deadline_ms=30000.0,
                               max_inflight_bytes=1200, cache_size=0)

        async def scenario(service):
            admission = service.admission
            try:
                blocker = asyncio.create_task(
                    match(service, {"n": 64, "seed": 0}))
                await until(lambda: len(gate.calls) == 1)
                doomed = asyncio.create_task(match(
                    service, {"n": 64, "seed": 1, "deadline_ms": 100},
                    timeout=3.0))
                await until(lambda: admission.depth == 1)
                resident = admission.inflight_bytes
                expired = await doomed
                freed = (admission.depth, admission.inflight_bytes)
                counted = service.batcher.deadline_shed
                later = asyncio.create_task(
                    match(service, {"n": 64, "seed": 2}, timeout=3.0))
                await until(lambda: later.done() or admission.depth == 1)
            finally:
                gate.release()
            await blocker
            admitted = await later
            await until(lambda: admission.inflight_bytes == 0)
            return expired, resident, freed, counted, admitted

        expired, resident, freed, counted, admitted = run_service(
            config, scenario, batch_fn=gate)
        assert expired.status == 504
        assert "not computed" in expired.json()["error"]
        assert resident == 2 * 512  # the held list and the queued one
        assert freed == (0, 512)  # off the queue, its bytes free
        assert counted == 1
        assert admitted.status == 200
        assert gate.calls == [[64], [64]]  # the expired list never computed

    def test_expired_queued_requests_free_their_slots(self):
        """Queued requests answered 504 at their deadlines leave the
        queue: its depth reads 0 and the next request is admitted."""
        gate = GatedBatch()
        config = ServiceConfig(port=0, max_queue_depth=2,
                               default_deadline_ms=30000.0, cache_size=0)

        async def scenario(service):
            admission = service.admission
            try:
                blocker = asyncio.create_task(
                    match(service, {"n": 64, "seed": 0}))
                await until(lambda: len(gate.calls) == 1)
                expired = await asyncio.gather(*(
                    match(service, {"n": 64, "seed": 1 + i,
                                    "deadline_ms": 50}, timeout=3.0)
                    for i in range(2)))
                depth = admission.depth
                later = asyncio.create_task(
                    match(service, {"n": 64, "seed": 3}, timeout=3.0))
                await until(lambda: later.done() or admission.depth == 1)
            finally:
                gate.release()
            await blocker
            return expired, depth, await later

        expired, depth, later = run_service(config, scenario, batch_fn=gate)
        assert [r.status for r in expired] == [504, 504]
        assert depth == 0
        assert later.status == 200

    def test_request_answered_once_its_own_group_computed(self):
        """A numpy request batched ahead of a reference request is
        answered when its own group has computed, while the reference
        group's call is still held."""
        gate = GatedBatch(held=3)
        gate.release(1)  # the numpy group's call
        config = ServiceConfig(port=0, default_deadline_ms=30000.0,
                               cache_size=0)

        async def scenario(service):
            admission = service.admission
            try:
                blocker = asyncio.create_task(
                    match(service, {"n": 64, "seed": 0}))
                await until(lambda: len(gate.calls) == 1)
                fast = asyncio.create_task(match(
                    service, {"n": 97, "seed": 2, "deadline_ms": 200},
                    timeout=3.0))
                await until(lambda: admission.depth == 1)
                slow = asyncio.create_task(match(
                    service, {"n": 64, "seed": 1, "backend": "reference"}))
                await until(lambda: admission.depth == 2)
                gate.release(0)
                resp = await fast
                await until(lambda: len(gate.calls) == 3)
                slow_done = slow.done()
            finally:
                gate.release()
            others = await asyncio.gather(blocker, slow)
            return resp, slow_done, others

        resp, slow_done, others = run_service(config, scenario,
                                              batch_fn=gate)
        assert resp.status == 200
        assert resp.json()["n"] == 97
        assert not slow_done  # the reference call was still held
        assert gate.calls[1:] == [[97], [64]]
        assert [r.status for r in others] == [200, 200]


class FailFirstCall:
    """``batch_fn`` that raises ``exc`` once, then computes."""

    def __init__(self, exc):
        self.exc = exc
        self.calls = 0

    def __call__(self, lists, **kwargs):
        self.calls += 1
        if self.calls == 1:
            raise self.exc
        return batch_maximal_matching(lists, **kwargs)


class TestOneFailurePath:
    @pytest.mark.parametrize("exc", [
        RuntimeError("injected bug"),
        MemoryError(),
        OSError("injected pool failure"),
        VerificationError("injected engine fault"),
    ], ids=lambda exc: type(exc).__name__)
    def test_failed_batch_call_degrades(self, exc):
        first_spec = {"n": 64, "seed": 0}
        next_spec = {"n": 96, "seed": 1}
        config = ServiceConfig(port=0, cache_size=0, drain_deadline_s=1.0)

        async def scenario(service):
            # Short client timeouts bound each wait.
            first = await match(service, first_spec, timeout=3.0)
            after = await match(service, next_spec, timeout=3.0)
            alive = not service._batcher_task.done()
            ready = await get(HOST, service.port, "/readyz", timeout=3.0)
            return first, after, alive, ready, service.batcher

        first, after, alive, ready, batcher = run_service(
            config, scenario, batch_fn=FailFirstCall(exc))
        assert first.status == 200
        assert first.json()["degraded"] is True
        assert_bit_identical(first.json(), first_spec)
        assert after.status == 200
        assert after.json()["degraded"] is False
        assert_bit_identical(after.json(), next_spec)
        assert alive, "the batcher task died"
        assert ready.json()["inflight_bytes"] == 0
        assert (batcher.engine_faults, batcher.degraded) == (1, 1)


class FullDiskSink(Sink):
    """A span sink on a full disk."""

    def emit_span(self, span):
        raise OSError(28, "No space left on device")


class TestTelemetryFailure:
    def test_failing_sink_does_not_stop_serving(self):
        config = ServiceConfig(port=0, cache_size=0)

        async def scenario(service):
            resp = await match(service, {"n": 64}, timeout=3.0)
            return resp, not service._batcher_task.done()

        with telemetry.capture():
            telemetry.configure(FullDiskSink())
            resp, alive = run_service(config, scenario)
            dropped = METRICS.counter("telemetry.dropped").value
        assert resp.status == 200
        assert alive, "the batcher task died"
        assert dropped >= 1


async def _broken_dispatch(self, batch):
    raise OSError("injected: no space left on device")


class TestDrainAfterBatcherDied:
    def test_drain_answers_503_and_writes_manifest(self, tmp_path,
                                                   monkeypatch):
        manifest = tmp_path / "runs.jsonl"
        monkeypatch.setattr(MicroBatcher, "_dispatch", _broken_dispatch)
        config = ServiceConfig(port=0, cache_size=0, drain_deadline_s=1.0,
                               manifest_path=str(manifest))

        async def scenario(service):
            # The dead batcher starts the drain itself, at once.
            resp = await match(service, {"n": 64, "seed": 0}, timeout=3.0)
            await asyncio.wait_for(service.wait_stopped(), 3.0)
            return resp, service.drain_outcome

        resp, outcome = run_service(config, scenario)
        assert resp.status == 503
        assert outcome == "failed"
        extra = json.loads(manifest.read_text().splitlines()[-1])["extra"]
        assert extra["drain"] == "failed"
        assert extra["drain_reason"] == "batcher-failed"
        assert extra["admitted"] == 1

    def test_drain_stops_even_when_answering_fails(self, monkeypatch):
        # A full disk under the span sink fails every answer too.
        def full_disk(*args, **kwargs):
            raise OSError("injected: no space left on device")

        monkeypatch.setattr(MicroBatcher, "_dispatch", _broken_dispatch)
        monkeypatch.setattr(MicroBatcher, "observe_request", full_disk)
        config = ServiceConfig(port=0, cache_size=0, drain_deadline_s=1.0)

        async def scenario(service):
            pending = asyncio.create_task(
                match(service, {"n": 64, "seed": 0}, timeout=5.0))
            await asyncio.wait({service._batcher_task}, timeout=5.0)
            await asyncio.wait_for(service.drain(reason="test"), 5.0)
            pending.cancel()
            service._server.close()  # the failed drain never got there
            return service._drain_task.exception()

        assert isinstance(run_service(config, scenario), OSError)

    def test_run_returns_1_when_batcher_died(self, monkeypatch):
        async def broken_run(self):
            raise OSError("injected: batcher bug")

        monkeypatch.setattr(MicroBatcher, "run", broken_run)
        service = MatchingService(ServiceConfig(port=0))
        install = service.install_signal_handlers

        def install_and_bound():
            # Bounds the test: a service still serving after 3 s is
            # drained for another reason.
            install()
            asyncio.get_running_loop().call_later(
                3.0, service.initiate_drain, "still-serving")

        monkeypatch.setattr(service, "install_signal_handlers",
                            install_and_bound)
        assert service.run() == 1
        extra = service.manifest_record.extra
        assert (extra["drain"], extra["drain_reason"]) == \
            ("failed", "batcher-failed")
