"""The issue's acceptance scenario, in one test.

A seeded burst larger than the admission limit is thrown at a live
service whose engine misbehaves on schedule: one batch call raises a
:class:`~repro.errors.VerificationError` (an engine fault) and one
raises ``OSError`` (a pool failure the executor's serial rerun did not
absorb).  Both take the one failure path: per-request degradation
through the resilience ladder.  The contract:

- every *accepted* request answers 200 with a matching bit-identical
  to the reference tier — degraded or not, cached or not;
- every *shed* request answers 429 with ``Retry-After``;
- nothing, anywhere, answers 500;
- SIGTERM afterwards drains cleanly and writes the final manifest,
  whose ledger agrees with what the clients observed.
"""

import asyncio
import json
import signal
import time

from repro.backends.batch import batch_maximal_matching
from repro.errors import VerificationError
from repro.service import ServiceConfig

from .conftest import assert_bit_identical, match, run_service


class FaultSchedule:
    """Deterministic injection: batch call #2 hits an engine fault,
    call #3 hits a pool failure; everything else computes (slowly
    enough that the burst actually queues)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, lists, **kwargs):
        self.calls += 1
        if self.calls == 2:
            raise VerificationError("injected engine fault")
        if self.calls == 3:
            raise OSError("injected pool failure")
        time.sleep(0.02)
        return batch_maximal_matching(lists, **kwargs)


def _run_burst(tmp_path, *, use_cache: bool):
    manifest = tmp_path / "runs.jsonl"
    faults = FaultSchedule()
    # max_batch_items=1 pins the batch-call schedule: one call per
    # accepted request, so the injected faults (calls #2 and #3) hit
    # deterministically.  Coalescing itself is covered elsewhere.
    config = ServiceConfig(
        port=0, max_queue_depth=4, max_batch_items=1,
        default_deadline_ms=30000.0, drain_deadline_s=30.0,
        cache_size=32 if use_cache else 0, manifest_path=str(manifest),
    )
    # Seeded burst: 16 concurrent requests against a depth-4 queue,
    # with repeated (n, layout, seed) specs so the cache sees reuse.
    specs = [{"n": 32 + 16 * (i % 5), "layout": "random", "seed": i % 3,
              "cache": use_cache} for i in range(16)]

    async def scenario(service):
        service.install_signal_handlers()
        tasks = [asyncio.create_task(match(service, spec))
                 for spec in specs]
        responses = await asyncio.gather(*tasks)
        # One more round-trip after the dust settles (a cache hit when
        # caching is on), then drain via the real signal path.
        replay = await match(service, specs[0])
        signal.raise_signal(signal.SIGTERM)
        await service.wait_stopped()
        return responses, replay

    responses, replay = run_service(config, scenario, batch_fn=faults)
    record = json.loads(manifest.read_text().splitlines()[-1])
    return specs, responses, replay, record, faults


def _check_contract(specs, responses, replay, record, faults):
    statuses = [r.status for r in responses]
    served = [(spec, resp) for spec, resp in zip(specs, responses)
              if resp.status == 200]
    shed = [resp for resp in responses if resp.status == 429]

    # Burst bookkeeping: everything is a 200 or a 429, and the
    # depth-4 queue could not have absorbed a 16-request burst.
    assert set(statuses) <= {200, 429}
    assert not any(500 <= s < 600 for s in statuses), "500s are forbidden"
    assert shed, "burst never exceeded admission — not an overload test"
    assert served, "every request shed — nothing exercised the engine"

    # Accepted ⇒ bit-identical to the reference tier, degraded or not.
    for spec, resp in served:
        assert_bit_identical(resp.json(), spec)
    assert replay.status == 200
    assert_bit_identical(replay.json(), specs[0])

    # Shed ⇒ 429 with Retry-After and a reason.
    for resp in shed:
        assert resp.retry_after is not None
        assert "shed" in resp.json()["error"]

    # The injected faults actually fired and were survived.
    assert faults.calls >= 4
    extra = record["extra"]
    assert extra["engine_faults"] >= 2
    assert extra["degraded"] >= 2
    degraded = [resp for _, resp in served if resp.json()["degraded"]]
    assert len(degraded) >= 2, "each injected fault degrades a response"
    for resp in degraded:
        assert resp.json()["served_by"]  # ladder rung is reported

    # Drain + ledger: the manifest agrees with the clients' view.
    assert record["kind"] == "service"
    assert extra["drain"] == "clean"
    assert extra["drain_reason"] == "SIGTERM"
    client_200s = len(served) + 1  # + the replay
    assert extra["served"] == client_200s
    assert sum(extra["shed"].values()) == len(shed)
    assert extra["errors"] == 0
    return len(served), len(shed)


class TestAcceptance:
    def test_burst_with_faults_cache_on(self, tmp_path):
        out = _run_burst(tmp_path, use_cache=True)
        _check_contract(*out)
        record = out[3]
        cache = record["extra"]["cache"]
        assert cache["misses"] >= 1  # the cache was actually in the path

    def test_burst_with_faults_cache_off(self, tmp_path):
        out = _run_burst(tmp_path, use_cache=False)
        _check_contract(*out)
        assert out[3]["extra"]["cache"]["capacity"] == 0
