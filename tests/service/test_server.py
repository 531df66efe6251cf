"""HTTP surface: endpoints, request validation, caching, drain basics."""

import asyncio

import repro
from repro.service import ServiceConfig
from repro.service.client import get, post_json

from .conftest import HOST, assert_bit_identical, match, run_service

CFG = dict(port=0, cache_size=16)


class TestEndpoints:
    def test_healthz_readyz_metrics(self):
        async def scenario(service):
            health = await get(HOST, service.port, "/healthz")
            ready = await get(HOST, service.port, "/readyz")
            metrics = await get(HOST, service.port, "/metrics")
            return health, ready, metrics

        health, ready, metrics = run_service(ServiceConfig(**CFG), scenario)
        assert health.status == 200
        assert health.json()["status"] == "ok"
        assert ready.status == 200
        assert ready.json()["queue_depth"] == 0
        assert metrics.status == 200
        assert metrics.headers["content-type"].startswith("text/plain")
        assert b"repro_" in metrics.body

    def test_match_spec_is_bit_identical(self):
        spec = {"n": 128, "layout": "sawtooth", "seed": 2}

        async def scenario(service):
            return await match(service, spec)

        resp = run_service(ServiceConfig(**CFG), scenario)
        assert resp.status == 200
        data = resp.json()
        assert data["n"] == 128
        assert data["served_by"] == "match4"
        assert data["degraded"] is False
        assert_bit_identical(data, spec)

    def test_match_explicit_next_array(self):
        lst = repro.random_list(48, rng=5)

        async def scenario(service):
            return await match(service, {"next": lst.next.tolist()})

        resp = run_service(ServiceConfig(**CFG), scenario)
        assert resp.status == 200
        expect = repro.maximal_matching(lst, backend="reference").matching
        assert sorted(resp.json()["tails"]) == sorted(
            int(t) for t in expect.tails)

    def test_cache_hit_on_repeat(self):
        spec = {"n": 64, "layout": "random", "seed": 7}

        async def scenario(service):
            first = await match(service, spec)
            second = await match(service, spec)
            return first, second, service.cache.stats()

        first, second, stats = run_service(ServiceConfig(**CFG), scenario)
        assert first.json()["cache"] == "miss"
        assert second.json()["cache"] == "hit"
        assert second.json()["tails"] == first.json()["tails"]
        assert stats["hits"] == 1

    def test_cache_opt_out(self):
        spec = {"n": 64, "seed": 7, "cache": False}

        async def scenario(service):
            await match(service, spec)
            return await match(service, spec)

        resp = run_service(ServiceConfig(**CFG), scenario)
        assert resp.json()["cache"] == "off"


class TestValidation:
    def _post(self, body, raw=None):
        async def scenario(service):
            if raw is not None:
                from repro.service.client import http_request

                return await http_request(HOST, service.port, "POST",
                                          "/v1/match", body=raw)
            return await match(service, body)

        return run_service(ServiceConfig(**CFG), scenario)

    def test_invalid_json_400(self):
        assert self._post(None, raw=b"{nope").status == 400

    def test_unknown_layout_400(self):
        resp = self._post({"n": 64, "layout": "nope"})
        assert resp.status == 400
        assert "unknown layout" in resp.json()["error"]

    def test_missing_workload_400(self):
        assert self._post({"layout": "random"}).status == 400

    def test_bad_deadline_400(self):
        bodies = [
            b'{"n": 64, "deadline_ms": "soon"}',
            b'{"n": 64, "deadline_ms": true}',
            b'{"n": 32, "deadline_ms": NaN}',
            b'{"n": 32, "deadline_ms": Infinity}',
            b'{"n": 32, "deadline_ms": -Infinity}',
            b'{"n": 32, "seed": NaN}',
            b'{"next": [1, 2, NaN]}',
            b'{"next": [1.7, -1]}',
            b'{"next": [true, -1]}',
            b'{"next": ["1", -1]}',
            b'{"n": 32, "cache": "false"}',
            b'{"n": 32, "cache": 0}',
        ]

        async def scenario(service):
            from repro.service.client import http_request

            return [await http_request(HOST, service.port, "POST",
                                       "/v1/match", body=raw)
                    for raw in bodies]

        responses = run_service(ServiceConfig(**CFG), scenario)
        assert [r.status for r in responses] == [400] * len(bodies)

    def test_request_after_nan_deadline_is_answered(self):
        # A NaN deadline that reaches the event loop as a timer breaks
        # the loop's timer heap: the body itself was answered 500 and
        # kept its admission bytes, or the next request stalled.
        async def scenario(service):
            from repro.service.client import http_request

            nan = await http_request(HOST, service.port, "POST",
                                     "/v1/match", timeout=5.0,
                                     body=b'{"n": 32, "deadline_ms": NaN}')
            after = await match(service, {"n": 128, "seed": 4}, timeout=5.0)
            ready = await get(HOST, service.port, "/readyz")
            return nan, after, ready

        nan, after, ready = run_service(ServiceConfig(**CFG), scenario)
        assert nan.status == 400
        assert after.status == 200
        assert ready.json()["inflight_bytes"] == 0

    def test_deadline_past_float_range_is_clamped(self):
        # int(1e400) has no float: it was converted before the clamp,
        # and the OverflowError answered 500.
        body = b'{"n": 32, "deadline_ms": 1' + b"0" * 400 + b"}"
        resp = self._post(None, raw=body)
        assert resp.status == 200

    def test_field_of_wrong_type_400_not_500(self):
        from repro.telemetry.metrics import METRICS

        async def scenario(service):
            return [await match(service, body)
                    for body in ({"n": 8, "algorithm": ["match4"]},
                                 {"n": 8, "layout": {"x": 1}})]

        errors = METRICS.counter("service.errors").value
        responses = run_service(ServiceConfig(**CFG), scenario)
        assert [r.status for r in responses] == [400, 400]
        assert "must be a string" in responses[0].json()["error"]
        assert METRICS.counter("service.errors").value == errors

    def test_one_list_per_request(self):
        # A request carries one list: there is no batch endpoint, and a
        # body of several lists names no workload.
        body = {"lists": [{"n": 32, "seed": s} for s in range(3)]}

        async def scenario(service):
            batch = await post_json(HOST, service.port, "/v1/batch", body)
            return batch, await match(service, body)

        batch, lists = run_service(ServiceConfig(**CFG), scenario)
        assert batch.status == 404
        assert lists.status == 400
        assert "either 'next'" in lists.json()["error"]

    def test_unknown_path_404_and_bad_method_405(self):
        async def scenario(service):
            missing = await get(HOST, service.port, "/v1/nope")
            from repro.service.client import http_request

            bad = await http_request(HOST, service.port, "PUT", "/v1/match")
            return missing, bad

        missing, bad = run_service(ServiceConfig(**CFG), scenario)
        assert missing.status == 404
        assert bad.status == 405

    def test_oversized_body_413(self):
        async def scenario(service):
            from repro.service.client import http_request

            return await http_request(HOST, service.port, "POST",
                                      "/v1/match", body=b"x" * 2048)

        config = ServiceConfig(**{**CFG, "max_request_bytes": 1024})
        assert run_service(config, scenario).status == 413


class TestDrainApi:
    def test_drain_writes_manifest_and_rejects(self, tmp_path):
        import time

        from repro.backends.batch import batch_maximal_matching

        manifest = tmp_path / "runs.jsonl"
        spec = {"n": 64, "seed": 0}

        def slow_batch(lists, **kwargs):
            time.sleep(0.2)  # keeps the server open while we probe it
            return batch_maximal_matching(lists, **kwargs)

        async def scenario(service):
            task = asyncio.create_task(match(service, spec))
            while service.admission.admitted < 1:
                await asyncio.sleep(0.005)
            service.initiate_drain("test")
            late = await match(service, spec)
            served = await task
            await service.wait_stopped()
            return served, late

        config = ServiceConfig(**CFG, manifest_path=str(manifest),
                               drain_deadline_s=10.0)
        served, late = run_service(config, scenario,
                                   batch_fn=slow_batch)
        assert served.status == 200  # in-flight work survives the drain
        assert late.status == 503
        assert late.retry_after is not None
        import json

        record = json.loads(manifest.read_text().splitlines()[-1])
        assert record["kind"] == "service"
        assert record["extra"]["drain"] == "clean"
        assert record["extra"]["served"] == 1
