"""Unit tests: config validation, workload identity, cache, admission."""

import asyncio

import numpy as np
import pytest

import repro
from repro.errors import InvalidParameterError
from repro.service import (
    AdmissionQueue,
    MicroBatcher,
    PendingRequest,
    ResponseCache,
    ServiceConfig,
    WorkloadError,
    parse_workload,
)

PARSE = dict(default_algorithm="match4", default_backend="numpy")

#: The multiprocess backend an earlier release served; it is gone.
REMOVED_BACKEND = "numpy" + "-mp"


class TestConfig:
    def test_defaults_validate(self):
        cfg = ServiceConfig()
        assert cfg.max_queue_depth > 0
        assert "max_queue_depth" in cfg.to_dict()

    @pytest.mark.parametrize("kwargs", [
        {"max_queue_depth": 0},
        {"max_batch_items": 0},
        {"max_inflight_bytes": 0},
        {"default_deadline_ms": 0.0},
        {"cache_size": -1},
        {"port": -1},
        {"workers": 0},
        {"drain_deadline_s": float("nan")},
        {"default_deadline_ms": float("nan")},
        {"max_deadline_ms": float("inf")},
        {"retry_after_s": float("inf")},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(**kwargs)


class TestWorkload:
    def test_spec_identity(self):
        w = parse_workload({"n": 64, "layout": "random", "seed": 3}, **PARSE)
        assert w.identity == ("spec", 64, "random", 3)
        assert w.n == 64
        assert w.nbytes == 64 * 8

    def test_same_spec_same_cache_key(self):
        a = parse_workload({"n": 64, "seed": 1}, **PARSE)
        b = parse_workload({"seed": 1, "n": 64}, **PARSE)
        assert a.cache_key() == b.cache_key()

    def test_different_algorithm_different_key(self):
        a = parse_workload({"n": 64}, **PARSE)
        b = parse_workload({"n": 64, "algorithm": "match2"}, **PARSE)
        assert a.cache_key() != b.cache_key()

    def test_explicit_list_digest_identity(self):
        lst = repro.random_list(32, rng=0)
        w = parse_workload({"next": lst.next.tolist()}, **PARSE)
        assert w.identity[0] == "digest"
        again = parse_workload({"next": lst.next.tolist()}, **PARSE)
        assert w.cache_key() == again.cache_key()
        assert np.array_equal(w.lst.next, lst.next)

    @pytest.mark.parametrize("body,msg", [
        ({}, "either 'next' or 'n'"),
        ({"n": 0}, "'n' must be in"),
        ({"n": 64, "layout": "nope"}, "unknown layout"),
        ({"n": 64, "algorithm": "nope"}, "unknown algorithm"),
        ({"n": 64, "backend": "nope"}, "unknown backend"),
        ({"next": []}, "non-empty"),
        ({"next": [0, 0, 1]}, "invalid linked list"),
        ("not a dict", "JSON object"),
        ({"algorithm": ["match4"], "n": 8}, "'algorithm' must be a string"),
        ({"n": 8, "layout": {"x": 1}}, "'layout' must be a string"),
        ({"n": 8, "backend": ["numpy"]}, "'backend' must be a string"),
        ({"n": 8.7}, "'n' must be an integer"),
        ({"n": True}, "'n' must be an integer"),
        ({"n": "8"}, "'n' must be an integer"),
        ({"n": 8, "seed": 1.5}, "'seed' must be an integer"),
        ({"n": 8, "seed": False}, "'seed' must be an integer"),
        ({"n": 64, "backend": REMOVED_BACKEND}, "unknown backend"),
        ({"next": [1.7, -1]}, "array of integers"),
        ({"next": [True, -1]}, "array of integers"),
        ({"next": ["1", -1]}, "array of integers"),
    ])
    def test_malformed_rejected(self, body, msg):
        with pytest.raises(WorkloadError):
            parse_workload(body, **PARSE)

    def test_next_takes_json_integers_only(self):
        # 1.0 converts to int64 without loss and is refused all the
        # same: the body must say what it means.
        with pytest.raises(WorkloadError, match="array of integers"):
            parse_workload({"next": [1.0, -1]}, **PARSE)
        w = parse_workload({"next": [1, -1]}, **PARSE)
        assert w.lst.next.tolist() == [1, -1]

    def test_unknown_backend_lists_the_remaining(self):
        with pytest.raises(WorkloadError) as exc:
            parse_workload({"n": 64, "backend": REMOVED_BACKEND}, **PARSE)
        assert "['auto', 'numpy', 'reference']" in str(exc.value)


class TestResponseCache:
    def test_lru_eviction_order(self):
        cache = ResponseCache(2)
        cache.put(("a",), {"v": 1})
        cache.put(("b",), {"v": 2})
        assert cache.get(("a",)) == {"v": 1}  # refresh: b is now LRU
        cache.put(("c",), {"v": 3})
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.evictions == 1

    def test_counters(self):
        cache = ResponseCache(4)
        cache.get(("x",))
        cache.put(("x",), {})
        cache.get(("x",))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_capacity_zero_disables(self):
        cache = ResponseCache(0)
        cache.put(("x",), {})
        assert len(cache) == 0
        assert cache.get(("x",)) is None


def _request(loop, workload, deadline_s=60.0):
    return PendingRequest(
        workload=workload,
        deadline=loop.time() + deadline_s,
        enqueued_at=loop.time(),
        future=loop.create_future(),
    )


class TestAdmission:
    def test_depth_and_bytes_limits(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            config = ServiceConfig(max_queue_depth=2,
                                   max_inflight_bytes=64 * 8 * 3)
            admission = AdmissionQueue(config)
            w = parse_workload({"n": 64}, **PARSE)
            big = parse_workload({"n": 128, "seed": 9}, **PARSE)

            assert admission.try_admit(_request(loop, w)) is None
            assert admission.try_admit(_request(loop, big)) is None
            # depth limit reached
            assert admission.try_admit(
                _request(loop, w)) == "queue_full"
            # draining beats everything
            admission.draining = True
            assert admission.try_admit(_request(loop, w)) == "draining"
            admission.draining = False
            # byte budget: 3 lists' bytes in flight of a 3-list budget
            admission.get_nowait()  # depth frees up, bytes do not
            admission.get_nowait()
            assert admission.try_admit(
                _request(loop, w)) == "inflight_bytes"
            admission.release(64 * 8)
            assert admission.try_admit(_request(loop, w)) is None
            assert admission.admitted == 3
            assert admission.shed_counts == {
                "queue_full": 1, "draining": 1, "inflight_bytes": 1,
            }

        asyncio.run(scenario())

    def test_admitted_bytes_snapshot(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            admission = AdmissionQueue(ServiceConfig())
            w = parse_workload({"n": 64}, **PARSE)
            request = _request(loop, w)
            assert admission.try_admit(request) is None
            assert request.admitted_bytes == 64 * 8
            # release() must return the full charge
            admission.release(request.admitted_bytes)
            assert admission.inflight_bytes == 0

        asyncio.run(scenario())

    def test_cancelled_request_still_releases_its_bytes(self):
        # A request whose future was cancelled before the batcher
        # answered it must still return its admission bytes when it
        # is answered.
        async def scenario():
            loop = asyncio.get_running_loop()
            config = ServiceConfig()
            admission = AdmissionQueue(config)
            batcher = MicroBatcher(admission, config)
            w = parse_workload({"n": 64}, **PARSE)
            request = _request(loop, w, deadline_s=-1.0)
            assert admission.try_admit(request) is None
            assert admission.inflight_bytes == 64 * 8
            request.future.cancel()
            await batcher._dispatch([admission.get_nowait()])
            assert batcher.deadline_shed == 1  # answered as expired
            return admission.inflight_bytes

        assert asyncio.run(scenario()) == 0

    def test_cancelled_live_request_releases_its_bytes_uncomputed(self):
        # The same for a request within its deadline: its group skips
        # it, and its bytes still come back.
        calls = []

        async def scenario():
            loop = asyncio.get_running_loop()
            config = ServiceConfig()
            admission = AdmissionQueue(config)
            batcher = MicroBatcher(
                admission, config,
                batch_fn=lambda lists, **kw: calls.append(lists))
            w = parse_workload({"n": 64}, **PARSE)
            request = _request(loop, w)
            assert admission.try_admit(request) is None
            request.future.cancel()
            await batcher._dispatch([admission.get_nowait()])
            return admission.inflight_bytes

        assert asyncio.run(scenario()) == 0
        assert calls == []
