"""Tests for the live view: rolling window, SLO burn, quantiles."""

import pytest

from repro.telemetry.live import LiveAggregator, SloConfig, _quantiles


def make(clock_value=0.0, **kwargs):
    """An aggregator driven by an explicit, mutable clock."""
    state = {"now": clock_value}
    agg = LiveAggregator(clock=lambda: state["now"], **kwargs)
    return agg, state


class TestSloConfig:
    def test_good_requires_200_within_latency(self):
        slo = SloConfig(p95_latency_ms=100.0)
        assert slo.is_good(200, 99.0)
        assert slo.is_good(200, 100.0)
        assert not slo.is_good(200, 100.1)
        assert not slo.is_good(429, 1.0)
        assert not slo.is_good(504, 1.0)

    def test_budget_is_availability_complement(self):
        assert SloConfig(availability=0.99).budget == pytest.approx(0.01)

    def test_budget_never_zero(self):
        assert SloConfig(availability=1.0).budget > 0


class TestWindowing:
    def test_empty_snapshot(self):
        agg, _ = make()
        snap = agg.snapshot()
        assert snap["count"] == 0
        assert snap["latency_ms"] == {"p50": None, "p95": None, "p99": None}
        assert snap["slo"]["burn_rate"] == 0.0
        assert snap["slo"]["healthy"]

    def test_requests_age_out_of_window(self):
        agg, clk = make(window_s=10.0)
        agg.observe_request(latency_ms=5.0, status=200)
        assert agg.snapshot()["count"] == 1
        clk["now"] = 5.0
        assert agg.snapshot()["count"] == 1  # still inside
        clk["now"] = 11.0
        snap = agg.snapshot()
        assert snap["count"] == 0  # rolled out
        assert snap["total"] == 1  # lifetime counter keeps it

    def test_ring_slot_reuse_resets_stale_epochs(self):
        agg, clk = make(window_s=4.0)
        agg.observe_request(latency_ms=1.0, status=200)  # epoch 0
        clk["now"] = 4.0  # epoch 4 reuses slot 0
        agg.observe_request(latency_ms=2.0, status=200)
        snap = agg.snapshot()
        assert snap["count"] == 1
        assert snap["latency_ms"]["p50"] == 2.0

    def test_per_bucket_counts_oldest_first(self):
        agg, clk = make(window_s=10.0)
        for t, n in ((0.0, 2), (1.0, 3), (2.5, 1)):
            for _ in range(n):
                agg.observe_request(latency_ms=1.0, status=200, now=t)
        clk["now"] = 2.9  # snapshot from inside the newest bucket
        assert agg.snapshot()["per_bucket"] == [2, 3, 1]

    def test_sample_cap_bounds_memory(self):
        agg, _ = make(window_s=5.0)
        for i in range(LiveAggregator.MAX_SAMPLES_PER_BUCKET + 50):
            agg.observe_request(latency_ms=float(i), status=200, now=0.5)
        bucket = agg._bucket_at(0.5)
        assert len(bucket.latencies) == LiveAggregator.MAX_SAMPLES_PER_BUCKET
        assert bucket.count == LiveAggregator.MAX_SAMPLES_PER_BUCKET + 50

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            LiveAggregator(window_s=0)
        with pytest.raises(ValueError):
            LiveAggregator(bucket_s=-1)


class TestRatesAndBurn:
    def test_rate_classification(self):
        agg, clk = make(window_s=60.0)
        for status in (200, 200, 429, 503, 504, 500, 0):
            agg.observe_request(latency_ms=1.0, status=status, now=1.0)
        clk["now"] = 1.5
        rates = agg.snapshot()["rates"]
        assert rates["shed"] == pytest.approx(2 / 7, abs=1e-4)
        assert rates["timeout"] == pytest.approx(1 / 7, abs=1e-4)
        assert rates["error"] == pytest.approx(2 / 7, abs=1e-4)  # 500 + 0

    def test_cache_hit_rate(self):
        agg, clk = make(window_s=60.0)
        agg.observe_request(latency_ms=1.0, status=200,
                            cache_hits=3, cache_lookups=4, now=1.0)
        clk["now"] = 1.5
        assert agg.snapshot()["rates"]["cache_hit"] == 0.75

    def test_burn_rate_math(self):
        # 2 bad of 100 against a 1% budget burns at exactly 2x.
        agg, clk = make(window_s=60.0,
                        slo=SloConfig(p95_latency_ms=100.0,
                                      availability=0.99))
        for i in range(98):
            agg.observe_request(latency_ms=10.0, status=200, now=1.0)
        agg.observe_request(latency_ms=10.0, status=503, now=1.0)
        agg.observe_request(latency_ms=500.0, status=200, now=1.0)  # slow
        clk["now"] = 1.5
        slo = agg.snapshot()["slo"]
        assert slo["good"] == 98
        assert slo["bad"] == 2
        assert slo["burn_rate"] == pytest.approx(2.0, abs=0.01)
        assert not slo["healthy"]

    def test_burn_within_budget_is_healthy(self):
        agg, clk = make(window_s=60.0, slo=SloConfig(availability=0.9))
        for _ in range(99):
            agg.observe_request(latency_ms=1.0, status=200, now=1.0)
        agg.observe_request(latency_ms=1.0, status=500, now=1.0)
        clk["now"] = 1.5
        slo = agg.snapshot()["slo"]
        assert slo["burn_rate"] == pytest.approx(0.1, abs=0.01)
        assert slo["healthy"]


class TestQuantiles:
    def test_nearest_rank(self):
        q = _quantiles(list(range(1, 101)))
        assert q == {"p50": 50, "p95": 95, "p99": 99}

    def test_singleton(self):
        assert _quantiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

