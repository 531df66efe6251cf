"""The shard-hop serialization byte ledger is *bit-exact*.

The parallel tier ships each list's ``NEXT`` array as raw ``int64``
buffers (``n * 8`` bytes per list) and receives each matching's tail
array back the same way (``matched * 8``).  The ledger must equal
those figures exactly: the shard spans, ``/metrics`` and perfbench's
``parallel.bytes_out`` / ``parallel.bytes_in`` layers report it as
the bytes that crossed the pool, not as an estimate.
"""

import pickle

import numpy as np
import pytest

import repro
import repro.telemetry as telemetry
from repro.backends.batch import batch_maximal_matching
from repro.telemetry import resources
from repro.telemetry.metrics import METRICS

WORKERS = 2
NS = (33, 65, 120, 40, 77, 19)


@pytest.fixture(autouse=True)
def _clean_state():
    resources.disable()
    resources.reset()
    yield
    resources.disable()
    resources.reset()


def _lists():
    return [repro.random_list(n, rng=n) for n in NS]


class TestBitExactDifferential:
    def test_submit_and_result_bytes_match_serial_run(self):
        lists = _lists()
        with resources.tracking(memory=False) as led:
            batch_maximal_matching(lists, algorithm="match4",
                                   workers=WORKERS)
        # Submit direction: every list's NEXT array crosses once,
        # int64 raw bytes — exactly n * 8 per list, no framing slack.
        assert led.bytes_out == sum(l.n for l in lists) * 8
        # Result direction: each matching's tail array, matched * 8.
        # A serial run on the same inputs gives the expected tails.
        serial = batch_maximal_matching(lists, algorithm="match4")
        expect_in = sum(m.tails.size for m in serial.matchings) * 8
        assert led.bytes_in == expect_in
        assert led.shard_hops == WORKERS
        assert led.span_replay_bytes == 0  # telemetry was off

    def test_itemsize_is_the_model_not_a_guess(self):
        lists = _lists()
        assert all(l.next.dtype == np.int64 for l in lists)
        assert all(l.next.itemsize == 8 for l in lists)


class TestSpanAttrsAndCounters:
    def test_shard_span_attrs_sum_to_ledger(self):
        lists = _lists()
        with telemetry.capture() as sink, \
                resources.tracking(memory=False) as led:
            batch_maximal_matching(lists, algorithm="match4",
                                   workers=WORKERS)
        shards = [s for s in sink.spans if s.name.startswith("shard.")]
        assert len(shards) == WORKERS
        assert sum(s.attributes["bytes_out"] for s in shards) == \
            led.bytes_out
        assert sum(s.attributes["bytes_in"] for s in shards) == \
            led.bytes_in
        assert sum(s.attributes["span_replay_b"] for s in shards) == \
            led.span_replay_bytes

    def test_counters_equal_ledger_under_telemetry(self):
        lists = _lists()
        with telemetry.capture(), \
                resources.tracking(memory=False) as led:
            batch_maximal_matching(lists, algorithm="match4",
                                   workers=WORKERS)
            assert METRICS.counter("parallel.bytes_out").value == \
                led.bytes_out
            assert METRICS.counter("parallel.bytes_in").value == \
                led.bytes_in
            assert METRICS.counter("parallel.span_replay_bytes").value \
                == led.span_replay_bytes
            assert METRICS.counter("parallel.bytes_out").unit == "bytes"

    def test_span_replay_bytes_counted_when_telemetry_on(self):
        lists = _lists()
        with telemetry.capture(), \
                resources.tracking(memory=False) as led:
            batch_maximal_matching(lists, algorithm="match4",
                                   workers=WORKERS)
        # Workers replayed their spans back: the pickled payload is
        # real and the ledger saw it.
        assert led.span_replay_bytes > 0
        # Sanity: a pickle of an empty list is ~5 B; replayed span
        # dicts for a whole worker batch are far larger.
        assert led.span_replay_bytes > len(pickle.dumps([]))


class TestDisabledPath:
    def test_disabled_accounts_nothing(self):
        lists = _lists()
        batch_maximal_matching(lists, algorithm="match4",
                               workers=WORKERS)
        led = resources.ledger()
        assert led.shard_hops == 0
        assert led.bytes_out == led.bytes_in == 0
        assert led.span_replay_bytes == 0

    def test_results_unaffected_by_accounting(self):
        lists = _lists()
        with resources.tracking(memory=False):
            tracked = batch_maximal_matching(lists, algorithm="match4",
                                             workers=WORKERS)
        plain = batch_maximal_matching(lists, algorithm="match4",
                                       workers=WORKERS)
        for tm, pm in zip(tracked.matchings, plain.matchings):
            assert np.array_equal(tm.tails, pm.tails)
