"""backend="auto" at each entry point: bit-identical, fully accounted.

The backend is planned by one fixed rule,
:func:`repro.backends.auto_backend`; these tests check that every
entry point resolves ``"auto"`` through it, answers exactly as the
named backend does, and records both the concrete backend and the ask.
"""

import numpy as np
import pytest

import repro
from repro.backends import AUTO, auto_backend
from repro.telemetry.runrecord import RunRecord


def _identical(a, b):
    assert np.array_equal(a.matching.tails, b.matching.tails)
    assert a.report == b.report
    assert a.stats == b.stats


class TestSingleAuto:
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_bit_identical_to_chosen_backend(self, n):
        # Algorithm kwargs pass through the resolution unchanged.
        lst = repro.random_list(n, rng=n)
        auto = repro.maximal_matching(lst, algorithm="match4",
                                      backend=AUTO, iterations=2)
        chosen = auto_backend("match4", [n])
        explicit = repro.maximal_matching(
            lst, algorithm="match4", backend=chosen, iterations=2)
        assert auto.backend == chosen
        _identical(auto, explicit)

    def test_decision_extras_shape(self):
        lst = repro.random_list(512, rng=1)
        auto = repro.maximal_matching(lst, backend=AUTO)
        assert auto.backend == "numpy"
        assert auto.extras == {"requested_backend": AUTO}

    def test_explicit_backend_leaves_no_planner_extra(self):
        lst = repro.random_list(256, rng=2)
        got = repro.maximal_matching(lst, backend="numpy")
        assert got.extras == {}

    def test_runrecord_carries_the_decision(self):
        lst = repro.random_list(512, rng=6)
        auto = repro.maximal_matching(lst, backend=AUTO)
        explicit = repro.maximal_matching(lst, backend=auto.backend)
        rec = RunRecord.from_result(auto, wall_s=0.001)
        assert rec.backend == auto.backend  # concrete, not "auto"
        assert rec.key() == RunRecord.from_result(explicit).key()


class TestBatchAuto:
    def test_bit_identical_and_accounted(self):
        lists = [repro.random_list(m, rng=10 + m) for m in (64, 257, 512)]
        auto = repro.batch_maximal_matching(lists, algorithm="match4",
                                            backend=AUTO)
        assert auto.backend == "numpy"
        assert auto.extras["requested_backend"] == AUTO
        explicit = repro.batch_maximal_matching(
            lists, algorithm="match4", backend=auto.backend)
        for am, em in zip(auto.matchings, explicit.matchings):
            assert np.array_equal(am.tails, em.tails)
        assert auto.report == explicit.report


class TestResilientAuto:
    def test_decision_in_extras(self):
        lst = repro.random_list(512, rng=30)
        got = repro.resilient_matching(lst, backend=AUTO)
        assert got.result is not None
        assert got.result.backend == "numpy"
        assert got.result.extras["requested_backend"] == AUTO
        assert got.result.extras["served_by"] == "match4"

    def test_matches_explicit_run(self):
        lst = repro.random_list(512, rng=31)
        auto = repro.resilient_matching(lst, backend=AUTO)
        explicit = repro.resilient_matching(lst, backend=auto.result.backend)
        assert np.array_equal(auto.matching.tails,
                              explicit.matching.tails)
        assert auto.result.report == explicit.result.report
        assert auto.log.attempts[0].backend == "numpy"


class TestTelemetry:
    def test_decision_event_and_counters(self):
        from repro.telemetry import METRICS, capture

        lst = repro.random_list(512, rng=50)
        with capture() as sink:
            repro.maximal_matching(lst, backend=AUTO)
            runs = METRICS.counter("matching.runs").value
        (span,) = [s for s in sink.spans if s.name == "maximal_matching"]
        assert span.attributes["backend"] == "numpy"
        assert span.attributes["requested_backend"] == AUTO
        assert runs >= 1

    def test_disabled_telemetry_emits_nothing(self):
        from repro.telemetry import METRICS, enabled

        assert not enabled()
        before = METRICS.counter("matching.runs").value
        lst = repro.random_list(256, rng=51)
        auto = repro.maximal_matching(lst, backend=AUTO)
        assert METRICS.counter("matching.runs").value == before
        # the ask is still accounted on the result itself
        assert auto.extras["requested_backend"] == AUTO
