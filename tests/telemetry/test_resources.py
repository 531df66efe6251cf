"""The resource-accounting layer: allocations, bytes, bandwidth."""

import tracemalloc

import pytest

import repro
import repro.telemetry as telemetry
from repro.telemetry import resources
from repro.telemetry.export import resource_counter_events
from repro.telemetry.metrics import METRICS


@pytest.fixture(autouse=True)
def _clean_state():
    resources.disable()
    resources.reset()
    yield
    resources.disable()
    resources.reset()


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not resources.enabled()
        assert not resources.memory_tracking()

    def test_phase_begin_is_none_when_disabled(self):
        assert resources.phase_begin("x") is None

    def test_enable_ledger_only_skips_tracemalloc(self):
        assert not tracemalloc.is_tracing()
        resources.enable(memory=False)
        assert resources.enabled()
        assert not resources.memory_tracking()
        assert not tracemalloc.is_tracing()

    def test_enable_memory_starts_and_disable_stops_tracemalloc(self):
        assert not tracemalloc.is_tracing()
        resources.enable(memory=True)
        assert tracemalloc.is_tracing()
        resources.disable()
        assert not tracemalloc.is_tracing()

    def test_disable_keeps_foreign_tracemalloc_running(self):
        tracemalloc.start()
        try:
            resources.enable(memory=True)
            resources.disable()
            # We didn't start it, so we must not stop it.
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_tracking_restores_previous_state(self):
        with resources.tracking():
            assert resources.enabled()
        assert not resources.enabled()

    def test_account_shard_is_noop_when_disabled(self):
        resources.account_shard(bytes_out=100, bytes_in=50)
        assert resources.ledger().shard_hops == 0


class TestEnvConfiguration:
    def test_off_and_empty_leave_disabled(self):
        assert not resources.configure_resources_from_env(spec="off")
        assert not resources.configure_resources_from_env(spec="")
        assert not resources.enabled()

    def test_ledger_mode(self):
        assert resources.configure_resources_from_env(spec="ledger")
        assert resources.enabled()
        assert not resources.memory_tracking()

    @pytest.mark.parametrize("spec", ["full", "memory", "on", "1"])
    def test_full_modes(self, spec):
        assert resources.configure_resources_from_env(spec=spec)
        assert resources.memory_tracking()

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="REPRO_RESOURCES"):
            resources.configure_resources_from_env(spec="sideways")

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESOURCES", "ledger")
        assert resources.configure_resources_from_env()
        assert resources.enabled()


class TestPhaseAccounting:
    def test_phases_recorded_for_a_run(self):
        with resources.tracking():
            repro.maximal_matching(repro.random_list(256, rng=0))
        names = [ph.name for ph in resources.ledger().phases]
        assert "cutwalk" in names
        for ph in resources.ledger().phases:
            assert ph.wall_s >= 0
            assert ph.alloc_peak_b is not None and ph.alloc_peak_b >= 0

    def test_ledger_mode_leaves_alloc_fields_none(self):
        with resources.tracking(memory=False):
            repro.maximal_matching(repro.random_list(128, rng=0))
        assert resources.ledger().phases
        for ph in resources.ledger().phases:
            assert ph.alloc_net_b is None and ph.alloc_peak_b is None

    def test_peak_sees_a_large_transient(self):
        with resources.tracking():
            tok = resources.phase_begin("blob")
            buf = bytearray(1 << 20)
            del buf
            resources.phase_end(tok)
        ph = resources.ledger().phases[-1]
        assert ph.alloc_peak_b >= 1 << 20
        assert ph.alloc_net_b < 1 << 20  # freed before phase end

    def test_nested_child_peak_propagates_to_parent(self):
        with resources.tracking():
            outer = resources.phase_begin("outer")
            inner = resources.phase_begin("inner")
            buf = bytearray(1 << 20)
            del buf
            resources.phase_end(inner)
            resources.phase_end(outer)
        by_name = {ph.name: ph for ph in resources.ledger().phases}
        assert by_name["inner"].alloc_peak_b >= 1 << 20
        # The outer phase's peak covers the child's transient.
        assert (by_name["outer"].alloc_peak_b
                >= by_name["inner"].alloc_peak_b)

    def test_phase_spans_carry_alloc_attrs(self):
        with telemetry.capture() as sink, resources.tracking():
            repro.maximal_matching(repro.random_list(128, rng=0))
        phase_spans = [s for s in sink.spans
                       if s.name.startswith("phase.")]
        assert phase_spans
        for s in phase_spans:
            assert "alloc_net_b" in s.attributes
            assert s.attributes["alloc_peak_b"] >= 0

    def test_engine_sweep_measured_under_numpy(self):
        with resources.tracking():
            repro.maximal_matching(repro.random_list(512, rng=0),
                                   backend="numpy")
        names = [ph.name for ph in resources.ledger().phases]
        assert "engine.sweep" in names


class TestBytesTouchedModel:
    def test_backend_figures(self):
        assert resources.bytes_per_work("reference") == 16
        assert resources.bytes_per_work("numpy") == 9
        assert resources.bytes_per_work("unknown") == 16
        assert resources.bytes_per_work(None) == 16

    def test_report_computes_bytes_touched_and_bandwidth(self):
        with resources.tracking():
            repro.maximal_matching(repro.random_list(256, rng=0))
            report = resources.build_report(backend="reference")
        d = report.to_dict()
        assert d["model"]["name"] == resources.BYTES_TOUCHED_MODEL
        assert d["model"]["bytes_per_work"] == 16
        for ph in d["phases"]:
            assert ph["bytes_touched"] == ph["work"] * 16
            if ph["bytes_touched"] and ph["wall_s"] > 0:
                assert ph["bandwidth_bps"] == pytest.approx(
                    ph["bytes_touched"] / ph["wall_s"])

    def test_peak_alloc_is_max_over_phases(self):
        with resources.tracking():
            repro.maximal_matching(repro.random_list(256, rng=0))
            report = resources.build_report(backend="reference")
        assert report.peak_alloc_b == max(
            ph.alloc_peak_b for ph in report.phases)

    def test_summary_renders(self):
        with resources.tracking():
            repro.maximal_matching(repro.random_list(128, rng=0))
            report = resources.build_report(backend="reference")
        text = report.summary()
        assert "memory" in text
        assert resources.BYTES_TOUCHED_MODEL in text


class TestCounters:
    def test_counters_bump_only_with_telemetry(self):
        with resources.tracking(memory=False):
            resources.account_shard(bytes_out=10, bytes_in=4)
            assert "parallel.bytes_out" not in METRICS
            with telemetry.capture():
                resources.account_shard(bytes_out=10, bytes_in=4,
                                        span_replay_bytes=2)
                assert METRICS.counter("parallel.bytes_out").value == 10
                assert METRICS.counter("parallel.bytes_in").value == 4
                assert (METRICS.counter("parallel.span_replay_bytes")
                        .value == 2)
        # The ledger accumulated both hops regardless of telemetry.
        assert resources.ledger().shard_hops == 2
        assert resources.ledger().bytes_out == 20


class TestCounterTrackExport:
    def test_no_resource_attrs_no_events(self):
        with telemetry.capture() as sink:
            repro.maximal_matching(repro.random_list(64, rng=0))
        assert resource_counter_events(sink.spans) == []

    def test_alloc_and_byte_tracks(self):
        with telemetry.capture() as sink, resources.tracking():
            repro.maximal_matching(repro.random_list(128, rng=0))
        events = resource_counter_events(sink.spans)
        assert events
        assert all(e["ph"] == "C" for e in events)
        alloc = [e for e in events if e["name"] == "phase alloc (B)"]
        assert alloc
        assert all(e["args"]["peak"] >= 0 for e in alloc)

    def test_shard_byte_track_is_cumulative(self):
        from repro.telemetry.spans import Span

        spans = []
        for i, (out_b, in_b) in enumerate([(100, 40), (60, 20)]):
            s = Span(f"shard.{i}", i + 1, None, float(i),
                     {"bytes_out": out_b, "bytes_in": in_b,
                      "span_replay_b": 5},
                     tracer=None)
            s.end = s.start + 0.5
            spans.append(s)
        events = resource_counter_events(spans)
        track = [e for e in events
                 if e["name"] == "shard bytes (cumulative)"]
        assert [e["args"]["out"] for e in track] == [100, 160]
        assert [e["args"]["in"] for e in track] == [40, 60]
        assert track[-1]["args"]["span_replay"] == 10


class TestProfilerIntegration:
    def test_profile_matching_attaches_resources(self):
        from repro.telemetry import profile_matching

        run = profile_matching(repro.random_list(256, rng=0),
                               machine_trace=False, resources=True)
        assert run.resources is not None
        assert run.resources.peak_alloc_b > 0
        assert run.resources.backend == "reference"

    def test_profile_matching_default_has_none(self):
        from repro.telemetry import profile_matching

        run = profile_matching(repro.random_list(64, rng=0),
                               machine_trace=False)
        assert run.resources is None
