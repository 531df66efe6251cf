"""Tests for the span tracer: nesting, disabled no-ops, env config."""

import pytest

from repro.telemetry import (
    InMemorySink,
    capture,
    configure,
    configure_from_env,
    current_span,
    disable,
    enabled,
    event,
    get_tracer,
    span,
)
from repro.telemetry.spans import _NOOP


@pytest.fixture(autouse=True)
def _clean_state():
    """Every test starts and ends with telemetry disabled."""
    disable()
    yield
    disable()


class TestDisabled:
    def test_disabled_by_default_here(self):
        assert not enabled()

    def test_span_returns_shared_noop(self):
        sp1 = span("a", x=1)
        sp2 = span("b")
        assert sp1 is sp2 is _NOOP

    def test_noop_supports_protocol(self):
        with span("a") as sp:
            assert sp.set(k=1) is sp

    def test_noop_swallows_nothing(self):
        with pytest.raises(ValueError):
            with span("a"):
                raise ValueError("propagates")

    def test_event_dropped(self):
        sink = InMemorySink()
        configure(sink)
        disable()
        event("x", a=1)
        assert sink.spans == []

    def test_current_span_none(self):
        assert current_span() is None


class TestRecording:
    def test_span_emitted_with_attributes(self):
        sink = InMemorySink()
        configure(sink)
        with span("work", n=4) as sp:
            sp.set(extra="yes")
        assert sink.span_names() == ["work"]
        recorded = sink.spans[0]
        assert recorded.attributes == {"n": 4, "extra": "yes"}
        assert recorded.status == "ok"
        assert recorded.duration >= 0.0
        assert recorded.to_dict()["duration_s"] == recorded.duration

    def test_nesting_records_parent(self):
        sink = InMemorySink()
        configure(sink)
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner"):
                pass
        by_name = {s.name: s for s in sink.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        # children finish (and are emitted) before their parent
        assert sink.span_names() == ["inner", "outer"]

    def test_exception_marks_error_and_propagates(self):
        sink = InMemorySink()
        configure(sink)
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("bad")
        assert sink.spans[0].status == "error"
        assert "RuntimeError: bad" in sink.spans[0].attributes["error"]

    def test_exception_unwinds_abandoned_children(self):
        sink = InMemorySink()
        configure(sink)
        with pytest.raises(RuntimeError):
            with span("outer"):
                inner = span("inner")  # opened, never __exit__ed
                assert inner is not _NOOP
                raise RuntimeError("unwind")
        assert current_span() is None

    def test_event_zero_duration(self):
        sink = InMemorySink()
        configure(sink)
        event("tick", k=1)
        assert sink.spans[0].duration == 0.0
        assert sink.spans[0].attributes == {"k": 1}

    def test_span_duration_histogram(self):
        from repro.telemetry import METRICS

        with capture():
            with span("timed"):
                pass
            snap = METRICS.snapshot()
        assert snap["span.timed.seconds"]["count"] == 1

    def test_failing_sink_drops_counts_and_warns_once(self, caplog):
        from repro.telemetry import METRICS

        class FullDisk(InMemorySink):
            def emit_span(self, span):
                raise OSError(28, "No space left on device")

        with capture():
            configure(FullDisk())
            with span("a"):
                pass
            event("b")
            snap = METRICS.snapshot()
        assert snap["telemetry.dropped"]["value"] == 2
        warnings = [r for r in caplog.records
                    if "telemetry sink failed" in r.getMessage()]
        assert len(warnings) == 1


class TestCapture:
    def test_capture_restores_disabled(self):
        assert not enabled()
        with capture() as sink:
            assert enabled()
            with span("inside"):
                pass
        assert not enabled()
        assert sink.span_names() == ["inside"]

    def test_capture_restores_previous_sink(self):
        outer_sink = InMemorySink()
        configure(outer_sink)
        with capture() as inner_sink:
            with span("nested"):
                pass
        with span("after"):
            pass
        assert inner_sink.span_names() == ["nested"]
        assert outer_sink.span_names() == ["after"]


class TestEnvConfig:
    def test_off_and_empty_leave_disabled(self, monkeypatch):
        for value in ("", "off"):
            monkeypatch.setenv("REPRO_TELEMETRY", value)
            assert configure_from_env() is False
            assert not enabled()

    def test_log_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "log")
        assert configure_from_env() is True
        assert enabled()

    def test_jsonl_enables(self, monkeypatch, tmp_path):
        import json

        target = tmp_path / "spans.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", f"jsonl:{target}")
        assert configure_from_env() is True
        with span("persisted", k=2):
            pass
        get_tracer().sink.close()
        line = json.loads(target.read_text().splitlines()[0])
        assert line["type"] == "span"
        assert line["name"] == "persisted"
        assert line["attributes"] == {"k": 2}

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "log")
        assert configure_from_env(spec="off") is False
        assert not enabled()

    def test_bad_spec_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "carrier-pigeon")
        with pytest.raises(ValueError, match="carrier-pigeon"):
            configure_from_env()
