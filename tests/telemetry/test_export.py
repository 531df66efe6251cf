"""Tests for the Chrome-trace and Prometheus exporters."""

import json

import pytest

import repro
from repro.telemetry import (
    METRICS,
    capture,
    chrome_trace_events,
    disable,
    machine_trace_events,
    prometheus_exposition,
    write_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_state():
    disable()
    METRICS.reset()
    yield
    disable()
    METRICS.reset()


@pytest.fixture(scope="module")
def captured():
    """Spans + machine report from one small traced run."""
    from repro.pram.algorithms import run_match4

    lst = repro.random_list(96, rng=0)
    with capture() as sink:
        repro.maximal_matching(lst, algorithm="match4")
        _, machine = run_match4(repro.random_list(48, rng=0), i=1,
                                trace=True)
    return tuple(sink.spans), machine


class TestChromeTraceEvents:
    def test_round_trips_json(self, captured, tmp_path):
        spans, _ = captured
        path = write_chrome_trace(tmp_path / "t.json",
                                  chrome_trace_events(spans))
        data = json.loads(path.read_text())
        assert set(data) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"]["version"]
        assert data["traceEvents"]

    def test_events_have_required_fields(self, captured):
        spans, _ = captured
        for e in chrome_trace_events(spans):
            assert e["ph"] in ("X", "i", "M")
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_span_nesting_becomes_tid_depth(self, captured):
        spans, _ = captured
        events = {e["args"]["span_id"]: e
                  for e in chrome_trace_events(spans)
                  if e["ph"] in ("X", "i")}
        root = next(e for e in events.values()
                    if e["name"] == "maximal_matching")
        assert root["tid"] == 0
        for e in events.values():
            parent = e["args"]["parent_id"]
            if parent in events:
                assert e["tid"] == events[parent]["tid"] + 1
                # a child never starts before its parent
                assert e["ts"] >= events[parent]["ts"]

    def test_phase_spans_present_with_attributes(self, captured):
        spans, _ = captured
        names = {e["name"] for e in chrome_trace_events(spans)}
        assert "phase.sort" in names
        assert "phase.walkdown1" in names

    def test_empty_input(self):
        assert chrome_trace_events([]) == []

    def test_timestamps_relative_to_origin(self, captured):
        spans, _ = captured
        slices = [e for e in chrome_trace_events(spans)
                  if e["ph"] in ("X", "i")]
        assert min(e["ts"] for e in slices) == 0.0


class TestMachineTraceEvents:
    def test_one_thread_per_processor(self, captured):
        _, machine = captured
        events = machine_trace_events(machine)
        threads = {e["args"]["name"] for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert threads == {f"P{i}" for i in range(machine.nprocs)}

    def test_slices_are_reads_writes_idles(self, captured):
        _, machine = captured
        kinds = {e["name"] for e in machine_trace_events(machine)
                 if e["ph"] == "X"}
        assert kinds == {"read", "write", "idle"}

    def test_read_write_args_carry_addresses(self, captured):
        _, machine = captured
        for e in machine_trace_events(machine):
            if e["name"] == "write":
                assert {"step", "addr", "value"} <= set(e["args"])
            elif e["name"] == "read":
                assert {"step", "addr"} <= set(e["args"])

    def test_windowing_limits_steps(self, captured):
        _, machine = captured
        events = machine_trace_events(machine, max_steps=10)
        slices = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] + e["dur"] <= 10.0 for e in slices)

    def test_requires_trace(self, captured):
        from repro.pram.algorithms import run_match4

        _, untraced = run_match4(repro.random_list(48, rng=0), i=1)
        with pytest.raises(ValueError, match="trace=True"):
            machine_trace_events(untraced)

    def test_combined_file_is_perfetto_valid_json(self, captured, tmp_path):
        spans, machine = captured
        events = chrome_trace_events(spans) + machine_trace_events(machine)
        path = write_chrome_trace(tmp_path / "combined.json", events,
                                  metadata={"k": "v"})
        data = json.loads(path.read_text())
        assert data["otherData"]["k"] == "v"
        pids = {e["pid"] for e in data["traceEvents"]}
        assert pids == {1, 2}


class TestPrometheusExposition:
    def test_counter_gauge_histogram_families(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc(3)
        reg.gauge("rung").set(2)
        h = reg.histogram("lat.seconds")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        text = prometheus_exposition(reg)
        assert "repro_runs_total 3" in text
        assert "repro_rung 2" in text
        assert 'repro_lat_seconds{quantile="0.5"} 2' in text
        assert "repro_lat_seconds_sum 10" in text
        assert "repro_lat_seconds_count 4" in text

    def test_parses_line_by_line(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.histogram("c-d").observe(0.5)
        for line in prometheus_exposition(reg).splitlines():
            if line.startswith("#"):
                parts = line.split()
                assert parts[1] in ("HELP", "TYPE")
            else:
                name, value = line.rsplit(" ", 1)
                float(value)
                bare = name.split("{")[0]
                assert bare.replace("_", "").replace(":", "").isalnum()

    def test_unset_gauge_skipped(self):
        reg = MetricsRegistry()
        reg.gauge("never.set")
        assert prometheus_exposition(reg) == ""

    def test_empty_histogram_has_no_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        text = prometheus_exposition(reg)
        assert "quantile" not in text
        assert "repro_empty_count 0" in text

    def test_name_sanitization(self):
        reg = MetricsRegistry()
        reg.counter("span.pram run.count").inc()
        text = prometheus_exposition(reg)
        assert "repro_span_pram_run_count_total 1" in text


class TestPrometheusHostileStrings:
    """Regression battery: the 0.0.4 grammar must survive any input."""

    NAME_OK = __import__("re").compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

    def exposition(self, **metrics):
        reg = MetricsRegistry()
        for name, value in metrics.items():
            reg.counter(name).inc(value)
        return prometheus_exposition(reg)

    def test_metric_name_with_quotes_and_braces(self):
        reg = MetricsRegistry()
        reg.counter('evil"name{with}stuff').inc()
        text = prometheus_exposition(reg)
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert self.NAME_OK.match(name), line

    def test_metric_name_leading_digit(self):
        reg = MetricsRegistry()
        reg.counter("3rd.phase").inc()
        text = prometheus_exposition(reg)
        sample = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert self.NAME_OK.match(sample.split(" ")[0])

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        hostile = 'a"b\\c\nnewline'
        text = prometheus_exposition(reg, labels={"instance": hostile})
        sample = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert "\n" not in sample  # one sample stays one line
        assert 'instance="a\\"b\\\\c\\nnewline"' in sample

    def test_label_name_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        text = prometheus_exposition(
            reg, labels={"bad label!": "v", "__reserved": "w", "9lives": "u"})
        sample = [l for l in text.splitlines() if not l.startswith("#")][0]
        block = sample[sample.index("{") + 1:sample.index("}")]
        for pair in block.split(","):
            name = pair.split("=")[0]
            assert self.NAME_OK.match(name), pair
            assert ":" not in name
            assert not name.startswith("__"), pair

    def test_help_line_newline_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x\ny").inc()
        text = prometheus_exposition(reg)
        help_lines = [l for l in text.splitlines()
                      if l.startswith("# HELP")]
        assert help_lines  # present and single-line by construction

    def test_nan_and_float_values(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(float("nan"))
        text = prometheus_exposition(reg)
        assert "repro_g NaN" in text

    def test_every_line_parses_shape(self):
        """Whole-document shape check over a hostile registry."""
        reg = MetricsRegistry()
        reg.counter('a"b').inc()
        reg.gauge("c{d}").set(1.5)
        reg.histogram("e f").observe(2.0)
        text = prometheus_exposition(reg, labels={"host": 'x"y\\z'})
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            head, _, value = line.rpartition(" ")
            name = head.split("{")[0]
            assert self.NAME_OK.match(name), line
            float(value)  # every sample value must parse


class TestSpanReading:
    """spans_from_jsonl: span lines back into Span objects."""

    @staticmethod
    def _span_line(name, span_id, start, duration_s=0.001, attrs=None):
        return json.dumps({
            "type": "span", "name": name, "span_id": span_id,
            "parent_id": None, "start": start,
            "duration_s": duration_s, "attributes": attrs or {},
        }) + "\n"

    def test_missing_everything_still_raises(self, tmp_path):
        from repro.telemetry.export import spans_from_jsonl

        with pytest.raises(FileNotFoundError):
            spans_from_jsonl(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("bad", [
        "[1, 2]",                                # JSON, not an object
        '{"type": "span", "span_id": 3, "start": 1.0}',  # no name
        '{"type": "span", "name": "x"}',         # no span_id / start
        '{"type": "span", "name": "x", "span_id": "?", "start": 0}',
        '{"type": "sp',                          # truncated tail
    ])
    def test_malformed_lines_skipped_with_warning(self, tmp_path, bad):
        from repro.telemetry.export import spans_from_jsonl

        path = tmp_path / "spans.jsonl"
        path.write_text(self._span_line("a", 1, 0.0) + bad + "\n"
                        + '{"type": "run", "n": 1}\n'
                        + self._span_line("b", 2, 1.0))
        with pytest.warns(RuntimeWarning, match="spans.jsonl:2"):
            spans = spans_from_jsonl(path)
        assert [s.name for s in spans] == ["a", "b"]
