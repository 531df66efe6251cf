"""Tests for sink durability: atomic appends and truncated-line reads."""

import json
import warnings

import pytest

from repro.telemetry import JsonlSink, RunRecord, read_records
from repro.telemetry.runrecord import append_record


def make_record(n=64, **extra):
    return RunRecord(algorithm="match4", backend="reference", n=n, p=8,
                     time=10, work=100, version="1.0", git_rev="abc",
                     extra=extra)


class TestJsonlSinkHardening:
    def test_each_record_is_one_flushed_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit_record({"type": "run", "k": 1})
        # visible immediately — no close() needed (flush-per-record)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"type": "run", "k": 1}
        sink.emit_record({"type": "run", "k": 2})
        assert len(path.read_text().splitlines()) == 2
        sink.close()

    def test_two_sinks_interleave_without_tearing(self, tmp_path):
        # O_APPEND + one os.write per record: concurrent writers can
        # interleave lines but never split one.
        path = tmp_path / "t.jsonl"
        a, b = JsonlSink(path), JsonlSink(path)
        for i in range(50):
            a.emit_record({"type": "run", "who": "a", "i": i})
            b.emit_record({"type": "run", "who": "b", "i": i})
        a.close()
        b.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 100
        for line in lines:
            json.loads(line)

    def test_close_then_reuse_reopens(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit_record({"type": "run", "k": 1})
        sink.close()
        sink.emit_record({"type": "run", "k": 2})
        sink.close()
        assert len(path.read_text().splitlines()) == 2


class TestTruncatedManifests:
    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, make_record(n=64))
        append_record(path, make_record(n=128))
        # simulate a writer killed mid-record
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "run", "algorithm": "mat')
        with pytest.warns(RuntimeWarning, match="truncated"):
            records = read_records(path)
        assert [r.n for r in records] == [64, 128]

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, make_record())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{broken")
        with pytest.raises(json.JSONDecodeError):
            read_records(path, strict=True)

    def test_clean_file_emits_no_warning(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, make_record())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_records(path)) == 1

    def test_midfile_corruption_keeps_later_records(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, make_record(n=64))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        append_record(path, make_record(n=256))
        with pytest.warns(RuntimeWarning):
            records = read_records(path)
        assert [r.n for r in records] == [64, 256]

    def test_blank_lines_ignored_silently(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, make_record())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_records(path)) == 1

    @pytest.mark.parametrize("bad", [
        "[1, 2]",                                     # not an object
        '"run"',
        '{"type": "run", "backend": "numpy", "n": 8}',  # no algorithm
        '{"algorithm": "match4"}',                    # untyped = run
        '{"type": "run", "algorithm": "match4", "backend": "numpy", '
        '"n": "many", "p": 1, "time": 1, "work": 1}',
    ])
    def test_malformed_lines_skipped_with_warning(self, tmp_path, bad):
        path = tmp_path / "runs.jsonl"
        append_record(path, make_record(n=64))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
            fh.write(json.dumps({"type": "span", "name": "x"}) + "\n")
        append_record(path, make_record(n=256))
        with pytest.warns(RuntimeWarning, match="runs.jsonl:2"):
            records = read_records(path)
        assert [r.n for r in records] == [64, 256]
        with pytest.raises((ValueError, KeyError)):
            read_records(path, strict=True)


class TestJsonlSinkRotation:
    """The sink never rolls its file: every line stays in ``path``."""

    def emit_n(self, sink, n, payload_bytes=80):
        filler = "x" * payload_bytes
        for i in range(n):
            sink.emit_record({"type": "run", "i": i, "pad": filler})

    def test_no_rotation_by_default(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        self.emit_n(sink, 50)
        sink.close()
        assert not (tmp_path / "t.jsonl.1").exists()
        assert len(path.read_text().splitlines()) == 50
