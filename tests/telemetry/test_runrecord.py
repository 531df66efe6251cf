"""Tests for RunRecord manifests: round-trips, persistence, identity."""

import json

import pytest

import repro
from repro.telemetry.runrecord import (
    SCHEMA_VERSION,
    RunRecord,
    append_record,
    read_records,
    write_records,
)


@pytest.fixture(scope="module")
def result():
    lst = repro.random_list(512, rng=7)
    return repro.maximal_matching(
        lst, algorithm="match4", backend="numpy", p=64, iterations=2)


class TestFromResult:
    def test_captures_identity_and_cost(self, result):
        rec = RunRecord.from_result(result, seed=7, wall_s=0.25, layout="random")
        assert rec.algorithm == "match4"
        assert rec.backend == "numpy"
        assert rec.n == 512
        assert rec.p == 64
        assert rec.seed == 7
        assert rec.wall_s == 0.25
        assert rec.time == result.report.time
        assert rec.work == result.report.work
        assert rec.extra == {"layout": "random"}
        assert [ph[0] for ph in rec.phases] == \
            [ph.name for ph in result.report.phases]

    def test_build_provenance_filled(self, result):
        rec = RunRecord.from_result(result)
        assert rec.version
        assert rec.git_rev
        assert rec.schema == SCHEMA_VERSION

    def test_cost_report_roundtrip_exact(self, result):
        rec = RunRecord.from_result(result)
        assert rec.cost_report() == result.report

    def test_dict_roundtrip(self, result):
        rec = RunRecord.from_result(result, seed=7, wall_s=0.5, layout="x")
        assert RunRecord.from_dict(rec.to_dict()) == rec

    def test_key_pairs_identical_workloads(self, result):
        a = RunRecord.from_result(result, seed=7, wall_s=0.1)
        b = RunRecord.from_result(result, seed=7, wall_s=99.0)
        assert a.key() == b.key()  # wall-clock is not identity
        c = RunRecord.from_result(result, seed=8)
        assert a.key() != c.key()


class TestPersistence:
    def test_write_and_read(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        rec = RunRecord.from_result(result, seed=7)
        write_records(path, [rec, rec])
        loaded = read_records(path)
        assert loaded == [rec, rec]

    def test_append(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        rec = RunRecord.from_result(result, seed=7)
        append_record(path, rec)
        append_record(path, rec)
        assert len(read_records(path)) == 2

    def test_write_replaces_unless_append(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        rec = RunRecord.from_result(result, seed=7)
        write_records(path, [rec])
        write_records(path, [rec])
        assert len(read_records(path)) == 1
        write_records(path, [rec], append=True)
        assert len(read_records(path)) == 2

    def test_read_skips_span_lines(self, result, tmp_path):
        """One JSONL file can hold spans and runs; readers filter."""
        path = tmp_path / "mixed.jsonl"
        rec = RunRecord.from_result(result, seed=7)
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "span", "name": "x"}) + "\n")
            fh.write("\n")
        append_record(path, rec)
        loaded = read_records(path)
        assert loaded == [rec]

    def test_lines_are_typed_json(self, result, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, RunRecord.from_result(result, seed=7))
        data = json.loads(path.read_text().splitlines()[0])
        assert data["type"] == "run"
        assert data["algorithm"] == "match4"


class TestBuildInfo:
    def test_version_string_format(self):
        from repro._buildinfo import build_info, version_string

        info = build_info()
        assert set(info) == {"version", "git_rev"}
        s = version_string()
        assert s.startswith("repro ")
        assert info["version"] in s

