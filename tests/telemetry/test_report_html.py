"""Tests for the self-contained HTML run-report dashboard."""

import re

import pytest

from repro.telemetry import RunRecord, diff_records, render_report, write_report


def rec(algorithm="match4", backend="reference", n=1024, p=256, time=100,
        work=8000, seed=0, wall_s=0.01, phases=(), **extra):
    return RunRecord(
        algorithm=algorithm, backend=backend, n=n, p=p, time=time,
        work=work, seed=seed, wall_s=wall_s,
        phases=tuple(phases) or (
            ("partition", time // 4, work // 4, 2),
            ("sort", time // 2, work // 2, 3),
            ("cutwalk", time // 4, work // 4, 1),
        ),
        version="1.0", git_rev="abc1234", extra=dict(extra),
    )


FIXTURE = [
    rec(n=1024, time=100, work=8000),
    rec(n=4096, time=130, work=33000),
    rec(n=16384, time=160, work=132000),
    rec(backend="numpy", n=1024, time=100, work=8000, wall_s=0.002),
    rec(backend="numpy", n=4096, time=130, work=33000, wall_s=0.004),
]


class TestRenderReport:
    def test_deterministic_for_fixed_fixture(self):
        assert render_report(FIXTURE) == render_report(FIXTURE)

    def test_self_contained(self):
        html = render_report(FIXTURE)
        assert "<script" not in html
        assert "href=" not in html
        assert "src=" not in html
        assert not re.search(r"https?://", html)
        assert html.count("<style>") == 1

    def test_sections_present(self):
        html = render_report(FIXTURE)
        assert "<svg" in html
        assert "Cost curves" in html
        assert "Per-phase time breakdown" in html
        assert "Per-phase work breakdown" in html
        assert "Schedule shape" in html
        assert "match4/reference" in html

    def test_balanced_tags(self):
        html = render_report(FIXTURE)
        for tag in ("div", "table", "tr", "svg", "main", "html"):
            assert html.count(f"<{tag}") == html.count(f"</{tag}>"), tag

    def test_escapes_untrusted_strings(self):
        html = render_report([rec(algorithm="<img src=x>")])
        assert "<img" not in html
        assert "&lt;img" in html

    def test_empty_records(self):
        html = render_report([])
        assert "no run records" in html

    def test_occupancy_heatmap_from_extra(self):
        r = rec(occupancy=[[0.0, 0.5], [1.0, 0.25]], utilization=0.4375)
        html = render_report([r])
        assert "Machine occupancy" in html
        assert "utilization 0.438" in html

    def test_single_series_needs_two_points(self):
        html = render_report([rec(n=1024)])
        assert "at least two distinct" in html

    def test_repeated_key_pairs_first_and_last(self):
        old = rec(n=1024, time=100)
        new = rec(n=1024, time=90)
        html = render_report([old, new])
        assert "Run-over-run deltas" in html
        assert "improvement" in html or "▼" in html

    def test_explicit_baseline_section(self):
        base = [rec(n=1024, time=100)]
        cur = [rec(n=1024, time=120)]
        html = render_report(cur, baseline=base)
        assert "Run-over-run deltas" in html
        assert "▲" in html

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "r" / "report.html", FIXTURE)
        assert path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")


class TestDiffRecords:
    def test_identical_records_no_findings(self):
        assert diff_records(FIXTURE, FIXTURE) == []

    def test_any_integer_increase_is_regression(self):
        base = [rec(time=100)]
        cur = [rec(time=101)]
        findings = diff_records(base, cur)
        kinds = {(f["kind"], f["metric"]) for f in findings}
        assert ("regression", "time") in kinds

    def test_phase_metrics_compared(self):
        base = [rec(phases=(("sort", 50, 100, 1),))]
        cur = [rec(phases=(("sort", 40, 100, 1),))]
        findings = diff_records(base, cur)
        assert {("improvement", "phase.sort.time")} == \
            {(f["kind"], f["metric"]) for f in findings}

    def test_wallclock_within_tolerance_ignored(self):
        base = [rec(wall_s=0.010)]
        cur = [rec(wall_s=0.0108)]
        assert diff_records(base, cur) == []

    def test_wallclock_beyond_tolerance_flagged(self):
        base = [rec(wall_s=0.010)]
        cur = [rec(wall_s=0.020)]
        findings = diff_records(base, cur)
        assert [("regression", "wall_s")] == \
            [(f["kind"], f["metric"]) for f in findings]

    def test_missing_and_new_workloads(self):
        base = [rec(n=1024)]
        cur = [rec(n=4096)]
        kinds = {f["kind"] for f in diff_records(base, cur)}
        assert kinds == {"missing", "new"}

    def test_seed_distinguishes_workloads(self):
        base = [rec(seed=0)]
        cur = [rec(seed=1)]
        kinds = {f["kind"] for f in diff_records(base, cur)}
        assert kinds == {"missing", "new"}


class TestMemoryPanel:
    """The Memory & data movement section from extra["resources"]."""

    @staticmethod
    def res(peak=4096, hops=2, bytes_out=2832, bytes_in=1224):
        phases = [
            {"name": "partition", "time": 25, "work": 2000, "steps": 2,
             "wall_s": 0.002, "alloc_net_b": 128, "alloc_peak_b": peak,
             "bytes_touched": 32000, "bandwidth_bps": 1.6e10},
            {"name": "cutwalk", "time": 25, "work": 2000, "steps": 1,
             "wall_s": 0.001, "alloc_net_b": -64, "alloc_peak_b": 1024,
             "bytes_touched": 32000, "bandwidth_bps": 3.2e10},
        ]
        return {
            "backend": "reference",
            "model": {"name": "array-sweep-rw-v1", "bytes_per_work": 16},
            "phases": phases,
            "ledger": {"bytes_out": bytes_out, "bytes_in": bytes_in,
                       "span_replay_bytes": 512, "shard_hops": hops},
            "peak_alloc_b": peak,
        }

    def test_absent_without_resources(self):
        html = render_report(FIXTURE)
        assert "Memory &amp; data movement" not in html

    def test_panel_renders_all_three_cards(self):
        html = render_report([rec(resources=self.res())])
        assert "Memory &amp; data movement" in html
        assert "tracemalloc peaks" in html            # stacked bars
        assert "bytes-touched model" in html          # bandwidth table
        assert "array-sweep-rw-v1" in html
        assert "process-pool boundary" in html        # ledger table
        assert "span replay" in html

    def test_byte_quantities_formatted(self):
        html = render_report([rec(resources=self.res(
            peak=3 * 1024 * 1024, bytes_out=2832))])
        assert "3.0 MiB" in html
        assert "2.8 KiB" in html

    def test_no_ledger_without_shard_hops(self):
        html = render_report([rec(resources=self.res(hops=0))])
        assert "Memory &amp; data movement" in html
        assert "shard hops" not in html

    def test_tags_stay_balanced(self):
        html = render_report([rec(resources=self.res())])
        for tag in ("div", "table", "tr", "td"):
            assert html.count(f"<{tag}") == html.count(f"</{tag}>"), tag

    def test_hostile_phase_name_escaped(self):
        res = self.res()
        res["phases"][0]["name"] = "<script>alert(1)</script>"
        html = render_report([rec(resources=res)])
        assert "<script>alert" not in html

    def test_deterministic(self):
        records = [rec(resources=self.res())]
        assert render_report(records) == render_report(records)
