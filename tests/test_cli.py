"""Tests for the command-line interface and the Fig. 1 renderer."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["match"])
        assert args.algorithm == "match4"
        assert args.n == 1 << 14

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match", "--algorithm", "bogus"])


class TestCommands:
    @pytest.mark.parametrize(
        "alg", ["match1", "match2", "match3", "match4", "sequential"]
    )
    def test_match(self, alg, capsys):
        rc = main(["match", "--n", "512", "--p", "8",
                   "--algorithm", alg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "maximal   : True" in out

    @pytest.mark.parametrize("layout", ["random", "sequential", "reversed",
                                        "sawtooth", "blocked"])
    def test_match_layouts(self, layout, capsys):
        rc = main(["match", "--n", "256", "--layout", layout])
        assert rc == 0

    @pytest.mark.parametrize("alg", ["match1", "match4"])
    def test_match_numpy_backend(self, alg, capsys):
        rc = main(["match", "--n", "512", "--algorithm", alg,
                   "--backend", "numpy"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend   : numpy" in out
        assert "maximal   : True" in out

    def test_match_backend_identical_output(self, capsys):
        main(["match", "--n", "512", "--backend", "reference"])
        ref = capsys.readouterr().out
        main(["match", "--n", "512", "--backend", "numpy"])
        vec = capsys.readouterr().out
        # everything but the backend line (matching size, PRAM time,
        # work, phases) must agree
        strip = lambda s: [l for l in s.splitlines()
                           if not l.startswith("backend")]
        assert strip(ref) == strip(vec)

    def test_algorithms(self, capsys):
        rc = main(["algorithms"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "match4 (optimal)" in out
        assert "numpy" in out and "reference" in out
        assert "iterations" in out

    def test_algorithms_list(self, capsys):
        rc = main(["algorithms", "--list"])
        names = capsys.readouterr().out.split()
        assert rc == 0
        assert {"match1", "match2", "match3", "match4",
                "sequential", "random_mate"} <= set(names)

    @pytest.mark.parametrize("alg", ["contraction", "wyllie", "sequential"])
    def test_rank(self, alg, capsys):
        rc = main(["rank", "--n", "300", "--p", "4", "--algorithm", alg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified  : True" in out

    def test_color(self, capsys):
        rc = main(["color", "--n", "400"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "classes" in out

    def test_curve(self, capsys):
        rc = main(["curve", "--n", "256", "--algorithm", "match4",
                   "--base", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "time*p" in out

    def test_info(self, capsys):
        rc = main(["info", "--n", "1048576"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "G(n)       : 5" in out
        assert "log G(n)   : 3" in out

    def test_fig1_default_is_paper_example(self, capsys):
        rc = main(["fig1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "n=7" in out and "x0" in out

    def test_fig1_custom_order(self, capsys):
        rc = main(["fig1", "--order", "2,0,1", "--bisector"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "n=3" in out
        assert "c" in out.splitlines()[-1]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")

    def test_match_record(self, capsys, tmp_path):
        from repro.telemetry.runrecord import read_records

        manifest = tmp_path / "runs.jsonl"
        rc = main(["match", "--n", "512", "--backend", "numpy",
                   "--record", str(manifest)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"recorded  : {manifest}" in out
        records = read_records(manifest)
        assert len(records) == 1
        rec = records[0]
        assert (rec.algorithm, rec.backend, rec.n) == ("match4", "numpy", 512)
        assert rec.wall_s is not None and rec.wall_s > 0
        assert rec.extra["layout"] == "random"
        assert rec.version and rec.git_rev
        # a second run appends
        main(["match", "--n", "512", "--backend", "numpy",
              "--record", str(manifest)])
        capsys.readouterr()
        assert len(read_records(manifest)) == 2

    def test_deterministic(self, capsys):
        main(["match", "--n", "512", "--seed", "3"])
        first = capsys.readouterr().out
        main(["match", "--n", "512", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestProfileAndReport:
    def test_profile_writes_all_artifacts(self, capsys, tmp_path):
        import json

        out = tmp_path / "prof"
        rc = main(["profile", "match4", "--n", "512",
                   "--machine-n", "64", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "utilization" in text
        assert "walkdown1" in text
        data = json.loads((out / "trace.json").read_text())
        assert {e["pid"] for e in data["traceEvents"]} == {1, 2}
        profile = json.loads((out / "profile.json").read_text())
        assert profile["algorithm"] == "match4"
        assert profile["phases"]
        assert sorted(p.name for p in out.iterdir()) == [
            "profile.json", "runs.jsonl", "trace.json"]
        from repro.telemetry import read_records

        records = read_records(out / "runs.jsonl")
        assert len(records) == 1
        assert records[0].extra["occupancy"]

    def test_profile_without_machine_twin(self, capsys, tmp_path):
        out = tmp_path / "prof"
        rc = main(["profile", "match2", "--n", "256",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "trace.json").exists()

    def test_report_single_manifest(self, capsys, tmp_path):
        out = tmp_path / "prof"
        main(["profile", "match4", "--n", "256", "--machine-n", "48",
              "--out", str(out)])
        capsys.readouterr()
        html_path = tmp_path / "report.html"
        rc = main(["report", str(out / "runs.jsonl"),
                   "--out", str(html_path)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "1 record(s)" in text
        html = html_path.read_text(encoding="utf-8")
        assert "<script" not in html
        assert "Machine occupancy" in html

    def test_report_baseline_vs_current(self, capsys, tmp_path):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        main(["match", "--n", "256", "--record", str(base)])
        main(["match", "--n", "256", "--record", str(cur)])
        capsys.readouterr()
        html_path = tmp_path / "report.html"
        rc = main(["report", str(base), str(cur),
                   "--out", str(html_path)])
        assert rc == 0
        assert "Run-over-run deltas" in html_path.read_text()


class TestArcDiagram:
    def test_every_pointer_drawn(self):
        from repro.lists import LinkedList
        from repro.lists.diagram import arc_diagram

        lst = LinkedList.from_order([0, 2, 4, 1, 5, 3, 6])
        text = arc_diagram(lst)
        # one arrowhead per pointer
        assert (text.count("►") + text.count("◄")) == lst.n - 1

    def test_bisector_marks(self):
        from repro.lists import LinkedList
        from repro.lists.diagram import arc_diagram

        lst = LinkedList.from_order([0, 2, 4, 1, 5, 3, 6])
        text = arc_diagram(lst, bisector=True)
        # Fig. 2: forward/backward pointers crossing c get marked
        assert "F" in text and "B" in text

    def test_size_limit(self):
        from repro.errors import InvalidParameterError
        from repro.lists import sequential_list
        from repro.lists.diagram import arc_diagram

        with pytest.raises(InvalidParameterError):
            arc_diagram(sequential_list(64))

    def test_small_lists(self):
        from repro.lists import LinkedList
        from repro.lists.diagram import arc_diagram

        for order in ([0], [1, 0], [0, 1]):
            text = arc_diagram(LinkedList.from_order(order))
            assert f"n={len(order)}" in text


class TestSelfCheck:
    def test_all_pass(self, capsys):
        rc = main(["selfcheck", "--n", "512"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "15/15 checks passed" in out
        assert "FAIL" not in out
        # the header states the producing build
        assert out.startswith("repro ")

    def test_report_api(self):
        from repro.selfcheck import run_selfcheck

        report = run_selfcheck(n=256, seed=1)
        assert report.passed
        assert len(report.results) == 15
        names = [r.name for r in report.results]
        assert "PRAM memory discipline" in names
        assert "telemetry round-trip" in names
        assert "profiler invariants" in names

    def test_failures_are_collected_not_raised(self, monkeypatch):
        # sabotage one subsystem: the report must record a FAIL and
        # keep going
        import repro.selfcheck as sc
        from repro.selfcheck import run_selfcheck

        import repro.apps.ranking as ranking

        def broken(lst, **kw):
            raise RuntimeError("injected")

        monkeypatch.setattr(ranking, "contraction_ranks", broken)
        report = run_selfcheck(n=128, seed=2)
        assert not report.passed
        failed = [r for r in report.results if not r.passed]
        assert len(failed) == 1
        assert "injected" in failed[0].detail
        assert "FAIL" in report.summary


class TestFoldAndTraceCommands:
    @pytest.mark.parametrize("op", ["sum", "max", "min"])
    @pytest.mark.parametrize("direction", ["suffix", "prefix"])
    def test_fold(self, op, direction, capsys):
        rc = main(["fold", "--n", "256", "--op", op,
                   "--direction", direction])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{direction} {op}" in out

    def test_fold_full_sum(self, capsys):
        main(["fold", "--n", "100", "--op", "sum", "--direction", "prefix"])
        out = capsys.readouterr().out
        assert f"full fold : {sum(range(100))}" in out

    def test_trace(self, capsys):
        rc = main(["trace", "--n", "48", "--rows", "3", "--span", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P0" in out and "utilization" in out

    @pytest.mark.parametrize("layout", ["gray", "bitrev", "interleaved"])
    def test_new_layouts(self, layout, capsys):
        # gray/bitrev need a power-of-two n
        rc = main(["match", "--n", "256", "--layout", layout])
        out = capsys.readouterr().out
        assert rc == 0
        assert "maximal   : True" in out


class TestProfileMemory:
    """repro profile --memory: the resource account's CLI surface."""

    @pytest.fixture(autouse=True)
    def _clean_resources(self):
        from repro.telemetry import resources
        yield
        resources.disable()
        resources.reset()

    def test_memory_flag_writes_profile_and_summary(self, capsys, tmp_path):
        out = tmp_path / "prof"
        rc = main(["profile", "match4", "--n", "512", "--memory",
                   "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "memory    :" in text
        assert "peak alloc:" in text
        from repro.telemetry import read_records

        # The account lives in the record alone: no separate file.
        assert sorted(p.name for p in out.iterdir()) == [
            "profile.json", "runs.jsonl", "trace.json"]
        (record,) = read_records(out / "runs.jsonl")
        data = record.extra["resources"]
        assert data["model"]["name"] == "array-sweep-rw-v1"
        assert data["peak_alloc_b"] > 0
        assert any(ph["alloc_peak_b"] is not None
                   for ph in data["phases"])
        assert str(out / "runs.jsonl") in text

    def test_record_carries_resources(self, capsys, tmp_path):
        out = tmp_path / "prof"
        main(["profile", "match4", "--n", "512", "--memory",
              "--out", str(out)])
        capsys.readouterr()
        from repro.telemetry import read_records

        (record,) = read_records(out / "runs.jsonl")
        res = record.extra["resources"]
        assert res["peak_alloc_b"] > 0
        assert res["backend"] == record.backend

    def test_trace_gains_counter_tracks(self, capsys, tmp_path):
        import json

        out = tmp_path / "prof"
        main(["profile", "match4", "--n", "512", "--memory",
              "--out", str(out)])
        capsys.readouterr()
        data = json.loads((out / "trace.json").read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert "phase alloc (B)" in names

    def test_without_flag_no_memory_artifacts(self, capsys, tmp_path):
        out = tmp_path / "prof"
        main(["profile", "match4", "--n", "256", "--out", str(out)])
        text = capsys.readouterr().out
        from repro.telemetry import read_records

        (record,) = read_records(out / "runs.jsonl")
        assert "resources" not in record.extra
        assert "memory    :" not in text

    def test_env_var_attaches_resources_to_match_record(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESOURCES", "full")
        path = tmp_path / "runs.jsonl"
        rc = main(["match", "--n", "256", "--record", str(path)])
        capsys.readouterr()
        assert rc == 0
        from repro.telemetry import read_records

        (record,) = read_records(path)
        assert record.extra["resources"]["peak_alloc_b"] > 0

    def test_report_renders_memory_panel(self, capsys, tmp_path):
        out = tmp_path / "prof"
        main(["profile", "match4", "--n", "512", "--memory",
              "--out", str(out)])
        capsys.readouterr()
        html_path = tmp_path / "report.html"
        rc = main(["report", str(out / "runs.jsonl"),
                   "--out", str(html_path)])
        assert rc == 0
        html = html_path.read_text(encoding="utf-8")
        assert "Memory &amp; data movement" in html
        assert "bytes-touched model" in html
