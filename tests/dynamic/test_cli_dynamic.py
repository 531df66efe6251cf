"""The ``dynamic`` CLI subcommand end to end."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["dynamic"])
        assert args.layout == "random"
        assert args.maintain == "repair"
        assert args.flips == 0 and args.drops == 0

    def test_rejects_unknown_layout(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic", "--layout", "spiral"])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic", "--maintain", "magic"])


class TestCommand:
    @pytest.mark.parametrize("layout", ["rings", "runs", "gray", "bitrev",
                                        "random"])
    def test_repair_across_layouts(self, layout, capsys):
        rc = main(["dynamic", "--n", "64", "--steps", "40",
                   "--layout", layout, "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all components verified maximal" in out
        assert "repair:" in out

    def test_recompute_strategy(self, capsys):
        rc = main(["dynamic", "--n", "64", "--steps", "30",
                   "--maintain", "recompute", "--batch", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recomputes=3" in out

    def test_faults_and_stabilize(self, capsys):
        rc = main(["dynamic", "--n", "64", "--steps", "50",
                   "--flips", "3", "--drops", "2", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults: 5 injected" in out
        assert "stabilize:" in out
        assert "all components verified maximal" in out

    def test_contract_flag(self, capsys):
        rc = main(["dynamic", "--n", "128", "--steps", "60",
                   "--contract"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seeded by the maintained matching" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "churn.json"
        rc = main(["dynamic", "--n", "32", "--steps", "25",
                   "--json", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["steps_run"] == 25
        assert data["ledger"]["edits"] == 25
        assert data["config"]["layout"] == "random"

    def test_numpy_backend_recompute(self, capsys):
        rc = main(["dynamic", "--n", "64", "--steps", "16",
                   "--maintain", "recompute", "--batch", "8",
                   "--backend", "numpy"])
        assert rc == 0
