"""CLI surfaces: repro match --backend auto, repro algorithms --list."""

from repro.cli import main


class TestMatchAuto:
    def run(self, capsys, backend):
        assert main(["match", "--n", "512", "--seed", "4", "--backend",
                     backend]) == 0
        return capsys.readouterr().out.splitlines()

    def test_auto_prints_resolved_and_planned(self, capsys):
        # The resolved backend is printed with the ask, and the answer
        # is the explicit backend's line for line.
        auto = self.run(capsys, "auto")
        explicit = self.run(capsys, "numpy")
        assert "backend   : numpy (requested auto)" in auto
        assert "backend   : numpy" in explicit
        strip = [line for line in auto if not line.startswith("backend")]
        assert strip == [line for line in explicit
                         if not line.startswith("backend")]

    def test_explicit_backend_prints_no_plan_line(self, capsys):
        out = self.run(capsys, "numpy")
        assert "backend   : numpy" in out
        assert not any("requested" in line for line in out)


class TestAlgorithmsPlan:
    def test_list_mode_unchanged(self, capsys):
        assert main(["algorithms", "--list"]) == 0
        out = capsys.readouterr().out
        assert "plan" not in out
