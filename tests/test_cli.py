"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "doom"])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "cod2", "--scheme", "x"])

    def test_defaults(self):
        args = build_parser().parse_args(["render", "cod2"])
        assert args.scale == "tiny"
        assert args.gpus == 8
        assert args.scheme == "chopin+sched"


class TestCommands:
    def test_render(self, capsys, tmp_path):
        ppm = tmp_path / "frame.ppm"
        assert main(["render", "cod2", "--scheme", "duplication",
                     "--ppm", str(ppm)]) == 0
        out = capsys.readouterr().out
        assert "frame time" in out
        assert "geometry" in out
        assert ppm.exists()
        assert ppm.read_bytes().startswith(b"P6")

    def test_compare(self, capsys):
        assert main(["compare", "cod2",
                     "--schemes", "chopin+sched"]) == 0
        out = capsys.readouterr().out
        assert "duplication" in out and "chopin+sched" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "cod2"]) == 0
        out = capsys.readouterr().out
        assert "composition groups" in out
        assert "mode=opaque" in out
        assert "histogram" in out

    def test_export_round_trip(self, capsys, tmp_path):
        path = tmp_path / "trace.npz"
        assert main(["export", "cod2", str(path)]) == 0
        assert path.exists()
        assert "round-trip verified" in capsys.readouterr().out

    def test_figures_table2(self, capsys):
        assert main(["figures", "table2"]) == 0
        assert "Number of GPUs" in capsys.readouterr().out

    def test_figures_subset(self, capsys):
        assert main(["figures", "fig17", "--benchmarks", "cod2"]) == 0
        assert "cod2" in capsys.readouterr().out

    def test_gpu_count_flag(self, capsys):
        assert main(["render", "cod2", "--gpus", "2",
                     "--scheme", "duplication"]) == 0
        assert "2 GPUs" in capsys.readouterr().out


class TestTimelineCommand:
    def test_timeline_renders_gantt(self, capsys):
        assert main(["timeline", "wolf", "--gpus", "2",
                     "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "gpu0" in out and "gpu1" in out
        assert "cycles" in out

    def test_timeline_with_links(self, capsys):
        assert main(["timeline", "wolf", "--gpus", "2", "--width", "40",
                     "--links"]) == 0
        assert "link" in capsys.readouterr().out


class TestExportResultsCommand:
    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        assert main(["export-results", str(path),
                     "--benchmarks", "wolf",
                     "--schemes", "chopin+sched"]) == 0
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert "speedup_vs_duplication" in header

    def test_json(self, tmp_path):
        path = tmp_path / "r.json"
        assert main(["export-results", str(path),
                     "--benchmarks", "wolf",
                     "--schemes", "gpupd"]) == 0
        import json
        rows = json.loads(path.read_text())
        assert {r["scheme"] for r in rows} == {"duplication", "gpupd"}
