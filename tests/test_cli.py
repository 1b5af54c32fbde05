"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_atplist_defaults(self):
        args = build_parser().parse_args(["atplist"])
        assert args.query == "A"
        assert not args.abort

    def test_fig1_options(self):
        args = build_parser().parse_args(
            ["fig1", "--fault", "AP5:S5", "--handler", "AP3:S5", "--no-chaining"]
        )
        assert args.fault == "AP5:S5"
        assert args.no_chaining

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.scenario == "fig1"
        assert args.json_out is None


class TestCommands:
    def test_atplist_commit(self, capsys):
        assert main(["atplist", "--query", "A"]) == 0
        out = capsys.readouterr().out
        assert "getGrandSlamsWonbyYear" in out
        assert "2005" in out

    def test_atplist_abort(self, capsys):
        assert main(["atplist", "--query", "B", "--abort"]) == 0
        out = capsys.readouterr().out
        assert "restored by dynamic compensation" in out
        assert "<points>475</points>" in out

    def test_fig1_happy(self, capsys):
        assert main(["fig1"]) == 0
        assert 'by="AP6"' in capsys.readouterr().out

    def test_fig1_fault_aborts(self, capsys):
        assert main(["fig1", "--fault", "AP5:S5"]) == 1
        out = capsys.readouterr().out
        assert "aborted" in out
        assert "<entry" not in out

    def test_fig1_handler_recovers(self, capsys):
        assert main(["fig1", "--fault", "AP5:S5", "--handler", "AP3:S5"]) == 0
        assert "recovered/committed" in capsys.readouterr().out

    def test_fig1_bad_fault_spec(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--fault", "nonsense"])

    @pytest.mark.parametrize("case", ["b", "c", "d"])
    def test_fig2_cases(self, capsys, case):
        assert main(["fig2", "--case", case]) == 0
        assert f"case ({case})" in capsys.readouterr().out

    def test_fig2_naive(self, capsys):
        assert main(["fig2", "--case", "b", "--no-chaining"]) == 0
        assert "[naive]" in capsys.readouterr().out

    def test_report_fig1_fault(self, capsys):
        assert main(["report", "--fault", "AP5:S5"]) == 0
        out = capsys.readouterr().out
        assert "-- transaction outcomes --" in out
        assert "-- message breakdown --" in out
        assert "rpc_latency" in out
        assert "-- slowest spans --" in out
        assert "aborted" in out

    def test_report_fig2(self, capsys):
        assert main(["report", "--scenario", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "detection latency (earliest):" in out

    def test_report_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(
            ["report", "--scenario", "fig2", "--json-out", str(path)]
        ) == 0
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        data = json.loads(text)
        assert {"scenario", "metrics", "spans"} <= set(data)
        assert data["metrics"]["histograms"]["rpc_latency"]["p50"] is not None
        assert data["spans"]["summary"]["total"] > 0
        # The artifact carries the whole tree: the report records it from the start.
        assert len(data["spans"]["spans"]) == data["spans"]["summary"]["total"]
        assert data["spans"]["spans"][0]["span_id"] == 1

    def test_spheres(self, capsys):
        assert main(["spheres", "--super-fraction", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "guaranteed (plain):                    1.000" in out
