"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.testcase == "MINI"
        assert args.flow == "global-local"

    def test_bad_testcase_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "--testcase", "NOPE"])


class TestCommands:
    def test_corners(self, capsys):
        assert main(["corners"]) == 0
        out = capsys.readouterr().out
        assert "c0" in out and "Cmax" in out

    def test_build_mini_with_output(self, capsys, tmp_path):
        out_file = tmp_path / "tree.json"
        assert main(["build", "--testcase", "MINI", "--out", str(out_file)]) == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "sinks" in out

        # Round-trip the written file.
        from repro.netlist.serialize import load_tree

        tree = load_tree(str(out_file))
        tree.validate()

    def test_train_small(self, capsys):
        assert main(["train", "--cases", "3", "--moves", "4", "--predictor", "svr"]) == 0
        out = capsys.readouterr().out
        assert "MAE" in out

    @pytest.mark.slow
    def test_optimize_local_analytical(self, capsys, tmp_path):
        out_file = tmp_path / "opt.json"
        code = main(
            [
                "optimize",
                "--testcase",
                "MINI",
                "--flow",
                "local",
                "--predictor",
                "analytical",
                "--local-iterations",
                "2",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "reduction" in out


class TestTraceCLI:
    """``--trace-out`` round-trips and the ``report`` subcommand."""

    @pytest.fixture
    def data_dir(self):
        import pathlib

        return pathlib.Path(__file__).parent / "data"

    def test_optimize_parser_accepts_trace_out(self):
        args = build_parser().parse_args(["optimize", "--trace-out", "t.jsonl"])
        assert args.trace_out == "t.jsonl"

    def test_batch_parser_accepts_trace_out(self):
        args = build_parser().parse_args(["batch", "--trace-out", "t.jsonl"])
        assert args.trace_out == "t.jsonl"

    def test_report_parser_defaults(self):
        args = build_parser().parse_args(["report", "--trace", "t.jsonl"])
        assert args.top == 10
        assert args.validate is False
        assert args.compare_tree is None

    def test_report_requires_trace_or_perf_diff(self, capsys):
        # ``--trace`` is optional at parse time (``--perf-diff`` is the
        # alternative input), so the missing-input error is a graceful
        # exit-2, not an argparse SystemExit.
        assert main(["report"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_report_golden_output(self, capsys, data_dir):
        # The committed MINI trace has a byte-stable report: rendering is
        # a pure function of the trace file.
        trace = str(data_dir / "mini_trace.jsonl")
        golden = (data_dir / "mini_trace_report.txt").read_text()
        assert main(["report", "--trace", trace]) == 0
        assert capsys.readouterr().out == golden

    def test_report_validate_and_compare_self(self, capsys, data_dir):
        trace = str(data_dir / "mini_trace.jsonl")
        code = main(
            ["report", "--trace", trace, "--validate", "--compare-tree", trace]
        )
        assert code == 0

    def test_report_validate_rejects_bad_trace(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "bogus", "ts": 0.0, "worker": 0}\n')
        assert main(["report", "--trace", str(bad), "--validate"]) == 1
        assert "bad type" in capsys.readouterr().err

    def test_report_compare_tree_mismatch(self, capsys, tmp_path, data_dir):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        with tracer.span("something_else"):
            pass
        other = tmp_path / "other.jsonl"
        tracer.write(str(other))
        code = main(
            [
                "report",
                "--trace",
                str(data_dir / "mini_trace.jsonl"),
                "--compare-tree",
                str(other),
            ]
        )
        assert code == 1
        assert "something_else" in capsys.readouterr().err

    @pytest.mark.slow
    def test_batch_trace_out_round_trip(self, capsys, tmp_path):
        from repro.obs.merge import load_events, span_tree
        from repro.obs.schema import validate_events

        trace = tmp_path / "batch.jsonl"
        code = main(
            [
                "batch",
                "--testcases",
                "MINI",
                "--flow",
                "local",
                "--jobs",
                "1",
                "--local-iterations",
                "1",
                "--buffers-per-iteration",
                "8",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        events = load_events(str(trace))
        assert validate_events(events) == []
        tree = span_tree(events)
        assert "batch" in tree
        assert "batch/batch_case" in tree
        assert any(path.endswith("/local_opt") for path in tree)
