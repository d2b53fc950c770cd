"""Tests for the command-line entry point."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

_SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig2", "--n", "4", "--num", "6"])
        assert args.command == "run"
        assert args.experiment == "fig2"
        assert args.n == 4

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_flags(self):
        args = build_parser().parse_args(
            ["bench", "--bench-only", "event_throughput", "--no-bench-check"])
        assert args.command == "bench"
        assert args.bench_only == ["event_throughput"]
        assert args.no_bench_check

    def test_bench_filter_flag(self):
        args = build_parser().parse_args(["bench", "--filter", "trace"])
        assert args.filter == "trace"
        assert build_parser().parse_args(["bench"]).filter is None

    def test_trace_subcommands(self):
        args = build_parser().parse_args(
            ["trace", "export", "x.ctb", "--format", "chrome", "-o", "x.json"])
        assert (args.command, args.trace_command) == ("trace", "export")
        assert args.store == "x.ctb" and args.out == "x.json"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro-fpga" in capsys.readouterr().out


class TestSubcommandRequired:
    def test_positional_experiment_is_a_usage_error(self, capsys):
        """Experiments run only through ``run``; ``repro-fpga fig2`` is
        rejected by argparse like any other unknown subcommand."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fig2'" in capsys.readouterr().err


class TestMain:
    def test_fig2_small(self, capsys):
        assert main(["run", "fig2", "--n", "4", "--num", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "info_seq[" in out

    def test_table1_small(self, capsys):
        assert main(["run", "table1", "--depth", "64"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "base" in out

    def test_limitations(self, capsys):
        assert main(["run", "limitations"]) == 0
        assert "stale" in capsys.readouterr().out

    def test_sec52(self, capsys):
        assert main(["run", "sec52"]) == 0
        assert "bound violations" in capsys.readouterr().out


    def test_trace_flush_rows_with_server_rejected(self, capsys, tmp_path):
        # Checked before any connection: the address is never dialled.
        out = tmp_path / "x.ctb"
        assert main(["run", "fig2", "--n", "5", "--num", "7",
                     "--trace-out", str(out), "--trace-flush-rows", "16",
                     "--server", "unix:" + str(tmp_path / "none.sock")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--trace-flush-rows" in captured.err
        assert not out.exists()


class TestClosedStdout:
    def test_reader_closing_early_leaves_no_traceback(self, tmp_path):
        """``repro-fpga trace query ... | head -1``: the CLI exits non-zero
        and quietly once its reader goes away. The query prints far more
        than a pipe buffer holds, so the CLI is still writing when the
        reader closes."""
        from repro.trace import ColumnarSink, TraceHub

        path = str(tmp_path / "big.ctb")
        hub = TraceHub()
        hub.attach(ColumnarSink(path, hub.registry))
        for index in range(5000):
            hub.emit("run.span", index, kernel="k", start=index,
                     end=index + 1)
        hub.close()
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "query", path,
             "--limit", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 0
        assert b"run.span" in first
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err


class TestBenchSelection:
    """--filter / --bench-only resolution in the perf harness."""

    def test_select_by_exact_name(self):
        from repro.perf.harness import select_benchmarks
        assert select_benchmarks(names=["trace_ingest"]) == ["trace_ingest"]

    def test_select_unknown_name_raises(self):
        from repro.perf.harness import select_benchmarks
        with pytest.raises(ValueError, match="unknown benchmark"):
            select_benchmarks(names=["nope"])

    def test_select_by_substring_filter(self):
        from repro.perf.harness import BENCHMARKS, select_benchmarks
        names = select_benchmarks(name_filter="trace")
        assert names == [n for n in BENCHMARKS if "trace" in n]
        assert "trace_ingest" in names

    def test_filter_with_no_match_raises(self):
        from repro.perf.harness import select_benchmarks
        with pytest.raises(ValueError, match="no benchmark"):
            select_benchmarks(name_filter="zzz-no-such")

    def test_bench_filter_no_match_exits_nonzero_with_names(self, capsys):
        """CLI pin: a zero-match --filter fails fast, listing the names."""
        from repro.perf.harness import BENCHMARKS

        assert main(["bench", "--filter", "zzz-no-such",
                     "--no-bench-check"]) == 2
        err = capsys.readouterr().err
        assert "matches no benchmark" in err
        for name in BENCHMARKS:
            assert name in err
