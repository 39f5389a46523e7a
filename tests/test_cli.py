"""End-to-end tests for the command-line interface."""

import pytest

import repro.cli
from repro.cli import main
from repro.traces.analyze import analyze
from repro.traces.filefmt import read_trace


class TestWorkloads:
    def test_lists_all_profiles(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("homes", "mail", "usr", "proj"):
            assert name in out


class TestGenerateAnalyze:
    def test_generate_writes_file(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main([
            "generate", "--workload", "usr", "--scale", "0.02",
            "--seed", "3", "-o", str(path),
        ]) == 0
        records = read_trace(path)
        assert len(records) > 0
        assert "wrote" in capsys.readouterr().out

    def test_analyze_synthetic(self, capsys):
        assert main(["analyze", "--workload", "homes", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "requests:" in out
        assert "unique blocks:" in out

    def test_analyze_trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["generate", "--workload", "mail", "--scale", "0.02", "-o", str(path)])
        capsys.readouterr()
        assert main(["analyze", "--trace", str(path)]) == 0
        assert "overwrite ratio" in capsys.readouterr().out

    def test_analyze_msr_file(self, tmp_path, capsys):
        path = tmp_path / "msr.csv"
        path.write_text("1,hm,0,Read,0,8192,10\n2,hm,0,Write,0,4096,10\n")
        assert main(["analyze", "--trace", str(path), "--format", "msr"]) == 0
        out = capsys.readouterr().out
        assert "requests:            3" in out

    def test_analyze_fiu_file(self, tmp_path, capsys):
        path = tmp_path / "fiu.blkparse"
        path.write_text("100 1 smtpd 0 16 W 8 1 aa\n101 1 imapd 16 8 R 8 1 bb\n")
        assert main(["analyze", "--trace", str(path), "--format", "fiu"]) == 0
        out = capsys.readouterr().out
        assert "requests:            3" in out

    def test_replay_fiu_file(self, tmp_path, capsys):
        path = tmp_path / "fiu.blkparse"
        lines = [f"{i} 1 smtpd {i * 8 % 4096} 8 W 8 1 x" for i in range(400)]
        path.write_text("\n".join(lines) + "\n")
        assert main([
            "replay", "--trace", str(path), "--format", "fiu",
            "--system", "ssc", "--mode", "wb", "--warmup", "0",
        ]) == 0
        assert "IOPS:" in capsys.readouterr().out


# Two 4 KB block requests in each trace format.
TRACE_FORMATS = {
    "native": ("t.trace", "W 0\nW 1\n", []),
    "msr": ("msr.csv", "1,hm,0,Read,0,8192,10\n", ["--format", "msr"]),
    "fiu": ("fiu.blkparse", "100 1 smtpd 0 16 W 8 1 aa\n", ["--format", "fiu"]),
}


class TestTraceLimit:
    """``--limit`` means the same on every trace format."""

    def _analyze(self, tmp_path, fmt, limit):
        name, text, flags = TRACE_FORMATS[fmt]
        path = tmp_path / name
        path.write_text(text)
        return main(["analyze", "--trace", str(path), *flags, "--limit", limit])

    @pytest.mark.parametrize("fmt", sorted(TRACE_FORMATS))
    def test_limit_zero_is_an_empty_trace(self, tmp_path, capsys, fmt):
        assert self._analyze(tmp_path, fmt, "0") == 1
        assert "trace is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", sorted(TRACE_FORMATS))
    def test_limit_counts_requests(self, tmp_path, capsys, fmt):
        # Each file holds two block requests; the cap counts requests,
        # not lines, whatever the format.
        assert self._analyze(tmp_path, fmt, "1") == 0
        assert "requests:            1 (" in capsys.readouterr().out

    def test_negative_limit_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self._analyze(tmp_path, "native", "-1")
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", sorted(TRACE_FORMATS))
    def test_limit_parses_no_later_line(self, tmp_path, capsys, fmt):
        # A malformed line after the cap is never parsed.
        name, text, flags = TRACE_FORMATS[fmt]
        path = tmp_path / name
        path.write_text(text + "broken\n")
        assert main(["analyze", "--trace", str(path), *flags, "--limit", "2"]) == 0
        assert "requests:            2 (" in capsys.readouterr().out


class TestTraceFormat:
    def test_unknown_format_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--trace", str(tmp_path / "t"), "--format", "csv"])
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--msr", "--fiu"])
    def test_format_booleans_gone(self, tmp_path, capsys, flag):
        path = tmp_path / "t.csv"
        path.write_text("1,hm,0,Read,0,8192,10\n")
        with pytest.raises(SystemExit):
            main(["analyze", "--trace", str(path), flag])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestReplayCompare:
    def test_replay_ssc(self, capsys):
        assert main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
        ]) == 0
        out = capsys.readouterr().out
        assert "IOPS:" in out
        assert "write amplification" in out

    def test_replay_prints_provisioned_cache_blocks(self, capsys):
        # mail at scale 0.02 asks for 120 blocks; each of 4 shards is
        # floored at 16 * 16 pages-per-block = 256 blocks.
        assert main([
            "replay", "--workload", "mail", "--scale", "0.02",
            "--system", "ssc-r", "--shards", "4",
        ]) == 0
        assert "cache blocks:        120 requested, 1,024 provisioned" in (
            capsys.readouterr().out
        )

    def test_replay_native_wt_no_consistency(self, capsys):
        assert main([
            "replay", "--workload", "usr", "--scale", "0.02",
            "--system", "native", "--mode", "wt", "--no-consistency",
        ]) == 0
        assert "IOPS:" in capsys.readouterr().out

    def test_replay_trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["generate", "--workload", "homes", "--scale", "0.02", "-o", str(path)])
        capsys.readouterr()
        assert main([
            "replay", "--trace", str(path), "--system", "ssc-r",
            "--mode", "wb", "--limit", "500",
        ]) == 0
        assert "requests measured:" in capsys.readouterr().out

    def test_compare_prints_three_systems(self, capsys):
        assert main(["compare", "--workload", "mail", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        for name in ("native", "ssc", "ssc-r"):
            assert name in out

    @pytest.mark.parametrize("command", [["compare", "--mode", "wt"], ["recover"]])
    def test_trace_file_is_analyzed_once(self, tmp_path, monkeypatch, capsys, command):
        # Every system a command builds is sized from one analysis.
        path = tmp_path / "usr.trace"
        main(["generate", "--workload", "usr", "--scale", "0.02", "-o", str(path)])
        argv = [*command, "--trace", str(path), "--limit", "1500"]
        capsys.readouterr()
        assert main(argv) == 0
        plain = capsys.readouterr()
        calls = []

        def counted(records):
            calls.append(len(records))
            return analyze(records)

        monkeypatch.setattr(repro.cli, "analyze", counted)
        assert main(argv) == 0
        assert calls == [1500]
        assert capsys.readouterr() == plain

    def test_recover(self, capsys):
        assert main(["recover", "--workload", "homes", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "FlashTier recovery" in out
        assert "OOB scan" in out

    def test_recover_sharded_compares_one_ssd(self, capsys):
        # The SSC side is an array; the native baseline stays one SSD.
        argv = ["recover", "--workload", "mail", "--scale", "0.02"]
        assert main(argv + ["--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        assert "Parallel recovery across 2 shards" in sharded
        assert main(argv) == 0
        single = capsys.readouterr().out
        native = [line for line in sharded.splitlines() if line.startswith("Native")]
        assert len(native) == 2
        assert native == [
            line for line in single.splitlines() if line.startswith("Native")
        ]


class TestErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_recover_has_no_consistency_switch(self, capsys):
        with pytest.raises(SystemExit):
            main(["recover", "--workload", "mail", "--no-consistency"])
        assert "unrecognized arguments: --no-consistency" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "compare", "recover"])
    def test_unknown_mode_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--workload", "mail", "--mode", "xx"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error: argument --mode: invalid choice: 'xx'" in err
        assert "Traceback" not in err and "ValueError" not in err

    @pytest.mark.parametrize("command", ["analyze", "replay", "compare", "recover"])
    def test_malformed_trace_line_reported(self, tmp_path, capsys, command):
        path = tmp_path / "msr.csv"
        path.write_text("1,hm,0,Read,0,8192,10\n1,hm,0,Erase,0,8192,10\n")
        assert main([command, "--trace", str(path), "--format", "msr"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:2: unknown type 'Erase'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "replay", "compare", "recover"])
    def test_unreadable_trace_reported(self, tmp_path, capsys, command):
        path = tmp_path / "missing.trace"
        assert main([command, "--trace", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot read {path}: No such file or directory\n"
        )
        assert captured.out == ""

    def test_analyze_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("# nothing\n")
        assert main(["analyze", "--trace", str(path)]) == 1

    def test_open_loop_rejects_queue_depth(self, tmp_path, capsys):
        # The FIU trace carries arrival timestamps, so open loop can
        # run; a queue depth would silently do nothing there.
        path = tmp_path / "fiu.blkparse"
        lines = [f"{i} 1 smtpd {i * 8 % 4096} 8 W 8 1 x" for i in range(100)]
        path.write_text("\n".join(lines) + "\n")
        assert main([
            "replay", "--trace", str(path), "--format", "fiu", "--system", "ssc",
            "--open-loop", "--queue-depth", "8",
        ]) == 1
        captured = capsys.readouterr()
        assert "queue_depth=8" in captured.err
        assert "IOPS:" not in captured.out

    # homes at scale 0.02 provisions fewer blocks than SSC-R's log pool
    # and spare blocks need; a bad shard count fails SystemConfig.
    @pytest.mark.parametrize("argv", [
        ["replay", "--workload", "homes", "--scale", "0.02"],
        ["compare", "--workload", "homes", "--scale", "0.02"],
        ["recover", "--workload", "homes", "--scale", "0.02", "--shards", "0"],
    ], ids=["replay", "compare", "recover"])
    def test_config_error_reported(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_native_array_rejected(self, capsys):
        assert main([
            "replay", "--workload", "mail", "--scale", "0.02",
            "--system", "native", "--shards", "2",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the native system runs on one SSD: shards must be 1\n"
        )
        assert "IOPS:" not in captured.out

    def test_zero_shards_rejected(self, capsys):
        assert main([
            "replay", "--workload", "mail", "--scale", "0.02",
            "--system", "ssc", "--shards", "0",
        ]) == 1
        assert capsys.readouterr().err == "error: shards must be >= 1\n"

    def test_compare_config_error_runs_no_replay(self, monkeypatch, capsys):
        from repro.core.flashtier import FlashTierSystem

        replayed = []
        monkeypatch.setattr(FlashTierSystem, "replay",
                            lambda system, *args, **kwargs: replayed.append(system))
        assert main(["compare", "--workload", "homes", "--scale", "0.02"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert replayed == []

    def test_failed_replay_closes_event_file(self, tmp_path, monkeypatch,
                                             capsys):
        import repro.obs

        sinks = []

        class RecordingSink(repro.obs.JsonlSink):
            def __init__(self, path):
                super().__init__(path)
                sinks.append(self)

        monkeypatch.setattr(repro.obs, "JsonlSink", RecordingSink)
        # Synthetic workloads carry no arrival times, so open loop fails.
        assert main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--open-loop", "--queue-depth", "4",
            "--events-out", str(tmp_path / "events.jsonl"),
        ]) == 1
        assert "error:" in capsys.readouterr().err
        assert [sink._file.closed for sink in sinks] == [True]


class TestObservabilityCli:
    def test_replay_writes_all_three_outputs(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.json"
        events_out = tmp_path / "events.jsonl"
        metrics_out = tmp_path / "metrics.json"
        assert main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
            "--trace-out", str(trace_out),
            "--events-out", str(events_out),
            "--metrics", str(metrics_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "Chrome trace entries" in out

        import json
        doc = json.loads(trace_out.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i", "M"}

        lines = events_out.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)

        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]["replay.ops"] > 0
        assert metrics["histograms"]["replay.latency_us"]["count"] > 0

    def test_trace_report_summarizes_capture(self, tmp_path, capsys):
        events_out = tmp_path / "events.jsonl"
        main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
            "--events-out", str(events_out),
        ])
        capsys.readouterr()
        assert main(["trace", "report", str(events_out), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Captured events" in out
        assert "Write-amplification breakdown" in out
        assert "user writes" in out

    def test_trace_report_missing_file(self, tmp_path, capsys):
        assert main(["trace", "report", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_report_empty_capture(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "report", str(path)]) == 1
        assert "empty" in capsys.readouterr().err

    def test_untraced_replay_unchanged(self, capsys):
        # The observability flags default off; a plain replay must not
        # mention any trace outputs.
        assert main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
        ]) == 0
        out = capsys.readouterr().out
        assert "Chrome trace" not in out
        assert "events" not in out
