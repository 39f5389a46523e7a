"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
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
        assert main(["analyze", "--trace", str(path), "--msr"]) == 0
        out = capsys.readouterr().out
        assert "requests:            3" in out

    def test_analyze_fiu_file(self, tmp_path, capsys):
        path = tmp_path / "fiu.blkparse"
        path.write_text("100 1 smtpd 0 16 W 8 1 aa\n101 1 imapd 16 8 R 8 1 bb\n")
        assert main(["analyze", "--trace", str(path), "--fiu"]) == 0
        out = capsys.readouterr().out
        assert "requests:            3" in out

    def test_replay_fiu_file(self, tmp_path, capsys):
        path = tmp_path / "fiu.blkparse"
        lines = [f"{i} 1 smtpd {i * 8 % 4096} 8 W 8 1 x" for i in range(400)]
        path.write_text("\n".join(lines) + "\n")
        assert main([
            "replay", "--trace", str(path), "--fiu",
            "--system", "ssc", "--mode", "wb", "--warmup", "0",
        ]) == 0
        assert "IOPS:" in capsys.readouterr().out


class TestReplayCompare:
    def test_replay_ssc(self, capsys):
        assert main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
        ]) == 0
        out = capsys.readouterr().out
        assert "IOPS:" in out
        assert "write amplification" in out

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

    def test_recover(self, capsys):
        assert main(["recover", "--workload", "homes", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "FlashTier recovery" in out
        assert "OOB scan" in out


class TestErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

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
            "replay", "--trace", str(path), "--fiu", "--system", "ssc",
            "--open-loop", "--queue-depth", "8",
        ]) == 1
        captured = capsys.readouterr()
        assert "queue_depth=8" in captured.err
        assert "IOPS:" not in captured.out


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
