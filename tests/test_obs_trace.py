"""The trace bus: golden schema, Chrome export, and the zero-cost-off
differential.

Three external contracts live here:

* ``tests/golden/trace_schema.json`` pins every declared event type's
  category and argument keys, and the JSONL line shape.  Renaming an
  event or a field breaks downstream trace readers and must show up as
  a reviewed golden-file change.
* The Chrome ``trace_event`` export must stay loadable: "X" slices
  carry durations, "i" instants carry scopes, "M" metadata names every
  lane, and the whole document is plain JSON.
* **Tracing off is free**: a replay with no tracer attached must
  produce bit-identical simulated results to one that was traced —
  the guards are ``if self.tracer is not None`` and nothing else may
  differ.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.obs import (
    EVENT_TYPES,
    JsonlSink,
    RingBufferSink,
    Tracer,
    chrome_trace_events,
    instrument_system,
    load_events,
    write_chrome_trace,
)
from repro.traces.synthetic import PROFILES, generate_trace

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "trace_schema.json").read_text()
)


def build_traced_system(shards: int = 1, cache_blocks: int = 256):
    profile = PROFILES["homes"].scaled(0.01)
    system = build_system(SystemConfig(
        kind=SystemKind.SSC,
        mode=CacheMode.WRITE_BACK,
        cache_blocks=cache_blocks,
        disk_blocks=profile.address_range_blocks,
        shards=shards,
    ))
    trace = generate_trace(profile, seed=42)
    return system, trace


@pytest.fixture(scope="module")
def captured_events():
    """One fixed-seed traced replay + crash/recovery; reused by every
    schema assertion in this module."""
    system, trace = build_traced_system()
    tracer = Tracer()
    instrument_system(system, tracer)
    system.replay(trace.records, warmup_fraction=0.25)
    system.device.crash()
    system.device.recover()
    return tracer.ring.events


class TestGoldenSchema:
    def test_declarations_match_golden(self):
        assert sorted(EVENT_TYPES) == sorted(GOLDEN["events"])
        for name, spec in EVENT_TYPES.items():
            assert GOLDEN["events"][name]["cat"] == spec.category
            assert GOLDEN["events"][name]["fields"] == sorted(spec.fields)

    def test_emitted_args_match_golden(self, captured_events):
        for event in captured_events:
            golden = GOLDEN["events"][event.name]
            assert sorted(event.args) == golden["fields"], event.name
            assert event.cat == golden["cat"]

    def test_replay_emits_the_catalog(self, captured_events):
        # The fixed-seed run must exercise the catalog broadly; an
        # event type silently going quiet is a regression too.
        emitted = {event.name for event in captured_events}
        expected = {
            "op.issue", "op.device", "gc.victim", "gc.merge",
            "evict.silent", "log.append", "log.flush",
            "checkpoint.begin", "checkpoint.commit", "recovery.phase",
            "flash.alloc", "flash.release",
        }
        assert expected <= emitted

    def test_jsonl_line_shape(self, captured_events, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        for event in captured_events[:50]:
            sink.accept(event)
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 50
        for line in lines:
            assert list(json.loads(line)) == GOLDEN["jsonl_keys"]
        # And load_events round-trips the dicts exactly.
        loaded = load_events(path)
        assert loaded == [e.to_dict() for e in captured_events[:50]]

    def test_timestamps_are_monotonic_per_request_stream(self, captured_events):
        issues = [e for e in captured_events if e.name == "op.issue"]
        assert issues == sorted(issues, key=lambda e: e.ts_us)


class TestChromeExport:
    def test_document_structure(self, captured_events, tmp_path):
        path = tmp_path / "trace.json"
        entries = write_chrome_trace(captured_events, path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["displayTimeUnit", "traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == entries

    def test_phases_and_lanes(self, captured_events):
        entries = chrome_trace_events(captured_events)
        metadata = [e for e in entries if e["ph"] == "M"]
        body = [e for e in entries if e["ph"] != "M"]
        # Every lane is named exactly once, before the body.
        tids = {m["tid"] for m in metadata}
        names = {m["args"]["name"] for m in metadata}
        assert len(tids) == len(metadata) == len(names)
        assert entries[:len(metadata)] == metadata
        for entry in body:
            assert entry["tid"] in tids
            assert entry["pid"] == 0
            if entry["ph"] == "X":
                assert entry["dur"] > 0.0
            else:
                assert entry["ph"] == "i"
                assert entry["s"] == "t"
        assert {"requests", "gc", "log"} <= names

    def test_sharded_planes_get_per_shard_lanes(self):
        system, trace = build_traced_system(shards=2, cache_blocks=512)
        tracer = Tracer()
        instrument_system(system, tracer)
        system.replay(trace.records, warmup_fraction=0.25)
        lanes = {event.lane for event in tracer.ring.events}
        assert any(lane.startswith("s0:plane:") for lane in lanes)
        assert any(lane.startswith("s1:plane:") for lane in lanes)
        routed = [e for e in tracer.ring.events if e.name == "shard.route"]
        assert routed and {e.args["shard"] for e in routed} == {0, 1}


class TestTracerContract:
    def test_undeclared_event_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="undeclared event"):
            tracer.emit("made.up", lane="x")

    def test_advance_to_is_monotonic(self):
        tracer = Tracer()
        tracer.advance_to(100.0)
        tracer.advance_to(50.0)
        assert tracer.now_us == 100.0
        tracer.emit("checkpoint.begin", lane="c", seq=1)
        assert tracer.ring.events[0].ts_us == 100.0

    def test_ring_buffer_drops_oldest(self):
        sink = RingBufferSink(capacity=3)
        tracer = Tracer(sink)
        for seq in range(5):
            tracer.emit("checkpoint.begin", lane="c", seq=seq)
        assert sink.dropped == 2
        assert [e.args["seq"] for e in sink.events] == [2, 3, 4]

    def test_fan_out_to_multiple_sinks(self, tmp_path):
        ring = RingBufferSink()
        jsonl = JsonlSink(tmp_path / "e.jsonl")
        tracer = Tracer(ring, jsonl)
        tracer.emit("checkpoint.begin", lane="c", seq=7)
        tracer.close()
        assert len(ring) == 1 and jsonl.written == 1
        assert tracer.events_emitted == 1

    def test_load_events_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_events(path)


class TestRecoveryPhases:
    def test_three_phases_in_order(self, captured_events):
        phases = [e for e in captured_events if e.name == "recovery.phase"]
        assert [e.args["phase"] for e in phases] == \
            ["load_checkpoint", "replay_log", "materialize"]
        # Staggered start times: each phase begins when the previous
        # one's simulated cost ends.
        assert phases[0].ts_us + phases[0].dur_us == \
            pytest.approx(phases[1].ts_us)
        assert phases[1].ts_us + phases[1].dur_us == \
            pytest.approx(phases[2].ts_us)
        assert phases[2].args["count"] > 0


class TestTracingOffIsFree:
    """The acceptance criterion: with tracing disabled, all simulated
    metrics are bit-identical to a never-instrumented run."""

    @staticmethod
    def run(instrument: bool):
        system, trace = build_traced_system()
        tracer = Tracer() if instrument else None
        if instrument:
            instrument_system(system, tracer)
        stats = system.replay(trace.records, warmup_fraction=0.25,
                              keep_latencies=True)
        return system, stats, tracer

    def test_traced_run_is_bit_identical(self):
        plain_system, plain_stats, _ = self.run(instrument=False)
        traced_system, traced_stats, tracer = self.run(instrument=True)
        assert tracer.events_emitted > 0
        assert traced_stats.to_dict() == plain_stats.to_dict()
        assert traced_stats.latency.samples == plain_stats.latency.samples
        for attr in ("manager", "device"):
            theirs = getattr(traced_system, attr).stats
            ours = getattr(plain_system, attr).stats
            assert theirs == ours
        assert traced_system.device.chip.stats == \
            plain_system.device.chip.stats

    def test_detach_restores_class_default(self):
        system, stats, tracer = self.run(instrument=True)
        before = tracer.events_emitted
        instrument_system(system, None)
        system.device.write_dirty(99_999, ("w", 1))
        assert tracer.events_emitted == before
        # The class-level default is still None for fresh instances.
        fresh, _ = build_traced_system()
        assert fresh.manager.tracer is None
        assert fresh.device.tracer is None

    def test_queue_depth_replay_also_identical(self):
        def run_qd(instrument: bool):
            system, trace = build_traced_system()
            if instrument:
                instrument_system(system, Tracer())
            return system.replay(trace.records, warmup_fraction=0.25,
                                 queue_depth=4)
        assert run_qd(True).to_dict() == run_qd(False).to_dict()


class TestReportSummary:
    """summarize/format_report over a real capture (the same pipeline
    `repro trace report` runs)."""

    def test_summary_sections(self, captured_events):
        from repro.obs import format_report, summarize
        summary = summarize([e.to_dict() for e in captured_events])
        wa = summary["write_breakdown"]
        issues = [e for e in captured_events
                  if e.name == "op.issue" and e.args["kind"] == "write"]
        assert wa["user_writes"] == len(issues)
        merges = [e for e in captured_events if e.name == "gc.merge"]
        assert wa["gc_copies"] == sum(e.args["copies"] for e in merges)
        assert sum(summary["merge_kinds"].values()) == len(merges)
        assert set(summary["recovery_phases"]) == \
            {"load_checkpoint", "replay_log", "materialize"}

        report = format_report(summary, top=5)
        assert "Write-amplification breakdown" in report
        assert "Recovery phases" in report
        assert "GC-cost erase groups" in report

    def test_report_without_gc_or_recovery(self):
        from repro.obs import format_report, summarize
        summary = summarize([
            {"name": "op.issue", "dur_us": 100.0,
             "args": {"kind": "read", "lbn": 1, "hit": True,
                      "queue_wait_us": 0.0}},
        ])
        report = format_report(summary)
        # Empty sections are omitted; no division by the zero writes.
        assert "GC-cost" not in report and "Recovery" not in report
        assert "user writes" in report


class TestEventDeclarations:
    def test_redeclaration_rejected(self):
        from repro.obs import declare_event
        with pytest.raises(ValueError, match="already declared"):
            declare_event("op.issue", "op", "requests", "dup")

    def test_description_required(self):
        from repro.obs import declare_event
        with pytest.raises(ValueError, match="needs a description"):
            declare_event("test.undocumented", "test", "test", "")
        assert "test.undocumented" not in EVENT_TYPES


class TestWiringSsdBaseline:
    def test_native_ssd_planes_are_instrumented(self):
        profile = PROFILES["homes"].scaled(0.01)
        system = build_system(SystemConfig(
            kind=SystemKind.NATIVE,
            mode=CacheMode.WRITE_BACK,
            cache_blocks=512,
            disk_blocks=profile.address_range_blocks,
        ))
        tracer = Tracer()
        touched = instrument_system(system, tracer)
        assert any(type(c).__name__ == "Plane" for c in touched)
        trace = generate_trace(profile, seed=42)
        system.replay(trace.records, warmup_fraction=0.25)
        lanes = {e.lane for e in tracer.ring.events}
        assert any(lane.startswith("plane:") for lane in lanes)
