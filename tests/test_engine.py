"""Replay engine: queue-depth routing, concurrency, open loop.

Queue depth 1 is pinned bit-for-bit by ``tests/test_serial_replay_golden.py``.
Here, concurrency has to pay off (higher queue depth → higher IOPS on a
plane-parallel, cache-resident workload), functional behaviour must not
depend on depth, and open-loop replay must dispatch from record arrival
timestamps.
"""

import pytest

from repro import CacheMode, ReplayEngine, SystemConfig, SystemKind, build_system
from repro.sim.completion import Completion
from repro.stats.counters import LatencyStats
from repro.traces.record import OpKind, TraceRecord
from repro.traces.synthetic import HOMES, USR, generate_trace


def _build(kind=SystemKind.SSC_R, mode=CacheMode.WRITE_BACK, cache_blocks=2048):
    return build_system(
        SystemConfig(
            kind=kind,
            mode=mode,
            cache_blocks=cache_blocks,
            disk_blocks=50_000,
        )
    )


def _trace(profile=HOMES, scale=0.03, seed=7, **overrides):
    scaled = profile.scaled(scale)
    if overrides:
        from dataclasses import replace

        scaled = replace(scaled, **overrides)
    return generate_trace(scaled, seed=seed).records


class TestSerialEquivalence:
    """Queue depth 1 and deeper queues see the same functional behaviour."""

    def test_facade_routes_queue_depth(self):
        records = _trace(scale=0.02)
        serial = _build().replay(records, warmup_fraction=0.15)
        concurrent = _build().replay(
            records, warmup_fraction=0.15, queue_depth=8
        )
        assert serial.queue_depth == 1
        assert concurrent.queue_depth == 8
        # Functional behaviour is identical at every depth: device state
        # mutates in trace order regardless of timing overlap.
        assert concurrent.read_hits == serial.read_hits
        assert concurrent.read_misses == serial.read_misses


class TestConcurrency:
    def test_deeper_queue_raises_iops_on_read_heavy_workload(self):
        # Read-heavy and cache-resident: flash planes are the binding
        # resource, so overlapping requests must raise throughput.
        records = _trace(USR, scale=0.03)
        iops = {}
        for depth in (1, 4, 16):
            system = _build(cache_blocks=8192)
            stats = ReplayEngine(system.manager, queue_depth=depth).run(
                records, warmup_fraction=0.15
            )
            iops[depth] = stats.iops()
        assert iops[4] > iops[1]
        assert iops[16] > iops[4]

    def test_queue_wait_appears_under_concurrency(self):
        records = _trace(USR, scale=0.02)
        system = _build(cache_blocks=8192)
        stats = ReplayEngine(system.manager, queue_depth=16).run(
            records, warmup_fraction=0.15
        )
        assert stats.queue_wait.max_us > 0.0
        # Latency decomposes into service plus queueing delay.
        assert stats.latency.total_us == pytest.approx(
            stats.service.total_us + stats.queue_wait.total_us
        )

    def test_utilization_reported_per_resource(self):
        records = _trace(USR, scale=0.02)
        system = _build(cache_blocks=8192)
        stats = ReplayEngine(system.manager, queue_depth=8).run(
            records, warmup_fraction=0.15
        )
        utilization = stats.utilization()
        assert any(key.startswith("plane:") for key in utilization)
        assert all(0.0 <= value <= 1.0 for value in utilization.values())

    def test_bad_queue_depth_rejected(self):
        system = _build()
        with pytest.raises(ValueError):
            ReplayEngine(system.manager, queue_depth=0)


class TestOpenLoop:
    def test_dispatches_at_arrival_timestamps(self):
        # A sparse arrival schedule: elapsed time is dominated by the
        # arrival span, not by service time.
        gap_us = 50_000.0
        records = [
            TraceRecord(OpKind.WRITE, lbn, arrival_us=index * gap_us)
            for index, lbn in enumerate(range(64))
        ]
        system = _build()
        stats = ReplayEngine(system.manager).run(records, open_loop=True)
        assert stats.ops == 64
        assert stats.elapsed_us >= 63 * gap_us

    def test_burst_arrivals_queue(self):
        # Every request arrives at time zero: all but the first must
        # wait for shared resources, so queueing delay appears.
        records = [
            TraceRecord(OpKind.READ, lbn, arrival_us=0.0) for lbn in range(128)
        ]
        system = _build()
        stats = ReplayEngine(system.manager).run(records, open_loop=True)
        assert stats.queue_wait.max_us > 0.0

    def test_queue_depth_rejected(self):
        # Open loop dispatches at recorded arrivals, so a queue depth
        # would have no effect; it must not be silently reported.
        records = [
            TraceRecord(OpKind.WRITE, lbn, arrival_us=lbn * 100.0)
            for lbn in range(32)
        ]
        system = _build()
        with pytest.raises(ValueError, match="queue_depth=8"):
            ReplayEngine(system.manager, queue_depth=8).run(
                records, open_loop=True)
        with pytest.raises(ValueError, match="queue_depth=8"):
            system.replay(records, open_loop=True, queue_depth=8)
        assert system.manager.stats.writes == 0

    def test_missing_arrival_rejected(self):
        records = [TraceRecord(OpKind.READ, 1)]
        system = _build()
        with pytest.raises(ValueError, match="arrival_us"):
            ReplayEngine(system.manager).run(records, open_loop=True)

    def test_synthetic_arrival_process(self):
        records = _trace(HOMES, scale=0.02, arrival_rate_iops=20_000.0)
        assert all(record.arrival_us is not None for record in records)
        arrivals = [record.arrival_us for record in records]
        assert arrivals == sorted(arrivals)
        system = _build()
        stats = ReplayEngine(system.manager).run(records, open_loop=True)
        assert stats.ops == len(records)

    def test_untimed_profiles_unchanged(self):
        # The arrival process must not perturb the RNG stream of
        # existing profiles.
        plain = _trace(HOMES, scale=0.02)
        timed = _trace(HOMES, scale=0.02, arrival_rate_iops=20_000.0)
        assert [(r.op, r.lbn) for r in plain] == [(r.op, r.lbn) for r in timed]
        assert all(record.arrival_us is None for record in plain)


class TestCompletionPlumbing:
    def test_manager_read_returns_completion(self):
        system = _build()
        completion = system.manager.write(42, "payload")
        assert isinstance(completion, Completion)
        assert completion.ops  # a write-back insert touches flash
        data, read_completion = system.manager.read(42)
        assert data == "payload"
        assert read_completion.hit is True
        assert read_completion.flash_us > 0.0
        assert read_completion.disk_us == 0.0

    def test_flash_us_counts_sharded_plane_ops(self):
        bare = _build(kind=SystemKind.SSC)
        array = build_system(SystemConfig(
            kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK,
            cache_blocks=2048, disk_blocks=50_000, shards=2,
        ))
        reads = []
        for system in (bare, array):
            system.manager.write(0, "payload")
            reads.append(system.manager.read(0)[1])
        bare_read, array_read = reads
        assert [op.resource for op in array_read.ops] == ["s0:plane:0"]
        assert array_read.flash_us == bare_read.flash_us > 0.0

    def test_miss_charges_disk(self):
        system = _build()
        _data, completion = system.manager.read(7)
        assert completion.hit is False
        assert completion.disk_us > 0.0
        resources = {op.resource for op in completion.ops}
        assert "disk" in resources

    def test_recorder_left_clean_after_requests(self):
        system = _build()
        system.manager.write(1, "x")
        recorder = system.manager._recorder
        assert not recorder.active
        assert recorder._ops == []


class TestPercentile:
    def test_nearest_rank_small_samples(self):
        stats = LatencyStats(keep_samples=True)
        stats.record(10.0)
        stats.record(20.0)
        # Nearest rank: p50 of two samples is the FIRST (ceil(2*0.5)=1),
        # not the second — the old int() truncation picked index 1.
        assert stats.percentile(50) == 10.0
        assert stats.percentile(51) == 20.0
        assert stats.percentile(100) == 20.0

    def test_single_sample_every_percentile(self):
        stats = LatencyStats(keep_samples=True)
        stats.record(5.0)
        for pct in (0, 1, 50, 99, 100):
            assert stats.percentile(pct) == 5.0

    def test_three_samples(self):
        stats = LatencyStats(keep_samples=True)
        for value in (1.0, 3.0, 2.0):
            stats.record(value)
        assert stats.percentile(33) == 1.0
        assert stats.percentile(34) == 2.0
        assert stats.percentile(50) == 2.0
        assert stats.percentile(67) == 3.0
        assert stats.percentile(99) == 3.0

    def test_out_of_range_pct_rejected(self):
        stats = LatencyStats(keep_samples=True)
        stats.record(1.0)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_out_of_range_pct_rejected_on_empty_accumulator(self):
        # Regression: validation used to come after the empty-samples
        # short circuit, so percentile(150) on an empty accumulator
        # silently returned 0.0 instead of raising.
        stats = LatencyStats(keep_samples=True)
        with pytest.raises(ValueError, match="pct"):
            stats.percentile(150)
        with pytest.raises(ValueError, match="pct"):
            stats.percentile(-1)
        # In-range percentiles of an empty accumulator still read 0.0.
        assert stats.percentile(50) == 0.0

    def test_samples_property(self):
        stats = LatencyStats(keep_samples=True)
        stats.record(2.0)
        stats.record(1.0)
        assert stats.samples == (2.0, 1.0)
        assert LatencyStats().samples == ()


class TestTraceRecordArrival:
    def test_default_is_untimed(self):
        record = TraceRecord(OpKind.READ, 5)
        assert record.arrival_us is None
        assert repr(record) == "TraceRecord(R, 5)"

    def test_equality_includes_arrival(self):
        assert TraceRecord(OpKind.READ, 5) == TraceRecord(OpKind.READ, 5)
        assert TraceRecord(OpKind.READ, 5, 1.0) == TraceRecord(OpKind.READ, 5, 1.0)
        assert TraceRecord(OpKind.READ, 5) != TraceRecord(OpKind.READ, 5, 1.0)
        assert hash(TraceRecord(OpKind.READ, 5, 1.0)) == hash(
            TraceRecord(OpKind.READ, 5, 1.0)
        )

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(OpKind.READ, 5, -1.0)

    def test_repr_shows_arrival(self):
        assert "at=1.5us" in repr(TraceRecord(OpKind.WRITE, 9, 1.5))

    def test_filefmt_round_trips_arrivals(self, tmp_path):
        from repro.traces.filefmt import read_trace, write_trace

        records = [
            TraceRecord(OpKind.READ, 1),
            TraceRecord(OpKind.WRITE, 2, 1500.25),
        ]
        path = tmp_path / "timed.trace"
        write_trace(path, records)
        assert read_trace(path) == records

    def test_filefmt_bad_arrival_rejected(self, tmp_path):
        from repro.traces.filefmt import TraceFormatError, read_trace

        path = tmp_path / "bad.trace"
        path.write_text("R 5 -3.0\n")
        with pytest.raises(TraceFormatError, match="expected"):
            read_trace(path)
