"""Replay engine: queue-depth routing, concurrency, open loop.

Queue depth 1 is pinned bit-for-bit by ``tests/test_serial_replay_golden.py``.
Here, concurrency has to pay off (higher queue depth → higher IOPS on a
plane-parallel, cache-resident workload), functional behaviour must not
depend on depth, and open-loop replay must dispatch from record arrival
timestamps.
"""

from types import SimpleNamespace

import pytest

from repro import CacheMode, ReplayEngine, SystemConfig, SystemKind, build_system
from repro.manager.base import ManagerStats
from repro.sim.completion import Completion, DeviceOp
from repro.stats.counters import LatencyStats
from repro.traces.record import OpKind, Trace, TraceRecord
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


def _write_only_manager(write):
    """A stand-in manager that serves only writes, each with the
    completion ``write(lbn, data)`` returns, and counts them as a real
    manager does (the engine reads its request counts from the
    manager)."""
    stats = ManagerStats()

    def counted(lbn, data):
        stats.writes += 1
        return write(lbn, data)

    # The engine binds both entry points up front.
    return SimpleNamespace(stats=stats, tracer=None, read=None, write=counted)


def _service_us(completion, disk):
    """Service time of ``completion``'s ops on the disk (``disk=True``)
    or on flash planes of any shard namespace (``disk=False``)."""
    return sum(op.duration_us for op in completion.ops
               if (op.resource == "disk") == disk)


def _trace(profile=HOMES, scale=0.03, seed=7, **overrides):
    scaled = profile.scaled(scale)
    if overrides:
        from dataclasses import replace

        scaled = replace(scaled, **overrides)
    return generate_trace(scaled, seed=seed).records


class TestTraceColumns:
    def test_records_and_their_trace_replay_alike(self):
        trace = _trace(scale=0.02)
        assert isinstance(trace, Trace)
        records = list(trace)
        runs = [
            _build().replay(each, warmup_fraction=0.15, queue_depth=4)
            for each in (trace, records)
        ]
        assert runs[0].to_dict() == runs[1].to_dict()


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


class TestBusyTime:
    """Each timeline's measured busy time is its ops' durations summed in
    op order, over the measured requests only."""

    @pytest.mark.parametrize("kind, shards", [
        (SystemKind.NATIVE, 1), (SystemKind.SSC_R, 4),
    ], ids=["native", "ssc-r-4-shards"])
    def test_busy_time_sums_measured_ops_in_op_order(self, kind, shards):
        records = _trace(HOMES, scale=0.03, seed=3)
        system = build_system(SystemConfig(
            kind=kind, mode=CacheMode.WRITE_BACK, cache_blocks=2048,
            disk_blocks=50_000, shards=shards,
        ))
        manager = system.manager
        completions = []

        def recording(issue, pick=lambda result: result):
            def issue_and_keep(*args):
                result = issue(*args)
                completions.append(pick(result))
                return result
            return issue_and_keep

        manager.read = recording(manager.read, pick=lambda result: result[1])
        manager.write = recording(manager.write)
        warmup = 0.15
        stats = ReplayEngine(manager, queue_depth=8).run(records, warmup_fraction=warmup)
        expected = {}
        for completion in completions[int(len(records) * warmup):]:
            for resource, _kind, duration_us in completion.ops:
                expected[resource] = expected.get(resource, 0.0) + duration_us
        assert len(completions) == len(records)
        assert stats.device_busy_us == expected
        assert all(type(busy) is float for busy in stats.device_busy_us.values())
        if shards > 1:
            assert {key.split(":")[0] for key in expected} >= {"s0", "s3", "disk"}

    def test_idle_timeline_is_left_out_and_zero_time_ops_count(self):
        manager = _write_only_manager(lambda lbn, data: next(completions))
        trace = [TraceRecord(OpKind.WRITE, lbn) for lbn in (1, 2)]
        for depth in (1, 2):
            # Every queue depth keeps these sums; "plane:1" ran nothing.
            completions = iter([
                Completion(0.0, (DeviceOp("plane:0", "page_read", 0.0),)),
                Completion(5.0, (DeviceOp("disk", "write", 5.0),)),
            ])
            stats = ReplayEngine(manager, queue_depth=depth).run(trace)
            assert stats.device_busy_us == {"plane:0": 0.0, "disk": 5.0}, depth


class TestSimulatedTime:
    """The engine alone keeps simulated time: ``now_us`` is where its
    last replay ended, and each replay starts there with idle
    timelines."""

    @staticmethod
    def _stub_manager(costs):
        """A manager whose writes each take the next of ``costs`` on
        plane 0."""
        costs = iter(costs)

        def write(lbn, data):
            cost = next(costs)
            return Completion(cost, (DeviceOp("plane:0", "page_write", cost),))

        return _write_only_manager(write)

    def test_now_starts_at_zero_and_ends_at_the_last_completion(self):
        records = _trace(HOMES, scale=0.02)
        engine = ReplayEngine(_build().manager, queue_depth=4)
        assert engine.now_us == 0.0
        stats = engine.run(records)
        assert stats.elapsed_us > 0.0
        assert engine.now_us == stats.elapsed_us

    def test_queue_depth_1_elapsed_is_the_sum_of_service_times(self):
        records = _trace(HOMES, scale=0.02)
        stats = ReplayEngine(_build().manager).run(records, warmup_fraction=0.15)
        assert stats.queue_wait.total_us == 0.0
        assert stats.elapsed_us == pytest.approx(stats.service.total_us)

    def test_warmup_consumes_no_simulated_time(self):
        trace = [TraceRecord(OpKind.WRITE, lbn) for lbn in range(4)]
        engine = ReplayEngine(self._stub_manager([100.0, 100.0, 5.0, 7.0]))
        stats = engine.run(trace, warmup_fraction=0.5)
        assert stats.ops == 2
        assert stats.elapsed_us == 12.0
        assert engine.now_us == 12.0
        assert stats.device_busy_us == {"plane:0": 12.0}

    def test_next_run_starts_where_the_last_ended(self):
        trace = [TraceRecord(OpKind.WRITE, lbn) for lbn in range(2)]
        engine = ReplayEngine(self._stub_manager([5.0, 7.0, 3.0, 4.0]), 2)
        first = engine.run(trace)
        assert engine.now_us == first.elapsed_us == 12.0
        second = engine.run(trace)
        # The timelines start idle again, so only this run's ops queue.
        assert second.elapsed_us == 7.0
        assert second.device_busy_us == {"plane:0": 7.0}
        assert engine.free_at_us == {"plane:0": 19.0}
        assert engine.now_us == 19.0


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

    def test_ops_queue_on_a_shared_plane_and_disk(self):
        """Two requests dispatched together at QD 2, placed by hand.

        A: plane:0 0-200, disk 200-250, service 300 -> wait 0, finish 300.
        B: disk busy until 250 -> 250-290 (wait 250); plane:0 free since
        200 -> 290-315; service 130 -> finish 0 + 250 + 130 = 380.
        """
        completions = iter([
            Completion(300.0, (DeviceOp("plane:0", "page_write", 200.0),
                               DeviceOp("disk", "write", 50.0))),
            Completion(130.0, (DeviceOp("disk", "write", 40.0),
                               DeviceOp("plane:0", "page_read", 25.0))),
        ])
        manager = _write_only_manager(lambda lbn, data: next(completions))
        trace = [TraceRecord(OpKind.WRITE, lbn) for lbn in (1, 2)]
        engine = ReplayEngine(manager, queue_depth=2)
        stats = engine.run(trace, keep_latencies=True)
        # Both dispatch at 0, so each latency is that request's finish.
        assert stats.latency.samples == (300.0, 380.0)
        assert stats.queue_wait.total_us == stats.queue_wait.max_us == 250.0
        assert stats.service.total_us == 430.0
        assert stats.elapsed_us == 380.0
        assert stats.device_busy_us == {"plane:0": 225.0, "disk": 90.0}
        assert engine.free_at_us == {"plane:0": 315.0, "disk": 290.0}
        assert engine.now_us == 380.0

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

    def test_untimed_measured_record_rejected_before_any_request(self):
        # A partly timed trace: the warm-up needs no arrivals, but the
        # measured window must have one on every record.
        records = [TraceRecord(OpKind.WRITE, lbn) for lbn in range(4)] + [
            TraceRecord(OpKind.WRITE, lbn, arrival_us=lbn * 100.0)
            for lbn in range(4, 10)
        ]
        ReplayEngine(_build().manager).run(
            records, warmup_fraction=0.4, open_loop=True)
        records[7] = TraceRecord(OpKind.WRITE, 7)
        system = _build()
        with pytest.raises(ValueError, match="record 7 has none"):
            ReplayEngine(system.manager).run(
                records, warmup_fraction=0.4, open_loop=True)
        assert system.manager.stats.writes == 0

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
        assert _service_us(read_completion, disk=False) > 0.0
        assert _service_us(read_completion, disk=True) == 0.0

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
        assert _service_us(array_read, disk=False) == \
            _service_us(bare_read, disk=False) > 0.0

    def test_miss_charges_disk(self):
        system = _build()
        _data, completion = system.manager.read(7)
        assert completion.hit is False
        assert _service_us(completion, disk=True) > 0.0
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
