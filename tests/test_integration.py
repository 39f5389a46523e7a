"""System-level integration tests.

These drive complete systems (manager + device + disk) through mixed
workloads, crashes, and restarts, checking end-to-end data integrity —
the property every component must compose to preserve.
"""

import random

import pytest

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.core.flashtier import replay_trace
from repro.traces import HOMES, MAIL, generate_trace
from repro.traces.record import OpKind, TraceRecord


def tiny(kind, mode, consistency=True):
    return build_system(SystemConfig(
        kind=kind, mode=mode, cache_blocks=1024, disk_blocks=60_000,
        planes=4, pages_per_block=8, consistency=consistency,
    ))


class TestEndToEndIntegrity:
    """Every system variant must behave like one consistent block store."""

    @pytest.mark.parametrize("kind", list(SystemKind))
    @pytest.mark.parametrize("mode", list(CacheMode))
    def test_linearizable_against_shadow(self, kind, mode):
        system = tiny(kind, mode)
        rng = random.Random(hash((kind, mode)) & 0xFFFF)
        shadow = {}
        for i in range(4000):
            lbn = rng.randrange(50_000)
            if rng.random() < 0.55:
                shadow[lbn] = ("v", kind.value, i)
                system.manager.write(lbn, shadow[lbn])
            else:
                data, _ = system.manager.read(lbn)
                assert data == shadow.get(lbn), (kind, mode, lbn)

    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_write_through_disk_always_current(self, kind):
        """In WT mode the disk must hold the newest version of every
        written block at all times."""
        system = tiny(kind, CacheMode.WRITE_THROUGH)
        rng = random.Random(5)
        shadow = {}
        for i in range(1500):
            lbn = rng.randrange(20_000)
            shadow[lbn] = ("wt", i)
            system.manager.write(lbn, shadow[lbn])
        for lbn, expected in shadow.items():
            assert system.disk.peek(lbn) == expected

    def test_write_back_flush_settles_disk(self):
        system = tiny(SystemKind.SSC, CacheMode.WRITE_BACK)
        rng = random.Random(6)
        shadow = {}
        for i in range(1200):
            lbn = rng.randrange(3000)
            shadow[lbn] = ("wb", i)
            system.manager.write(lbn, shadow[lbn])
        system.manager.flush_dirty()
        for lbn, expected in shadow.items():
            assert system.disk.peek(lbn) == expected


class TestCrashDuringWorkload:
    def test_flashtier_wb_crash_midstream(self):
        """Crash in the middle of a workload: after recovery, every
        block reads as its newest version from cache or disk."""
        system = tiny(SystemKind.SSC, CacheMode.WRITE_BACK)
        manager, ssc, disk = system.manager, system.ssc, system.disk
        rng = random.Random(7)
        shadow = {}
        for i in range(2500):
            lbn = rng.randrange(2500)
            shadow[lbn] = ("pre", i)
            manager.write(lbn, shadow[lbn])
        ssc.crash()
        ssc.recover()
        manager.recover_us(disk.capacity_blocks)
        # Continue operating; everything must still be consistent.
        for i in range(1500):
            lbn = rng.randrange(2500)
            if rng.random() < 0.5:
                shadow[lbn] = ("post", i)
                manager.write(lbn, shadow[lbn])
            else:
                data, _ = manager.read(lbn)
                assert data == shadow.get(lbn)

    def test_dirty_data_never_lost_across_crash(self):
        system = tiny(SystemKind.SSC, CacheMode.WRITE_BACK)
        manager, ssc = system.manager, system.ssc
        rng = random.Random(8)
        shadow = {}
        for i in range(1200):
            lbn = rng.randrange(1500)
            shadow[lbn] = ("d", i)
            manager.write(lbn, shadow[lbn])
        ssc.crash()
        ssc.recover()
        for lbn, expected in shadow.items():
            data, _ = manager.read(lbn)
            assert data == expected


class TestTraceDrivenParity:
    def test_all_systems_agree_on_read_values(self):
        """Replaying the same trace, every system must return identical
        data for identical reads (performance differs; contents must
        not)."""
        trace = generate_trace(MAIL.scaled(0.02), seed=4)
        reads = {}
        for kind in SystemKind:
            system = build_system(SystemConfig(
                kind=kind, mode=CacheMode.WRITE_BACK,
                cache_blocks=trace.profile.cache_blocks(),
                disk_blocks=trace.profile.address_range_blocks,
                planes=4, pages_per_block=8,
            ))
            shadow = {}
            observed = []
            for record in trace.records:
                if record.is_write:
                    shadow[record.lbn] = ("w", record.lbn)
                    system.manager.write(record.lbn, shadow[record.lbn])
                else:
                    data, _ = system.manager.read(record.lbn)
                    observed.append((record.lbn, data))
            reads[kind] = observed
        assert reads[SystemKind.NATIVE] == reads[SystemKind.SSC]
        assert reads[SystemKind.SSC] == reads[SystemKind.SSC_R]

    def test_replay_with_latency_percentiles(self):
        system = tiny(SystemKind.SSC_R, CacheMode.WRITE_BACK)
        trace = generate_trace(HOMES.scaled(0.02), seed=2)
        stats = replay_trace(system.manager, trace.records, keep_latencies=True)
        p50 = stats.latency.percentile(50)
        p99 = stats.latency.percentile(99)
        assert 0 < p50 <= p99 <= stats.latency.max_us

    def test_simulated_time_composition(self):
        """Total elapsed time must equal the sum of request latencies."""
        system = tiny(SystemKind.SSC, CacheMode.WRITE_THROUGH)
        trace = [TraceRecord(OpKind.WRITE, i % 500) for i in range(800)]
        stats = replay_trace(system.manager, trace, keep_latencies=True)
        assert stats.elapsed_us == pytest.approx(stats.latency.total_us)
