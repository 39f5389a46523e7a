"""Tests for the replay harness and the core system facade."""

import pytest

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.core.flashtier import cache_geometry, replay_trace
from repro.errors import ConfigError
from repro.stats.counters import LatencyStats, ReplayStats
from repro.stats.report import format_ratio, format_table
from repro.traces.record import OpKind, TraceRecord
from repro.traces.synthetic import HOMES, generate_trace


def tiny_config(kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK):
    return SystemConfig(
        kind=kind, mode=mode, cache_blocks=512, disk_blocks=50_000,
        planes=4, pages_per_block=8,
    )


class TestStats:
    def test_latency_stats(self):
        stats = LatencyStats(keep_samples=True)
        for value in (1.0, 3.0, 2.0):
            stats.record(value)
        assert stats.count == 3
        assert stats.mean_us == pytest.approx(2.0)
        assert stats.max_us == 3.0
        assert stats.percentile(50) == 2.0

    def test_latency_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1)

    def test_percentile_requires_samples(self):
        with pytest.raises(ValueError):
            LatencyStats().percentile(50)

    def test_replay_stats_iops(self):
        stats = ReplayStats(ops=1000, elapsed_us=1_000_000)
        assert stats.iops() == pytest.approx(1000)

    def test_miss_rate(self):
        stats = ReplayStats(read_hits=90, read_misses=10)
        assert stats.miss_rate() == pytest.approx(10.0)

    def test_report_helpers(self):
        assert format_ratio(150, 100) == "150%"
        assert format_ratio(1, 0) == "n/a"
        table = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        assert "333" in table
        assert table.splitlines()[0] == "T"


class TestReplay:
    def test_replay_counts_everything(self):
        system = build_system(tiny_config())
        trace = [TraceRecord(OpKind.WRITE, i) for i in range(50)]
        trace += [TraceRecord(OpKind.READ, i) for i in range(50)]
        stats = replay_trace(system.manager, trace)
        assert stats.ops == 100
        assert stats.writes == 50
        assert stats.reads == 50
        assert stats.elapsed_us > 0
        assert stats.iops() > 0

    def test_warmup_excluded_from_stats(self):
        system = build_system(tiny_config())
        trace = [TraceRecord(OpKind.WRITE, i % 100) for i in range(200)]
        stats = replay_trace(system.manager, trace, warmup_fraction=0.5)
        assert stats.ops == 100

    def test_bad_warmup_rejected(self):
        system = build_system(tiny_config())
        with pytest.raises(ValueError):
            replay_trace(system.manager, [], warmup_fraction=1.0)

    def test_reads_hit_after_writes(self):
        system = build_system(tiny_config())
        trace = [TraceRecord(OpKind.WRITE, 5), TraceRecord(OpKind.READ, 5)]
        stats = replay_trace(system.manager, trace)
        assert stats.read_hits == 1
        assert stats.read_misses == 0


class TestSystemFacade:
    @pytest.mark.parametrize("kind", list(SystemKind))
    @pytest.mark.parametrize("mode", list(CacheMode))
    def test_all_variants_build_and_run(self, kind, mode):
        system = build_system(tiny_config(kind, mode))
        trace = generate_trace(HOMES.scaled(0.01), seed=1).records
        stats = system.replay(trace, warmup_fraction=0.15)
        assert stats.ops > 0
        assert stats.iops() > 0

    def test_native_has_ssd_flashtier_has_ssc(self):
        native = build_system(tiny_config(SystemKind.NATIVE))
        flashtier = build_system(tiny_config(SystemKind.SSC))
        assert native.ssc is None
        assert native.device is native.manager.ssd
        assert flashtier.device is flashtier.ssc is flashtier.manager.ssc

    def test_geometry_covers_requested_cache(self):
        config = tiny_config()
        geometry = cache_geometry(config)
        assert geometry.total_pages * geometry.page_size >= (
            config.cache_blocks * config.capacity_slack * geometry.page_size * 0.99
        )

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(cache_blocks=0)
        with pytest.raises(ConfigError):
            SystemConfig(capacity_slack=0.5)


class TestEndToEndShape:
    """Integration smoke test: the paper's headline ordering must hold
    even at small scale — SSC-R and SSC beat native on a write-heavy
    workload while write amplification orders the other way."""

    def test_write_heavy_ordering(self):
        trace = generate_trace(HOMES.scaled(0.06), seed=3)
        iops = {}
        wa = {}
        for kind in (SystemKind.NATIVE, SystemKind.SSC, SystemKind.SSC_R):
            config = SystemConfig(
                kind=kind, mode=CacheMode.WRITE_BACK,
                cache_blocks=trace.profile.cache_blocks(),
                disk_blocks=trace.profile.address_range_blocks,
                planes=4, pages_per_block=16,
            )
            system = build_system(config)
            stats = system.replay(trace.records, warmup_fraction=0.15)
            iops[kind] = stats.iops()
            wa[kind] = system.device.stats.write_amplification()
        assert iops[SystemKind.SSC] > iops[SystemKind.NATIVE]
        assert iops[SystemKind.SSC_R] > iops[SystemKind.NATIVE]
        assert wa[SystemKind.SSC] < wa[SystemKind.NATIVE]
        assert wa[SystemKind.SSC_R] < wa[SystemKind.NATIVE]
