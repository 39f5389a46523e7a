"""Differential layer: a one-shard array IS the single device.

:mod:`repro.core.sharding` claims the array adds zero behaviour of its
own — every cost, every hit/miss decision, every device mutation is a
member device's.  The sharpest statement of that claim is the ``N=1``
case: an array of one shard must be *bit-for-bit* indistinguishable
from driving the bare device, in replay at queue depth 1 and above and
in the device state left behind.

This is the lock that lets the fan-out/aggregation layer evolve
freely: any hidden cost, re-keyed resource, or reordered fan-out breaks
an exact equality here.
"""

import pytest

from repro import CacheMode, ReplayEngine, SystemConfig, SystemKind, build_system
from repro.core.flashtier import assemble_system, replay_trace
from repro.core.sharding import ShardedSSC
from repro.disk.model import Disk
from repro.traces.synthetic import HOMES, generate_trace
from tests.test_wallclock_sim_golden import ZIPF

ALL_COMBOS = [
    (kind, mode)
    for kind in (SystemKind.SSC, SystemKind.SSC_R)
    for mode in (CacheMode.WRITE_THROUGH, CacheMode.WRITE_BACK)
]

WORKLOADS = {
    "zipf": lambda: generate_trace(ZIPF.scaled(0.02), seed=7).records,
    "homes": lambda: generate_trace(HOMES.scaled(0.02), seed=11).records,
}


def _config(kind, mode, shards):
    return SystemConfig(
        kind=kind,
        mode=mode,
        cache_blocks=2048,
        disk_blocks=50_000,
        shards=shards,
    )


def _single(kind, mode):
    return build_system(_config(kind, mode, shards=1))


def _array(kind, mode):
    """The same system with its fresh device wrapped in a one-member
    array, under the manager ``build_system`` would put over it."""
    config = _config(kind, mode, shards=1)
    device = build_system(config).device
    return assemble_system(config, ShardedSSC([device]), Disk(config.disk_blocks))


def _instrument(manager, journal):
    original_read, original_write = manager.read, manager.write

    def read(lbn):
        data, completion = original_read(lbn)
        journal.append(("r", completion.hit, float(completion)))
        return data, completion

    def write(lbn, data):
        completion = original_write(lbn, data)
        journal.append(("w", completion.hit, float(completion)))
        return completion

    manager.read, manager.write = read, write


def _assert_stats_identical(array_stats, single_stats):
    assert array_stats.ops == single_stats.ops
    assert array_stats.reads == single_stats.reads
    assert array_stats.writes == single_stats.writes
    assert array_stats.read_hits == single_stats.read_hits
    assert array_stats.read_misses == single_stats.read_misses
    assert array_stats.elapsed_us == single_stats.elapsed_us
    assert array_stats.iops() == single_stats.iops()
    assert array_stats.latency.samples == single_stats.latency.samples
    assert array_stats.service.samples == single_stats.service.samples
    assert array_stats.latency.total_us == single_stats.latency.total_us
    # Busy maps compare by *key name* too: a one-member array must keep
    # the unsharded "plane:<n>" names, or it is observably different.
    assert array_stats.device_busy_us == single_stats.device_busy_us


def _assert_devices_identical(array_system, single_system):
    array_chip = array_system.device.chip
    single_chip = single_system.device.chip
    assert vars(array_chip.stats) == vars(single_chip.stats)
    assert (
        array_system.device.device_memory_bytes()
        == single_system.device.device_memory_bytes()
    )
    assert vars(array_system.device.stats) == vars(single_system.device.stats)
    array_ssc, single_ssc = array_system.ssc, single_system.ssc
    assert array_ssc.cached_blocks() == single_ssc.cached_blocks()
    (member,) = array_ssc.shards
    assert sorted(member.engine.iter_cached_lbns()) == sorted(
        single_ssc.engine.iter_cached_lbns()
    )
    assert array_ssc.exists(0, 50_000) == single_ssc.exists(0, 50_000)


class TestOneShardArrayIsTheDevice:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("kind,mode", ALL_COMBOS)
    def test_serial_replay_bit_for_bit(self, kind, mode, workload):
        records = WORKLOADS[workload]()

        single_system = _single(kind, mode)
        single_journal = []
        _instrument(single_system.manager, single_journal)
        single = replay_trace(
            single_system.manager, records,
            warmup_fraction=0.15, keep_latencies=True,
        )

        array_system = _array(kind, mode)
        array_journal = []
        _instrument(array_system.manager, array_journal)
        array = replay_trace(
            array_system.manager, records,
            warmup_fraction=0.15, keep_latencies=True,
        )

        _assert_stats_identical(array, single)
        assert array_journal == single_journal
        _assert_devices_identical(array_system, single_system)

    @pytest.mark.parametrize("queue_depth", [1, 8])
    @pytest.mark.parametrize(
        "kind,mode",
        [
            (SystemKind.SSC_R, CacheMode.WRITE_BACK),
            (SystemKind.SSC, CacheMode.WRITE_THROUGH),
        ],
    )
    def test_event_engine_bit_for_bit(self, kind, mode, queue_depth):
        # Queue-depth concurrency resolves resource keys through the
        # array's chip view; at N=1 the timelines must be the very same
        # plane objects, so queueing behaviour is identical too.
        records = WORKLOADS["zipf"]()

        single_system = _single(kind, mode)
        single = ReplayEngine(single_system.manager, queue_depth=queue_depth).run(
            records, warmup_fraction=0.15, keep_latencies=True
        )

        array_system = _array(kind, mode)
        array = ReplayEngine(array_system.manager, queue_depth=queue_depth).run(
            records, warmup_fraction=0.15, keep_latencies=True
        )

        _assert_stats_identical(array, single)
        assert array.queue_wait.samples == single.queue_wait.samples
        _assert_devices_identical(array_system, single_system)

    def test_recovery_identical(self):
        records = WORKLOADS["homes"]()
        single_system = _single(SystemKind.SSC, CacheMode.WRITE_BACK)
        array_system = _array(SystemKind.SSC, CacheMode.WRITE_BACK)
        replay_trace(single_system.manager, records)
        replay_trace(array_system.manager, records)

        assert array_system.ssc.crash() == single_system.ssc.crash()
        single_us = single_system.ssc.recover()
        array_us = array_system.ssc.recover()
        assert array_us == single_us
        assert array_system.ssc.last_recovery_costs == (single_us,)
        # Parallel and serial recovery coincide for one member.
        array_system.ssc.crash()
        single_system.ssc.crash()
        array_system.ssc.recover()
        assert sum(array_system.ssc.last_recovery_costs) == single_system.ssc.recover()

    def test_latency_percentiles_identical(self):
        records = WORKLOADS["zipf"]()
        single_system = _single(SystemKind.SSC_R, CacheMode.WRITE_BACK)
        array_system = _array(SystemKind.SSC_R, CacheMode.WRITE_BACK)
        single = replay_trace(
            single_system.manager, records,
            warmup_fraction=0.15, keep_latencies=True,
        )
        array = replay_trace(
            array_system.manager, records,
            warmup_fraction=0.15, keep_latencies=True,
        )
        for quantile in (0.5, 0.9, 0.99, 1.0):
            assert array.latency.percentile(quantile) == single.latency.percentile(
                quantile
            )
