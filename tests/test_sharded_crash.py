"""Crash consistency of the sharded cache array.

Shards fail together (a power cut is array-wide) but recover
*independently*: each member rolls its own log forward over its own
checkpoint.  These tests pin the two properties that make the array's
crash story sound:

1. **Fault isolation** — a torn write into shard *k* can only damage
   shard *k*'s durable state.  After recovery, every other member's
   flash, log and checkpoints are *byte-identical* to the same run with
   a clean power cut at the same boundary — the torn program is
   invisible outside the shard it hit — and the recovered array as a
   whole still satisfies the strict SSC oracle.
2. **Parallel recovery** — the array is ready when its slowest member
   is: ``recover()`` equals the *max* of the per-shard costs (they
   replay concurrently), while one controller recovering the members
   back-to-back would take their *sum*.
"""

import random

import pytest

from repro.check import faults
from repro.check.explorer import (
    build_device,
    explore,
    run_trial,
    run_workload,
)
from repro.check.oracle import SSCOracle
from repro.check.workload import generate_workload
from repro.sim.crash import CrashInjector

SHARDS = 3
TARGET = 1  # the member that takes the torn write


def durable_fingerprint(ssc):
    """Byte-level identity of one member's durable state: every flash
    page (state, payload, OOB), the flushed log, and the checkpoints."""
    pages = tuple(
        (plane.plane_id, pbn, index, page.state.name,
         repr(page.data), repr(page.oob))
        for plane in ssc.chip.planes
        for pbn, block in sorted(plane.blocks.items())
        for index, page in enumerate(block.pages)
    )
    log = tuple(repr(record) for record in ssc.oplog.flushed)
    checkpoint = ssc.checkpoints.latest()
    checkpoint_state = (
        None
        if checkpoint is None
        else (
            checkpoint.seq,
            tuple(checkpoint.page_entries),
            tuple(checkpoint.block_entries),
        )
    )
    return pages, log, checkpoint_state


def shard_oracle(oracle: SSCOracle, router, shard_id: int) -> SSCOracle:
    """The slice of ``oracle``'s model owned by one shard.

    Routing is a partition of the LBN space, so the array-level model
    decomposes exactly: each member must independently satisfy the
    contract over the blocks routed to it.
    """
    sub = SSCOracle()
    sub.committed = {
        lbn: entry
        for lbn, entry in oracle.committed.items()
        if router.shard_of(lbn) == shard_id
    }
    sub.history = {
        lbn: values
        for lbn, values in oracle.history.items()
        if router.shard_of(lbn) == shard_id
    }
    in_flight = oracle.in_flight
    if (
        in_flight is not None
        and in_flight.lbn is not None
        and router.shard_of(in_flight.lbn) == shard_id
    ):
        sub.in_flight = in_flight
    return sub


def _target_boundary_count(workload) -> int:
    """How many durability boundaries the target shard crosses."""
    probe = build_device(shards=SHARDS)
    injector = CrashInjector()
    probe.attach_injector(injector, only_shard=TARGET)
    oracle = SSCOracle()
    crashed = run_workload(probe, oracle, workload, [], "probe")
    assert not crashed
    return injector.ticks


def _crash_and_recover(workload, boundary: int, torn: bool):
    """Run ``workload`` against a fresh array, crash the target shard at
    ``boundary`` (torn or clean), recover, return the pieces."""
    array = build_device(shards=SHARDS)
    injector = CrashInjector()
    array.attach_injector(injector, only_shard=TARGET)
    injector.arm(after_events=boundary, torn=torn)
    oracle = SSCOracle()
    violations = []
    crashed = run_workload(array, oracle, workload, violations, "torn")
    assert crashed, "armed boundary inside the tick range must fire"
    assert not violations
    recovery_us = array.recover()
    return array, oracle, recovery_us


class TestTornWriteIsolation:
    @pytest.fixture(scope="class")
    def torn_run(self):
        """The same crash twice — torn and clean — both recovered.

        Both runs crash the same deterministic workload at the same
        durability boundary of the same target shard; the only
        difference is the torn program left behind.  Anything the torn
        write changes *outside* the target shard is a fault-isolation
        breach.
        """
        workload = generate_workload(180, seed=12, lbn_range=96)
        ticks = _target_boundary_count(workload)
        assert ticks > 4, "workload never exercised the target shard"
        boundary = ticks // 2

        torn_array, oracle, recovery_us = _crash_and_recover(
            workload, boundary, torn=True
        )
        clean_array, _, _ = _crash_and_recover(workload, boundary, torn=False)
        return torn_array, clean_array, oracle, recovery_us

    def test_crash_is_array_wide(self, torn_run):
        # Recovery cleared the crashed flag on *every* member — they all
        # went down together when the target shard's boundary fired.
        torn_array, _clean, _oracle, _us = torn_run
        for shard in torn_array.shards:
            assert not shard._crashed

    def test_other_shards_byte_identical(self, torn_run):
        torn_array, clean_array, _oracle, _us = torn_run
        for shard_id in range(SHARDS):
            if shard_id == TARGET:
                continue
            assert durable_fingerprint(
                torn_array.shards[shard_id]
            ) == durable_fingerprint(clean_array.shards[shard_id])

    def test_target_shard_took_the_damage(self, torn_run):
        # Sanity: the torn program is real — the target shard's durable
        # state differs from the clean-cut run's.
        torn_array, clean_array, _oracle, _us = torn_run
        assert durable_fingerprint(
            torn_array.shards[TARGET]
        ) != durable_fingerprint(clean_array.shards[TARGET])

    def test_array_satisfies_strict_oracle(self, torn_run):
        torn_array, _clean, oracle, _us = torn_run
        assert oracle.check(torn_array, strict=True, trial="torn") == []

    def test_each_shard_satisfies_its_oracle_slice(self, torn_run):
        torn_array, _clean, oracle, _us = torn_run
        for shard_id, shard in enumerate(torn_array.shards):
            sub = shard_oracle(oracle, torn_array.router, shard_id)
            assert sub.check(shard, strict=True, trial=f"shard{shard_id}") == []

    def test_no_foreign_blocks_recovered(self, torn_run):
        torn_array, _clean, _oracle, _us = torn_run
        for shard_id, shard in enumerate(torn_array.shards):
            for lbn in shard.engine.iter_cached_lbns():
                assert torn_array.router.shard_of(lbn) == shard_id

    def test_recovery_reported_per_shard(self, torn_run):
        torn_array, _clean, _oracle, recovery_us = torn_run
        assert len(torn_array.last_recovery_costs) == SHARDS
        assert recovery_us == max(torn_array.last_recovery_costs)


class TestParallelRecovery:
    def _loaded_array(self, shards: int):
        workload = generate_workload(200, seed=5, lbn_range=128)
        array = build_device(shards=shards)
        oracle = SSCOracle()
        violations = []
        crashed = run_workload(array, oracle, workload, violations, "load")
        assert not crashed and not violations
        return array

    def test_parallel_is_max_serial_is_sum(self):
        array = self._loaded_array(4)
        array.crash()
        parallel_us = array.recover()
        costs = array.last_recovery_costs
        assert len(costs) == 4
        assert parallel_us == max(costs)

        array.crash()
        array.recover()
        serial_us = sum(array.last_recovery_costs)
        assert parallel_us <= serial_us

    def test_crash_counts_sum_over_shards(self):
        array = self._loaded_array(3)
        per_shard_buffered = [shard.oplog.pending() for shard in array.shards]
        assert array.crash() == sum(per_shard_buffered)


class TestExplorerOnArrays:
    def test_run_trial_smoke(self):
        workload = generate_workload(80, seed=9)
        violations, fired = run_trial(workload, boundary=7, torn=True, shards=2)
        assert violations == []
        assert fired is not None

    def test_bitflip_targets_one_member(self):
        workload = generate_workload(80, seed=9)
        violations, _fired = run_trial(
            workload, boundary=5,
            fault=faults.flip_log_record, fault_rng=random.Random(1),
            strict=False, shards=2,
        )
        assert violations == []

    def test_explore_sharded(self):
        report = explore(ops=60, seed=3, stride=9, torn=True,
                         bitflips=2, shards=2)
        assert report.ok, [str(v) for v in report.violations]
        assert report.explored > 0
        assert report.bitflip_trials == 2
