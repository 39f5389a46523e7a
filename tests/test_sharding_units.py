"""Unit coverage of the sharding module's edges.

The differential/property/crash suites exercise the hot paths; these
tests pin the construction-time validation and the chip view plumbing
the replay engine depends on.
"""

import pytest

from repro.core import SystemConfig, SystemKind, build_system
from repro.core.sharding import ShardedSSC
from repro.errors import ConfigError, NotPresentError
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FTLStats
from repro.ftl.ssd import SSD
from repro.sim.crash import CrashInjector
from repro.ssc.device import SolidStateCache, SSCConfig

GEOMETRY = FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)


def make_array(shards: int = 2) -> ShardedSSC:
    return ShardedSSC(
        [SolidStateCache(GEOMETRY, config=SSCConfig()) for _ in range(shards)]
    )


class TestRouterValidation:
    """Erase group ``lbn // pages_per_block`` lives on shard ``group % N``."""

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigError, match="shards must be >= 1"):
            SystemConfig(shards=0)

    def test_rejects_bad_pages_per_block(self):
        # The routing divisor is the members' block size; a zero one
        # never reaches an array.
        with pytest.raises(ConfigError, match="pages_per_block"):
            SystemConfig(pages_per_block=0, shards=2)

    def test_group_of(self):
        array = make_array(3)
        assert array.shard_of(7) is array.shards[0]
        assert array.shard_of(8) is array.shards[1]
        assert array.shard_of(23) is array.shards[2]
        assert array.shard_of(24) is array.shards[0]

    def test_repr(self):
        array = make_array(3)
        array.write_dirty(0, "a")
        assert repr(array) == "ShardedSSC(shards=3, cached=1 blocks)"
        assert repr(array.chip) == "_ShardedChipView(chips=3)"


class TestArrayValidation:
    def test_build_system_wraps_only_an_ssc_array(self):
        array = build_system(SystemConfig(cache_blocks=2048, shards=2)).device
        assert isinstance(array, ShardedSSC) and len(array.shards) == 2
        native = build_system(
            SystemConfig(kind=SystemKind.NATIVE, cache_blocks=2048)
        ).device
        assert isinstance(native, SSD)

    def test_build_system_rejects_native_array(self):
        config = SystemConfig(kind=SystemKind.NATIVE, cache_blocks=2048, shards=2)
        with pytest.raises(ConfigError, match="shards must be 1"):
            build_system(config)

    def test_rejects_empty_array(self):
        with pytest.raises(ConfigError):
            ShardedSSC([])

    def test_rejects_heterogeneous_geometry(self):
        other = FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=16)
        with pytest.raises(ConfigError):
            ShardedSSC([
                SolidStateCache(GEOMETRY, config=SSCConfig()),
                SolidStateCache(other, config=SSCConfig()),
            ])


class TestArraySurface:
    def test_identity_and_introspection(self):
        array = make_array(3)
        assert array.name == "array[3]"
        assert array.config is array.shards[0].config
        assert array.capacity_pages == 3 * array.shards[0].capacity_pages

    def test_contains_and_dirty_route(self):
        array = make_array(2)
        array.write_dirty(5, "d5")
        owner = array.shard_of(5)
        assert array.contains(5) and owner.contains(5)
        assert array.is_dirty(5)
        other = array.shards[1 - array.shards.index(owner)]
        assert not other.contains(5)

    def test_exists_merges_sorted(self):
        array = make_array(2)
        for lbn in (21, 3, 8):  # groups 2, 0, 1 — both shards hold some
            array.write_dirty(lbn, f"d{lbn}")
        dirty, cost = array.exists(0, 64)
        assert dirty == [3, 8, 21]
        assert cost == max(shard.exists(0, 64)[1] for shard in array.shards)

    def test_injector_reaches_every_member_or_one(self):
        array = make_array(2)
        owner = array.shards.index(array.shard_of(0))
        broadcast = CrashInjector()
        array.attach_injector(broadcast)
        for shard in array.shards:
            assert shard.injector is broadcast
        before = broadcast.ticks
        array.write_dirty(0, "a")
        assert broadcast.ticks > before

        other = array.shards[1 - owner]
        targeted = CrashInjector()
        other.attach_injector(targeted)
        array.write_dirty(0, "b")  # owner only: no tick reaches the other
        assert targeted.ticks == 0
        array.write_dirty(8, "c")  # group 1 lives on the other member
        assert array.shard_of(8) is other
        assert targeted.ticks > 0

    def test_shutdown_checkpoints_every_member(self):
        array = make_array(2)
        array.write_dirty(0, "a")
        array.write_dirty(8, "b")
        cost = array.shutdown()
        assert cost > 0
        assert all(
            shard.checkpoints.latest() is not None for shard in array.shards
        )

    def test_last_recovery_discarded_sums(self):
        array = make_array(2)
        array.write_dirty(0, "a")
        array.write_dirty(8, "b")
        array.crash()
        array.recover()
        assert array.last_recovery_discarded == sum(
            shard.last_recovery_discarded for shard in array.shards
        )

    def test_injector_fans_out_to_all_members(self):
        array = make_array(2)
        injector = CrashInjector()
        array.attach_injector(injector)
        array.write_dirty(0, "a")   # shard 0 boundary
        array.write_dirty(8, "b")   # shard 1 boundary
        assert injector.ticks >= 2


class TestArrayWidePowerFailure:
    """A CrashError from any member op must power-fail the whole array
    — otherwise surviving members keep volatile state no real power cut
    leaves behind, and recovery would silently diverge from it."""

    OPS = ["write_clean", "evict", "clean", "checkpoint_now", "shutdown"]

    @pytest.mark.parametrize("op", OPS)
    def test_crash_during_op_fails_every_shard(self, op):
        from repro.errors import CrashError

        array = ShardedSSC([
            SolidStateCache(GEOMETRY, config=SSCConfig(group_commit_ops=1))
            for _ in range(2)
        ])
        for lbn in (0, 8, 16, 24):     # both shards hold dirty state
            array.write_dirty(lbn, f"d{lbn}")
        injector = CrashInjector()
        array.attach_injector(injector)
        injector.arm(after_events=0)   # next durability boundary fires
        with pytest.raises(CrashError):
            if op == "write_clean":
                array.write_clean(0, "replacement")  # replace => sync
            elif op == "evict":
                array.evict(0)
            elif op == "clean":
                array.clean(0)
            elif op == "checkpoint_now":
                array.checkpoint_now()
            else:
                array.shutdown()
        assert all(shard._crashed for shard in array.shards)
        array.recover()
        assert all(not shard._crashed for shard in array.shards)


class TestAggregates:
    def test_array_sums_its_members(self):
        array = make_array(2)
        for lbn in range(0, 64, 3):
            array.write_dirty(lbn, ("e", lbn))
        assert array.pages_per_block == GEOMETRY.pages_per_block
        assert array.cached_blocks() == sum(
            shard.cached_blocks() for shard in array.shards
        )
        assert array.device_memory_bytes() == sum(
            shard.device_memory_bytes() for shard in array.shards
        )
        assert vars(array.stats) == vars(FTLStats.total(
            shard.engine.stats for shard in array.shards
        ))
        assert array.stats.user_writes == len(range(0, 64, 3))


class TestChipView:
    def test_ops_carry_every_member_plane_key(self):
        from repro.sim.completion import OpRecorder

        keys = {}
        for shards in (1, 2):
            array = make_array(shards)
            recorder = OpRecorder()
            array.chip.op_recorder = recorder
            recorder.begin()
            for lbn in range(256):
                array.write_clean(lbn, ("w", lbn))
            keys[shards] = {op.resource for op in recorder.end()}
        assert keys[2] == {
            f"s{shard}:plane:{plane_id}"
            for shard in range(2) for plane_id in range(GEOMETRY.planes)
        }
        # A one-member array keeps the bare device's key names.
        assert keys[1] == {
            f"plane:{plane_id}" for plane_id in range(GEOMETRY.planes)
        }

    def test_recorder_fans_out(self):
        from repro.sim.completion import OpRecorder

        array = make_array(2)
        recorder = OpRecorder()
        array.chip.op_recorder = recorder
        assert array.chip.op_recorder is recorder
        assert all(
            shard.chip.op_recorder is recorder for shard in array.shards
        )
        recorder.begin()
        array.write_dirty(0, "a")   # shard 0
        array.write_dirty(8, "b")   # shard 1
        ops = recorder.end()
        assert ops  # both members report through the one recorder

    def test_erases_and_flash_stats_aggregate(self):
        array = make_array(2)
        for lbn in range(0, 128):
            array.write_clean(lbn, ("w", lbn))
        assert array.chip.stats.block_erases == sum(
            shard.chip.stats.block_erases for shard in array.shards
        )
        assert array.chip.stats.page_writes == sum(
            shard.chip.stats.page_writes for shard in array.shards
        )


class TestSingleMemberArrayReads:
    def test_absent_read_raises(self):
        array = make_array(1)
        with pytest.raises(NotPresentError):
            array.read(12)
