"""The SSC's per-request consistency bookkeeping against its references.

* The checkpoint trigger is cached between checkpoints.  After a crash
  that damages or replaces the newest slot, it must fire the next
  checkpoint at exactly the request where the per-operation rule
  (``checkpoints.latest()`` asked after every operation) fires it.
* Checkpoint snapshots are built in one pass over the maps.  At every
  checkpoint of a replay they must equal the entry lists built from
  ``items()`` with one ``chip.locate`` / ``chip.block`` per entry.
"""

import random

import pytest

from repro.check import faults
from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.core.sharding import ShardedSSC
from repro.errors import CrashError, InvalidAddressError
from repro.flash.geometry import FlashGeometry
from repro.sim.crash import CrashInjector, CrashPoint
from repro.ssc.checkpoint import checkpoint_bytes
from repro.ssc.device import CHECKPOINT_LOG_RATIO, SolidStateCache
from repro.ssc.log import RECORD_BYTES
from repro.traces.synthetic import MAIL, generate_trace

GEOMETRY = FlashGeometry(planes=4, blocks_per_plane=128, pages_per_block=16)


def per_op_latest_rule(ssc):
    """Give ``ssc`` the uncached policy: weigh the log against
    ``checkpoints.latest()`` after every operation."""
    def maybe_checkpoint():
        latest = ssc.checkpoints.latest()
        base = latest.size_bytes() if latest is not None else checkpoint_bytes(
            len(ssc.engine.log_map), len(ssc.engine.data_map))
        if (
            len(ssc.oplog.flushed) * RECORD_BYTES > CHECKPOINT_LOG_RATIO * base
            or ssc._writes_since_checkpoint >= ssc.config.checkpoint_interval_writes
        ):
            return ssc.checkpoint_now()
        return 0.0
    ssc._maybe_checkpoint = maybe_checkpoint


def members(device):
    return getattr(device, "shards", [device])


def make_device(sharded):
    if sharded:
        return ShardedSSC([SolidStateCache(GEOMETRY) for _ in range(2)])
    return SolidStateCache(GEOMETRY)


def run_with_damage(sharded, damage, reference):
    """Write, crash with ``damage``, recover through the device's own
    ``recover`` and keep writing.

    Returns the recovery step and ``(step, member, seq, bytes)`` of
    every checkpoint written.  Writes go to fresh logical blocks first,
    so each checkpoint is larger than the one before it and a trigger
    left over from another checkpoint fires at a different step.
    """
    device = make_device(sharded)
    schedule = []
    step = [0]
    for index, member in enumerate(members(device)):
        if reference:
            per_op_latest_rule(member)

        def recording(checkpoint, index=index, write=member.checkpoints.write):
            schedule.append((step[0], index, checkpoint.seq, checkpoint.size_bytes()))
            return write(checkpoint)
        member.checkpoints.write = recording

    rng = random.Random(7)

    def write_some(count, span):
        for _ in range(count):
            step[0] += 1
            lbn = rng.randrange(span)
            device.write_dirty(lbn, step[0])
            if rng.random() < 0.5:
                device.clean(lbn)  # leaves the SSC room to evict

    write_some(400, 5000)
    if damage == "flip":
        device.crash()
        damaged = members(device)[0]
        newest = damaged.checkpoints.latest()
        assert faults.flip_checkpoint(damaged, random.Random(3))
        assert not newest.is_intact()
    else:
        # Power fails right after a checkpoint reached its slot, before
        # the write that took it returned.
        injector = CrashInjector()
        injector.arm(at=CrashPoint.AFTER_CHECKPOINT)
        device.attach_injector(injector)
        with pytest.raises(CrashError):
            write_some(400, 5000)
        injector.disarm()
    recovered_at = step[0]
    device.recover()
    write_some(400, 5000)
    write_some(800, 600)
    return recovered_at, schedule


@pytest.mark.parametrize("damage", ["flip", "commit_crash"])
@pytest.mark.parametrize("sharded", [False, True], ids=["ssc", "sharded"])
def test_trigger_after_recovery_matches_per_op_rule(sharded, damage):
    recovered_at, cached = run_with_damage(sharded, damage, reference=False)
    _, reference = run_with_damage(sharded, damage, reference=True)
    after = [entry for entry in reference if entry[0] > recovered_at]
    assert len(after) > 10
    assert cached == reference


def test_flip_on_a_live_device_rederives_the_trigger():
    """Damage without a crash: the next checkpoint is weighed against
    the older, still intact slot, as the per-operation rule does."""
    schedules = []
    for reference in (False, True):
        ssc = SolidStateCache(GEOMETRY)
        if reference:
            per_op_latest_rule(ssc)
        for i in range(400):
            ssc.write_dirty(i * 7 % 5000, i)
        assert faults.flip_checkpoint(ssc, random.Random(3))
        fired = []
        for i in range(400, 700):
            before = ssc.checkpoints.writes
            ssc.write_dirty(i * 7 % 5000, i)
            if ssc.checkpoints.writes > before:
                fired.append(i)
        schedules.append(fired)
    assert schedules[0]
    assert schedules[0] == schedules[1]


def items_snapshot(ssc):
    """Both entry lists as built from ``items()`` with one ``locate``
    (pages) or ``block`` (blocks) call per entry."""
    chip = ssc.chip
    pages = []
    for lbn, ppn in ssc.engine.log_map.items():
        block, offset = chip.locate(ppn)
        pages.append((lbn, ppn, bool(block.dirty >> offset & 1)))
    blocks = []
    for group, pbn in ssc.engine.data_map.items():
        block = chip.block(pbn)
        blocks.append((group, pbn, block.dirty & block.valid, block.valid))
    return pages, blocks


@pytest.mark.parametrize("pages_per_block", [16, 64, 128])
def test_snapshots_equal_items_construction_at_every_checkpoint(pages_per_block):
    system = build_system(SystemConfig(
        kind=SystemKind.SSC_R, mode=CacheMode.WRITE_BACK, cache_blocks=1024,
        disk_blocks=50_000, pages_per_block=pages_per_block,
    ))
    ssc = system.ssc
    compared = []
    write = ssc.checkpoints.write

    def checking(checkpoint):
        pages, blocks = items_snapshot(ssc)
        inner = ssc.engine.log_map.inner
        assert inner.items() == [(key, inner._entries[key][2]) for key in inner.keys()]
        assert checkpoint.page_entries == pages
        assert checkpoint.block_entries == blocks
        compared.append(len(pages) + len(blocks))
        return write(checkpoint)

    ssc.checkpoints.write = checking
    records = generate_trace(MAIL.scaled(0.03), seed=2).records
    system.replay(records)
    assert len(compared) > 20
    assert max(compared) > 50


def test_snapshot_of_an_invalid_ppn_raises():
    ssc = SolidStateCache(GEOMETRY)
    ssc.engine.log_map.inner.insert(1, GEOMETRY.total_pages)
    with pytest.raises(InvalidAddressError):
        ssc._page_entries_snapshot()


def test_snapshot_of_an_invalid_pbn_raises():
    ssc = SolidStateCache(GEOMETRY)
    ssc.engine.data_map.inner.insert(1, -1)
    with pytest.raises(InvalidAddressError):
        ssc._block_entries_snapshot()
