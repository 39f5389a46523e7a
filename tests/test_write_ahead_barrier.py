"""The SSC's pre-erase barrier follows the write-ahead rule.

Before an erase the SSC forces every still-buffered log record, so the
records that superseded mappings into the doomed block are durable
first.  Four map mutations supersede a mapping into a block: a
block-map remove (silent eviction), a block-map insert over an old data
block (full merge), a page-map remove (log-block merge) and a page-map
insert over an older page (log-page overwrite).  For each, a crash
right after such an erase must recover a durable mapping that
references nothing in the erased block and loses no acknowledged dirty
block.

The trigger is the same for every case: the erase of a block the
*durable* mapping still references when the erase begins, which is
exactly the erase the barrier exists to guard.
"""

import random

import pytest

from repro.errors import CrashError, NotPresentError
from repro.flash.geometry import FlashGeometry
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EVICT_BATCH, EvictionPolicy
from repro.ssc.recovery import replay


def make_ssc(**overrides):
    geometry = FlashGeometry(planes=4, blocks_per_plane=16, pages_per_block=8)
    return SolidStateCache(
        geometry, config=SSCConfig(policy=EvictionPolicy.UTIL, **overrides))


def durable_state(ssc):
    """The mapping a crash now would recover: latest checkpoint plus the
    intact durable log."""
    checkpoint = ssc.checkpoints.latest()
    records, _ = ssc.oplog.intact_records_after(
        checkpoint.seq if checkpoint is not None else 0)
    return replay(checkpoint, records, ssc.engine.pages_per_block)


def references(state, pbn, pages_per_block):
    """Recovered mappings (page- or block-level) that point into ``pbn``."""
    pages = [lbn for lbn, (ppn, _dirty) in state.page_entries.items()
             if ppn // pages_per_block == pbn]
    groups = [group for group, entry in state.block_entries.items()
              if entry.pbn == pbn]
    return pages + groups


def crash_after_guarded_erase(ssc, sources):
    """Arm ``ssc`` to lose power right after erasing a block that
    ``sources`` (a list filled while the workload runs) names and that
    the durable mapping still references when the erase begins.
    Returns a dict that records the erased pbn once it fired."""
    engine, chip = ssc.engine, ssc.chip
    fired = {}
    guarded_erase, erase = engine._erase, chip.erase_block

    def arm_then_erase(pbn):
        if not fired and pbn in sources and references(
                durable_state(ssc), pbn, engine.pages_per_block):
            fired["armed"] = pbn
        return guarded_erase(pbn)

    def erase_then_crash(pbn):
        cost = erase(pbn)
        if fired.get("armed") == pbn:
            fired["pbn"] = pbn
            raise CrashError("simulated power failure after the erase")
        return cost

    engine._erase = arm_then_erase
    chip.erase_block = erase_then_crash
    return fired


def watch(target, name, pbn_of, sources):
    """Wrap ``target.name`` (a logged map mutation) so each mapping it
    supersedes adds the superseded block to ``sources``."""
    method = getattr(target, name)

    def call(*args):
        previous = method(*args)
        if previous is not None:
            sources.append(pbn_of(previous))
        return previous

    setattr(target, name, call)


def run_until_crash(ssc, ops):
    """Apply ``ops`` (callables on ``ssc``) until one crashes; return the
    acknowledged dirty values (lbn -> value) at that point."""
    dirty = {}
    for op, lbn, value in ops:
        try:
            op(ssc, lbn, value)
        except CrashError:
            return dirty
        if op is write_dirty:
            dirty[lbn] = value
        else:
            dirty.pop(lbn, None)
    pytest.fail("the workload never erased a block its durable mapping referenced")


def write_dirty(ssc, lbn, value):
    ssc.write_dirty(lbn, value)


def write_clean(ssc, lbn, value):
    ssc.write_clean(lbn, value)


def check_recovery(ssc, fired, dirty):
    pbn = fired["pbn"]
    state = durable_state(ssc)
    assert references(state, pbn, ssc.engine.pages_per_block) == []
    ssc.recover()
    for lbn, value in dirty.items():
        assert ssc.read(lbn)[0] == value, lbn
        assert ssc.is_dirty(lbn), lbn


class TestEachSupersessionIsDurableBeforeItsErase:
    def test_silent_eviction_remove_block(self):
        """Clean data blocks, evicted in a batch: the REMOVE_BLOCK of
        each victim must be durable before the victim's erase."""
        ssc = make_ssc()
        engine = ssc.engine
        sources = []
        pick = engine._pick_eviction_victims

        def picked(limit):
            victims = pick(limit)
            sources.extend(victim.pbn for victim in victims)
            return victims

        engine._pick_eviction_victims = picked
        fired = crash_after_guarded_erase(ssc, sources)
        rng = random.Random(3)
        ops = []
        for i in range(3000):
            if i % 16 == 0:
                ops.append((write_dirty, 100_000 + i % 48, ("d", i)))
            else:
                ops.append((write_clean, rng.randrange(4096), ("c", i)))
        dirty = run_until_crash(ssc, ops)
        check_recovery(ssc, fired, dirty)

    def test_full_merge_insert_block_over_old_data_block(self):
        """A group merged twice: the second merge's INSERT_BLOCK
        supersedes the first merge's data block before its erase."""
        ssc = make_ssc()
        sources = []
        watch(ssc.engine.data_map, "insert", lambda pbn: pbn, sources)
        fired = crash_after_guarded_erase(ssc, sources)
        rng = random.Random(5)
        ops = [(write_dirty, rng.randrange(48), ("d", i)) for i in range(2000)]
        dirty = run_until_crash(ssc, ops)
        assert ssc.stats.full_merges > 0
        check_recovery(ssc, fired, dirty)

    def test_log_block_merge_remove_page(self):
        """Every page of the victim log block belongs to a group with no
        data block yet, so the merge erases nothing before the victim:
        its REMOVE_PAGE records alone must be durable first."""
        ssc = make_ssc()
        pages_per_block = ssc.engine.pages_per_block
        sources = []
        watch(ssc.engine.log_map, "remove",
              lambda ppn: ppn // pages_per_block, sources)
        fired = crash_after_guarded_erase(ssc, sources)
        ops = [(write_dirty, 8 * i + 3, ("d", i)) for i in range(48)]
        dirty = run_until_crash(ssc, ops)
        check_recovery(ssc, fired, dirty)

    def test_log_page_overwrite_insert_page(self):
        """A log block whose every page was overwritten by buffered
        write-cleans is erased by the merge that recycles it; the
        overwrites' INSERT_PAGE records must be durable first."""
        ssc = make_ssc(clean_durability="buffered")
        pages_per_block = ssc.engine.pages_per_block
        sources = []
        watch(ssc.engine.log_map, "insert",
              lambda ppn: ppn // pages_per_block, sources)
        fired = crash_after_guarded_erase(ssc, sources)
        clean = [8 * i + 5 for i in range(8)]
        ops = [(write_clean, lbn, ("v1", lbn)) for lbn in clean]
        # A write-dirty forces the log: the first copies become durable.
        ops.append((write_dirty, 7, ("d", 0)))
        ops += [(write_clean, lbn, ("v2", lbn)) for lbn in clean]
        ops += [(write_clean, 8 * i + 6, ("c", i)) for i in range(64)]
        dirty = run_until_crash(ssc, ops)
        check_recovery(ssc, fired, dirty)


class TestLogForces:
    def fill_with_clean_blocks(self):
        ssc = make_ssc()
        # Sequential runs become whole clean data blocks (switch merges).
        for lbn in range(8 * 40):
            ssc.write_clean(lbn, ("c", lbn))
        ssc.oplog.flush(sync=True)
        return ssc

    def test_one_log_force_per_batch(self):
        ssc = self.fill_with_clean_blocks()
        engine, oplog = ssc.engine, ssc.oplog
        batch = EVICT_BATCH
        assert len(engine._pick_eviction_victims(batch)) == batch
        before = (engine.stats.silent_evictions, oplog.sync_flushes,
                  oplog.pages_written, oplog.barrier_flushes)
        engine._silent_evict(engine.chip.free_total + 1)
        after = (engine.stats.silent_evictions, oplog.sync_flushes,
                 oplog.pages_written, oplog.barrier_flushes)
        assert [b - a for a, b in zip(before, after)] == [batch, 1, 1, 1]
        assert oplog.pending() == 0

    def test_erase_with_empty_buffer_needs_no_flush(self):
        ssc = self.fill_with_clean_blocks()
        engine, oplog = ssc.engine, ssc.oplog
        victim = engine._pick_eviction_victims(1)[0]
        engine.data_map.remove(engine.data_map.group_of(victim.pbn))
        victim.invalidate_all()
        oplog.flush(sync=True)
        flushes = (oplog.sync_flushes, oplog.barrier_flushes)
        engine._erase(victim.pbn)
        assert (oplog.sync_flushes, oplog.barrier_flushes) == flushes

    def test_write_clean_after_gc_erase_stays_buffered(self):
        """A write-clean whose garbage collection erased a block does not
        force its own record; a crash then loses it as if silently
        evicted, and everything durable before it survives."""
        ssc = self.fill_with_clean_blocks()
        ssc.write_dirty(10_000, "dirty")
        for lbn in range(20_000, 30_000, 7):
            # A checkpoint would make the record durable on its own.
            erases, checkpoints = ssc.chip.stats.block_erases, ssc.checkpoints.writes
            ssc.write_clean(lbn, ("new", lbn))
            if (ssc.chip.stats.block_erases > erases
                    and ssc.checkpoints.writes == checkpoints):
                break
        else:
            pytest.fail("no write-clean erased a block without checkpointing")
        assert ssc.oplog.buffer[-1].lbn == lbn
        ssc.crash()
        ssc.recover()
        with pytest.raises(NotPresentError):
            ssc.read(lbn)
        assert ssc.read(10_000)[0] == "dirty"
        assert ssc.is_dirty(10_000)
