"""Unit tests for the SSC engine: silent eviction and space management."""

import random

import pytest

from repro.errors import CacheFullError, ConfigError, InvalidAddressError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import TimingModel
from repro.ftl.hybrid import HybridFTL
from repro.ssc.device import SolidStateCache
from repro.ssc.engine import CacheFTL, CacheFTLConfig, EvictionPolicy
from repro.ssc.log import NullOperationLog


def make_engine(policy=EvictionPolicy.UTIL, planes=4, blocks=16, pages=8):
    chip = FlashChip(FlashGeometry(planes=planes, blocks_per_plane=blocks,
                                   pages_per_block=pages))
    oplog = NullOperationLog(TimingModel())
    return CacheFTL(chip, oplog, CacheFTLConfig(policy=policy))


class TestConfig:
    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            CacheFTLConfig(max_log_fraction=0.05)  # below the log pool
        with pytest.raises(ConfigError):
            CacheFTLConfig(max_log_fraction=0.5)

    def test_negative_lbn_rejected(self):
        engine = make_engine()
        with pytest.raises(InvalidAddressError):
            engine.write(-1, "x")


    def test_shares_the_hybrid_ftl_initializer(self):
        """The SSC engine runs the SSD FTL's initializer: beyond what
        each adds, the two hold the same fields."""
        hybrid = HybridFTL(FlashChip(FlashGeometry(planes=4, blocks_per_plane=16,
                                                   pages_per_block=8)))
        engine = make_engine()
        assert set(vars(hybrid)) - set(vars(engine)) == {"logical_groups", "logical_pages"}
        assert set(vars(engine)) - set(vars(hybrid)) == {
            "oplog", "max_log_blocks", "_pending_cost"}
        assert type(engine.config) is CacheFTLConfig

    def test_too_small_chip_rejected(self):
        with pytest.raises(ConfigError, match="log pool"):
            make_engine(policy=EvictionPolicy.MERGE, planes=1, blocks=8)


class TestSilentEviction:
    def test_clean_data_evicted_under_pressure(self):
        engine = make_engine()
        rng = random.Random(1)
        for i in range(4000):
            engine.write(rng.randrange(100_000), i, dirty=False)
        assert engine.stats.silent_evictions > 0
        assert engine.stats.evicted_valid_pages > 0
        assert engine.chip.free_total >= 1

    def test_eviction_never_touches_dirty_blocks(self):
        """Silent eviction must only reclaim clean blocks (§4.3)."""
        engine = make_engine()
        rng = random.Random(2)
        dirty = {}
        # Dirty working set small enough to fit; clean churn around it.
        for i in range(4000):
            if rng.random() < 0.1:
                lbn = rng.randrange(256)
                dirty[lbn] = ("d", i)
                engine.write(lbn, dirty[lbn], dirty=True)
            else:
                engine.write(1000 + rng.randrange(100_000), i, dirty=False)
        for lbn, expected in dirty.items():
            location = engine.current_location(lbn)
            assert location is not None, f"dirty block {lbn} was evicted"
            data, _cost = engine.chip.read_page(location[2])
            assert data == expected

    def test_eviction_prefers_low_utilization(self):
        engine = make_engine()
        # Build two data blocks via the device path: one dense group,
        # one sparse group, then force eviction pressure.
        rng = random.Random(3)
        for i in range(4000):
            engine.write(rng.randrange(50_000), i, dirty=False)
        victims = engine._pick_eviction_victims(4)
        if len(victims) >= 2:
            utils = [victim.valid_count for victim in victims]
            assert utils == sorted(utils)

    def test_cache_full_of_dirty_raises(self):
        engine = make_engine(planes=2, blocks=8, pages=8)
        with pytest.raises(CacheFullError):
            for i in range(10_000):
                engine.write(i * 64, ("d", i), dirty=True)  # sparse + dirty

    def test_cleaning_relieves_cache_full(self):
        engine = make_engine(planes=2, blocks=8, pages=8)
        written = []
        with pytest.raises(CacheFullError):
            for i in range(10_000):
                engine.write(i * 64, ("d", i), dirty=True)
                written.append(i * 64)
        for lbn in written:
            engine.set_clean(lbn)
        # Now clean blocks exist; writes must succeed again.
        engine.write(10**9, "after", dirty=False)
        assert engine.current_location(10**9) is not None


    def test_refused_write_work_is_charged_to_the_retry(self):
        ssc = SolidStateCache.ssc(
            FlashGeometry(planes=2, blocks_per_plane=8, pages_per_block=8))
        engine, stats, oplog = ssc.engine, ssc.chip.stats, ssc.engine.oplog
        page_program_us = oplog.timing.write_cost()
        written = []
        with pytest.raises(CacheFullError):
            for i in range(10_000):
                busy = stats.busy_us
                engine.write(i * 64, ("d", i), dirty=True)
                written.append(i * 64)
        # The refused attempt evicted before giving up; its busy time
        # is parked, not dropped.
        parked = engine._pending_cost
        assert parked == stats.busy_us - busy > 0.0
        for lbn in written:
            engine.set_clean(lbn)
        busy, log_pages = stats.busy_us, oplog.pages_written
        cost = engine.write(10**9, "after")
        assert engine._pending_cost == 0.0
        assert cost == parked + (stats.busy_us - busy) + (
            (oplog.pages_written - log_pages) * page_program_us)


class TestPolicyDifferences:
    def test_ssc_r_grows_log_pool(self):
        util = make_engine(EvictionPolicy.UTIL)
        merge = make_engine(EvictionPolicy.MERGE)
        rng = random.Random(4)
        sequence = [rng.randrange(100_000) for _ in range(4000)]
        for lbn in sequence:
            util.write(lbn, 1, dirty=False)
        for lbn in sequence:
            merge.write(lbn, 1, dirty=False)
        assert merge.log_blocks_target > util.log_blocks_target
        assert merge.max_log_blocks > util.max_log_blocks

    def test_ssc_r_amplifies_less(self):
        util = make_engine(EvictionPolicy.UTIL)
        merge = make_engine(EvictionPolicy.MERGE)
        rng = random.Random(5)
        sequence = [rng.randrange(5000) for _ in range(6000)]
        for lbn in sequence:
            util.write(lbn, 1, dirty=False)
        for lbn in sequence:
            merge.write(lbn, 1, dirty=False)
        assert merge.stats.gc_page_writes <= util.stats.gc_page_writes

    def test_ssc_r_provisions_more_memory(self, medium_geometry):
        util = SolidStateCache.ssc(medium_geometry)
        merge = SolidStateCache.ssc_r(medium_geometry)
        assert merge.device_memory_bytes() > util.device_memory_bytes()


class TestHelpers:
    def test_current_location_none_for_absent(self):
        engine = make_engine()
        assert engine.current_location(5) is None

    def test_set_clean_missing_returns_false(self):
        engine = make_engine()
        assert not engine.set_clean(5)

    def test_cached_blocks_counts_both_levels(self):
        engine = make_engine()
        rng = random.Random(6)
        shadow = set()
        for i in range(2000):
            lbn = rng.randrange(3000)
            engine.write(lbn, i, dirty=False)
            shadow.add(lbn)
        # Some were silently evicted; cached must equal live mappings.
        live = sum(1 for lbn in shadow if engine.current_location(lbn) is not None)
        assert engine.cached_blocks() == live

    def test_iter_cached_lbns_matches_reads(self):
        engine = make_engine()
        rng = random.Random(7)
        for i in range(1500):
            engine.write(rng.randrange(2000), i, dirty=False)
        for lbn in engine.iter_cached_lbns():
            assert engine.current_location(lbn) is not None

    def test_data_integrity_under_churn(self):
        engine = make_engine()
        rng = random.Random(8)
        shadow = {}
        for i in range(8000):
            lbn = rng.randrange(10_000)
            shadow[lbn] = ("v", lbn, i)
            engine.write(lbn, shadow[lbn], dirty=False)
        checked = 0
        for lbn, expected in shadow.items():
            location = engine.current_location(lbn)
            if location is not None:
                data, _cost = engine.chip.read_page(location[2])
                assert data == expected
                checked += 1
        assert checked > 0
