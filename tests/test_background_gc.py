"""Tests for background garbage collection (idle-time cleaning)."""

import random

import pytest

from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.ssc.device import SolidStateCache


@pytest.fixture
def geometry():
    return FlashGeometry(planes=4, blocks_per_plane=32, pages_per_block=16)


def pressure(device_write, rng, count=3000, span=60_000):
    for i in range(count):
        device_write(rng.randrange(span), i)


class TestSSCBackground:
    def test_idle_collection_frees_blocks(self, geometry):
        ssc = SolidStateCache.ssc(geometry)
        rng = random.Random(1)
        pressure(ssc.write_clean, rng)
        free_before = ssc.engine.chip.free_total
        spent = ssc.background_collect(budget_us=500_000)
        assert spent > 0
        assert ssc.engine.chip.free_total > free_before

    def test_budget_respected(self, geometry):
        ssc = SolidStateCache.ssc(geometry)
        rng = random.Random(2)
        pressure(ssc.write_clean, rng)
        budget = 5_000.0
        spent = ssc.background_collect(budget_us=budget)
        # One in-flight step may overshoot, bounded by a merge's cost.
        assert spent < budget + 50_000

    def test_idle_device_stops_immediately(self, geometry):
        ssc = SolidStateCache.ssc(geometry)
        ssc.write_clean(1, "x")
        spent = ssc.background_collect(budget_us=1_000_000)
        assert spent < 50_000  # nothing useful to do

    def test_negative_budget_rejected(self, geometry):
        ssc = SolidStateCache.ssc(geometry)
        with pytest.raises(ConfigError):
            ssc.background_collect(-1.0)

    def test_data_intact_after_background_gc(self, geometry):
        ssc = SolidStateCache.ssc(geometry)
        rng = random.Random(3)
        shadow = {}
        for i in range(2500):
            lbn = rng.randrange(40_000)
            shadow[lbn] = ("v", i)
            ssc.write_clean(lbn, shadow[lbn])
        ssc.background_collect(budget_us=10**6)
        from repro.errors import NotPresentError

        for lbn, expected in shadow.items():
            try:
                data, _ = ssc.read(lbn)
            except NotPresentError:
                continue
            assert data == expected

    def test_background_gc_durable_across_crash(self, geometry):
        """Background mutations must be journaled like foreground ones."""
        ssc = SolidStateCache.ssc(geometry)
        rng = random.Random(4)
        dirty = {}
        for i in range(600):
            lbn = rng.randrange(900)
            dirty[lbn] = ("d", i)
            ssc.write_dirty(lbn, dirty[lbn])
        for i in range(2000):
            ssc.write_clean(5000 + rng.randrange(50_000), i)
        ssc.background_collect(budget_us=10**6)
        ssc.crash()
        ssc.recover()
        for lbn, expected in dirty.items():
            data, _ = ssc.read(lbn)
            assert data == expected

    def test_background_shifts_gc_work_off_foreground(self, geometry):
        """Idle collection must reduce the garbage-collection work the
        *next* burst of foreground writes has to perform."""
        def run(with_background):
            ssc = SolidStateCache.ssc(geometry)
            rng = random.Random(5)
            pressure(ssc.write_clean, rng, count=2500)
            if with_background:
                ssc.background_collect(budget_us=10**7)
            gc_before = (
                ssc.stats.gc_page_writes + ssc.stats.silent_evictions
            )
            for i in range(200):
                ssc.write_clean(rng.randrange(60_000), i)
            return (
                ssc.stats.gc_page_writes + ssc.stats.silent_evictions
            ) - gc_before

        assert run(True) <= run(False)
