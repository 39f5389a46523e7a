"""Tests for the SSC extensions: NVRAM logging and clean shutdown."""

import random

import pytest

from repro.errors import NotPresentError
from repro.flash.geometry import FlashGeometry
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.log import NvramOperationLog


@pytest.fixture
def geometry():
    return FlashGeometry(planes=4, blocks_per_plane=32, pages_per_block=16)


class TestNvram:
    def test_nvram_log_selected(self, geometry):
        ssc = SolidStateCache(geometry, config=SSCConfig(nvram=True))
        assert isinstance(ssc.oplog, NvramOperationLog)

    def test_nvram_flushes_are_free(self, geometry):
        """§6.4: with NVRAM, consistency imposes no performance cost."""
        flash = SolidStateCache(geometry, config=SSCConfig())
        nvram = SolidStateCache(geometry, config=SSCConfig(nvram=True))
        rng = random.Random(1)
        # Clustered dirty set: fits the cache at erase-block granularity.
        sequence = [(rng.randrange(1200), i) for i in range(1500)]
        flash_cost = sum(flash.write_dirty(lbn, v) for lbn, v in sequence)
        nvram_cost = sum(nvram.write_dirty(lbn, v) for lbn, v in sequence)
        assert nvram_cost < flash_cost
        assert nvram.oplog.pages_written == 0

    def test_nvram_loses_nothing_at_crash(self, geometry):
        ssc = SolidStateCache(geometry, config=SSCConfig(nvram=True))
        ssc.write_clean(5, "clean")   # would be buffered on flash logs
        lost = ssc.crash()
        assert lost == 0
        ssc.recover()
        data, _ = ssc.read(5)  # buffered-clean loss cannot happen
        assert data == "clean"

    def test_nvram_preserves_guarantees(self, geometry):
        ssc = SolidStateCache(geometry, config=SSCConfig(nvram=True))
        rng = random.Random(2)
        shadow = {}
        for i in range(2500):
            lbn = rng.randrange(30_000)
            shadow[lbn] = ("n", i)
            ssc.write_clean(lbn, shadow[lbn])
        ssc.crash()
        ssc.recover()
        for lbn, expected in shadow.items():
            try:
                data, _ = ssc.read(lbn)
            except NotPresentError:
                continue  # silently evicted
            assert data == expected


class TestShutdown:
    def test_shutdown_checkpoints(self, geometry):
        ssc = SolidStateCache.ssc(geometry)
        for i in range(300):
            ssc.write_dirty(i, i)
        cost = ssc.shutdown()
        assert cost > 0
        assert ssc.checkpoints.latest() is not None
        assert not ssc.oplog.flushed  # log truncated

    def test_warm_restart_is_fast_and_complete(self, geometry):
        ssc = SolidStateCache.ssc(geometry)
        for i in range(400):
            ssc.write_dirty(i, ("warm", i))
        ssc.shutdown()
        ssc.crash()  # power-off after clean shutdown
        recovery_us = ssc.recover()
        # Recovery replays an (empty) log plus the checkpoint read.
        assert recovery_us < 100_000
        for i in range(0, 400, 13):
            data, _ = ssc.read(i)
            assert data == ("warm", i)

    def test_shutdown_without_consistency_is_noop(self, geometry):
        ssc = SolidStateCache(geometry, config=SSCConfig(consistency=False))
        ssc.write_clean(1, "x")
        assert ssc.shutdown() == 0.0
