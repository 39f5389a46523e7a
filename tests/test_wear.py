"""Unit tests for wear leveling (dynamic allocation + static relocation)."""

import random


from repro.flash.block import BlockKind
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import HybridFTL, HybridFTLConfig
from repro.ftl.wear import WearConfig, WearLeveler
from repro.ssc.device import SolidStateCache, SSCConfig


def make_chip(planes=2, blocks=8, pages=4):
    return FlashChip(FlashGeometry(planes=planes, blocks_per_plane=blocks,
                                   pages_per_block=pages))


class TestDynamicAllocation:
    def test_picks_least_worn_free_block(self):
        chip = make_chip()
        leveler = WearLeveler(chip, WearConfig(dynamic=True))
        plane = chip.planes[0]
        # Wear block 0 heavily, leave the rest fresh.
        block0 = plane.allocate(BlockKind.DATA)
        for _ in range(5):
            chip.erase_block(block0.pbn)
            plane.allocate_specific(block0.pbn, BlockKind.DATA)
        chip.erase_block(block0.pbn)  # back to free with wear 6
        chosen = leveler.pick_block(plane, BlockKind.LOG)
        assert chosen.pbn != block0.pbn
        assert chosen.erase_count == 0

    def test_hottest_flag_inverts_preference(self):
        chip = make_chip()
        leveler = WearLeveler(chip, WearConfig(dynamic=True))
        plane = chip.planes[0]
        block0 = plane.allocate(BlockKind.DATA)
        chip.erase_block(block0.pbn)  # wear 1, back on free list
        chosen = leveler.pick_block(plane, BlockKind.DATA, hottest=True)
        assert chosen.pbn == block0.pbn

    def test_disabled_falls_back_to_fifo(self):
        chip = make_chip()
        leveler = WearLeveler(chip, WearConfig(dynamic=False))
        plane = chip.planes[0]
        first_free = next(pbn for pbn in plane._free if plane.is_free(pbn))
        chosen = leveler.pick_block(plane, BlockKind.DATA)
        assert chosen.pbn == first_free


class TestStaticDue:
    def test_rate_limited(self):
        chip = make_chip()
        leveler = WearLeveler(chip, WearConfig(static_threshold=0, check_interval=10))
        # The differential is 0, which is not > 0; never due.
        for _ in range(30):
            assert not leveler.static_due()

    def test_due_when_differential_exceeds(self):
        chip = make_chip()
        leveler = WearLeveler(chip, WearConfig(static_threshold=2, check_interval=1))
        plane = chip.planes[0]
        block = plane.allocate(BlockKind.DATA)
        for _ in range(4):
            chip.erase_block(block.pbn)
            plane.allocate_specific(block.pbn, BlockKind.DATA)
        assert leveler.static_due()

    def test_none_threshold_disables(self):
        chip = make_chip()
        leveler = WearLeveler(chip, WearConfig(static_threshold=None))
        assert not leveler.static_due()


class TestStaticRelocationInFTL:
    def test_relocation_bounds_wear_differential(self):
        """A hot/cold split workload must not let hot-region erases run
        away while cold data pins its blocks."""
        def run(threshold):
            chip = FlashChip(
                FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)
            )
            ftl = HybridFTL(
                chip,
                HybridFTLConfig(
                    wear=WearConfig(static_threshold=threshold, check_interval=4)
                ),
            )
            # Cold data fills a quarter of the space, written once.
            cold_span = ftl.logical_pages // 4
            for lpn in range(cold_span):
                ftl.write(lpn, ("cold", lpn))
            # Hot traffic hammers a small window.
            rng = random.Random(1)
            for i in range(6000):
                lpn = cold_span + rng.randrange(ftl.logical_pages // 8)
                ftl.write(lpn, ("hot", i))
            # Data must stay intact through relocations.
            for lpn in range(0, cold_span, 7):
                data, _ = ftl.read(lpn)
                assert data == ("cold", lpn)
            return chip.wear_differential(), ftl.wear.static_relocations

        leveled_diff, relocations = run(threshold=8)
        unleveled_diff, _ = run(threshold=None)
        assert relocations > 0
        assert leveled_diff <= unleveled_diff

    def test_ssc_supports_wear_config(self):
        geometry = FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)
        ssc = SolidStateCache(
            geometry,
            config=SSCConfig(wear=WearConfig(static_threshold=4, check_interval=2)),
        )
        rng = random.Random(2)
        for i in range(3000):
            ssc.write_clean(rng.randrange(2000), i)
        # No assertion on relocation count (workload-dependent); the
        # device must simply stay correct and report wear stats.
        assert ssc.chip.wear_differential() >= 0
        assert ssc.engine.wear.config.static_threshold == 4
