"""Focused tests for exists() across the block/page mapping split.

The dirty-block report must stay exact while blocks migrate between the
page-mapped log region and block-mapped data blocks (merges), get
cleaned, or get evicted — it is what write-back recovery rebuilds the
dirty table from, so an error here silently loses dirty data on disk.
"""

import random

import pytest

from repro.flash.geometry import FlashGeometry
from repro.ssc.device import SolidStateCache


@pytest.fixture
def ssc():
    return SolidStateCache.ssc(
        FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)
    )


class TestExistsExactness:
    def test_exists_matches_model_through_merges(self, ssc):
        """Force heavy merging and check exists() against a shadow dirty
        set after every phase."""
        rng = random.Random(1)
        dirty = set()
        span = 150
        # Phase 1: mixed dirty/clean writes (log-resident).
        for i in range(500):
            lbn = rng.randrange(span)
            if rng.random() < 0.3:
                ssc.write_dirty(lbn, i)
                dirty.add(lbn)
            else:
                ssc.write_clean(lbn, i)
                dirty.discard(lbn)
        reported, _ = ssc.exists(0, span)
        assert set(reported) == dirty

        # Phase 2: churn forces merges into block-mapped data blocks.
        for i in range(1500):
            lbn = span + rng.randrange(3000)
            ssc.write_clean(lbn, i)
        reported, _ = ssc.exists(0, span)
        assert set(reported) == dirty

        # Phase 3: clean half, evict a quarter.
        for lbn in list(dirty)[: len(dirty) // 2]:
            ssc.clean(lbn)
            dirty.discard(lbn)
        for lbn in list(dirty)[: len(dirty) // 4]:
            ssc.evict(lbn)
            dirty.discard(lbn)
        reported, _ = ssc.exists(0, span)
        assert set(reported) == dirty

    def test_exists_survives_crash_recovery_cycle(self, ssc):
        rng = random.Random(3)
        dirty = set()
        for i in range(500):
            lbn = rng.randrange(150)
            if rng.random() < 0.3:
                ssc.write_dirty(lbn, i)
                dirty.add(lbn)
            else:
                ssc.write_clean(lbn, i)
                dirty.discard(lbn)
        ssc.crash()
        ssc.recover()
        reported, _ = ssc.exists(0, 1000)
        # Dirty blocks can never be lost; async cleans may revert, so
        # the report may be a superset of the model but never a subset.
        assert dirty <= set(reported)
