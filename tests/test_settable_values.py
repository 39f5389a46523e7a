"""The settable values, pinned.

Every field of a config object is an option that tests and benchmarks
must cover.  This inventory makes adding, removing or renaming one a
reviewed change to this file.  Former knobs that are now module
constants stay at the values every golden was recorded with.
"""

import dataclasses
import importlib

import pytest

from repro.core.config import SystemConfig
from repro.ftl.hybrid import HybridFTLConfig
from repro.ftl.wear import WearConfig
from repro.ssc.device import SSCConfig
from repro.ssc.engine import CacheFTLConfig

HYBRID = ["sequential_log", "wear"]
CACHE = HYBRID + ["policy", "max_log_fraction"]

INVENTORY = {
    SystemConfig: [
        "kind", "mode", "cache_blocks", "disk_blocks", "capacity_slack",
        "consistency", "dirty_threshold", "planes", "pages_per_block",
        "shards",
    ],
    HybridFTLConfig: HYBRID,
    WearConfig: ["dynamic", "static_threshold", "check_interval"],
    CacheFTLConfig: CACHE,
    SSCConfig: CACHE + [
        "consistency", "clean_durability", "group_commit_ops",
        "checkpoint_interval_writes", "nvram",
    ],
}


@pytest.mark.parametrize("config", list(INVENTORY), ids=lambda cls: cls.__name__)
def test_config_fields_are_pinned(config):
    assert [field.name for field in dataclasses.fields(config)] == INVENTORY[config]


CONSTANTS = {
    "repro.ftl.hybrid.LOG_FRACTION": 0.07,
    "repro.ftl.hybrid.SPARE_BLOCKS": 8,
    "repro.ssc.engine.EVICT_BATCH": 4,
    "repro.manager.native.SET_SIZE": 64,
    "repro.manager.native.META_FRACTION": 0.02,
    "repro.ftl.pagemap.OVERPROVISION": 0.07,
    "repro.ftl.pagemap.GC_THRESHOLD": 4,
    "repro.ssc.device.CHECKPOINT_LOG_RATIO": 2.0 / 3.0,
}


@pytest.mark.parametrize("name", list(CONSTANTS))
def test_former_knobs_keep_their_defaults(name):
    module, _, attribute = name.rpartition(".")
    assert getattr(importlib.import_module(module), attribute) == CONSTANTS[name]
