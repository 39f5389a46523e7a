"""Golden-file test pinning the full ``repro.obs.collect()`` snapshot.

``tests/golden/collect_snapshot.json`` holds ``collect(system,
stats).to_dict()`` for three small fixed-seed runs: a bare SSC, a
2-shard SSC-R array and the native SSD baseline, all write-back.  Every
declared metric is compared exactly, so a change to how the catalog is
built or how layer counters reach the snapshot cannot drop, rename or
re-value a metric unnoticed.

Regenerate (only for a reviewed change in simulated behaviour) with::

    PYTHONPATH=src python tests/test_collect_golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.obs import collect
from repro.traces.synthetic import PROFILES, generate_trace

GOLDEN = Path(__file__).parent / "golden" / "collect_snapshot.json"

#: name -> (system config, queue depth) for each pinned run.
CASES = {
    "ssc_wb": (SystemConfig(kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK,
                            cache_blocks=256), 1),
    "ssc_r_wb_2shards": (SystemConfig(kind=SystemKind.SSC_R,
                                      mode=CacheMode.WRITE_BACK,
                                      cache_blocks=512, shards=2), 4),
    "native_wb": (SystemConfig(kind=SystemKind.NATIVE,
                               mode=CacheMode.WRITE_BACK,
                               cache_blocks=256), 1),
}


def collect_cases():
    profile = PROFILES["homes"].scaled(0.01)
    records = generate_trace(profile, seed=42).records
    snapshots = {}
    for name, (config, queue_depth) in CASES.items():
        system = build_system(
            replace(config, disk_blocks=profile.address_range_blocks))
        stats = system.replay(records, warmup_fraction=0.25,
                              keep_latencies=True, queue_depth=queue_depth)
        snapshots[name] = collect(system, stats).to_dict()
    return snapshots


def test_collect_matches_golden_file():
    golden = json.loads(GOLDEN.read_text())
    current = json.loads(json.dumps(collect_cases()))
    assert list(current) == list(golden)
    for name in golden:
        assert current[name] == golden[name], name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect_cases(), indent=2) + "\n")
