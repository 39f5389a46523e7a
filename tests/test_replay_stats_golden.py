"""Golden-file test pinning ``ReplayStats.to_dict()``.

``to_dict()`` is the JSON form of a replay's simulated results.  The
golden file pins its keys, nesting *and values* for a fixed-seed QD 4
SSC-R write-back replay: the simulation is deterministic, so any value
drift means device semantics changed (and must also show up in the
differential layer), and any key change breaks readers of stored
results.
"""

import json
from pathlib import Path

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.traces.synthetic import PROFILES, generate_trace

GOLDEN = Path(__file__).parent / "golden" / "replay_stats_ssc_r_wb_qd4.json"


def golden_replay_stats():
    system = build_system(
        SystemConfig(
            kind=SystemKind.SSC_R,
            mode=CacheMode.WRITE_BACK,
            cache_blocks=512,
            disk_blocks=20_000,
        )
    )
    records = generate_trace(PROFILES["homes"].scaled(0.01), seed=42).records
    return system.replay(records, warmup_fraction=0.25, queue_depth=4)


class TestReplayStatsGolden:
    def test_to_dict_matches_golden_file(self):
        golden = json.loads(GOLDEN.read_text())
        current = golden_replay_stats().to_dict()
        # Compare via JSON round-trip so tuples/ints normalize exactly
        # as they would in a written JSON file.
        assert json.loads(json.dumps(current)) == golden

    def test_key_order_is_stable(self):
        golden = json.loads(GOLDEN.read_text())
        current = golden_replay_stats().to_dict()
        assert list(current) == list(golden)
        for dist in ("latency", "service", "queue_wait"):
            assert list(current[dist]) == list(golden[dist])

    def test_json_serializable(self):
        json.dumps(golden_replay_stats().to_dict())
