"""Golden-file test pinning when each SSC checkpoint fires.

The checkpoint policy (§6.4: checkpoint "if the log size exceeds
two-thirds of the checkpoint size") decides which request pays for a
checkpoint and how much log a recovery replays.  For three short
fixed-seed replays this pins, per device, every committed checkpoint's
log sequence number, its ``size_bytes()`` and the index of the request
that triggered it.  The policy may be computed any way that keeps this
schedule exactly.

Regenerate (only for a reviewed change in simulated behaviour) with::

    PYTHONPATH=src python tests/test_checkpoint_schedule_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.traces.synthetic import HOMES, MAIL, generate_trace

GOLDEN = Path(__file__).parent / "golden" / "checkpoint_schedule.json"

#: name -> (kind, mode, shards, queue depth, profile, scale, seed).
CASES = {
    "mail_0.05_s5_ssc_wb_qd1": (
        SystemKind.SSC, CacheMode.WRITE_BACK, 1, 1, MAIL, 0.05, 5),
    "mail_0.05_s5_ssc_r_wb_2shards_qd4": (
        SystemKind.SSC_R, CacheMode.WRITE_BACK, 2, 4, MAIL, 0.05, 5),
    "homes_0.05_s9_ssc_wt_qd1": (
        SystemKind.SSC, CacheMode.WRITE_THROUGH, 1, 1, HOMES, 0.05, 9),
}


def record_schedule(name):
    """Replay case ``name``; returns ``[[shard, request, seq, bytes], ...]``
    for every checkpoint, in commit order."""
    kind, mode, shards, queue_depth, profile, scale, seed = CASES[name]
    system = build_system(SystemConfig(
        kind=kind, mode=mode, shards=shards, cache_blocks=512,
        disk_blocks=50_000,
    ))
    devices = getattr(system.ssc, "shards", [system.ssc])
    manager = system.manager
    schedule = []
    request = [-1]

    def counting(method):
        def call(*args, **kwargs):
            request[0] += 1
            return method(*args, **kwargs)
        return call

    def recording(shard, write):
        def call(checkpoint):
            schedule.append(
                [shard, request[0], checkpoint.seq, checkpoint.size_bytes()])
            return write(checkpoint)
        return call

    manager.read = counting(manager.read)
    manager.write = counting(manager.write)
    for shard, device in enumerate(devices):
        device.checkpoints.write = recording(shard, device.checkpoints.write)
    records = generate_trace(profile.scaled(scale), seed=seed).records
    system.replay(records, warmup_fraction=0.15, queue_depth=queue_depth)
    return schedule


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_schedule_matches_golden(golden, name):
    schedule = record_schedule(name)
    assert len(schedule) == len(golden[name])
    assert schedule == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: record_schedule(name) for name in sorted(CASES)},
        separators=(",", ":"),
    ) + "\n")
    print(f"wrote {GOLDEN}")
