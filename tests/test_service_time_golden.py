"""Every request's service time covers its own device ops.

A request's :class:`~repro.sim.completion.Completion` is its total
service time; its ops are the timed flash and disk operations inside
it.  Untraced time (controller delays, log commits) only adds to the
total, so the total is never less than the sum of the ops.  When an SSC
refuses a write as full, the merges, evictions and log forces the
refused attempt already did stay recorded as ops, so their cost must
reach the completion too: the zipf replays below each refuse writes
that the write-back manager retries after a forced clean.

The replay engine relies on this: at queue depth 1 every resource is
free again when the next request starts, so no request waits.  The
second test checks that on every QD-1 scenario of
``tests/golden/wallclock_sim.json``, which
``tests/test_wallclock_sim_golden.py`` pins to the live replays.
"""

import json

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.traces.synthetic import generate_trace
from tests.test_wallclock_sim_golden import GOLDEN, SCALE, SCENARIOS, SEED, ZIPF


@pytest.mark.parametrize("kind", [SystemKind.SSC, SystemKind.SSC_R])
def test_service_time_covers_the_ops_of_every_request(kind):
    profile = ZIPF.scaled(SCALE)
    manager = build_system(SystemConfig(
        kind=kind,
        mode=CacheMode.WRITE_BACK,
        cache_blocks=profile.cache_blocks(),
        disk_blocks=profile.address_range_blocks,
    )).manager
    short = []
    for index, record in enumerate(generate_trace(profile, seed=SEED).records):
        if record.is_write:
            completion = manager.write(record.lbn, ("w", record.lbn))
        else:
            _data, completion = manager.read(record.lbn)
        op_us = sum(op.duration_us for op in completion.ops)
        if float(completion) < op_us:
            short.append((index, float(completion), op_us))
    # The replay refuses writes as full and cleans to make room.
    assert manager.stats.forced_cleans > 0
    assert short == []


def test_no_request_waits_at_queue_depth_1():
    golden = json.loads(GOLDEN.read_text())
    serial = [name for name, case in SCENARIOS.items() if case[3] == 1]
    assert len(serial) == 9
    for name in serial:
        assert golden[name]["sim"]["queue_wait"]["total_us"] == 0.0, name
