"""Golden-file test pinning each request's op trace through the manager.

``tests/golden/op_trace.json`` holds, for the first requests of small
fixed-seed traces, every manager :class:`~repro.sim.completion.Completion`
as ``[service time, hit, [[resource, kind, duration], ...]]``.  Three
systems are pinned, all write-back: a bare SSC, a 2-shard SSC-R array
and the native SSD baseline.  The comparison is exact, so a change to
where op captures open, how devices report costs or how plane resource
keys (``plane:<n>``, ``s<k>:plane:<n>``, ``disk``) are named cannot
reorder, drop or re-key an operation unnoticed.

Regenerate (only for a reviewed change in simulated behaviour) with::

    PYTHONPATH=src python tests/test_op_trace_golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.traces.synthetic import PROFILES, generate_trace

GOLDEN = Path(__file__).parent / "golden" / "op_trace.json"

#: Requests recorded per system.
REQUESTS = 400

#: name -> system config for each pinned run.  The caches are small so
#: the recorded window already contains erases, merges and write-backs.
CASES = {
    "ssc_wb": SystemConfig(kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK,
                           cache_blocks=64),
    "ssc_r_wb_2shards": SystemConfig(kind=SystemKind.SSC_R,
                                     mode=CacheMode.WRITE_BACK,
                                     cache_blocks=128, shards=2),
    "native_wb": SystemConfig(kind=SystemKind.NATIVE,
                              mode=CacheMode.WRITE_BACK, cache_blocks=64),
}


def capture_cases():
    # Mail's overwrite-heavy layout with reads mixed in, so the window
    # holds read hits and misses as well as dirty writes and write-backs.
    profile = replace(PROFILES["mail"].scaled(0.01), write_fraction=0.5)
    records = generate_trace(profile, seed=7).records[:REQUESTS]
    traces = {}
    for name, config in CASES.items():
        manager = build_system(
            replace(config, disk_blocks=profile.address_range_blocks)).manager
        rows = []
        for record in records:
            if record.is_write:
                completion = manager.write(record.lbn, ("w", record.lbn))
            else:
                _data, completion = manager.read(record.lbn)
            rows.append([float(completion), completion.hit,
                         [list(op) for op in completion.ops]])
        traces[name] = rows
    return traces


def test_op_traces_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    current = json.loads(json.dumps(capture_cases()))
    assert list(current) == list(golden)
    for name in golden:
        assert len(current[name]) == REQUESTS, name
        for index, (now, then) in enumerate(zip(current[name], golden[name])):
            assert now == then, (name, index)


def test_golden_window_exercises_every_resource_kind():
    golden = json.loads(GOLDEN.read_text())
    for name, rows in golden.items():
        kinds = {op[1] for row in rows for op in row[2]}
        resources = {op[0] for row in rows for op in row[2]}
        assert {"page_read", "page_write", "erase"} <= kinds, name
        assert "disk" in resources, name
        prefix = "s1:plane:" if name == "ssc_r_wb_2shards" else "plane:"
        assert any(key.startswith(prefix) for key in resources), name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture_cases()) + "\n")
