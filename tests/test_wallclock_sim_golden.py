"""Golden-file test pinning the simulated results of a 27-scenario matrix.

The matrix is three workloads (zipf, homes, usr) x three systems x queue
depths 1, 8 and 32, at scale 0.05, seed 1.  Each scenario's
``ReplayStats.to_dict()`` is its ``sim`` block; SSC scenarios also keep
the simulated recovery time of a crash right after the replay.  Those
values are deterministic, so ``tests/golden/wallclock_sim.json`` holds
them and each scenario is replayed here through :func:`build_system`
and compared exactly: a drift in simulated behaviour fails the build.

Regenerate (only for a reviewed change in simulated behaviour) with::

    PYTHONPATH=src python tests/test_wallclock_sim_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.traces.synthetic import PROFILES, WorkloadProfile, generate_trace

GOLDEN = Path(__file__).parent / "golden" / "wallclock_sim.json"

SCALE = 0.05
SEED = 1
WARMUP_FRACTION = 0.15

#: Pure skewed random references with a 70/30 read/write mix and no
#: sequential runs: the matrix's hot-path workload, which hammers the
#: sparse map and the log-write path.  The sharded differential tests
#: replay it too.
ZIPF = WorkloadProfile(
    name="zipf",
    address_range_blocks=200_000,
    unique_blocks=20_000,
    total_ops=60_000,
    write_fraction=0.30,
    zipf_alpha=1.1,
    sequential_prob=0.0,
    run_length_mean=1,
)
WORKLOADS = {"zipf": ZIPF, "homes": PROFILES["homes"], "usr": PROFILES["usr"]}
SYSTEMS = (
    (SystemKind.NATIVE, CacheMode.WRITE_BACK),
    (SystemKind.SSC, CacheMode.WRITE_THROUGH),
    (SystemKind.SSC_R, CacheMode.WRITE_BACK),
)
SCENARIOS = {
    f"{workload}_{kind.value}_{mode.value}_qd{depth}": (workload, kind, mode, depth)
    for workload in WORKLOADS
    for kind, mode in SYSTEMS
    for depth in (1, 8, 32)
}


def run_scenario(workload, kind, mode, depth) -> dict:
    """The scenario's ``sim`` block, and its recovery time on an SSC."""
    profile = WORKLOADS[workload].scaled(SCALE)
    records = generate_trace(profile, seed=SEED).records
    system = build_system(SystemConfig(
        kind=kind,
        mode=mode,
        cache_blocks=profile.cache_blocks(),
        disk_blocks=profile.address_range_blocks,
    ))
    stats = system.replay(records, warmup_fraction=WARMUP_FRACTION, queue_depth=depth)
    # A JSON round trip gives the stored form (string keys, lists).
    result = {"sim": json.loads(json.dumps(stats.to_dict()))}
    if system.ssc is not None:
        system.ssc.crash()
        result["recovery_us"] = system.ssc.recover()
    return result


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_matches_golden(golden, name):
    assert run_scenario(*SCENARIOS[name]) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: run_scenario(*case) for name, case in SCENARIOS.items()},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
