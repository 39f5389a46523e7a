"""One repetition of a benchmark workload, run in its own interpreter.

    python3 perfbench/measure.py --workload usr_ssc --seed 7 [--trace]

Generates the workload's trace from the seed, builds the system, replays
the trace through ``FlashTierSystem.replay``, crashes and recovers the
cache device, then reads every block the trace wrote back through the
cache manager.  Prints one JSON object: host times, simulated metrics,
deterministic work counts and the outcome of every output check.  With
``--trace`` the per-layer ledger (ledger.py) wraps the layers first and
its call counts and self times are added.  run.py starts one such
process per repetition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.config import CacheMode, SystemConfig, SystemKind  # noqa: E402
from repro.core.flashtier import build_system  # noqa: E402
from repro.manager.writeback import FlashTierWBManager  # noqa: E402
from repro.traces.synthetic import PROFILES, generate_trace  # noqa: E402

from ledger import Ledger  # noqa: E402
from workloads import CACHE_FRACTION, WARMUP_FRACTION, WORKLOADS  # noqa: E402

#: Enough measured requests that the p99 has ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000

#: Set-ups per plain repetition.  One set-up is about 0.02-0.05 CPU-s,
#: short enough that a single timing is mostly page faults and host
#: noise; the fastest of five is the set-up's own cost.
SETUP_REPEATS = 5


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (``VmHWM``).

    ``ru_maxrss`` would not do: Linux carries it across ``exec``, so it
    also holds the peak of the runner that started this interpreter.
    ``VmHWM`` starts afresh with the interpreter, so it covers the
    imports, set-up, replay, recovery and read-back, and nothing else.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def make_trace(workload, seed: int, generate=generate_trace):
    """The workload's profile and the records generated from ``seed``."""
    profile = PROFILES[workload.profile].scaled(workload.scale)
    return profile, generate(profile, seed=seed).records


def make_system(workload, profile):
    return build_system(SystemConfig(
        kind=SystemKind(workload.kind),
        mode=CacheMode(workload.mode),
        cache_blocks=profile.cache_blocks(CACHE_FRACTION),
        disk_blocks=profile.address_range_blocks,
        shards=workload.shards,
    ))


def written_payloads(records) -> dict:
    """The newest payload of every block the trace writes.

    Both replay loops write ``("w", lbn)`` for a write record.
    """
    return {record.lbn: ("w", record.lbn) for record in records if record.is_write}


def read_back(manager, expected) -> int:
    """Read each block of ``expected`` through ``manager``; returns how
    many reads failed: raised, or returned another payload."""
    failed = 0
    for lbn, payload in expected.items():
        try:
            data, _completion = manager.read(lbn)
        except Exception as error:  # a failed op is counted, not fatal
            print(f"read-back of block {lbn} raised {error!r}", file=sys.stderr)
            failed += 1
            continue
        if data != payload:
            failed += 1
    return failed


def _sscs(system) -> list:
    """The system's SSCs (every shard of an array); none for native."""
    if system.ssc is None:
        return []
    return list(getattr(system.ssc, "shards", [system.ssc]))


def dirty_state(system) -> dict:
    """What a crash of the cache device must not lose: the blocks it
    holds dirty and, under a write-back FlashTier manager, the manager's
    dirty-block table."""
    state = {"device": set(system.ssc.exists(0, system.config.disk_blocks)[0])}
    if isinstance(system.manager, FlashTierWBManager):
        state["manager"] = set(system.manager.dirty_table.iter_lru())
    return state


def crash_and_recover(system) -> float:
    """Crash the cache at the end of the run; returns the simulated
    recovery time in microseconds.

    A write-back FlashTier manager then rebuilds its dirty table with
    ``exists``; §4.4 overlaps that with traffic, so it is not timed.
    """
    system.ssc.crash()
    recovery_us = system.ssc.recover()
    if isinstance(system.manager, FlashTierWBManager):
        system.manager.recover_us(system.config.disk_blocks)
    return recovery_us


def write_amplification(system) -> float:
    """Flash page programs of every kind (user, GC, log, checkpoint) per
    data page the manager wrote to the cache device."""
    programs = system.device.chip.stats.page_writes + sum(
        ssc.oplog.pages_written + ssc.checkpoints.pages_written
        for ssc in _sscs(system)
    )
    data_writes = system.device.stats.user_writes - system.manager.stats.metadata_writes
    return programs / data_writes


def work_counts(system, requests: int) -> dict:
    """Deterministic work counts from the layers' own statistics.

    Rates are per trace record, warm-up included.
    """
    per_kreq = 1000.0 / requests
    manager = system.manager.stats
    ftl = system.device.stats
    flash = system.device.chip.stats
    disk = system.disk.stats
    sscs = _sscs(system)
    maps = [
        sparse
        for ssc in sscs
        for sparse in (ssc.engine.log_map.inner, ssc.engine.data_map.inner)
    ]
    lookups = sum(sparse.total_lookups for sparse in maps)
    reads = manager.read_hits + manager.read_misses
    disk_ios = disk.reads + disk.writes
    return {
        "manager.hit_ratio": manager.read_hits / reads if reads else 0.0,
        "manager.writebacks_per_kreq": manager.writebacks * per_kreq,
        "manager.cleans_per_kreq": manager.cleans * per_kreq,
        "ssc.sparse_map.mean_probes": (
            sum(sparse.total_probes for sparse in maps) / lookups if lookups else 0.0
        ),
        "ssc.log.sync_flushes_per_kreq": (
            sum(ssc.oplog.sync_flushes for ssc in sscs) * per_kreq
        ),
        "ssc.log.records_per_req": sum(ssc.oplog.last_seq for ssc in sscs) / requests,
        "ssc.log.checkpoints": sum(ssc.checkpoints.writes for ssc in sscs),
        "ftl.gc_copies_per_user_write": ftl.gc_page_writes / ftl.user_writes,
        "ftl.full_merges_per_kreq": ftl.full_merges * per_kreq,
        "ftl.silent_evictions_per_kreq": ftl.silent_evictions * per_kreq,
        "flash.programs_per_req": flash.page_writes / requests,
        "flash.reads_per_req": flash.page_reads / requests,
        "flash.erases_per_kreq": flash.block_erases * per_kreq,
        "disk.ios_per_req": disk_ios / requests,
        "disk.sequential_ratio": disk.sequential_hits / disk_ios if disk_ios else 0.0,
    }


def set_up(workload, seed: int, generate) -> tuple:
    """Generate the trace and build the system; returns both and the CPU
    seconds of generation alone and of the whole set-up."""
    gc.collect()
    start = time.process_time()
    profile, records = make_trace(workload, seed, generate)
    generated = time.process_time()
    system = make_system(workload, profile)
    return records, system, generated - start, time.process_time() - start


def run_once(workload, seed: int, ledger=None) -> dict:
    """One repetition: set up, replay, recover, check (see the module doc).

    The plain repetition sets up SETUP_REPEATS times and keeps the
    fastest times and the last system; the traced one sets up once.
    """
    generate = generate_trace
    if ledger is not None:
        generate = ledger.wrap("traces", "generate_trace", generate_trace)
    gen_times, setup_times = [], []
    for _ in range(1 if ledger is not None else SETUP_REPEATS):
        records = system = None  # free the last set-up before the next
        records, system, gen_s, setup_s = set_up(workload, seed, generate)
        gen_times.append(gen_s)
        setup_times.append(setup_s)
    gc.collect()
    replay_start = time.process_time()
    stats = system.replay(
        records,
        warmup_fraction=WARMUP_FRACTION,
        keep_latencies=True,
        queue_depth=workload.queue_depth,
    )
    replay_s = time.process_time() - replay_start

    manager = system.manager.stats
    checks = {
        "reads + writes == ops": stats.reads + stats.writes == stats.ops,
        "hits + misses == reads": stats.read_hits + stats.read_misses == stats.reads,
        "the manager saw every record": manager.reads + manager.writes == len(records),
        "latency percentiles rest on >= 1000 samples": (
            stats.latency.count >= MIN_LATENCY_SAMPLES
        ),
    }
    counts = work_counts(system, len(records))
    sim = {
        "sim_iops": stats.iops(),
        "sim_lat_mean_us": stats.latency.mean_us,
        "sim_lat_p50_us": stats.latency.percentile(50),
        "sim_lat_p99_us": stats.latency.percentile(99),
        "sim_miss_rate_pct": stats.miss_rate(),
        "sim_write_amp": write_amplification(system),
        "sim_recovery_us": 0.0,  # the native system has no recovery to run
    }
    if system.ssc is not None:
        before = dirty_state(system)
        sim["sim_recovery_us"] = crash_and_recover(system)
        after = dirty_state(system)
        checks["the manager's dirty table matches the device"] = all(
            state.get("manager", state["device"]) == state["device"]
            for state in (before, after)
        )
        # A clean whose log record was still buffered comes back dirty:
        # a redundant write-back later, not lost data.
        checks["no dirty block is lost in crash and recovery"] = (
            before["device"] <= after["device"]
        )
    if ledger is not None:
        ledger.enabled = False
    expected = written_payloads(records)
    failed = read_back(system.manager, expected)
    result = {
        "workload": workload.name,
        "seed": seed,
        "records": len(records),
        "latency_samples": stats.latency.count,
        "gen_s": min(gen_times),
        "setup_s": min(setup_times),
        "replay_s": replay_s,
        "replay_rec_per_s": len(records) / replay_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim": sim,
        "counts": counts,
        "checks": checks,
        "readbacks": len(expected),
        "failed": failed,
    }
    if ledger is not None:
        result["layers"] = ledger.metrics(len(records))
        result["wrapper_ns"] = ledger.overhead_ns
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One repetition of a perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="install the per-layer ledger")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        with Ledger() as ledger:
            result = run_once(workload, args.seed, ledger)
    else:
        result = run_once(workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
