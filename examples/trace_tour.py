#!/usr/bin/env python3
"""Observability tour: trace a replay, export it, read the numbers.

Replays a small Zipf-distributed synthetic workload through a sharded
write-back FlashTier cache with the trace bus attached, then shows
every export path the observability layer offers:

1. a Chrome ``trace_event`` JSON — open it at https://ui.perfetto.dev
   (or chrome://tracing) to see requests, per-plane flash operations,
   GC merges and log flushes on labeled timeline lanes;
2. the raw event stream as JSON Lines — input for
   ``python -m repro trace report``;
3. a metrics snapshot (every counter documented in
   docs/metrics.md) as JSON;
4. the write-amplification breakdown, computed here from the captured
   events exactly the way ``repro trace report`` does it.

The same capture is available without code from the CLI::

    python -m repro replay --workload homes --scale 0.05 \
        --trace-out tour.json --events-out tour.jsonl --metrics tour-metrics.json

Run:  python examples/trace_tour.py [output-dir]
"""

import json
import sys
from pathlib import Path

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.obs import (
    JsonlSink,
    RingBufferSink,
    Tracer,
    collect,
    instrument_system,
    summarize,
    write_chrome_trace,
)
from repro.traces import HOMES, generate_trace


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("trace_tour_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    chrome_path = out_dir / "trace.json"
    events_path = out_dir / "events.jsonl"
    metrics_path = out_dir / "metrics.json"

    # A small Zipf workload (homes at 1% scale: ~80/20 skew over the
    # block address range) against a two-shard write-back cache array.
    profile = HOMES.scaled(0.01)
    trace = generate_trace(profile, seed=42)
    system = build_system(SystemConfig(
        kind=SystemKind.SSC,
        mode=CacheMode.WRITE_BACK,
        cache_blocks=512,
        disk_blocks=profile.address_range_blocks,
        shards=2,
    ))

    # Attach the trace bus: a ring buffer (for the Chrome export) plus
    # a JSONL sink streaming every event to disk as it is emitted.
    tracer = Tracer(RingBufferSink(), JsonlSink(events_path))
    touched = instrument_system(system, tracer)
    names = [type(component).__name__ for component in touched]
    print(f"instrumented {len(touched)} components: "
          f"{', '.join(sorted(set(names)))}")

    print(f"replaying {len(trace.records):,} requests (tracing on)...")
    stats = system.replay(trace.records, warmup_fraction=0.25,
                          keep_latencies=True)
    print(f"  {stats.ops:,} measured requests, "
          f"{stats.iops():,.0f} IOPS, "
          f"mean latency {stats.latency.mean_us:.0f} us")

    # Export 1: Chrome trace for Perfetto / chrome://tracing.
    entries = write_chrome_trace(tracer.ring.events, chrome_path)
    print(f"\nwrote {entries:,} Chrome trace entries -> {chrome_path}")
    print("  open at https://ui.perfetto.dev (per-plane lanes show "
          "flash concurrency; 's<k>:plane:<n>' lanes are shard-local)")

    # Export 2: the JSONL stream (already written by the sink).
    tracer.close()
    print(f"wrote {len(tracer.ring):,} events -> {events_path}")
    print(f"  summarize with: python -m repro trace report {events_path}")

    # Export 3: snapshot of every metric the catalog documents.
    snapshot = collect(system, stats)
    metrics_path.write_text(json.dumps(snapshot.to_dict(), indent=2,
                                       sort_keys=True) + "\n")
    print(f"wrote metrics snapshot -> {metrics_path}")

    # Write-amplification breakdown from the captured events — the
    # same arithmetic `repro trace report` prints.
    summary = summarize([event.to_dict() for event in tracer.ring.events])
    breakdown = summary["write_breakdown"]
    user = max(1, breakdown["user_writes"])
    overhead = (breakdown["gc_copies"] + breakdown["log_pages"]
                + breakdown["checkpoint_pages"])
    print("\nwrite-amplification breakdown (from the event stream):")
    print(f"  user writes:        {breakdown['user_writes']:6,}")
    print(f"  gc merge copies:    {breakdown['gc_copies']:6,} "
          f"(+{breakdown['gc_copies'] / user:.2f}/write)")
    print(f"  log pages:          {breakdown['log_pages']:6,}")
    print(f"  checkpoint pages:   {breakdown['checkpoint_pages']:6,}")
    print(f"  silently evicted:   {breakdown['evicted_valid_pages']:6,} "
          f"copies avoided across {breakdown['silent_evictions']} evictions")
    print(f"  total overhead:     {overhead / user:.2f} pages per user write")

    # Detach; subsequent replays on this system run untraced (and at
    # full speed — the guards are `if self.tracer is not None`).
    instrument_system(system, None)


if __name__ == "__main__":
    main()
