"""The benchmark's three workloads, fixed except for their seed.

Each workload replays one of the paper's trace profiles (§6, Table 3)
closed loop from one thread.  The cache holds 25 % of the profile's
unique blocks (the §6.1 rule), so every working set is about four times
the cache, and the first 15 % of the trace warms it (§6.5).  The
workloads load different layers; ``why`` says which, and README.md lists
what each per-layer metric is expected to move on each of them.

This module is plain data, so the runner reads it without importing the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

#: §6.5: "we replay the first 15 % of the trace before gathering statistics".
WARMUP_FRACTION = 0.15

#: §6.1: the cache is sized to the top 25 % most-accessed blocks.
CACHE_FRACTION = 0.25


@dataclass(frozen=True)
class Workload:
    """One trace profile replayed on one assembled system."""

    name: str
    profile: str       # key of repro.traces.synthetic.PROFILES
    scale: float       # WorkloadProfile.scaled factor
    kind: str          # SystemKind value
    mode: str          # CacheMode value
    queue_depth: int
    shards: int
    traces: int        # trace seeds derived from one --seed
    why: str

    def describe(self) -> dict:
        return {
            "profile": self.profile,
            "scale": self.scale,
            "system": self.kind,
            "mode": self.mode,
            "queue_depth": self.queue_depth,
            "shards": self.shards,
            "traces": self.traces,
            "cache": f"{CACHE_FRACTION:.0%} of unique blocks",
            "warmup": WARMUP_FRACTION,
            "loop": "closed, one thread",
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="homes_native",
            profile="homes",
            scale=0.125,
            kind="native",
            mode="wb",
            queue_depth=8,
            shards=1,
            traces=13,
            why=(
                "GC merges, page programs and op accounting on the native "
                "SSD; never touches the sparse map, the log or sharding"
            ),
        ),
        Workload(
            name="mail_sscr4",
            profile="mail",
            # Below about scale 0.18 each shard's geometry floor
            # over-provisions the array and changes what is simulated.
            scale=0.2,
            kind="ssc-r",
            mode="wb",
            queue_depth=8,
            shards=4,
            traces=10,
            why=(
                "write-dirty with a sync log flush, clean, SE-Merge "
                "eviction, checkpoints, shard routing and parallel recovery"
            ),
        ),
        Workload(
            name="usr_ssc",
            profile="usr",
            scale=0.2,
            kind="ssc",
            mode="wt",
            queue_depth=1,
            shards=1,
            traces=15,
            why=(
                "read hits, disk misses, buffered write-clean and the "
                "sparse map through the serial QD 1 loop: the read-side "
                "twin of mail_sscr4"
            ),
        ),
    )
}
