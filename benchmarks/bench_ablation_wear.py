"""Ablation — wear-leveling policies.

Table 5 reports the wear differential between blocks; this sweep shows
what the leveling machinery buys: dynamic (least-worn allocation) and
static (cold-block relocation) leveling versus none, with the write
overhead each adds.
"""

from repro import CacheMode, SystemKind
from repro.core.flashtier import cache_geometry, replay_trace
from repro.disk.model import Disk
from repro.ftl.wear import WearConfig
from repro.manager.writethrough import FlashTierWTManager
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy
from repro.stats.report import format_table

from benchmarks.common import WARMUP_FRACTION, get_trace, once, system_config

POLICIES = (
    ("none", WearConfig(dynamic=False, static_threshold=None)),
    ("dynamic", WearConfig(dynamic=True, static_threshold=None)),
    ("dynamic+static", WearConfig(dynamic=True, static_threshold=16,
                                  check_interval=8)),
)


def run_sweep():
    trace = get_trace("mail")
    config = system_config(trace, SystemKind.SSC, CacheMode.WRITE_THROUGH,
                           consistency=False)
    geometry = cache_geometry(config)
    rows = []
    for label, wear in POLICIES:
        ssc = SolidStateCache(
            geometry,
            config=SSCConfig(policy=EvictionPolicy.UTIL, consistency=False,
                             wear=wear),
        )
        manager = FlashTierWTManager(ssc, Disk(config.disk_blocks))
        stats = replay_trace(manager, trace.records,
                             warmup_fraction=WARMUP_FRACTION)
        rows.append({
            "policy": label,
            "wear_diff": ssc.chip.wear_differential(),
            "erases": ssc.chip.stats.block_erases,
            "relocations": ssc.engine.wear.static_relocations,
            "iops": stats.iops(),
        })
    return rows


def test_ablation_wear_leveling(benchmark):
    rows = once(benchmark, run_sweep)
    print()
    print(
        format_table(
            ["policy", "wear diff", "erases", "relocations", "IOPS"],
            [
                [r["policy"], r["wear_diff"], r["erases"], r["relocations"],
                 f"{r['iops']:.0f}"]
                for r in rows
            ],
            title="Ablation: wear leveling (mail, WT)",
        )
    )
    none, dynamic, full = rows
    # Static relocation must engage and not leave wear more skewed than
    # dynamic allocation alone.  (Under caching churn, FIFO allocation
    # already rotates blocks well — an honest negative result this
    # ablation documents.)
    assert full["relocations"] > 0
    assert full["wear_diff"] <= dynamic["wear_diff"] + 16
