"""Ablation — the sequential log block and switch merges.

§4.3 credits SE-Merge's gains partly to switch merges, "which convert a
sequentially written log block into a data block without copying data".
This ablation disables the dedicated sequential log block and measures
what streams through the cache lose.
"""

from repro import CacheMode, SystemKind
from repro.core.flashtier import cache_geometry, replay_trace
from repro.disk.model import Disk
from repro.manager.writethrough import FlashTierWTManager
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy
from repro.stats.report import format_table

from benchmarks.common import WARMUP_FRACTION, get_trace, once, system_config


def run_sweep():
    trace = get_trace("homes")  # file streams: plenty of sequential runs
    config = system_config(trace, SystemKind.SSC_R, CacheMode.WRITE_THROUGH,
                           consistency=False)
    geometry = cache_geometry(config)
    rows = []
    for sequential_log in (True, False):
        ssc = SolidStateCache(
            geometry,
            config=SSCConfig(policy=EvictionPolicy.MERGE, consistency=False,
                             sequential_log=sequential_log),
        )
        manager = FlashTierWTManager(ssc, Disk(config.disk_blocks))
        stats = replay_trace(manager, trace.records,
                             warmup_fraction=WARMUP_FRACTION)
        rows.append({
            "seq_log": "on" if sequential_log else "off",
            "switch": ssc.stats.switch_merges,
            "partial": ssc.stats.partial_merges,
            "full": ssc.stats.full_merges,
            "write_amp": ssc.stats.write_amplification(),
            "iops": stats.iops(),
        })
    return rows


def test_ablation_sequential_log(benchmark):
    rows = once(benchmark, run_sweep)
    print()
    print(
        format_table(
            ["seq log", "switch", "partial", "full merges", "write amp", "IOPS"],
            [
                [r["seq_log"], r["switch"], r["partial"], r["full"],
                 f"{r['write_amp']:.2f}", f"{r['iops']:.0f}"]
                for r in rows
            ],
            title="Ablation: sequential log block (homes, SSC-R, WT)",
        )
    )
    with_seq, without_seq = rows
    # The dedicated block multiplies cheap merges (random log blocks can
    # still switch organically when a run happens to fill one exactly).
    assert with_seq["switch"] + with_seq["partial"] > (
        without_seq["switch"] + without_seq["partial"]
    )
    assert without_seq["partial"] == 0  # partial merges need the seq block
