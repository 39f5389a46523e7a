"""Figure 5 — Recovery time.

Paper: time to recover after a crash, per workload.  Three bars:

* FlashTier — reload the mapping into device memory by reading the
  latest checkpoint and replaying the log tail (34 ms ... 2.4 s);
* Native-FC — reload only the FlashCache manager's metadata from the
  SSD (133 ms ... 9.4 s);
* Native-SSD — rebuild the SSD's own mapping by scanning OOB areas
  (468 ms ... 30 s).

Expected shape: FlashTier < Native-FC < Native-SSD, roughly an order
of magnitude between FlashTier and the full native recovery.
"""

from repro import CacheMode, SystemKind
from repro.stats.report import format_table

from benchmarks.common import WORKLOADS, get_trace, once, run_workload


def run_figure5():
    results = {}
    for name in WORKLOADS:
        trace = get_trace(name)

        flashtier, _stats = run_workload(trace, SystemKind.SSC, CacheMode.WRITE_BACK)
        flashtier.ssc.crash()
        flashtier_us = flashtier.ssc.recover()
        exists_us = flashtier.manager.recover_us(trace.profile.address_range_blocks)

        native, _stats = run_workload(trace, SystemKind.NATIVE, CacheMode.WRITE_BACK)
        native_fc_us = native.manager.recover_manager_us()
        native_ssd_us = native.device.oob_recovery_scan_us()

        results[name] = {
            "flashtier_ms": flashtier_us / 1000,
            "exists_scan_ms": exists_us / 1000,
            "native_fc_ms": native_fc_us / 1000,
            "native_ssd_ms": native_ssd_us / 1000,
        }
    return results


def test_fig5_recovery_time(benchmark):
    results = once(benchmark, run_figure5)
    rows = [
        [
            name,
            f"{v['flashtier_ms']:.2f}",
            f"{v['native_fc_ms']:.2f}",
            f"{v['native_ssd_ms']:.2f}",
        ]
        for name, v in results.items()
    ]
    print()
    print(
        format_table(
            ["workload", "FlashTier ms", "Native-FC ms", "Native-SSD ms"],
            rows,
            title="Figure 5: crash recovery time",
        )
    )
    print(
        "\npaper shape (full scale): FlashTier 0.034-2.4 s; Native-FC "
        "0.133-9.4 s; Native-SSD 0.468-30 s"
    )
    for name, v in results.items():
        assert v["flashtier_ms"] < v["native_ssd_ms"], name
        assert v["native_fc_ms"] < v["native_ssd_ms"], name
