"""Queue-depth scaling — the event-driven engine's headline result.

At queue depth 1 one request is in flight, so IOPS is capped at
1/mean-latency regardless of device parallelism.  Deeper queues let
the :class:`~repro.engine.ReplayEngine` overlap requests on distinct
flash planes while same-plane requests (and the single disk
spindle) queue.  Expected shape on a read-heavy, cache-resident
workload: IOPS grows with queue depth until the planes (or the disk,
for the miss traffic) saturate, then flattens — with queueing delay
rising to absorb the extra concurrency.
"""

from repro import CacheMode, SystemKind
from repro.stats.report import format_table

from benchmarks.common import get_trace, once, run_workload

QUEUE_DEPTHS = (1, 2, 4, 8, 16, 32)

#: usr is the paper's read-heavy workload (5.9 % writes); a generous
#: cache fraction keeps the measured interval hit-dominated so flash
#: parallelism, not the disk spindle, is the binding resource.
WORKLOAD = "usr"
CACHE_FRACTION = 0.9


def run_queue_depth_sweep():
    trace = get_trace(WORKLOAD)
    results = []
    for depth in QUEUE_DEPTHS:
        _system, stats = run_workload(
            trace,
            SystemKind.SSC_R,
            CacheMode.WRITE_BACK,
            cache_fraction=CACHE_FRACTION,
            queue_depth=depth,
        )
        results.append((depth, stats))
    return results


def test_queue_depth_scaling(benchmark):
    results = once(benchmark, run_queue_depth_sweep)
    rows = []
    for depth, stats in results:
        utilization = stats.utilization()
        plane_utils = [
            value for key, value in utilization.items() if key.startswith("plane:")
        ]
        mean_plane = sum(plane_utils) / len(plane_utils) if plane_utils else 0.0
        rows.append([
            str(depth),
            f"{stats.iops():,.0f}",
            f"{stats.service.mean_us:.0f}",
            f"{stats.queue_wait.mean_us:.0f}",
            f"{100 * mean_plane:.0f}%",
            f"{100 * utilization.get('disk', 0.0):.0f}%",
        ])
    print()
    print(
        format_table(
            ["QD", "IOPS", "service us", "queue us", "plane util", "disk util"],
            rows,
            title=f"Queue-depth scaling ({WORKLOAD}, SSC-R write-back)",
        )
    )
    print("\nexpected shape: IOPS rises with queue depth until the "
          "device saturates, queueing delay absorbs the remainder")

    by_depth = dict(results)
    # Concurrency must pay: deeper queues strictly beat queue depth 1
    # until saturation.
    assert by_depth[4].iops() > by_depth[1].iops()
    assert by_depth[16].iops() > by_depth[4].iops()
    # Saturation: the last doubling buys little; IOPS never regresses
    # below the serial baseline anywhere in the sweep.
    assert by_depth[32].iops() >= by_depth[16].iops() * 0.95
    for depth, stats in results:
        assert stats.iops() >= by_depth[1].iops() * 0.99, depth
    # Queueing delay only exists under concurrency.
    assert by_depth[1].queue_wait.mean_us == 0.0
    assert by_depth[32].queue_wait.mean_us > 0.0
