"""Trace replay: the one loop that drives a cache manager with requests.

:class:`ReplayEngine` replays a trace through a cache manager and
reports IOPS over *simulated* time, mirroring the paper's trace-replay
framework (§5).  It has three dispatch disciplines:

* **Queue depth 1** (the default) — one request outstanding; each
  starts exactly when its predecessor finishes, so IOPS is capped at
  1/mean-latency, as in the paper's replay.
* **Closed loop at depth N** — ``queue_depth`` requests are kept
  outstanding; each completion immediately dispatches the next trace
  record, like a benchmark thread pool.
* **Open loop** — requests dispatch at their recorded ``arrival_us``
  timestamps regardless of completions, like replaying a production
  trace against a faster device.

Each request's :class:`~repro.sim.completion.Completion` carries the
operations it performed, attributed to contended resources (flash
planes, the disk spindle).  At every queue depth the engine places
those operations on per-resource availability timelines: ops on
distinct planes overlap, ops on the same plane — or on the single disk
spindle — queue behind each other, and any service time not bound to a
resource (controller delays, log commits, checkpoints) stays serial
within its request.  A request's service time covers its own ops, so
at queue depth 1 no op ever waits.

Functional device state still mutates in trace order at dispatch time
(the hit/miss sequence is identical at every queue depth); concurrency
changes *when* the time is charged, not *what* happens.

Warm-up follows §6.5: "To warm the cache, we replay the first 15 % of
the trace before gathering statistics."
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Sequence

from repro.manager.base import CacheManager
from repro.sim.completion import Completion
from repro.sim.events import EventScheduler
from repro.stats.counters import LatencyStats, ReplayStats
from repro.traces.record import Trace, TraceRecord


def _issue(manager: CacheManager, is_write: int, lbn: int) -> Completion:
    """One warm-up request (measured ones are issued inline in ``run``)."""
    if is_write:
        return manager.write(lbn, ("w", lbn))
    _data, completion = manager.read(lbn)
    return completion


def _trace_request(tracer, is_write: int, lbn: int, completion: Completion) -> None:
    """Emit one warm-up request's op.issue slice plus its per-device
    op.device slices, laid back-to-back from the tracer's current time
    (warm-up consumes no simulated time, so nothing is reserved)."""
    issue_ts = tracer.now_us
    tracer.emit(
        "op.issue", lane="requests", ts_us=issue_ts,
        dur_us=float(completion),
        kind="write" if is_write else "read",
        lbn=lbn, hit=completion.hit, queue_wait_us=0.0,
    )
    cursor = issue_ts
    for resource_key, kind, duration_us in completion.ops:
        tracer.emit(
            "op.device", lane=resource_key, ts_us=cursor,
            dur_us=duration_us, kind=kind,
        )
        cursor += duration_us


class ReplayEngine:
    """Replays traces through a manager at a configurable queue depth.

    The engine owns simulated time: ``now_us`` is the time its last
    replay finished, and ``free_at_us``/``busy_us`` are the availability
    timelines of the measured window, keyed by ``DeviceOp.resource``.
    """

    def __init__(self, manager: CacheManager, queue_depth: int = 1):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.manager = manager
        self.queue_depth = queue_depth
        self.now_us = 0.0
        #: Resource key -> when that plane or spindle is next free.
        self.free_at_us: Dict[str, float] = {}
        #: Resource key -> time its measured ops occupied it, summed in
        #: op order; a resource no measured op used has no key.
        self.busy_us: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _execute(self, completion: Completion, at_us: float, tracer=None):
        """Place one request's operations on the resource timelines.

        Returns ``(queue_wait_us, finish_us)``.  ``queue_wait_us`` is
        the total time the request's operations spent waiting for busy
        resources; untraced service time (controller/log overhead) is
        serial within the request and never waits.  A request's ops
        never take longer than its service time, so at queue depth 1
        every resource is free at dispatch and the wait is zero.  With
        a ``tracer`` attached, each operation's op.device slice is
        emitted at the time it actually ran on its resource's timeline.
        """
        free_at, busy = self.free_at_us, self.busy_us
        wait_us = 0.0
        cursor = at_us
        for resource_key, kind, duration_us in completion.ops:
            free_us = free_at.get(resource_key, 0.0)
            start = cursor if cursor >= free_us else free_us
            wait_us += start - cursor
            cursor = free_at[resource_key] = start + duration_us
            busy[resource_key] = busy.get(resource_key, 0.0) + duration_us
            if tracer is not None:
                tracer.emit(
                    "op.device", lane=resource_key, ts_us=start,
                    dur_us=duration_us, kind=kind,
                )
        return wait_us, at_us + wait_us + float(completion)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def run(
        self,
        trace: Sequence[TraceRecord],
        warmup_fraction: float = 0.0,
        keep_latencies: bool = False,
        open_loop: bool = False,
    ) -> ReplayStats:
        """Replay ``trace``; returns measured statistics.

        ``trace`` is a :class:`~repro.traces.record.Trace` or any
        sequence of records, which is converted to one first.  The
        first ``warmup_fraction`` of requests warm the cache without
        timing.  In closed-loop mode (default) ``queue_depth`` requests
        are kept outstanding; with ``open_loop=True`` every measured
        request must carry an arrival time and is dispatched at it
        instead, which leaves no queue depth to choose: open loop
        requires ``queue_depth=1``.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if open_loop and self.queue_depth != 1:
            raise ValueError(
                "open-loop replay dispatches at recorded arrivals; "
                f"queue_depth={self.queue_depth} has no effect there "
                "(use queue_depth=1)"
            )
        trace = Trace.of(trace)
        warmup_ops = int(len(trace) * warmup_fraction)
        arrivals = trace.arrivals
        if open_loop:
            untimed = trace.first_untimed(warmup_ops)
            if untimed is not None:
                raise ValueError(
                    "open-loop replay requires arrival_us on every "
                    f"measured record (record {untimed} has none)"
                )

        stats = ReplayStats(
            queue_depth=self.queue_depth,
            latency=LatencyStats(keep_samples=keep_latencies),
        )
        scheduler = EventScheduler()
        manager = self.manager
        read, write = manager.read, manager.write
        tracer = manager.tracer  # None unless instrumented
        requests = zip(trace.writes, trace.lbns)

        for is_write, lbn in islice(requests, warmup_ops):
            completion = _issue(manager, is_write, lbn)
            if tracer is not None:
                _trace_request(tracer, is_write, lbn, completion)

        counts = manager.stats
        reads_before, writes_before = counts.reads, counts.writes
        hits_before, misses_before = counts.read_hits, counts.read_misses
        # Warm-up consumes no simulated time and occupies no resource:
        # measurement starts now, with every timeline idle.
        start_us = dispatch_us = end_us = self.now_us
        self.free_at_us.clear()
        self.busy_us.clear()
        arrival_origin = arrivals[warmup_ops] if open_loop and len(trace) else 0.0

        for index, (is_write, lbn) in enumerate(requests, warmup_ops):
            dispatch_wait_us = 0.0
            if open_loop:
                arrival = start_us + (arrivals[index] - arrival_origin)
                # Requests dispatch in trace order; a late predecessor
                # delays this request past its arrival.
                dispatch_us = max(dispatch_us, arrival)
                dispatch_wait_us = dispatch_us - arrival
            elif len(scheduler) >= self.queue_depth:
                freed_us = scheduler.pop()
                if freed_us > dispatch_us:
                    dispatch_us = freed_us

            if tracer is not None:
                tracer.advance_to(dispatch_us)
            if is_write:
                completion = write(lbn, ("w", lbn))
            else:
                completion = read(lbn)[1]
            wait_us, finish_us = self._execute(completion, dispatch_us, tracer)
            wait_us += dispatch_wait_us
            scheduler.schedule_at(finish_us)
            if finish_us > end_us:
                end_us = finish_us

            service_us = float(completion)
            latency_us = wait_us + service_us
            stats.latency.record(latency_us)
            stats.service.record(service_us)
            stats.queue_wait.record(wait_us)
            if tracer is not None:
                tracer.emit(
                    "op.issue", lane="requests", ts_us=dispatch_us,
                    dur_us=latency_us,
                    kind="write" if is_write else "read",
                    lbn=lbn, hit=completion.hit,
                    queue_wait_us=wait_us,
                )

        # The replay ends at its last completion.
        self.now_us = end_us
        stats.device_busy_us = dict(self.busy_us)
        stats.elapsed_us = end_us - start_us
        # Request counts are the manager's, over the measured window.
        stats.reads = counts.reads - reads_before
        stats.writes = counts.writes - writes_before
        stats.ops = stats.reads + stats.writes
        stats.read_hits = counts.read_hits - hits_before
        stats.read_misses = counts.read_misses - misses_before
        return stats
