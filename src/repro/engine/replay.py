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
planes, the disk spindle).  Above queue depth 1 the engine schedules
those operations onto per-resource availability timelines: ops on
distinct planes overlap, ops on the same plane — or on the single disk
spindle — queue behind each other, and any service time not bound to a
resource (controller delays, log commits, checkpoints) stays serial
within its request.

Functional device state still mutates in trace order at dispatch time
(the hit/miss sequence is identical at every queue depth); concurrency
changes *when* the time is charged, not *what* happens.

Warm-up follows §6.5: "To warm the cache, we replay the first 15 % of
the trace before gathering statistics."
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.manager.base import CacheManager
from repro.sim.clock import SimClock
from repro.sim.completion import Completion
from repro.sim.events import EventScheduler
from repro.stats.counters import LatencyStats, ReplayStats
from repro.traces.record import TraceRecord


def _issue(manager: CacheManager, record: TraceRecord) -> Completion:
    if record.is_write:
        return manager.write(record.lbn, ("w", record.lbn))
    _data, completion = manager.read(record.lbn)
    return completion


def _trace_request(tracer, record: TraceRecord, completion: Completion) -> None:
    """Emit one warm-up request's op.issue slice plus its per-device
    op.device slices, laid back-to-back from the tracer's current time
    (warm-up consumes no simulated time, so nothing is reserved)."""
    issue_ts = tracer.now_us
    tracer.emit(
        "op.issue", lane="requests", ts_us=issue_ts,
        dur_us=float(completion),
        kind="write" if record.is_write else "read",
        lbn=record.lbn, hit=completion.hit, queue_wait_us=0.0,
    )
    cursor = issue_ts
    for resource_key, kind, duration_us in completion.ops:
        tracer.emit(
            "op.device", lane=resource_key, ts_us=cursor,
            dur_us=duration_us, kind=kind,
        )
        cursor += duration_us


class ReplayEngine:
    """Replays traces through a manager at a configurable queue depth."""

    def __init__(self, manager: CacheManager, queue_depth: int = 1):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.manager = manager
        self.queue_depth = queue_depth
        self.clock = SimClock()
        #: Resource key -> availability timeline, for every plane and
        #: disk the manager's devices can occupy.
        self._resources = manager.resources()

    def _reset_availability(self) -> None:
        """Start a measurement epoch with every resource idle."""
        for resource in self._resources.values():
            resource.reset_busy()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _execute(
        self,
        completion: Completion,
        at_us: float,
        stats: ReplayStats,
        serial: bool,
        tracer=None,
    ):
        """Place one request's operations on the resource timelines.

        Returns ``(queue_wait_us, finish_us)``.  ``queue_wait_us`` is
        the total time the request's operations spent waiting for busy
        resources; untraced service time (controller/log overhead) is
        serial within the request and never waits.  With a ``tracer``
        attached, each operation's op.device slice is emitted at the
        time it actually ran (its resource reservation).
        """
        busy = stats.device_busy_us
        if serial:
            # One outstanding request: every resource is idle at
            # dispatch by construction, so nothing can queue — finish
            # is computed from the total service time alone.
            cursor = at_us
            for resource_key, kind, duration_us in completion.ops:
                busy[resource_key] = busy.get(resource_key, 0.0) + duration_us
                if tracer is not None:
                    tracer.emit(
                        "op.device", lane=resource_key, ts_us=cursor,
                        dur_us=duration_us, kind=kind,
                    )
                    cursor += duration_us
            return 0.0, at_us + float(completion)
        wait_us = 0.0
        cursor = at_us
        resources = self._resources
        for resource_key, kind, duration_us in completion.ops:
            start, finish = resources[resource_key].reserve(cursor, duration_us)
            wait_us += start - cursor
            cursor = finish
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

        The first ``warmup_fraction`` of requests warm the cache
        without timing.  In closed-loop mode (default) ``queue_depth``
        requests are kept outstanding; with ``open_loop=True`` every
        measured record must carry an ``arrival_us`` timestamp and is
        dispatched at its recorded arrival instead, which leaves no
        queue depth to choose: open loop requires ``queue_depth=1``.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if open_loop and self.queue_depth != 1:
            raise ValueError(
                "open-loop replay dispatches at recorded arrivals; "
                f"queue_depth={self.queue_depth} has no effect there "
                "(use queue_depth=1)"
            )
        warmup_ops = int(len(trace) * warmup_fraction)

        stats = ReplayStats(
            queue_depth=self.queue_depth,
            latency=LatencyStats(keep_samples=keep_latencies),
        )
        scheduler = EventScheduler(self.clock)
        hits_before = self.manager.stats.read_hits
        misses_before = self.manager.stats.read_misses
        start_us = self.clock.now_us
        tracer = self.manager.tracer  # None unless instrumented
        arrival_origin: Optional[float] = None
        dispatch_us = start_us
        end_us = start_us
        serial = not open_loop and self.queue_depth == 1

        for index, record in enumerate(trace):
            if index == warmup_ops:
                # Measurement starts here: warm-up consumed no simulated
                # time, every resource timeline starts idle.
                self._reset_availability()
                hits_before = self.manager.stats.read_hits
                misses_before = self.manager.stats.read_misses
                start_us = self.clock.now_us
                dispatch_us = start_us
            if index < warmup_ops:
                completion = _issue(self.manager, record)
                if tracer is not None:
                    _trace_request(tracer, record, completion)
                continue

            dispatch_wait_us = 0.0
            if open_loop:
                if record.arrival_us is None:
                    raise ValueError(
                        "open-loop replay requires arrival_us on every "
                        f"measured record (record {index} has none)"
                    )
                if arrival_origin is None:
                    arrival_origin = record.arrival_us
                arrival = start_us + (record.arrival_us - arrival_origin)
                # Records dispatch in trace order; a late predecessor
                # delays this request past its arrival.
                dispatch_us = max(dispatch_us, arrival)
                dispatch_wait_us = dispatch_us - arrival
            elif len(scheduler) >= self.queue_depth:
                freed = scheduler.pop()
                dispatch_us = max(dispatch_us, freed.time_us)

            if tracer is not None:
                tracer.advance_to(dispatch_us)
            completion = _issue(self.manager, record)
            wait_us, finish_us = self._execute(
                completion, dispatch_us, stats, serial=serial, tracer=tracer,
            )
            wait_us += dispatch_wait_us
            scheduler.schedule_at(finish_us)
            if finish_us > end_us:
                end_us = finish_us

            stats.ops += 1
            if record.is_write:
                stats.writes += 1
            else:
                stats.reads += 1
            service_us = float(completion)
            latency_us = wait_us + service_us
            stats.latency.record(latency_us)
            stats.service.record(service_us)
            stats.queue_wait.record(wait_us)
            if tracer is not None:
                tracer.emit(
                    "op.issue", lane="requests", ts_us=dispatch_us,
                    dur_us=latency_us,
                    kind="write" if record.is_write else "read",
                    lbn=record.lbn, hit=completion.hit,
                    queue_wait_us=wait_us,
                )

        # Drain: run simulated time forward to the last completion.
        while scheduler:
            scheduler.pop()
        if end_us > self.clock.now_us:
            self.clock.advance_to(end_us)

        stats.elapsed_us = self.clock.now_us - start_us
        stats.read_hits = self.manager.stats.read_hits - hits_before
        stats.read_misses = self.manager.stats.read_misses - misses_before
        return stats
