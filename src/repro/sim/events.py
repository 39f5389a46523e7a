"""Event scheduler: a heap of completion times driving trace replay.

The scheduler decouples *dispatch* from *completion*: work is
scheduled to finish at a future simulated time, and popping advances
the shared :class:`~repro.sim.clock.SimClock` to each completion in
time order.  An event is its completion time alone: the replay loop
needs only *when* the next outstanding request frees its slot, so the
heap holds plain floats and equal times are interchangeable.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.sim.clock import SimClock


class EventScheduler:
    """Min-heap of future completion times sharing a simulated clock.

    Scheduling in the past is rejected (simulated time is monotonic);
    popping a time advances the clock to it.
    """

    __slots__ = ("clock", "_heap")

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        self._heap: List[float] = []

    def __len__(self) -> int:
        """Number of pending completions."""
        return len(self._heap)

    def schedule_at(self, time_us: float) -> None:
        """Schedule a completion at absolute time ``time_us``."""
        if time_us < self.clock.now_us:
            raise ValueError(
                f"cannot schedule at {time_us} us: clock is already at "
                f"{self.clock.now_us} us"
            )
        heapq.heappush(self._heap, float(time_us))

    def pop(self) -> float:
        """Remove the earliest pending completion, advancing the clock to
        it; returns its time."""
        if not self._heap:
            raise IndexError("pop from an idle EventScheduler")
        time_us = heapq.heappop(self._heap)
        self.clock.advance_to(time_us)
        return time_us

    def __repr__(self) -> str:
        return f"EventScheduler(pending={len(self)}, now={self.clock.now_us:.1f}us)"
