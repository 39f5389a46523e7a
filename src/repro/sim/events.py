"""Event scheduler: a heap of completion times driving trace replay.

The scheduler decouples *dispatch* from *completion*: work is
scheduled to finish at a future simulated time, and completions pop in
time order.  An event is its completion time alone: the replay loop
needs only *when* the next outstanding request frees its slot, so the
heap holds plain floats and equal times are interchangeable.
"""

from __future__ import annotations

import heapq
from typing import List


class EventScheduler:
    """Min-heap of future completion times.

    ``now_us`` is the latest completion popped; scheduling before it
    is rejected (simulated time is monotonic).
    """

    __slots__ = ("now_us", "_heap")

    def __init__(self):
        self.now_us = 0.0
        self._heap: List[float] = []

    def __len__(self) -> int:
        """Number of pending completions."""
        return len(self._heap)

    def schedule_at(self, time_us: float) -> None:
        """Schedule a completion at absolute time ``time_us``."""
        if time_us < self.now_us:
            raise ValueError(
                f"cannot schedule at {time_us} us: {self.now_us} us has "
                "already completed"
            )
        heapq.heappush(self._heap, float(time_us))

    def pop(self) -> float:
        """Remove the earliest pending completion; returns its time."""
        if not self._heap:
            raise IndexError("pop from an idle EventScheduler")
        self.now_us = heapq.heappop(self._heap)
        return self.now_us

    def __repr__(self) -> str:
        return f"EventScheduler(pending={len(self)}, now={self.now_us:.1f}us)"
