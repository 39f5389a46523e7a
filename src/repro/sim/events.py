"""Event scheduler: a time-ordered heap driving trace replay.

The scheduler decouples *dispatch* from *completion*: work is
scheduled to finish at a future simulated time, and popping events
advances the shared :class:`~repro.sim.clock.SimClock` to each
completion in time order.  Ties break by scheduling order, so replay
stays deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional

from repro.sim.clock import SimClock


class Event:
    """One scheduled occurrence: a time and a payload."""

    __slots__ = ("time_us", "seq", "payload")

    def __init__(self, time_us: float, seq: int, payload: Any):
        self.time_us = time_us
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "Event") -> bool:
        return (self.time_us, self.seq) < (other.time_us, other.seq)

    def __repr__(self) -> str:
        return f"Event(t={self.time_us:.1f}us, seq={self.seq})"


class EventScheduler:
    """Min-heap of future events sharing a simulated clock.

    Scheduling in the past is rejected (simulated time is monotonic);
    popping an event advances the clock to its time.
    """

    __slots__ = ("clock", "_heap", "_seq")

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        self._heap: List[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        """Number of pending events."""
        return len(self._heap)

    def schedule_at(self, time_us: float, payload: Any = None) -> Event:
        """Schedule ``payload`` to occur at absolute time ``time_us``."""
        if time_us < self.clock.now_us:
            raise ValueError(
                f"cannot schedule at {time_us} us: clock is already at "
                f"{self.clock.now_us} us"
            )
        event = Event(float(time_us), self._seq, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove the earliest pending event, advancing the clock to it."""
        if not self._heap:
            raise IndexError("pop from an idle EventScheduler")
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.time_us)
        return event

    def __repr__(self) -> str:
        return f"EventScheduler(pending={len(self)}, now={self.clock.now_us:.1f}us)"
