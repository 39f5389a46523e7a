"""Simulated clock.

The whole stack does *discrete time accounting*: every device operation
computes its service time in microseconds and advances a shared
:class:`SimClock`.  Trace replay then reports IOPS as ops / elapsed
simulated time.  This mirrors the paper's use of a timing simulator whose
"performance numbers are not parameters but rather the measured output".
"""

from __future__ import annotations


class SimClock:
    """Monotonic simulated time in microseconds."""

    __slots__ = ("_now_us",)

    def __init__(self, start_us: float = 0.0):
        if start_us < 0:
            raise ValueError("clock cannot start before time zero")
        self._now_us = float(start_us)

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_us

    def advance(self, delta_us: float) -> float:
        """Advance time by ``delta_us`` microseconds; returns new time.

        Negative advances are rejected: simulated time is monotonic and a
        negative service time always indicates an accounting bug upstream.
        """
        if delta_us < 0:
            raise ValueError(f"cannot advance clock by {delta_us} us")
        self._now_us += delta_us
        return self._now_us

    def advance_to(self, time_us: float) -> float:
        """Jump to absolute time ``time_us``; returns the new time.

        Used by the event scheduler, whose completion times are absolute;
        moving backwards is rejected for the same monotonicity reason as
        negative :meth:`advance` deltas.
        """
        if time_us < self._now_us:
            raise ValueError(
                f"cannot move clock back to {time_us} us from {self._now_us} us"
            )
        self._now_us = float(time_us)
        return self._now_us

    def reset(self) -> None:
        """Reset to time zero (used between benchmark phases)."""
        self._now_us = 0.0

    def __repr__(self) -> str:
        return f"SimClock(now={self._now_us:.1f}us)"
