"""Simulation kernel: simulated time, events, completions, crash injection."""

from repro.sim.clock import SimClock
from repro.sim.completion import (
    DISK_RESOURCE,
    Completion,
    DeviceOp,
    OpRecorder,
)
from repro.sim.crash import CrashPoint, CrashInjector
from repro.sim.events import EventScheduler

__all__ = [
    "SimClock",
    "EventScheduler",
    "Completion",
    "DeviceOp",
    "OpRecorder",
    "DISK_RESOURCE",
    "CrashPoint",
    "CrashInjector",
]
