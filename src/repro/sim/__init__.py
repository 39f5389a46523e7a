"""Simulation kernel: events, completions, crash injection."""

from repro.sim.completion import (
    DISK_RESOURCE,
    Completion,
    DeviceOp,
    OpRecorder,
)
from repro.sim.crash import CrashPoint, CrashInjector
from repro.sim.events import EventScheduler

__all__ = [
    "EventScheduler",
    "Completion",
    "DeviceOp",
    "OpRecorder",
    "DISK_RESOURCE",
    "CrashPoint",
    "CrashInjector",
]
