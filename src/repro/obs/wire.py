"""Attaching a tracer to an assembled system.

Instrumented components never import :mod:`repro.obs`; they carry a
class-level ``tracer = None`` attribute and guard each emission with
``if self.tracer is not None``.  This module is the one place that
knows the object graph — manager → cache device (possibly a sharded
array) → engine/FTL, operation log, checkpoint store, flash planes —
and points every component at one shared :class:`~repro.obs.trace.Tracer`.

Passing ``tracer=None`` detaches, restoring the zero-cost default.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.obs.trace import Tracer


def _instrument_chip(chip: Any, tracer: Optional[Tracer]) -> List[Any]:
    planes = getattr(chip, "planes", None)
    if not planes:
        return []
    for plane in planes:
        plane.tracer = tracer
    return list(planes)


def _instrument_device(device: Any, tracer: Optional[Tracer]) -> List[Any]:
    """Point one cache device (or array) at ``tracer``; returns the
    instrumented components (for tests)."""
    touched: List[Any] = []

    shards = getattr(device, "shards", None)
    if isinstance(shards, list):           # ShardedSSC: array + members
        device.tracer = tracer             # shard.route emissions
        touched.append(device)
        for member in shards:
            touched.extend(_instrument_device(member, tracer))
        return touched

    ssds = getattr(device, "ssds", None)
    if isinstance(ssds, list):             # ShardedSSD: members only
        for member in ssds:
            touched.extend(_instrument_device(member, tracer))
        return touched

    # Bare SolidStateCache or SSD.
    device.tracer = tracer
    touched.append(device)
    for attr in ("engine", "ftl"):         # CacheFTL / HybridFTL / PageMapFTL
        component = getattr(device, attr, None)
        if component is not None:
            component.tracer = tracer
            touched.append(component)
    for attr in ("oplog", "checkpoints"):
        component = getattr(device, attr, None)
        if component is not None:
            component.tracer = tracer
            touched.append(component)
    chip = getattr(device, "chip", None)
    if chip is not None:
        touched.extend(_instrument_chip(chip, tracer))
    return touched


def instrument_system(system: Any, tracer: Optional[Tracer]) -> List[Any]:
    """Attach ``tracer`` to every emitting component of ``system``.

    ``system`` is a :class:`~repro.core.flashtier.FlashTierSystem` (or
    anything with ``manager`` and ``device``).  Returns the list of
    instrumented components.  ``tracer=None`` detaches.
    """
    touched: List[Any] = []
    manager = getattr(system, "manager", None)
    if manager is not None:
        manager.tracer = tracer            # read by the replay engine
        touched.append(manager)
    device = getattr(system, "device", None)
    if device is not None:
        touched.extend(_instrument_device(device, tracer))
    return touched
