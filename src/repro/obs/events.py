"""The trace-event catalog: every event type the simulator can emit.

Instrumentation is self-documenting: an event type must be declared
here — with a category, a lane hint and a prose description — before
any code may emit it.  :class:`~repro.obs.trace.Tracer` rejects
undeclared names, and ``python -m repro obs schema``
renders this catalog (plus the metric catalog) into ``docs/metrics.md``,
which CI checks for drift, so the documentation cannot fall behind the
code.

Field lists are part of the declaration: the golden trace-schema test
pins each event's argument keys, so adding or renaming a field is a
visible, reviewed change rather than silent drift.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class EventSpec(NamedTuple):
    """Declaration of one trace-event type."""

    name: str            # dotted, "<category>.<what>"
    category: str        # Chrome trace "cat"; groups lanes in Perfetto
    lane: str            # which timeline the event lands on
    description: str     # one sentence; rendered into docs/metrics.md
    fields: Tuple[str, ...]  # argument keys the emitter attaches


#: Every declared event type, in declaration order (the order
#: ``docs/metrics.md`` lists them in).
EVENT_TYPES: Dict[str, EventSpec] = {}


def declare_event(name: str, category: str, lane: str, description: str,
                  fields: Tuple[str, ...] = ()) -> EventSpec:
    """Register an event type; returns its spec.

    Raises ``ValueError`` on redeclaration or a missing description —
    an undocumented event must not exist.
    """
    if name in EVENT_TYPES:
        raise ValueError(f"event type {name!r} already declared")
    if not description:
        raise ValueError(f"event type {name!r} needs a description")
    spec = EventSpec(name, category, lane, description, tuple(fields))
    EVENT_TYPES[name] = spec
    return spec


# ---------------------------------------------------------------------------
# Request path (emitted by the replay engine)
# ---------------------------------------------------------------------------

declare_event(
    "op.issue", "op", "requests",
    "One trace request, dispatch to completion: its kind, logical block, "
    "cache hit/miss outcome and end-to-end latency (the event duration).",
    ("kind", "lbn", "hit", "queue_wait_us"),
)
declare_event(
    "op.device", "op", "per device resource",
    "One timed device operation (page read/program, erase, disk transfer) "
    "laid on its contended resource's lane, so plane- and shard-level "
    "concurrency is visible in Perfetto.",
    ("kind",),
)

# ---------------------------------------------------------------------------
# Garbage collection and silent eviction (FTL / cache engine)
# ---------------------------------------------------------------------------

declare_event(
    "gc.victim", "gc", "gc",
    "Garbage collection selected a victim log block to merge: its physical "
    "block number and how many of its pages were still live.",
    ("pbn", "valid_pages"),
)
declare_event(
    "gc.merge", "gc", "gc",
    "One merge executed: kind is 'switch' (log block promoted in place, no "
    "copies), 'partial' (tail of the group copied first) or 'full' (every "
    "live page of the group copied); copies counts the page programs it "
    "cost.  Duration is the merge's simulated time.",
    ("kind", "group", "copies"),
)
declare_event(
    "evict.silent", "evict", "gc",
    "Silent eviction dropped one clean data block instead of copying it: "
    "the erase group it held, its physical block and how many live (clean) "
    "pages were discarded.",
    ("pbn", "group", "valid_pages"),
)

# ---------------------------------------------------------------------------
# Durability machinery (operation log, checkpoints, recovery)
# ---------------------------------------------------------------------------

declare_event(
    "log.append", "log", "log",
    "One mapping-change record entered the operation log's volatile "
    "buffer (durable at the next flush).",
    ("kind", "seq", "lbn"),
)
declare_event(
    "log.flush", "log", "log",
    "The operation log's buffer was made durable: synchronous commits sit "
    "on the request path, group commits amortize.  Duration is the flash "
    "program cost of the flushed pages.",
    ("sync", "records", "pages"),
)
declare_event(
    "checkpoint.begin", "checkpoint", "checkpoint",
    "A mapping checkpoint started (the covering log flush comes first).",
    ("seq",),
)
declare_event(
    "checkpoint.commit", "checkpoint", "checkpoint",
    "A mapping checkpoint reached flash in the non-active slot; duration "
    "is the erase + program cost of the serialized mapping.",
    ("seq", "pages", "bytes"),
)
declare_event(
    "recovery.phase", "recovery", "recovery",
    "One phase of roll-forward recovery (load_checkpoint, replay_log, "
    "materialize) with its simulated cost as the duration; count carries "
    "the phase's unit count (checkpoint entries, replayed records, "
    "reconciled blocks).",
    ("phase", "count"),
)

# ---------------------------------------------------------------------------
# Placement (flash planes, shard routing)
# ---------------------------------------------------------------------------

declare_event(
    "flash.alloc", "flash", "per plane",
    "A free erase block was taken from a plane's pool and assigned a role "
    "(DATA or LOG).",
    ("pbn", "kind"),
)
declare_event(
    "flash.release", "flash", "per plane",
    "An erased block returned to its plane's free pool.",
    ("pbn",),
)
declare_event(
    "shard.route", "shard", "router",
    "The sharded array routed one request's logical block to its owning "
    "member device.",
    ("lbn", "shard"),
)
