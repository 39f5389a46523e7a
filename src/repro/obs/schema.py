"""Rendering the observability catalogs to Markdown.

``python -m repro obs schema -o docs/metrics.md`` regenerates the
reference documentation straight from the declarations
:mod:`repro.obs.events` and :mod:`repro.obs.catalog` hold; ``--check``
compares instead of writing, which is the CI drift gate: an event or
metric added, renamed or re-described in code fails CI until
``docs/metrics.md`` is regenerated and committed.
"""

from __future__ import annotations

from typing import List

from repro.obs.catalog import METRICS
from repro.obs.events import EVENT_TYPES

GENERATED_HEADER = (
    "<!-- GENERATED FILE - DO NOT EDIT BY HAND.\n"
    "     Regenerate with:  python -m repro obs schema -o docs/metrics.md -->\n"
)


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def metrics_markdown() -> str:
    """The full ``docs/metrics.md`` document as a string."""
    lines: List[str] = [
        GENERATED_HEADER,
        "# Trace events and metrics reference",
        "",
        "Every trace event and metric the simulator can emit, rendered",
        "from their declarations.  Events are declared in",
        "`repro/obs/events.py`.  A layer counter is declared once, as a",
        "`counter(...)` or `gauge(...)` field of the class that counts it",
        "(`ManagerStats`, `FTLStats`, `FlashStats`, `OperationLog`,",
        "`CheckpointStore`, `ReplayStats`); `repro/obs/catalog.py` maps",
        "each class to its name prefix and declares the few metrics that",
        "are not fields.  Declarations are the single source of truth: an",
        "undocumented event or metric cannot exist, and CI regenerates",
        "this file to catch drift.  See",
        "[observability.md](observability.md) for how to capture and",
        "read traces.",
        "",
        "## Trace events",
        "",
        "| Event | Category | Lane | Fields | Description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for spec in EVENT_TYPES.values():
        fields = ", ".join(f"`{field}`" for field in spec.fields) or "—"
        lines.append(
            f"| `{spec.name}` | {spec.category} | {_escape(spec.lane)} "
            f"| {fields} | {_escape(spec.description)} |"
        )
    lines += [
        "",
        "## Metrics",
        "",
        "| Metric | Kind | Description |",
        "| --- | --- | --- |",
    ]
    for entry in METRICS:
        name, kind, description = entry[0], entry[1], entry[2]
        if kind == "histogram":
            bounds = ", ".join(f"{bound:g}" for bound in entry[3])
            description = f"{description} Buckets (µs): {bounds}, +Inf."
        lines.append(f"| `{name}` | {kind} | {_escape(description)} |")
    lines.append("")
    return "\n".join(lines)
