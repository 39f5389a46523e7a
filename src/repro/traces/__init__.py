"""Workloads: columnar traces, synthetic generators, file I/O, analysis.

The paper evaluates on four production traces (Table 3): *homes* and
*mail* (FIU, write-heavy) and *usr* and *proj* (MSR Cambridge,
read-heavy).  Those traces are not redistributable, so this package
generates synthetic equivalents that preserve the properties the
paper's design arguments rest on: sparse region density (Fig. 1),
write fraction, overwrite skew, spatial clustering of hot blocks, and
sequential runs.  See DESIGN.md for the substitution rationale.
"""

from repro.traces.record import Trace, TraceRecord, OpKind
from repro.traces.zipf import ZipfSampler
from repro.traces.synthetic import (
    WorkloadProfile,
    SyntheticTrace,
    generate_trace,
    HOMES,
    MAIL,
    USR,
    PROJ,
    PROFILES,
)
from repro.traces.filefmt import read_trace, write_trace
from repro.traces.analyze import TraceStats, analyze

__all__ = [
    "Trace",
    "TraceRecord",
    "OpKind",
    "ZipfSampler",
    "WorkloadProfile",
    "SyntheticTrace",
    "generate_trace",
    "HOMES",
    "MAIL",
    "USR",
    "PROJ",
    "PROFILES",
    "read_trace",
    "write_trace",
    "TraceStats",
    "analyze",
]
