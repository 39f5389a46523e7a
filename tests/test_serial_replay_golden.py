"""Golden-file test pinning queue-depth-1 replay bit-for-bit.

``tests/golden/serial_replay.json`` was captured from the one-request-
at-a-time replay loop the event engine replaced.  For every pinned run
it holds the full ``ReplayStats.to_dict()``, sha256 digests of the
per-request latency and service samples and of the per-request
``(kind, hit, service_us)`` journal, the flash chip's page reads,
page writes and erases, the device write amplification, and a digest
of the sorted cached LBNs.  Every value is compared exactly, so any
drift in what ``replay_trace`` charges at queue depth 1 — timing,
hit/miss sequence, busy-time attribution or final device state — fails
here.

Regenerate (only for a reviewed change in simulated behaviour) with::

    PYTHONPATH=src python tests/test_serial_replay_golden.py
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system, replay_trace
from repro.traces.synthetic import HOMES, USR, generate_trace

GOLDEN = Path(__file__).parent / "golden" / "serial_replay.json"

ALL_COMBOS = [
    (kind, mode)
    for kind in (SystemKind.NATIVE, SystemKind.SSC, SystemKind.SSC_R)
    for mode in (CacheMode.WRITE_THROUGH, CacheMode.WRITE_BACK)
]


def _cases():
    """name -> (kind, mode, profile, scale, seed, warmup_fraction)."""
    cases = {}
    for kind, mode in ALL_COMBOS:
        tag = f"{kind.value}_{mode.value}"
        cases[f"homes_0.02_s11_w0.15_{tag}"] = (kind, mode, HOMES, 0.02, 11, 0.15)
        cases[f"homes_0.015_s11_w0_{tag}"] = (kind, mode, HOMES, 0.015, 11, 0.0)
    ssc_r_wb = (SystemKind.SSC_R, CacheMode.WRITE_BACK)
    cases["usr_0.02_s3_w0.15_ssc_r_wb"] = (*ssc_r_wb, USR, 0.02, 3, 0.15)
    cases["homes_0.015_s11_w0.5_ssc_wb"] = (
        SystemKind.SSC, CacheMode.WRITE_BACK, HOMES, 0.015, 11, 0.5)
    for kind, mode in [ssc_r_wb,
                       (SystemKind.SSC, CacheMode.WRITE_THROUGH),
                       (SystemKind.NATIVE, CacheMode.WRITE_BACK)]:
        cases[f"homes_0.03_s7_w0.15_{kind.value}_{mode.value}"] = (
            kind, mode, HOMES, 0.03, 7, 0.15)
    return cases


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _journal(manager, journal):
    """Record every request's (kind, hit, service time), in order."""
    original_read, original_write = manager.read, manager.write

    def read(lbn):
        data, completion = original_read(lbn)
        journal.append(("r", completion.hit, float(completion)))
        return data, completion

    def write(lbn, data):
        completion = original_write(lbn, data)
        journal.append(("w", completion.hit, float(completion)))
        return completion

    manager.read, manager.write = read, write


def run_case(kind, mode, profile, scale, seed, warmup_fraction):
    records = generate_trace(profile.scaled(scale), seed=seed).records
    system = build_system(SystemConfig(
        kind=kind, mode=mode, cache_blocks=2048, disk_blocks=50_000))
    journal = []
    _journal(system.manager, journal)
    stats = replay_trace(system.manager, records,
                         warmup_fraction=warmup_fraction, keep_latencies=True)
    chip = system.device.chip
    cached = (sorted(system.ssc.engine.iter_cached_lbns())
              if system.ssc is not None else [])
    return {
        "stats": stats.to_dict(),
        "latency_samples_sha256": _digest(stats.latency.samples),
        "service_samples_sha256": _digest(stats.service.samples),
        "journal_sha256": _digest(journal),
        "page_reads": chip.stats.page_reads,
        "page_writes": chip.stats.page_writes,
        "block_erases": chip.stats.block_erases,
        "write_amplification": system.device_stats.write_amplification(),
        "cached_lbns": len(cached),
        "cached_lbns_sha256": _digest(cached),
    }


def replay_cases():
    return {name: run_case(*case) for name, case in _cases().items()}


# Which golden fields each test compares: the run's statistics, the
# per-request sequence (samples and hit/miss journal), and the device
# state the run leaves behind.
ASPECTS = {
    "stats": ("stats",),
    "request_sequence": ("latency_samples_sha256", "service_samples_sha256",
                         "journal_sha256"),
    "device_state": ("page_reads", "page_writes", "block_erases",
                     "write_amplification", "cached_lbns",
                     "cached_lbns_sha256"),
}


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN.read_text())


@functools.lru_cache(maxsize=None)
def _replayed(name):
    """Replay one pinned case once, JSON round-tripped like the file."""
    return json.loads(json.dumps(run_case(*_cases()[name])))


def test_golden_file_covers_every_case():
    assert list(_golden()) == list(_cases())
    for name, entry in _golden().items():
        assert sorted(entry) == sorted(
            field for fields in ASPECTS.values() for field in fields), name


@pytest.mark.parametrize("aspect", list(ASPECTS))
@pytest.mark.parametrize("name", list(_cases()))
def test_serial_replay_matches_golden_file(name, aspect):
    golden, current = _golden()[name], _replayed(name)
    for field in ASPECTS[aspect]:
        assert current[field] == golden[field], (name, field)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(replay_cases(), indent=2) + "\n")
