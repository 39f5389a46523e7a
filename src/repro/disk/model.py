"""Disk model: the slow, high-capacity tier the cache fronts.

Table 1 of the paper puts disk access latency at 500-5000 us.  The model
here charges a full seek + rotational delay for random accesses and a
much smaller transfer-only cost when a request continues a sequential
run, which is what makes cache-miss-heavy and write-back-flush workloads
expensive in the same way they are in the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError, InvalidAddressError
from repro.sim.completion import DISK_RESOURCE, DeviceOp, OpRecorder


@dataclass(frozen=True)
class DiskTimingModel:
    """Latency parameters in microseconds.

    Defaults give ~2 ms random access (≈500 IOPS, the figure the paper
    uses for its cache-warming example) and ~100 MB/s sequential
    streaming.
    """

    seek_us: float = 1800.0        # average seek + settle
    rotation_us: float = 150.0     # average rotational delay remainder
    transfer_us: float = 40.0      # 4 KB at ~100 MB/s

    def __post_init__(self):
        for name in ("seek_us", "rotation_us", "transfer_us"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    def random_cost(self) -> float:
        return self.seek_us + self.rotation_us + self.transfer_us

    def sequential_cost(self) -> float:
        return self.transfer_us


@dataclass
class DiskStats:
    """Cumulative disk activity."""

    reads: int = 0
    writes: int = 0
    sequential_hits: int = 0


class Disk:
    """A block-addressable disk storing one payload object per block.

    Capacity is given in 4 KB blocks.  Contents are stored sparsely:
    unwritten blocks read back as ``None`` (zeroes).  The disk has one
    spindle: every access is an op on the ``"disk"`` resource, so the
    replay engine queues concurrent misses behind each other on that
    one timeline; the disk itself holds no time.
    """

    def __init__(
        self,
        capacity_blocks: int,
        timing: Optional[DiskTimingModel] = None,
    ):
        if capacity_blocks <= 0:
            raise ConfigError("capacity_blocks must be positive")
        self.capacity_blocks = capacity_blocks
        self.timing = timing or DiskTimingModel()
        self.stats = DiskStats()
        self.op_recorder = OpRecorder()
        self._data: Dict[int, Any] = {}
        self._head_at: Optional[int] = None  # block after the last access

    def _check(self, lbn: int) -> None:
        if not 0 <= lbn < self.capacity_blocks:
            raise InvalidAddressError(
                f"disk block {lbn} out of range [0, {self.capacity_blocks})"
            )

    def _access_cost(self, lbn: int) -> float:
        if self._head_at is not None and lbn == self._head_at:
            self.stats.sequential_hits += 1
            cost = self.timing.sequential_cost()
        else:
            cost = self.timing.random_cost()
        self._head_at = lbn + 1
        return cost

    def read(self, lbn: int) -> Tuple[Any, float]:
        """Read block ``lbn``; returns (data, cost_us)."""
        self._check(lbn)
        cost = self._access_cost(lbn)
        self.stats.reads += 1
        self.op_recorder.record(DeviceOp(DISK_RESOURCE, "read", cost))
        return self._data.get(lbn), cost

    def write(self, lbn: int, data: Any) -> float:
        """Write block ``lbn``; returns cost_us."""
        self._check(lbn)
        cost = self._access_cost(lbn)
        self.stats.writes += 1
        self.op_recorder.record(DeviceOp(DISK_RESOURCE, "write", cost))
        self._data[lbn] = data
        return cost

    def peek(self, lbn: int) -> Any:
        """Read contents without timing cost (test/verification helper)."""
        self._check(lbn)
        return self._data.get(lbn)

    def __repr__(self) -> str:
        return f"Disk(capacity={self.capacity_blocks} blocks, used={len(self._data)})"
