"""Synthetic workload generation calibrated to the paper's traces.

Table 3 characterizes the four evaluation workloads; Figure 1 shows how
sparsely their hot blocks cover the disk address space.  The production
traces themselves (FIU *homes*/*mail*, MSR *usr*/*proj*) are not
redistributable, so each profile here reproduces, at ~1/30 scale, the
properties the paper's arguments rest on:

* **Sparse region density** (Fig. 1): unique blocks are scattered over
  regions of the address space with a heavy-tailed density law, so most
  occupied regions hold under 1 % of their blocks while a few are dense.
* **Spatial clustering**: within a region, blocks are laid out as
  contiguous extents, giving the erase-block-level group density that
  block-level mapping and contiguous dirty-block cleaning exploit.
* **Popularity skew**: extents are ranked by a Zipf law (hot extents
  absorb most traffic; the paper finds hot blocks written ~4x more than
  average).  *mail*'s larger alpha reproduces its 3x-higher
  overwrites-per-block ratio versus *homes*.
* **Write fraction** per Table 3 (95.9 / 88.5 / 5.9 / 14.2 %).
* **Sequential runs**: a fraction of requests continue runs over
  contiguous blocks, as file- and mail-server traffic does.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.traces.record import Trace, TraceRecord
from repro.traces.zipf import ZipfSampler


@dataclass(frozen=True)
class WorkloadProfile:
    """Parameters of one synthetic workload."""

    name: str
    address_range_blocks: int
    unique_blocks: int
    total_ops: int
    write_fraction: float
    zipf_alpha: float = 1.0
    sequential_prob: float = 0.12
    run_length_mean: int = 8
    region_blocks: int = 1000          # Fig. 1 granularity, scaled from 100k
    region_density_alpha: float = 1.1  # heavy tail over region densities
    extent_max: int = 64
    # Optional Poisson arrival process for open-loop replay: mean request
    # rate in IOPS.  None (the default) generates untimed records, which
    # keeps existing profiles bit-identical.
    arrival_rate_iops: Optional[float] = None

    def __post_init__(self):
        if self.unique_blocks > self.address_range_blocks:
            raise ConfigError("unique_blocks cannot exceed the address range")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be in [0, 1]")
        if self.total_ops < 1 or self.unique_blocks < 1:
            raise ConfigError("total_ops and unique_blocks must be positive")
        if self.arrival_rate_iops is not None and self.arrival_rate_iops <= 0:
            raise ConfigError("arrival_rate_iops must be positive when set")

    def scaled(self, factor: float) -> "WorkloadProfile":
        """Return a proportionally smaller/larger profile (for tests).

        The Fig.-1 region granularity scales along with the address
        range so the density CDF keeps its shape across scales.
        """
        if factor <= 0:
            raise ConfigError("factor must be positive")
        return replace(
            self,
            address_range_blocks=max(1000, int(self.address_range_blocks * factor)),
            unique_blocks=max(64, int(self.unique_blocks * factor)),
            total_ops=max(256, int(self.total_ops * factor)),
            region_blocks=max(250, int(self.region_blocks * factor)),
        )

    def cache_blocks(self, fraction: float = 0.25) -> int:
        """Cache size for the top ``fraction`` most-accessed blocks,
        the paper's sizing rule (§6.1)."""
        return max(64, int(self.unique_blocks * fraction))


# Profiles scaled from Table 3 (ranges in 4 KB blocks; ops preserve the
# write fractions and the relative ops-per-unique-block ratios).
HOMES = WorkloadProfile(
    name="homes",
    address_range_blocks=500_000,
    unique_blocks=16_000,
    total_ops=120_000,
    write_fraction=0.959,
    zipf_alpha=1.05,
    sequential_prob=0.70,   # file-server traffic is file-granular
    run_length_mean=24,
)
MAIL = WorkloadProfile(
    name="mail",
    address_range_blocks=280_000,
    unique_blocks=24_000,
    total_ops=160_000,
    write_fraction=0.885,
    zipf_alpha=1.25,  # mail overwrites each block ~3x more than homes
    sequential_prob=0.60,   # message appends stream into mailbox files
    run_length_mean=16,
    region_density_alpha=1.6,  # mailboxes pack into few very dense regions
)
USR = WorkloadProfile(
    name="usr",
    address_range_blocks=520_000,
    unique_blocks=36_000,
    total_ops=100_000,
    write_fraction=0.059,
    zipf_alpha=0.90,
    sequential_prob=0.55,   # home-directory file scans
    run_length_mean=24,
)
PROJ = WorkloadProfile(
    name="proj",
    address_range_blocks=800_000,
    unique_blocks=32_000,
    total_ops=140_000,
    write_fraction=0.142,
    zipf_alpha=0.90,
    sequential_prob=0.60,   # project-tree scans and builds
    run_length_mean=24,
)

PROFILES: Dict[str, WorkloadProfile] = {
    profile.name: profile for profile in (HOMES, MAIL, USR, PROJ)
}


class SyntheticTrace:
    """A generated trace: block layout plus the request sequence."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        rng = random.Random(seed)
        self.extents = _place_extents(profile, rng)
        self.records: Trace = _generate_ops(profile, self.extents, rng)
        if profile.arrival_rate_iops is not None:
            # A separate, seed-derived RNG keeps the op/address stream
            # bit-identical with and without arrival timing.
            self.records.arrivals = _arrivals(
                profile.total_ops,
                profile.arrival_rate_iops,
                random.Random(f"arrivals:{seed}"),
            )

    @property
    def blocks(self) -> List[int]:
        """Every unique block of the layout, extent by extent."""
        return [
            lbn for start, length in self.extents for lbn in range(start, start + length)
        ]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)


def generate_trace(profile: WorkloadProfile, seed: int = 0) -> SyntheticTrace:
    """Generate a reproducible synthetic trace for ``profile``."""
    return SyntheticTrace(profile, seed)


# ----------------------------------------------------------------------
# Placement: heavy-tailed region densities, contiguous extents within.
# ----------------------------------------------------------------------

def _place_extents(
    profile: WorkloadProfile, rng: random.Random
) -> List[Tuple[int, int]]:
    """Lay out ``unique_blocks`` as extents over the address space.

    Regions receive block budgets proportional to 1/(i+1)^alpha over a
    random region order, reproducing Figure 1's skew: a few dense
    regions, a long tail of nearly-empty ones.
    """
    num_regions = max(1, profile.address_range_blocks // profile.region_blocks)
    order = list(range(num_regions))
    rng.shuffle(order)

    weights = [(i + 1) ** -profile.region_density_alpha for i in range(num_regions)]
    total_weight = sum(weights)

    # Reserve a small budget of isolated single-block regions — the
    # sparse tail of Figure 1.  Capped at ~2 % of the unique blocks so
    # the sparse singles never dominate cache behaviour.
    singles = min(num_regions // 2, max(4, profile.unique_blocks // 50))

    # Assign the rest over multiple passes: one pass can fall short when
    # the weight distribution concentrates more blocks into a region
    # than its cap allows (dense-trace profiles like mail).
    cap = max(1, int(profile.region_blocks * 0.8))
    budgets = [0] * num_regions
    remaining = profile.unique_blocks - singles
    while remaining > 0:
        progressed = False
        for rank in range(num_regions):
            if remaining <= 0:
                break
            share = int(round(profile.unique_blocks * weights[rank] / total_weight))
            add = min(share, cap - budgets[rank], remaining)
            if add > 0:
                budgets[rank] += add
                remaining -= add
                progressed = True
        if not progressed:
            break  # every region at cap; the address space is exhausted

    # Sprinkle the singles over otherwise-empty regions, tail first.
    for rank in range(num_regions - 1, -1, -1):
        if singles <= 0:
            break
        if budgets[rank] == 0:
            budgets[rank] = 1
            singles -= 1

    extents: List[Tuple[int, int]] = []
    for rank, region in enumerate(order):
        if budgets[rank] > 0:
            extents.extend(_extents_in_region(profile, region, budgets[rank], rng))
    return extents


def _extents_in_region(
    profile: WorkloadProfile, region: int, budget: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """Lay ``budget`` blocks into ``region`` as contiguous extents.

    Dense regions (large budgets) get large, tightly packed extents —
    file-server hot sets are clustered, which is what gives cached data
    the erase-block-group density that block-level mapping needs.
    Sparse regions get one small extent.
    """
    base = region * profile.region_blocks
    end = base + profile.region_blocks
    placed: List[Tuple[int, int]] = []
    if budget <= 16:
        start = base + rng.randrange(max(1, profile.region_blocks - budget))
        placed.append((start, budget))
        return placed

    # Dense regions: extents are laid out like file-system allocations —
    # aligned to 256 KB boundaries (64 blocks) and contiguous, so hot
    # files cover whole erase-block groups.
    align = 64
    cursor = base + rng.randrange(max(1, profile.region_blocks // (4 * align))) * align
    while budget > 0 and cursor < end:
        length = min(
            budget,
            rng.randint(1, max(1, profile.extent_max * 2 // align)) * align,
            end - cursor,
        )
        placed.append((cursor, length))
        budget -= length
        cursor += length
        if rng.random() < 0.3:  # occasional allocation gap
            cursor += align
    return placed


# ----------------------------------------------------------------------
# Request generation: Zipf over extents, runs within extents.
# ----------------------------------------------------------------------

def _generate_ops(
    profile: WorkloadProfile,
    extents: Sequence[Tuple[int, int]],
    rng: random.Random,
) -> Trace:
    sampler = ZipfSampler(len(extents), profile.zipf_alpha, rng)
    # Shuffle popularity ranks so hot extents are spread over the space.
    rank_to_extent = list(range(len(extents)))
    rng.shuffle(rank_to_extent)

    trace = Trace()
    remaining = profile.total_ops
    while remaining > 0:
        extent = extents[rank_to_extent[sampler.sample()]]
        start, length = extent
        is_write = rng.random() < profile.write_fraction
        if rng.random() < profile.sequential_prob:
            # A file access: streams from the extent's start (whole-file
            # read/rewrite) half the time, from a random offset otherwise.
            offset = 0 if rng.random() < 0.5 else rng.randrange(length)
            run = 1 + min(
                int(rng.expovariate(1.0 / profile.run_length_mean)),
                length - offset - 1,
            )
        else:
            offset = rng.randrange(length)
            run = 1
        run = min(run, remaining)
        trace.add_run(is_write, start + offset, run)
        remaining -= run
    return trace


def _arrivals(count: int, rate_iops: float, rng: random.Random) -> array:
    """``count`` Poisson arrival times, in microseconds.

    Exponential inter-arrival gaps at ``rate_iops`` mean requests per
    second.  Drawn from their own RNG, after the requests, so the
    op/address stream of a profile is bit-identical with and without
    arrivals.
    """
    rate_per_us = rate_iops / 1e6
    arrivals = array("d")
    arrival_us = 0.0
    for _ in range(count):
        arrival_us += rng.expovariate(rate_per_us)
        arrivals.append(arrival_us)
    return arrivals
